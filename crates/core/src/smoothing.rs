//! The smoothing operator `S̃` and its splitting (§4.3.2, Eq. 14).
//!
//! For `ξ = (U, V, Φ, p'_sa)`,
//! `S̃(ξ) = (P₁(U), P₁(V), P₂(Φ), P₂(p'_sa))` with
//!
//! ```text
//! P₁(φ) = φ − (β/2⁴)·δ⁴_λ φ
//! P₂(φ) = φ − (β/2⁴)·(δ⁴_λ + δ⁴_θ) φ + (β²/2⁸)·δ⁴_θ δ⁴_λ φ
//! ```
//!
//! where `δ⁴` is the five-point fourth difference.  Because each output is a
//! linear combination of the five latitude rows `j−2 … j+2`, `S̃` splits into
//! per-row contributions `S̃_l` (Eq. 14); the paper groups them into the
//! *former smoothing* (contributions available before the halo exchange)
//! and *later smoothing* (the rest, applied after messages arrive), which
//! fuses the smoothing communication into the next adaptation exchange.
//! [`smooth_rows`] implements the general row-mask form so the split
//! identity `S̃ = S̃_L + S̃'_L = S̃_R + S̃'_R` is testable literally.

use crate::geometry::{LocalGeometry, Region};
use crate::lanes::{lane_loop, Elem};
use crate::pool;
use crate::state::{State, StateBand};
#[cfg(test)]
use agcm_mesh::{Field2, Field3};

/// Fourth-difference coefficients for offsets −2..=+2.
const A4: [f64; 5] = [1.0, -4.0, 6.0, -4.0, 1.0];

/// Which of the five row contributions `S̃_{j+m}`, `m ∈ −2..=2`, to include.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMask(pub [bool; 5]);

impl RowMask {
    /// All five rows: the full smoothing.
    pub const FULL: RowMask = RowMask([true; 5]);
    /// `S̃_L = S̃_j + S̃_{j−1} + S̃_{j−2}` (own row + the two north of it).
    pub const L: RowMask = RowMask([true, true, true, false, false]);
    /// `S̃'_L = S̃_{j+1} + S̃_{j+2}`.
    pub const L_PRIME: RowMask = RowMask([false, false, false, true, true]);
    /// `S̃_R = S̃_j + S̃_{j+1} + S̃_{j+2}`.
    pub const R: RowMask = RowMask([false, false, true, true, true]);
    /// `S̃'_R = S̃_{j−1} + S̃_{j−2}`.
    pub const R_PRIME: RowMask = RowMask([true, true, false, false, false]);

    #[inline]
    fn has(&self, m: isize) -> bool {
        self.0[(m + 2) as usize]
    }
}

/// Five-point fourth difference on a row slice; `q` is the slice index of
/// the centre point.  Same expression order as `d4_lambda_f3`.
#[inline(always)]
fn d4_row<E: Elem>(r: &[f64], q: usize) -> E {
    E::load(r, q - 2) - E::splat(4.0) * E::load(r, q - 1) + E::splat(6.0) * E::load(r, q)
        - E::splat(4.0) * E::load(r, q + 1)
        + E::load(r, q + 2)
}

/// P₁ at one element: `o = r[q] − (β/16)·δ⁴_λ r` (or `+=` when `add`).
#[inline(always)]
fn p1_body<E: Elem>(ii: usize, o: &mut [f64], r: &[f64], b16: f64, add: bool) {
    let q = ii + 2;
    let v = E::load(r, q) - E::splat(b16) * d4_row::<E>(r, q);
    if add {
        (E::load(o, ii) + v).store(o, ii);
    } else {
        v.store(o, ii);
    }
}

/// P₂ at one element: the masked sum of the five row contributions, with
/// the same accumulation order and expression trees as the scalar
/// reference's `p2_contrib_*`.
#[inline(always)]
fn p2_body<E: Elem>(
    ii: usize,
    o: &mut [f64],
    rows: &[Option<&[f64]>; 5],
    b16: f64,
    b2: f64,
    add: bool,
) {
    let q = ii + 2;
    let mut v = E::splat(0.0);
    for (mi, row) in rows.iter().enumerate() {
        if let Some(r) = row {
            let a = A4[mi];
            let d4 = d4_row::<E>(r, q);
            let mut cv = E::splat(-b16 * a) * E::load(r, q) + E::splat(b2 * a) * d4;
            if mi == 2 {
                cv = cv + (E::load(r, q) - E::splat(b16) * d4);
            }
            v = v + cv;
        }
    }
    if add {
        (E::load(o, ii) + v).store(o, ii);
    } else {
        v.store(o, ii);
    }
}

#[cfg(test)]
#[inline]
fn d4_lambda_f3(f: &Field3, i: isize, j: isize, k: isize) -> f64 {
    f.get(i - 2, j, k) - 4.0 * f.get(i - 1, j, k) + 6.0 * f.get(i, j, k) - 4.0 * f.get(i + 1, j, k)
        + f.get(i + 2, j, k)
}

#[cfg(test)]
#[inline]
fn d4_lambda_f2(f: &Field2, i: isize, j: isize) -> f64 {
    f.get(i - 2, j) - 4.0 * f.get(i - 1, j) + 6.0 * f.get(i, j) - 4.0 * f.get(i + 1, j)
        + f.get(i + 2, j)
}

/// `P₁` applied to one 3-D field on `region` (x-only smoothing — U and V).
#[cfg(test)]
fn p1_field(beta: f64, src: &Field3, dst: &mut Field3, region: Region, nx: isize, mask: RowMask) {
    // P₁ has no y coupling: it belongs entirely to the m = 0 contribution
    let include = mask.has(0);
    let b16 = beta / 16.0;
    for k in region.z0..region.z1 {
        for j in region.y0..region.y1 {
            for i in 0..nx {
                let v = if include {
                    src.get(i, j, k) - b16 * d4_lambda_f3(src, i, j, k)
                } else {
                    0.0
                };
                dst.set(i, j, k, v);
            }
        }
    }
}

/// The `m`-row contribution of `P₂` at `(i, j)` (3-D).
#[cfg(test)]
#[inline]
fn p2_contrib_f3(beta: f64, src: &Field3, i: isize, j: isize, k: isize, m: isize) -> f64 {
    let b16 = beta / 16.0;
    let b2 = beta * beta / 256.0;
    let a = A4[(m + 2) as usize];
    let mut v = -b16 * a * src.get(i, j + m, k) + b2 * a * d4_lambda_f3(src, i, j + m, k);
    if m == 0 {
        v += src.get(i, j, k) - b16 * d4_lambda_f3(src, i, j, k);
    }
    v
}

#[cfg(test)]
#[inline]
fn p2_contrib_f2(beta: f64, src: &Field2, i: isize, j: isize, m: isize) -> f64 {
    let b16 = beta / 16.0;
    let b2 = beta * beta / 256.0;
    let a = A4[(m + 2) as usize];
    let mut v = -b16 * a * src.get(i, j + m) + b2 * a * d4_lambda_f2(src, i, j + m);
    if m == 0 {
        v += src.get(i, j) - b16 * d4_lambda_f2(src, i, j);
    }
    v
}

/// Write `Σ_{m ∈ mask} S̃_m(src)` into `dst` over `region`
/// (`add = true` accumulates instead — the "later smoothing" completion).
///
/// Preconditions: `src` valid two rows/columns beyond `region` in x and y
/// (wrap + exchange/boundary fill).
///
/// Row-sliced and banded by latitude over the intra-rank worker pool (each
/// band also sweeps its own `p'_sa` rows); bit-identical to
/// `smooth_rows_scalar` at any `AGCM_THREADS`.
pub fn smooth_rows(
    geom: &LocalGeometry,
    beta: f64,
    src: &State,
    dst: &mut State,
    region: Region,
    mask: RowMask,
    add: bool,
) {
    let cuts = pool::region_cuts(&region, geom.nx, |_| true);
    let whole = dst.band_mut(&region);
    pool::run(whole, &cuts, "smoothing.band", |band, y0, y1| {
        let rows = Region { y0, y1, ..region };
        smooth_band(geom, beta, src, band, rows, mask, add);
    });
}

/// Row-sliced smoothing sweep over one worker band.
///
/// Rows are fetched at `x ∈ [-2, nx+2)` (the δ⁴ stencil's full width), so
/// the slice index of logical point `i + d` is `ii + 2 + d`.  Only the
/// latitude rows selected by `mask` are touched, preserving the scalar
/// reference's read footprint exactly.
fn smooth_band(
    geom: &LocalGeometry,
    beta: f64,
    src: &State,
    band: &mut StateBand<'_>,
    region: Region,
    mask: RowMask,
    add: bool,
) {
    let StateBand {
        u: t_u,
        v: t_v,
        phi: t_phi,
        psa: t_psa,
    } = band;
    let nx = geom.nx as isize;
    let b16 = beta / 16.0;
    let b2 = beta * beta / 256.0;
    let include = mask.has(0);

    for k in region.z0..region.z1 {
        for j in region.y0..region.y1 {
            // U, V: P₁ (x only); accumulate semantics match the P₂ path
            if !add {
                for (src_f, dst_f) in [(&src.u, &mut *t_u), (&src.v, &mut *t_v)] {
                    let out = dst_f.row_mut(0, nx, j, k);
                    if include {
                        let r = src_f.row(-2, nx + 2, j, k);
                        lane_loop!(out.len(), E, ii, p1_body::<E>(ii, out, r, b16, false));
                    } else {
                        out.fill(0.0);
                    }
                }
            } else if include {
                for (src_f, dst_f) in [(&src.u, &mut *t_u), (&src.v, &mut *t_v)] {
                    let r = src_f.row(-2, nx + 2, j, k);
                    let out = dst_f.row_mut(0, nx, j, k);
                    lane_loop!(out.len(), E, ii, p1_body::<E>(ii, out, r, b16, true));
                }
            }

            // Φ: P₂ — sum the masked row contributions exactly as the
            // scalar reference's `p2_contrib_f3` does
            let rows: [Option<&[f64]>; 5] = std::array::from_fn(|mi| {
                mask.0[mi].then(|| src.phi.row(-2, nx + 2, j + (mi as isize - 2), k))
            });
            let out = t_phi.row_mut(0, nx, j, k);
            lane_loop!(out.len(), E, ii, p2_body::<E>(ii, out, &rows, b16, b2, add));
        }
    }

    // p'_sa: P₂ (2-D) on the band's own rows
    for j in region.y0..region.y1 {
        let rows: [Option<&[f64]>; 5] = std::array::from_fn(|mi| {
            mask.0[mi].then(|| src.psa.row(-2, nx + 2, j + (mi as isize - 2)))
        });
        let out = t_psa.row_mut(0, nx, j, 0);
        lane_loop!(out.len(), E, ii, p2_body::<E>(ii, out, &rows, b16, b2, add));
    }
}

/// Scalar per-point reference implementation, retained verbatim as the
/// golden reference for the bitwise-equivalence property tests.
#[cfg(test)]
pub fn smooth_rows_scalar(
    geom: &LocalGeometry,
    beta: f64,
    src: &State,
    dst: &mut State,
    region: Region,
    mask: RowMask,
    add: bool,
) {
    let nx = geom.nx as isize;
    // U, V: P₁ (x only); accumulate semantics match the P₂ path
    if !add {
        p1_field(beta, &src.u, &mut dst.u, region, nx, mask);
        p1_field(beta, &src.v, &mut dst.v, region, nx, mask);
    } else if mask.has(0) {
        for k in region.z0..region.z1 {
            for j in region.y0..region.y1 {
                for i in 0..nx {
                    let v = src.u.get(i, j, k) - beta / 16.0 * d4_lambda_f3(&src.u, i, j, k);
                    dst.u.add(i, j, k, v);
                    let v = src.v.get(i, j, k) - beta / 16.0 * d4_lambda_f3(&src.v, i, j, k);
                    dst.v.add(i, j, k, v);
                }
            }
        }
    }
    // Φ: P₂
    for k in region.z0..region.z1 {
        for j in region.y0..region.y1 {
            for i in 0..nx {
                let mut v = 0.0;
                for m in -2isize..=2 {
                    if mask.has(m) {
                        v += p2_contrib_f3(beta, &src.phi, i, j, k, m);
                    }
                }
                if add {
                    dst.phi.add(i, j, k, v);
                } else {
                    dst.phi.set(i, j, k, v);
                }
            }
        }
    }
    // p'_sa: P₂ (2-D)
    for j in region.y0..region.y1 {
        for i in 0..nx {
            let mut v = 0.0;
            for m in -2isize..=2 {
                if mask.has(m) {
                    v += p2_contrib_f2(beta, &src.psa, i, j, m);
                }
            }
            if add {
                dst.psa.add(i, j, v);
            } else {
                dst.psa.set(i, j, v);
            }
        }
    }
}

/// Full smoothing `dst = S̃(src)` over `region`.
pub fn smooth_full(geom: &LocalGeometry, beta: f64, src: &State, dst: &mut State, region: Region) {
    smooth_rows(geom, beta, src, dst, region, RowMask::FULL, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary;
    use crate::config::ModelConfig;
    use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
    use std::sync::Arc;

    fn setup() -> (LocalGeometry, State) {
        let cfg = ModelConfig::test_small();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let geom = LocalGeometry::new(&cfg, Arc::clone(&grid), &d, 0, HaloWidths::uniform(3));
        let mut state = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    let x = (i as f64 * 1.1 + j as f64 * 0.7 + k as f64 * 0.3).sin();
                    state.u.set(i, j, k, 10.0 * x);
                    state.v.set(i, j, k, 5.0 * (x * 2.0).cos());
                    state.phi.set(i, j, k, 20.0 * (x * 3.0).sin());
                }
            }
        }
        for j in 0..geom.ny as isize {
            for i in 0..geom.nx as isize {
                state.psa.set(i, j, ((i * 3 + j * 5) % 7) as f64 * 10.0);
            }
        }
        boundary::enforce_pole_v(&mut state, &geom);
        boundary::fill_boundaries(&mut state, &geom);
        (geom, state)
    }

    const BETA: f64 = 0.1;

    #[test]
    fn constant_field_is_fixed_point() {
        let (geom, _) = setup();
        let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        // constant everywhere (δ⁴ annihilates constants)
        st.u.fill(3.0);
        st.v.fill(-2.0);
        st.phi.fill(7.0);
        st.psa.fill(1.5);
        let mut out = State::like(&st);
        smooth_full(&geom, BETA, &st, &mut out, geom.interior());
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    assert!((out.u.get(i, j, k) - 3.0).abs() < 1e-12);
                    assert!((out.phi.get(i, j, k) - 7.0).abs() < 1e-12);
                }
            }
        }
        for j in 0..geom.ny as isize {
            assert!((out.psa.get(2, j) - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn damps_grid_scale_noise() {
        let (geom, _) = setup();
        let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        // 2Δx checkerboard in x, the mode δ⁴λ is built to kill:
        // δ⁴((−1)^i) = 16(−1)^i → P₁ multiplies by (1 − β)
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    st.u.set(i, j, k, if i % 2 == 0 { 1.0 } else { -1.0 });
                }
            }
        }
        st.wrap_x();
        let mut out = State::like(&st);
        smooth_full(&geom, BETA, &st, &mut out, geom.interior());
        for i in 0..geom.nx as isize {
            let want = (1.0 - BETA) * st.u.get(i, 3, 1);
            assert!((out.u.get(i, 3, 1) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn p2_matches_operator_composition() {
        // P₂ = (1 − β/16 δ⁴θ)(1 − β/16 δ⁴λ) expanded; verify against a
        // direct two-pass computation on Φ
        let (geom, st) = setup();
        let mut out = State::like(&st);
        smooth_full(&geom, BETA, &st, &mut out, geom.interior());
        // two-pass reference at an interior point
        let (i, j, k) = (5isize, 4isize, 2isize);
        // pass 1: ψ = φ − β/16 δ⁴λ φ on rows j−2..j+2
        let psi = |jj: isize| st.phi.get(i, jj, k) - BETA / 16.0 * d4_lambda_f3(&st.phi, i, jj, k);
        let d4t: f64 = (-2..=2).map(|m| A4[(m + 2) as usize] * psi(j + m)).sum();
        let want = psi(j) - BETA / 16.0 * d4t;
        assert!(
            (out.phi.get(i, j, k) - want).abs() < 1e-12,
            "{} vs {want}",
            out.phi.get(i, j, k)
        );
    }

    #[test]
    fn split_identity_left() {
        // Eq. 14: S̃ = S̃_L + S̃'_L
        let (geom, st) = setup();
        let region = geom.interior();
        let mut full = State::like(&st);
        smooth_full(&geom, BETA, &st, &mut full, region);
        let mut split = State::like(&st);
        smooth_rows(&geom, BETA, &st, &mut split, region, RowMask::L, false);
        smooth_rows(&geom, BETA, &st, &mut split, region, RowMask::L_PRIME, true);
        assert!(full.max_abs_diff(&split) < 1e-12);
    }

    #[test]
    fn split_identity_right() {
        // Eq. 14: S̃ = S̃_R + S̃'_R
        let (geom, st) = setup();
        let region = geom.interior();
        let mut full = State::like(&st);
        smooth_full(&geom, BETA, &st, &mut full, region);
        let mut split = State::like(&st);
        smooth_rows(&geom, BETA, &st, &mut split, region, RowMask::R, false);
        smooth_rows(&geom, BETA, &st, &mut split, region, RowMask::R_PRIME, true);
        assert!(full.max_abs_diff(&split) < 1e-12);
    }

    #[test]
    fn five_single_rows_sum_to_full() {
        let (geom, st) = setup();
        let region = geom.interior();
        let mut full = State::like(&st);
        smooth_full(&geom, BETA, &st, &mut full, region);
        let mut acc = State::like(&st);
        for m in 0..5usize {
            let mut mask = [false; 5];
            mask[m] = true;
            smooth_rows(&geom, BETA, &st, &mut acc, region, RowMask(mask), m != 0);
        }
        assert!(full.max_abs_diff(&acc) < 1e-12);
    }

    #[test]
    fn smoothing_reduces_variance() {
        let (geom, st) = setup();
        let mut out = State::like(&st);
        smooth_full(&geom, BETA, &st, &mut out, geom.interior());
        let var = |f: &Field3| {
            let (nx, ny, nz) = f.extents();
            let mut mean = 0.0;
            let mut n = 0.0;
            for k in 0..nz as isize {
                for j in 0..ny as isize {
                    for i in 0..nx as isize {
                        mean += f.get(i, j, k);
                        n += 1.0;
                    }
                }
            }
            mean /= n;
            let mut v = 0.0;
            for k in 0..nz as isize {
                for j in 0..ny as isize {
                    for i in 0..nx as isize {
                        v += (f.get(i, j, k) - mean).powi(2);
                    }
                }
            }
            v / n
        };
        assert!(var(&out.phi) < var(&st.phi));
        assert!(var(&out.u) < var(&st.u));
    }
}
