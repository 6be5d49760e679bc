//! Diagnostic fields derived from the prognostic state.
//!
//! One [`Diag`] buffer is reused across sweeps; each operator application
//! recomputes the pieces it needs on the region it targets.  The split
//! follows the paper's operator decomposition:
//!
//! * `pes`, `cap_p` — pointwise surface diagnostics (`p_es = p̃_es + p'_sa`,
//!   `P = √(p_es/p₀)`),
//! * `dsa` and `D(P)` — the horizontal stencil terms `D_sa` and `D(P)` of
//!   Table 1 (local computation),
//! * `vsum`, `gw`, `phi_p` — the outputs of the **collective operator `C`**
//!   (vertical sum, the continuity mass flux `σ̇·p_es/p₀` at interfaces, and
//!   the hydrostatic geopotential deviation `φ'`), produced in
//!   [`crate::vertical`].
//!
//! `D(P)` is a temporary of one adaptation sub-update: `C` (or the cached-`C`
//! path, [`Diag::update_dp`]) writes it and the adaptation sweep reads it at
//! the same `(j, k)`.  An engine keeps it in the Φ rows of the sub-update's
//! output state, dead until the sweep stores row `(j, k)` over it.  `φ'` is
//! such a temporary too wherever every `C` runs fresh (the serial exact
//! iteration, Algorithm 1): `C` writes it into the output's U rows and the
//! sweep reads rows `j` and `j + 1` back before it stores row `j`.  So a
//! rank of those programs holds one 3-D diagnostic array, `gw`; a program
//! that reuses `C` (Eq. 13) keeps `φ'` as state in [`Diag::phi_p`] and holds
//! two.  Only the standalone entry points (`apply_c`, then
//! `adaptation_tendency`) use [`Diag::dp`].

use crate::geometry::{LocalGeometry, Region};
use crate::lanes::{lane_loop, row_loop, Elem};
use crate::state::State;
use crate::stdatm::StandardAtmosphere;
use agcm_mesh::grid::constants as c;
use agcm_mesh::Field3;

/// Scratch diagnostics for one rank.
#[derive(Debug, Clone)]
pub struct Diag {
    /// `p_es = p̃_es + p'_sa` (surface).
    pub pes: Field3,
    /// `P = √(p_es/p₀)` (surface).
    pub cap_p: Field3,
    /// `D_sa` — surface-pressure diffusion (surface).
    pub dsa: Field3,
    /// `D(P)` — transformed mass divergence (3-D) — of the standalone entry
    /// points: [`crate::vertical::apply_c`] writes it and
    /// [`crate::adaptation::adaptation_tendency`] reads it.  Empty until the
    /// first of them runs; an engine's sub-updates keep `D(P)` in their
    /// output's Φ rows and never size it.
    pub dp: Field3,
    /// `Σ_k Δσ_k D(P)` over **all** global levels (surface, from the
    /// collective).
    pub vsum: Field3,
    /// `g_w = σ̇·p_es/p₀` at interfaces: entry `k` holds interface `k−1/2`
    /// (3-D with `nz+1` levels).
    pub gw: Field3,
    /// Geopotential deviation `φ'` at level centres (3-D) — the cache of a
    /// program that reuses `C` and of the standalone entry points.  Empty
    /// until the first `C` that writes it runs, or until an integrator
    /// whose program reuses `C` is built (`Engine::keep_phi_p`); a program
    /// whose every `C` runs fresh keeps `φ'` in its sub-updates' output U
    /// rows and never sizes it.
    pub phi_p: Field3,
    /// Reusable scratch for [`crate::vertical::apply_c`]'s column sums —
    /// kept here so steady-state stepping allocates nothing.
    pub(crate) zscratch: ZScratch,
}

/// Column-sum scratch buffers for the `C` operator, borrowed apart from the
/// rest of [`Diag`] for the duration of an `apply_c` call, so the capacity
/// is reused across steps.  The four block-sum arrays are used under a z-split only; bands
/// split `run` and `phis` by rows along with the fields.
#[derive(Debug, Clone, Default)]
pub(crate) struct ZScratch {
    /// Per-column block sums (dp rows then φ'-integrand rows): the
    /// allgather payload.
    pub sums: Vec<f64>,
    /// Σ of blocks on lower-k ranks.
    pub prefix: Vec<f64>,
    /// Σ of blocks on higher-k ranks.
    pub suffix: Vec<f64>,
    /// Σ over all ranks.
    pub total: Vec<f64>,
    /// Running accumulators of the interface walks, a row per grown row.
    pub run: Vec<f64>,
    /// Surface geopotential deviation `φ'_s` of the φ' walk, likewise.
    pub phis: Vec<f64>,
}

/// `f`, a level-centred 3-D field of `geom`, allocated the first time —
/// the diagnostic arrays that are sized on first use.
pub(crate) fn sized<'a>(f: &'a mut Field3, geom: &LocalGeometry) -> &'a mut Field3 {
    if f.total_len() == 0 {
        *f = Field3::new(geom.nx, geom.ny, geom.nz, geom.halo);
    }
    f
}

/// `p_es = p̃_es + p'_sa` and `P = √(p_es/p₀)` at one element.
#[inline(always)]
fn surface_body<E: Elem>(ii: usize, pes: &mut [f64], cp: &mut [f64], psa: &[f64], pes_tilde: f64) {
    let p = E::splat(pes_tilde) + E::load(psa, ii);
    p.store(pes, ii);
    (p / E::splat(c::P_REF)).sqrt().store(cp, ii);
}

/// Per-row factors of [`dsa_row`]; each is a parenthesized subexpression
/// of `Diag::update_dsa_scalar`, so hoisting is bitwise-neutral.
struct DsaCoefs {
    dl2s2: f64,
    dt2s: f64,
    s_n: f64,
    s_s: f64,
}

/// `D_sa` at one element; rows fetched at `x ∈ [-1, nx+1)`.
#[inline(always)]
fn dsa_body<E: Elem>(ii: usize, o: &mut [f64], [p_n, p, p_s]: [&[f64]; 3], cf: &DsaCoefs) {
    let at = ii + 1;
    let q = E::load(p, at);
    let d2x = (E::load(p, at + 1) - E::splat(2.0) * q + E::load(p, at - 1)) / E::splat(cf.dl2s2);
    let dyn_ =
        (E::load(p_s, at) - q) * E::splat(cf.s_s) - (q - E::load(p_n, at)) * E::splat(cf.s_n);
    let d2y = dyn_ / E::splat(cf.dt2s);
    (E::splat(c::K_SA / c::P_REF) * (d2x + d2y) / E::splat(c::EARTH_RADIUS * c::EARTH_RADIUS))
        .store(o, ii);
}

/// `D_sa` of row `j` into `out` (`x ∈ [0, nx)`).
pub(crate) fn dsa_row(geom: &LocalGeometry, psa: &Field3, j: isize, out: &mut [f64]) {
    let nx = geom.nx as isize;
    let (dl, dt, s) = (geom.dlambda(), geom.dtheta(), geom.sin_c(j));
    let cf = DsaCoefs {
        dl2s2: dl * dl * s * s,
        dt2s: dt * dt * s,
        s_n: geom.sin_v(j - 1), // face between j-1 and j
        s_s: geom.sin_v(j),     // face between j and j+1
    };
    let rows = [-1, 0, 1].map(|m| psa.row(-1, nx + 1, j + m, 0));
    lane_loop!(out.len(), E, ii, dsa_body::<E>(ii, out, rows, &cf));
}

/// Input rows of one `D(P)` row, fetched at `x ∈ [-xe-1, nx+xe+1)`.
struct DpRows<'a> {
    u: &'a [f64],
    v_n: &'a [f64],
    v: &'a [f64],
    cp_n: &'a [f64],
    cp: &'a [f64],
    cp_s: &'a [f64],
    sv_n: f64,
    sv_s: f64,
    dl: f64,
    dt: f64,
    a_s: f64,
}

/// `D(P)` at one element — the C-grid flux form of
/// `Diag::update_dp_scalar`, same expression tree.
#[inline(always)]
fn dp_body<E: Elem>(ii: usize, o: &mut [f64], r: &DpRows<'_>) {
    let at = ii + 1;
    let half = E::splat(0.5);
    // PU at x faces i∓1/2 (U index i, i+1)
    let pu_w = E::load(r.u, at) * half * (E::load(r.cp, at - 1) + E::load(r.cp, at));
    let pu_e = E::load(r.u, at + 1) * half * (E::load(r.cp, at) + E::load(r.cp, at + 1));
    // PV·sinθ at y faces j∓1/2 (V index j-1, j)
    let pv_n =
        E::load(r.v_n, at) * half * (E::load(r.cp_n, at) + E::load(r.cp, at)) * E::splat(r.sv_n);
    let pv_s =
        E::load(r.v, at) * half * (E::load(r.cp, at) + E::load(r.cp_s, at)) * E::splat(r.sv_s);
    (((pu_e - pu_w) / E::splat(r.dl) + (pv_s - pv_n) / E::splat(r.dt)) / E::splat(r.a_s))
        .store(o, ii);
}

/// `D(P)` of row `(j, k)` into `out` (`x ∈ [-xe, nx+xe)`).
pub(crate) fn dp_row(
    geom: &LocalGeometry,
    state: &State,
    cap_p: &Field3,
    (j, k): (isize, isize),
    xe: isize,
    out: &mut [f64],
) {
    let (x0, x1) = (-xe - 1, geom.nx as isize + xe + 1);
    let r = DpRows {
        u: state.u.row(x0, x1, j, k),
        v_n: state.v.row(x0, x1, j - 1, k),
        v: state.v.row(x0, x1, j, k),
        cp_n: cap_p.row(x0, x1, j - 1, 0),
        cp: cap_p.row(x0, x1, j, 0),
        cp_s: cap_p.row(x0, x1, j + 1, 0),
        sv_n: geom.sin_v(j - 1),
        sv_s: geom.sin_v(j),
        dl: geom.dlambda(),
        dt: geom.dtheta(),
        a_s: c::EARTH_RADIUS * geom.sin_c(j),
    };
    // three divisions a point and little else: the plain row loop already
    // runs at division throughput (the compiler packs it).  The explicit
    // lane bundles cost 15 % on top under baseline SSE2 (0.97 → 1.14 ms on
    // the 180×90×30 mesh) and nothing resolvable in the host-ISA build
    // (`lane_loop!` here: 0.992× on `mid_serial`, 4 pairs of 10;
    // EXPERIMENTS.md "Build for the host ISA"), so the incumbent stays
    row_loop!(out.len(), E, ii, dp_body::<E>(ii, out, &r));
}

impl Diag {
    /// Allocate diagnostics matching the shape of `geom`'s state fields.
    pub fn new(geom: &LocalGeometry) -> Self {
        let (nx, ny, nz) = (geom.nx, geom.ny, geom.nz);
        let h = geom.halo;
        Diag {
            pes: Field3::surface(nx, ny, h),
            cap_p: Field3::surface(nx, ny, h),
            dsa: Field3::surface(nx, ny, h),
            dp: Field3::default(),
            vsum: Field3::surface(nx, ny, h),
            gw: Field3::new(nx, ny, nz + 1, h),
            phi_p: Field3::default(),
            zscratch: ZScratch::default(),
        }
    }

    /// Compute `p_es` and `P` from `p'_sa` on rows `[y0, y1)`, over the
    /// full x range *including the x halo* (pointwise — `p'_sa`'s x halo is
    /// valid by wrap or exchange, so the surface diagnostics need neither).
    pub fn update_surface(
        &mut self,
        geom: &LocalGeometry,
        stdatm: &StandardAtmosphere,
        state: &State,
        y0: isize,
        y1: isize,
    ) {
        let x0 = -(geom.halo.xm as isize);
        let x1 = geom.nx as isize + geom.halo.xp as isize;
        for j in y0..y1 {
            let psa = state.psa.row(x0, x1, j, 0);
            let pes = self.pes.row_mut(x0, x1, j, 0);
            let cp = self.cap_p.row_mut(x0, x1, j, 0);
            lane_loop!(pes.len(), E, ii, {
                surface_body::<E>(ii, pes, cp, psa, stdatm.pes_tilde)
            });
            debug_assert!(pes.iter().all(|&p| p > 0.0), "p_es must stay positive");
        }
    }

    /// Compute `D_sa = ∇·(ρ̃_sa k_sa ∇(p'_sa/(ρ̃_sa p₀)))` (Eq. 6) on rows
    /// `[y0, y1)`.  With constant `ρ̃_sa` this is `k_sa/p₀` times the
    /// spherical Laplacian of `p'_sa` — a 5-point stencil (Table 1's `D_sa`
    /// row: x: i, i±1; y: j, j±1).
    pub fn update_dsa(&mut self, geom: &LocalGeometry, state: &State, y0: isize, y1: isize) {
        let nx = geom.nx as isize;
        for j in y0..y1 {
            let out = self.dsa.row_mut(0, nx, j, 0);
            dsa_row(geom, &state.psa, j, out);
        }
    }

    /// Compute the transformed divergence
    /// `D(P) = (1/(a sin θ)) [∂(PU)/∂λ + ∂(PV sin θ)/∂θ]`
    /// of `state` on `region` into `out` — the C-grid flux form whose reads
    /// sit inside Table 1's `D(P)` footprint.  `xe` extends the x range into
    /// the halo (used by X-Y decompositions, where the x halo is exchanged
    /// rather than wrapped).  The cached-`C` sub-update passes its output's
    /// Φ field: it writes nothing else there before its sweep reads row
    /// `(j, k)` back and stores the row's update over it.
    pub fn update_dp(
        &self,
        geom: &LocalGeometry,
        state: &State,
        region: Region,
        xe: isize,
        out: &mut Field3,
    ) {
        let (x0, x1) = (-xe, geom.nx as isize + xe);
        for k in region.z0..region.z1 {
            for j in region.y0..region.y1 {
                let row = out.row_mut(x0, x1, j, k);
                dp_row(geom, state, &self.cap_p, (j, k), xe, row);
            }
        }
    }

    /// Take the standalone entry points' `D(P)` out of `self` (for a
    /// disjoint borrow; put it back after), sized the first time.
    pub(crate) fn take_dp(&mut self, geom: &LocalGeometry) -> Field3 {
        std::mem::take(sized(&mut self.dp, geom))
    }

    /// Per-point reference of [`Self::update_dsa`], retained verbatim for
    /// the bitwise oracle `crate::vertical::apply_c_scalar`.
    #[cfg(test)]
    pub fn update_dsa_scalar(&mut self, geom: &LocalGeometry, state: &State, y0: isize, y1: isize) {
        let nx = geom.nx as isize;
        let a = c::EARTH_RADIUS;
        let dl = geom.dlambda();
        let dt = geom.dtheta();
        let coef = c::K_SA / c::P_REF;
        for j in y0..y1 {
            let s = geom.sin_c(j);
            let s_n = geom.sin_v(j - 1); // face between j-1 and j
            let s_s = geom.sin_v(j); // face between j and j+1
            for i in 0..nx {
                let q = state.psa.get(i, j, 0);
                let d2x = (state.psa.get(i + 1, j, 0) - 2.0 * q + state.psa.get(i - 1, j, 0))
                    / (dl * dl * s * s);
                let dyn_ =
                    (state.psa.get(i, j + 1, 0) - q) * s_s - (q - state.psa.get(i, j - 1, 0)) * s_n;
                let d2y = dyn_ / (dt * dt * s);
                self.dsa.set(i, j, 0, coef * (d2x + d2y) / (a * a));
            }
        }
    }

    /// Per-point reference of [`Self::update_dp`], retained verbatim for
    /// the bitwise oracle `crate::vertical::apply_c_scalar`.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub fn update_dp_scalar(
        &mut self,
        geom: &LocalGeometry,
        state: &State,
        y0: isize,
        y1: isize,
        z0: isize,
        z1: isize,
        xe: isize,
    ) {
        let a = c::EARTH_RADIUS;
        let dl = geom.dlambda();
        let dt = geom.dtheta();
        let (x0, x1) = (-xe, geom.nx as isize + xe);
        for k in z0..z1 {
            for j in y0..y1 {
                let s = geom.sin_c(j);
                let sv_n = geom.sin_v(j - 1);
                let sv_s = geom.sin_v(j);
                for i in x0..x1 {
                    // PU at x faces i∓1/2 (U index i, i+1)
                    let pu_w = state.u.get(i, j, k)
                        * 0.5
                        * (self.cap_p.get(i - 1, j, 0) + self.cap_p.get(i, j, 0));
                    let pu_e = state.u.get(i + 1, j, k)
                        * 0.5
                        * (self.cap_p.get(i, j, 0) + self.cap_p.get(i + 1, j, 0));
                    // PV·sinθ at y faces j∓1/2 (V index j-1, j)
                    let pv_n = state.v.get(i, j - 1, k)
                        * 0.5
                        * (self.cap_p.get(i, j - 1, 0) + self.cap_p.get(i, j, 0))
                        * sv_n;
                    let pv_s = state.v.get(i, j, k)
                        * 0.5
                        * (self.cap_p.get(i, j, 0) + self.cap_p.get(i, j + 1, 0))
                        * sv_s;
                    let div = ((pu_e - pu_w) / dl + (pv_s - pv_n) / dt) / (a * s);
                    self.dp.set(i, j, k, div);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary;
    use crate::config::ModelConfig;
    use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
    use std::sync::Arc;

    fn setup() -> (LocalGeometry, StandardAtmosphere, State, Diag) {
        let cfg = ModelConfig::test_small();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let geom = LocalGeometry::new(&cfg, Arc::clone(&grid), &d, 0, HaloWidths::uniform(3));
        let sa = StandardAtmosphere::new(&grid);
        let state = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        let diag = Diag::new(&geom);
        (geom, sa, state, diag)
    }

    #[test]
    fn surface_diag_of_rest_state() {
        let (geom, sa, state, mut diag) = setup();
        diag.update_surface(&geom, &sa, &state, 0, geom.ny as isize);
        // p'_sa = 0 → p_es = p̃_es, P = √(p̃_es/p₀) slightly below 1
        let p = diag.cap_p.get(3, 3, 0);
        assert!((diag.pes.get(3, 3, 0) - sa.pes_tilde).abs() < 1e-9);
        assert!(p < 1.0 && p > 0.99);
        // x halo wrapped
        assert_eq!(
            diag.pes.get(-1, 2, 0),
            diag.pes.get(geom.nx as isize - 1, 2, 0)
        );
    }

    #[test]
    fn dsa_is_zero_for_constant_psa_and_negative_for_peak() {
        let (geom, sa, mut state, mut diag) = setup();
        let ny = geom.ny as isize;
        // constant p'_sa → Laplacian 0
        for j in 0..ny {
            for i in 0..geom.nx as isize {
                state.psa.set(i, j, 0, 50.0);
            }
        }
        boundary::fill_boundaries(&mut state, &geom);
        diag.update_surface(&geom, &sa, &state, 0, ny);
        diag.update_dsa(&geom, &state, 0, ny);
        for j in 0..ny {
            for i in 0..geom.nx as isize {
                assert!(diag.dsa.get(i, j, 0).abs() < 1e-18, "({i},{j})");
            }
        }
        // a single positive bump diffuses down: D_sa < 0 at the peak
        state.psa.set(8, 5, 0, 150.0);
        boundary::fill_boundaries(&mut state, &geom);
        diag.update_dsa(&geom, &state, 0, ny);
        assert!(diag.dsa.get(8, 5, 0) < 0.0);
        assert!(diag.dsa.get(7, 5, 0) > 0.0, "neighbours gain mass");
    }

    #[test]
    fn dp_zero_for_rest_and_sign_for_divergent_flow() {
        let (geom, sa, mut state, mut diag) = setup();
        let (nx, ny) = (geom.nx as isize, geom.ny as isize);
        boundary::fill_boundaries(&mut state, &geom);
        diag.update_surface(&geom, &sa, &state, -1, ny + 1);
        let mut dp = Field3::like(&state.phi);
        diag.update_dp(&geom, &state, geom.interior(), 0, &mut dp);
        for j in 0..ny {
            for i in 0..nx {
                assert_eq!(dp.get(i, j, 0), 0.0);
            }
        }
        // a lone positive U at face i=5 creates divergence at i=4, conv at 5
        state.u.set(5, 4, 1, 10.0);
        boundary::fill_boundaries(&mut state, &geom);
        diag.update_dp(&geom, &state, geom.interior(), 0, &mut dp);
        assert!(dp.get(4, 4, 1) > 0.0);
        assert!(dp.get(5, 4, 1) < 0.0);
        assert_eq!(dp.get(4, 4, 0), 0.0, "other levels untouched");
    }

    #[test]
    fn dp_conserves_global_mass_weighted_sum() {
        // flux-form divergence: Σ_ij D(P)·a²·sinθ·ΔλΔθ = 0 (periodic x,
        // vanishing fluxes at the poles)
        let (geom, sa, mut state, mut diag) = setup();
        let (nx, ny) = (geom.nx as isize, geom.ny as isize);
        // arbitrary smooth winds
        for k in 0..geom.nz as isize {
            for j in 0..ny {
                for i in 0..nx {
                    let x = i as f64 / nx as f64 * std::f64::consts::TAU;
                    state.u.set(i, j, k, (x * 2.0).sin() + 0.3);
                    state.v.set(i, j, k, (x + j as f64).cos());
                }
            }
        }
        crate::boundary::enforce_pole_v(&mut state, &geom);
        boundary::fill_boundaries(&mut state, &geom);
        diag.update_surface(&geom, &sa, &state, -1, ny + 1);
        let mut dp = Field3::like(&state.phi);
        let level0 = Region {
            z1: 1,
            ..geom.interior()
        };
        diag.update_dp(&geom, &state, level0, 0, &mut dp);
        let mut total = 0.0;
        for j in 0..ny {
            total += dp.row(0, nx, j, 0).iter().sum::<f64>() * geom.sin_c(j);
        }
        let scale: f64 = (0..ny).map(|j| geom.sin_c(j)).sum::<f64>() * nx as f64;
        assert!(
            total.abs() / scale < 1e-12,
            "global mass tendency {total} not ~0"
        );
    }
}
