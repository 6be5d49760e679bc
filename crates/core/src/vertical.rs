//! The collective operator `C` — all z-direction global computation.
//!
//! The paper writes `Ã = Ĉ + Â`, with `Ĉ` "a summation function along the
//! z direction" that owns the collective communication of the adaptation
//! process.  In this implementation `Ĉ` produces every z-global diagnostic
//! the tendencies read:
//!
//! * `vsum = Σ_k Δσ_k D(P)` — the vertical sum of the paper's fourth
//!   equation (surface-pressure tendency),
//! * `g_w(σ) = σ·vsum − ∫₀^σ D(P) dσ'` — the continuity mass flux
//!   `σ̇·p_es/p₀` at interfaces (zero at the model top and surface by
//!   construction),
//! * `φ'` — the hydrostatic geopotential deviation,
//!   `∂φ'/∂σ = −bΦ/(Pσ)`, integrated up from the surface where
//!   `φ'_s = R·T̃_s·p'_sa/p̃_s`.
//!
//! Under a z-decomposed process grid all three reduce to *one* allgather of
//! per-rank column partial sums on the z-axis communicator (plus local
//! prefix/suffix walks), so one `C` application = one collective event —
//! matching the paper's counting, where the approximate nonlinear iteration
//! drops `C` executions from 3 to 2 per iteration (§4.2.2) and the cost
//! attains the `Ω(2(p_z−1)·n_x·n_y)` bound of Theorem 4.2.

use crate::diag::Diag;
use crate::geometry::{LocalGeometry, Region};
use crate::lanes::{Elem, KernelPath};
use crate::state::State;
use crate::stdatm::StandardAtmosphere;
use agcm_comm::{CommResult, Communicator};
use agcm_mesh::grid::constants as c;

/// `s[ii] += a·d[ii]` — the block-sum / running-walk accumulation.
#[inline(always)]
fn axpy_body<E: Elem>(ii: usize, s: &mut [f64], a: f64, d: &[f64]) {
    (E::load(s, ii) + E::splat(a) * E::load(d, ii)).store(s, ii);
}

/// `s[ii] -= a·d[ii]`.
#[inline(always)]
fn axmy_body<E: Elem>(ii: usize, s: &mut [f64], a: f64, d: &[f64]) {
    (E::load(s, ii) - E::splat(a) * E::load(d, ii)).store(s, ii);
}

/// The φ'-integrand `c_l = b·Φ·Δσ/(P·σ)` — same expression tree as the
/// scalar reference's `integrand`.
#[inline(always)]
fn integrand_at<E: Elem>(phi: &[f64], cp: &[f64], ds: f64, sigc: f64, ii: usize) -> E {
    E::splat(c::B_GRAVITY_WAVE) * E::load(phi, ii) * E::splat(ds)
        / (E::load(cp, ii) * E::splat(sigc))
}

/// `o[ii] = σ_{k−1/2}·vsum[ii] − run[ii]` — the g_w interface value.
#[inline(always)]
fn gw_body<E: Elem>(ii: usize, o: &mut [f64], gk: f64, vs: &[f64], run: &[f64]) {
    (E::splat(gk) * E::load(vs, ii) - E::load(run, ii)).store(o, ii);
}

/// `o[ii] = (R·T̃_s)·p'_sa/p̃_s` — the surface geopotential deviation `φ'_s`
/// (`R·T̃_s` is a complete left subexpression of the scalar tree, so its
/// pre-multiplication is bitwise-neutral).
#[inline(always)]
fn phis_body<E: Elem>(ii: usize, o: &mut [f64], rt: f64, psa: &[f64], ps: f64) {
    (E::splat(rt) * E::load(psa, ii) / E::splat(ps)).store(o, ii);
}

/// One level of the φ' walk in a single pass: the integrand `c_k`,
/// `o[ii] = φ'_s + c_k/2 + run`, then `run += c_k` for the level above.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn phip_body<E: Elem>(
    ii: usize,
    o: &mut [f64],
    phis: &[f64],
    phi: &[f64],
    cp: &[f64],
    ds: f64,
    sigc: f64,
    run: &mut [f64],
) {
    let ck = integrand_at::<E>(phi, cp, ds, sigc, ii);
    let r = E::load(run, ii);
    (E::load(phis, ii) + E::splat(0.5) * ck + r).store(o, ii);
    (r + ck).store(run, ii);
}

/// How the z-direction global sums are realized.
pub enum ZContext<'a> {
    /// Single rank owns the whole column (serial, X-Y or Y-only splits).
    Serial,
    /// Columns are split over the ranks of this z-axis communicator.
    Parallel(&'a Communicator),
}

impl ZContext<'_> {
    /// Number of ranks sharing each column.
    pub fn size(&self) -> usize {
        match self {
            ZContext::Serial => 1,
            ZContext::Parallel(c) => c.size(),
        }
    }
}

/// Apply the operator `C` for an evaluation state `arg`: fill `diag.dsa`,
/// `diag.dp`, `diag.vsum`, `diag.gw` and `diag.phi_p`.
///
/// * `region` — the sweep's target region.  `dsa`, `dp`, `vsum` and `gw`
///   are produced on it; `φ'` on the region grown by one latitude row (the
///   pressure-gradient stencils read `φ'` at `j±1`).
/// * Requires `arg`'s halos valid one row/level beyond `region` and the
///   surface diagnostics (`pes`, `cap_p`) already updated on the grown
///   rows (see [`Diag::update_surface`]).
///
/// All ranks of the z communicator must call this collectively with the
/// same y-extent (they share the same y-range by construction of the
/// cartesian decomposition).
///
/// Row-sliced with all column-sum buffers drawn from `diag`'s persistent
/// scratch, so a steady-state serial call allocates nothing; bit-identical
/// to [`apply_c_scalar`].
pub fn apply_c(
    geom: &LocalGeometry,
    stdatm: &StandardAtmosphere,
    arg: &State,
    diag: &mut Diag,
    region: Region,
    zctx: &ZContext<'_>,
    wrap_x: bool,
) -> CommResult<()> {
    apply_c_path(
        geom,
        stdatm,
        arg,
        diag,
        region,
        zctx,
        wrap_x,
        KernelPath::build_default(),
    )
}

/// [`apply_c`] forced onto the explicit-lane path.
#[allow(clippy::too_many_arguments)]
pub fn apply_c_lanes(
    geom: &LocalGeometry,
    stdatm: &StandardAtmosphere,
    arg: &State,
    diag: &mut Diag,
    region: Region,
    zctx: &ZContext<'_>,
    wrap_x: bool,
) -> CommResult<()> {
    apply_c_path(
        geom,
        stdatm,
        arg,
        diag,
        region,
        zctx,
        wrap_x,
        KernelPath::Lanes,
    )
}

/// [`apply_c`] forced onto the scalar-row path.
#[allow(clippy::too_many_arguments)]
pub fn apply_c_rows(
    geom: &LocalGeometry,
    stdatm: &StandardAtmosphere,
    arg: &State,
    diag: &mut Diag,
    region: Region,
    zctx: &ZContext<'_>,
    wrap_x: bool,
) -> CommResult<()> {
    apply_c_path(
        geom,
        stdatm,
        arg,
        diag,
        region,
        zctx,
        wrap_x,
        KernelPath::Rows,
    )
}

/// [`apply_c`] on an explicit kernel path — the runtime dispatch point
/// the engine's `set_kernel_path` toggle routes through.
#[allow(clippy::too_many_arguments)]
pub fn apply_c_path(
    geom: &LocalGeometry,
    stdatm: &StandardAtmosphere,
    arg: &State,
    diag: &mut Diag,
    region: Region,
    zctx: &ZContext<'_>,
    wrap_x: bool,
    path: KernelPath,
) -> CommResult<()> {
    // the whole of C — the nested allgather inherits Phase::C
    let _c = agcm_obs::span_phase(agcm_obs::SpanKind::Op, agcm_obs::Phase::C, "apply_c");
    let nx = geom.nx as isize;
    let nz = geom.nz as isize;
    // X-Y decompositions exchange (not wrap) the x halo, so the C outputs
    // must be computed one x column into the halo; their z collectives are
    // serial there (p_z = 1), so the extended width never reaches an
    // allgather.
    let xe: isize = if wrap_x { 0 } else { 1 };
    debug_assert!(
        wrap_x || matches!(zctx, ZContext::Serial),
        "3-D decompositions (split x AND z) are not supported"
    );
    // φ' needs one extra row on each side (clamped to the allocation)
    let gy0 = (region.y0 - 1).max(-(geom.halo.ym as isize));
    let gy1 = (region.y1 + 1).min(geom.ny as isize + geom.halo.yp as isize);

    // --- local stencil diagnostics -------------------------------------
    diag.update_dsa(geom, arg, region.y0, region.y1);
    diag.update_dp(geom, arg, region.y0, region.y1, region.z0, region.z1, xe);

    // scratch lives in `diag` across calls; taken out for disjoint borrows
    // (`Default` leaves empty Vecs behind — no allocation either way)
    let mut zs = std::mem::take(&mut diag.zscratch);

    // --- per-column block sums over OWNED levels ------------------------
    // layout: [dp-sums over region rows | φ'-integrand sums over grown rows]
    let wy = (region.y1 - region.y0).max(0) as usize;
    let wyg = (gy1 - gy0).max(0) as usize;
    let nxu = geom.nx + 2 * xe as usize;
    zs.sums.clear();
    zs.sums.resize(nxu * (wy + wyg), 0.0);
    for k in 0..nz {
        let ds = geom.dsigma(k);
        for (jj, j) in (region.y0..region.y1).enumerate() {
            let row = &mut zs.sums[jj * nxu..(jj + 1) * nxu];
            let r_dp = diag.dp.row(-xe, nx + xe, j, k);
            crate::lane_loop!(path, row.len(), E, ii, axpy_body::<E>(ii, row, ds, r_dp));
        }
    }
    // φ'-integrand c_l = b·Φ·Δσ/(P·σ) at owned levels, on grown rows — the
    // blocks the ranks below need as their suffix.  A serial column has no
    // such rank: its suffix is zero whatever these sums are and their
    // `total` is never read, so the sweep (a division per point) is skipped.
    if let ZContext::Parallel(_) = zctx {
        for k in 0..nz {
            let ds = geom.dsigma(k);
            let sigc = geom.sigma_c(k);
            for (jj, j) in (gy0..gy1).enumerate() {
                let row = &mut zs.sums[(wy + jj) * nxu..(wy + jj + 1) * nxu];
                let r_phi = arg.phi.row(-xe, nx + xe, j, k);
                let r_cp = diag.cap_p.row(-xe, nx + xe, j);
                crate::lane_loop!(path, row.len(), E, ii, {
                    (E::load(row, ii) + integrand_at::<E>(r_phi, r_cp, ds, sigc, ii)).store(row, ii)
                });
            }
        }
    }

    // --- the collective: allgather of block sums along z ----------------
    // prefix = Σ of blocks above (lower global k), suffix = Σ of blocks
    // below, total = everything.
    let n = zs.sums.len();
    match zctx {
        ZContext::Serial => {
            zs.prefix.clear();
            zs.prefix.resize(n, 0.0);
            zs.suffix.clear();
            zs.suffix.resize(n, 0.0);
            zs.total.clear();
            zs.total.extend_from_slice(&zs.sums);
        }
        ZContext::Parallel(comm) => {
            let all = match comm.allgather(&zs.sums) {
                Ok(all) => all,
                Err(e) => {
                    diag.zscratch = zs;
                    return Err(e);
                }
            };
            zs.prefix.clear();
            zs.prefix.resize(n, 0.0);
            zs.suffix.clear();
            zs.suffix.resize(n, 0.0);
            zs.total.clear();
            zs.total.resize(n, 0.0);
            for r in 0..comm.size() {
                let blk = &all[r * n..(r + 1) * n];
                for (t, &v) in zs.total.iter_mut().zip(blk) {
                    *t += v;
                }
                if r < comm.rank() {
                    for (p, &v) in zs.prefix.iter_mut().zip(blk) {
                        *p += v;
                    }
                } else if r > comm.rank() {
                    for (s, &v) in zs.suffix.iter_mut().zip(blk) {
                        *s += v;
                    }
                }
            }
        }
    }

    // --- vsum and g_w on the region --------------------------------------
    for (jj, j) in (region.y0..region.y1).enumerate() {
        let total_row = &zs.total[jj * nxu..(jj + 1) * nxu];
        diag.vsum
            .row_mut(-xe, nx + xe, j)
            .copy_from_slice(total_row);
    }
    for (jj, j) in (region.y0..region.y1).enumerate() {
        // per-row running prefix of Δσ·dp below global interface z0 − 1/2;
        // each column's accumulation order matches the scalar walk exactly
        zs.run.clear();
        zs.run
            .extend_from_slice(&zs.prefix[jj * nxu..(jj + 1) * nxu]);
        for l in region.z0..0 {
            let ds = geom.dsigma(l);
            let r_dp = diag.dp.row(-xe, nx + xe, j, l);
            let run = &mut zs.run[..];
            crate::lane_loop!(path, run.len(), E, ii, axmy_body::<E>(ii, run, ds, r_dp));
        }
        let total_row = &zs.total[jj * nxu..(jj + 1) * nxu];
        // walk interfaces k−1/2 for k = z0 ..= z1
        let mut k = region.z0;
        loop {
            let gk = geom.sigma_lo(k).clamp(0.0, 1.0);
            let out = diag.gw.row_mut(-xe, nx + xe, j, k);
            let run = &zs.run[..];
            crate::lane_loop!(
                path,
                out.len(),
                E,
                ii,
                gw_body::<E>(ii, out, gk, total_row, run)
            );
            if k == region.z1 {
                break;
            }
            let ds = geom.dsigma(k);
            let r_dp = diag.dp.row(-xe, nx + xe, j, k);
            let run = &mut zs.run[..];
            crate::lane_loop!(path, run.len(), E, ii, axpy_body::<E>(ii, run, ds, r_dp));
            k += 1;
        }
    }

    // --- φ' on the grown rows -------------------------------------------
    // surface geopotential deviation coefficient R·T̃_s (a complete left
    // subexpression of the scalar tree: (R·T̃_s)·p'_sa/p̃_s)
    let rt = c::R_DRY * stdatm.ts;
    zs.phis.clear();
    zs.phis.resize(nxu, 0.0);
    for (jj, j) in (gy0..gy1).enumerate() {
        let base = (wy + jj) * nxu;
        let r_cp = diag.cap_p.row(-xe, nx + xe, j);
        // running suffix Σ_{l > k} c_l, starting at k = z1 − 1
        zs.run.clear();
        zs.run.extend_from_slice(&zs.suffix[base..base + nxu]);
        for l in nz..region.z1 {
            let ds = geom.dsigma(l);
            let sigc = geom.sigma_c(l);
            let r_phi = arg.phi.row(-xe, nx + xe, j, l);
            let run = &mut zs.run[..];
            crate::lane_loop!(path, run.len(), E, ii, {
                (E::load(run, ii) - integrand_at::<E>(r_phi, r_cp, ds, sigc, ii)).store(run, ii)
            });
        }
        // φ'_s once per row, not once per level
        let r_psa = arg.psa.row(-xe, nx + xe, j);
        let phis = &mut zs.phis[..];
        crate::lane_loop!(path, phis.len(), E, ii, {
            phis_body::<E>(ii, phis, rt, r_psa, stdatm.ps_tilde)
        });
        for k in (region.z0..region.z1).rev() {
            let ds = geom.dsigma(k);
            let sigc = geom.sigma_c(k);
            let r_phi = arg.phi.row(-xe, nx + xe, j, k);
            let out = diag.phi_p.row_mut(-xe, nx + xe, j, k);
            let (phis, run) = (&zs.phis[..], &mut zs.run[..]);
            crate::lane_loop!(path, out.len(), E, ii, {
                phip_body::<E>(ii, out, phis, r_phi, r_cp, ds, sigc, run)
            });
        }
    }

    diag.zscratch = zs;

    // x halos of the C outputs (read at i±1 by the tendencies); under X-Y
    // decompositions the extended-x computation above covered them instead
    if wrap_x {
        diag.phi_p.wrap_x_halo();
        diag.gw.wrap_x_halo();
        diag.vsum.wrap_x_halo();
    }
    Ok(())
}

/// Scalar per-point reference implementation, retained verbatim as the
/// golden reference for the bitwise-equivalence property tests.
#[cfg(any(test, feature = "scalar-ref"))]
pub fn apply_c_scalar(
    geom: &LocalGeometry,
    stdatm: &StandardAtmosphere,
    arg: &State,
    diag: &mut Diag,
    region: Region,
    zctx: &ZContext<'_>,
    wrap_x: bool,
) -> CommResult<()> {
    // the whole of C — the nested allgather inherits Phase::C
    let _c = agcm_obs::span_phase(agcm_obs::SpanKind::Op, agcm_obs::Phase::C, "apply_c");
    let nx = geom.nx as isize;
    let nz = geom.nz as isize;
    // X-Y decompositions exchange (not wrap) the x halo, so the C outputs
    // must be computed one x column into the halo; their z collectives are
    // serial there (p_z = 1), so the extended width never reaches an
    // allgather.
    let xe: isize = if wrap_x { 0 } else { 1 };
    debug_assert!(
        wrap_x || matches!(zctx, ZContext::Serial),
        "3-D decompositions (split x AND z) are not supported"
    );
    // φ' needs one extra row on each side (clamped to the allocation)
    let gy0 = (region.y0 - 1).max(-(geom.halo.ym as isize));
    let gy1 = (region.y1 + 1).min(geom.ny as isize + geom.halo.yp as isize);

    // --- local stencil diagnostics -------------------------------------
    diag.update_dsa(geom, arg, region.y0, region.y1);
    diag.update_dp(geom, arg, region.y0, region.y1, region.z0, region.z1, xe);

    // --- per-column block sums over OWNED levels ------------------------
    // layout: [dp-sums over region rows | φ'-integrand sums over grown rows]
    let wy = (region.y1 - region.y0).max(0) as usize;
    let wyg = (gy1 - gy0).max(0) as usize;
    let nxu = geom.nx + 2 * xe as usize;
    let mut sums = vec![0.0; nxu * (wy + wyg)];
    for k in 0..nz {
        let ds = geom.dsigma(k);
        for (jj, j) in (region.y0..region.y1).enumerate() {
            let row = &mut sums[jj * nxu..(jj + 1) * nxu];
            for (ii, s) in row.iter_mut().enumerate() {
                *s += ds * diag.dp.get(ii as isize - xe, j, k);
            }
        }
    }
    // φ'-integrand c_l = b·Φ·Δσ/(P·σ) at owned levels, on grown rows
    let integrand =
        |geom: &LocalGeometry, diag: &Diag, arg: &State, i: isize, j: isize, k: isize| {
            c::B_GRAVITY_WAVE * arg.phi.get(i, j, k) * geom.dsigma(k)
                / (diag.cap_p.get(i, j) * geom.sigma_c(k))
        };
    for k in 0..nz {
        for (jj, j) in (gy0..gy1).enumerate() {
            let base = (wy + jj) * nxu;
            for i in -xe..nx + xe {
                sums[base + (i + xe) as usize] += integrand(geom, diag, arg, i, j, k);
            }
        }
    }

    // --- the collective: allgather of block sums along z ----------------
    // prefix = Σ of blocks above (lower global k), suffix = Σ of blocks
    // below, total = everything.
    let (prefix, suffix, total) = match zctx {
        ZContext::Serial => {
            let zeros = vec![0.0; sums.len()];
            (zeros.clone(), zeros, sums.clone())
        }
        ZContext::Parallel(comm) => {
            let all = comm.allgather(&sums)?;
            let n = sums.len();
            let mut prefix = vec![0.0; n];
            let mut suffix = vec![0.0; n];
            let mut total = vec![0.0; n];
            for r in 0..comm.size() {
                let blk = &all[r * n..(r + 1) * n];
                for (t, &v) in total.iter_mut().zip(blk) {
                    *t += v;
                }
                if r < comm.rank() {
                    for (p, &v) in prefix.iter_mut().zip(blk) {
                        *p += v;
                    }
                } else if r > comm.rank() {
                    for (s, &v) in suffix.iter_mut().zip(blk) {
                        *s += v;
                    }
                }
            }
            (prefix, suffix, total)
        }
    };

    // --- vsum and g_w on the region --------------------------------------
    for (jj, j) in (region.y0..region.y1).enumerate() {
        for i in -xe..nx + xe {
            let vs = total[jj * nxu + (i + xe) as usize];
            diag.vsum.set(i, j, vs);
        }
    }
    for (jj, j) in (region.y0..region.y1).enumerate() {
        for i in -xe..nx + xe {
            let vs = total[jj * nxu + (i + xe) as usize];
            // prefix of Δσ·dp below global interface region.z0 − 1/2
            let mut run = prefix[jj * nxu + (i + xe) as usize];
            for l in region.z0..0 {
                run -= geom.dsigma(l) * diag.dp.get(i, j, l);
            }
            // walk interfaces k−1/2 for k = z0 ..= z1
            let mut k = region.z0;
            loop {
                let gk = geom.sigma_lo(k).clamp(0.0, 1.0);
                diag.gw.set(i, j, k, gk * vs - run);
                if k == region.z1 {
                    break;
                }
                run += geom.dsigma(k) * diag.dp.get(i, j, k);
                k += 1;
            }
        }
    }

    // --- φ' on the grown rows -------------------------------------------
    for (jj, j) in (gy0..gy1).enumerate() {
        let base = (wy + jj) * nxu;
        for i in -xe..nx + xe {
            // surface geopotential deviation: φ'_s = R·T̃_s·p'_sa/p̃_s
            let phi_s = c::R_DRY * stdatm.ts * arg.psa.get(i, j) / stdatm.ps_tilde;
            // running suffix Σ_{l > k} c_l, starting at k = z1 − 1
            let mut run = suffix[base + (i + xe) as usize];
            for l in nz..region.z1 {
                run -= integrand(geom, diag, arg, i, j, l);
            }
            let mut k = region.z1 - 1;
            loop {
                let ck = integrand(geom, diag, arg, i, j, k);
                diag.phi_p.set(i, j, k, phi_s + 0.5 * ck + run);
                if k == region.z0 {
                    break;
                }
                run += ck;
                k -= 1;
            }
        }
    }

    // x halos of the C outputs (read at i±1 by the tendencies); under X-Y
    // decompositions the extended-x computation above covered them instead
    if wrap_x {
        diag.phi_p.wrap_x_halo();
        diag.gw.wrap_x_halo();
        diag.vsum.wrap_x_halo();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary;
    use crate::config::ModelConfig;
    use agcm_comm::Universe;
    use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
    use std::sync::Arc;

    fn serial_setup(cfg: &ModelConfig) -> (LocalGeometry, StandardAtmosphere, State, Diag) {
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let geom = LocalGeometry::new(cfg, Arc::clone(&grid), &d, 0, HaloWidths::uniform(3));
        let sa = StandardAtmosphere::new(&grid);
        let state = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        let diag = Diag::new(&geom);
        (geom, sa, state, diag)
    }

    fn seed(state: &mut State, geom: &LocalGeometry, amp: f64) {
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    let x = i as f64 * 0.7 + j as f64 * 0.3 + k as f64 * 0.1;
                    state.u.set(i, j, k, amp * x.sin());
                    state.v.set(i, j, k, amp * (x * 1.3).cos());
                    state.phi.set(i, j, k, amp * (x * 0.6).sin() * 20.0);
                }
            }
        }
        for j in 0..geom.ny as isize {
            for i in 0..geom.nx as isize {
                state
                    .psa
                    .set(i, j, amp * ((i * j) as f64 * 0.05).sin() * 30.0);
            }
        }
        boundary::enforce_pole_v(state, geom);
        boundary::fill_boundaries(state, geom);
    }

    fn run_c(geom: &LocalGeometry, sa: &StandardAtmosphere, state: &State, diag: &mut Diag) {
        let region = geom.interior();
        diag.update_surface(geom, sa, state, region.y0 - 1, region.y1 + 1);
        apply_c(geom, sa, state, diag, region, &ZContext::Serial, true).unwrap();
    }

    #[test]
    fn gw_vanishes_at_top_and_surface() {
        let cfg = ModelConfig::test_small();
        let (geom, sa, mut state, mut diag) = serial_setup(&cfg);
        seed(&mut state, &geom, 5.0);
        run_c(&geom, &sa, &state, &mut diag);
        let nz = geom.nz as isize;
        for j in 0..geom.ny as isize {
            for i in 0..geom.nx as isize {
                assert!(diag.gw.get(i, j, 0).abs() < 1e-12, "top σ̇ ≠ 0");
                assert!(
                    diag.gw.get(i, j, nz).abs() < 1e-10,
                    "surface σ̇ = {} ≠ 0",
                    diag.gw.get(i, j, nz)
                );
            }
        }
    }

    #[test]
    fn gw_consistent_with_divergence_derivative() {
        // d(gw)/dσ at level k = vsum − dp(k) by construction
        let cfg = ModelConfig::test_small();
        let (geom, sa, mut state, mut diag) = serial_setup(&cfg);
        seed(&mut state, &geom, 3.0);
        run_c(&geom, &sa, &state, &mut diag);
        for k in 0..geom.nz as isize {
            let d = (diag.gw.get(4, 5, k + 1) - diag.gw.get(4, 5, k)) / geom.dsigma(k);
            let want = diag.vsum.get(4, 5) - diag.dp.get(4, 5, k);
            assert!((d - want).abs() < 1e-10 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn phi_prime_zero_for_zero_deviation() {
        // Φ = 0 and p'_sa = 0 → φ' ≡ 0
        let cfg = ModelConfig::test_small();
        let (geom, sa, state, mut diag) = serial_setup(&cfg);
        run_c(&geom, &sa, &state, &mut diag);
        assert_eq!(diag.phi_p.max_abs(), 0.0);
        assert_eq!(diag.vsum.max_abs(), 0.0);
    }

    #[test]
    fn phi_prime_hydrostatic_sign() {
        // warm column (Φ > 0) → thickness increases upward: φ' grows with
        // height (decreasing k)
        let cfg = ModelConfig::test_small();
        let (geom, sa, mut state, mut diag) = serial_setup(&cfg);
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    state.phi.set(i, j, k, 50.0);
                }
            }
        }
        boundary::fill_boundaries(&mut state, &geom);
        run_c(&geom, &sa, &state, &mut diag);
        for k in 0..geom.nz as isize - 1 {
            assert!(
                diag.phi_p.get(3, 3, k) > diag.phi_p.get(3, 3, k + 1),
                "φ' must increase with height"
            );
        }
        // surface value from p'_sa = 0 is c_k/2 of the lowest level only
        assert!(diag.phi_p.get(3, 3, geom.nz as isize - 1) > 0.0);
    }

    #[test]
    fn parallel_c_matches_serial() {
        // Y-Z decomposition with pz = 2 and 4: C outputs must equal serial
        let cfg = ModelConfig::test_medium(); // nz = 8
        let (sgeom, ssa, mut sstate, mut sdiag) = serial_setup(&cfg);
        seed(&mut sstate, &sgeom, 4.0);
        run_c(&sgeom, &ssa, &sstate, &mut sdiag);

        for pz in [2usize, 4] {
            let results = Universe::run(pz, |comm| {
                let cfg = ModelConfig::test_medium();
                let grid = Arc::new(cfg.grid().unwrap());
                let d = Decomposition::new(cfg.extents(), ProcessGrid::yz(1, pz).unwrap()).unwrap();
                let geom = LocalGeometry::new(
                    &cfg,
                    Arc::clone(&grid),
                    &d,
                    comm.rank(),
                    HaloWidths::uniform(3),
                );
                let sa = StandardAtmosphere::new(&grid);
                let mut state = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
                // seed with the GLOBAL pattern at this rank's offset in z
                let z0 = geom.sub.z.start as isize;
                for k in 0..geom.nz as isize {
                    for j in 0..geom.ny as isize {
                        for i in 0..geom.nx as isize {
                            let x = i as f64 * 0.7 + j as f64 * 0.3 + (k + z0) as f64 * 0.1;
                            state.u.set(i, j, k, 4.0 * x.sin());
                            state.v.set(i, j, k, 4.0 * (x * 1.3).cos());
                            state.phi.set(i, j, k, 4.0 * (x * 0.6).sin() * 20.0);
                        }
                    }
                }
                for j in 0..geom.ny as isize {
                    for i in 0..geom.nx as isize {
                        state
                            .psa
                            .set(i, j, 4.0 * ((i * j) as f64 * 0.05).sin() * 30.0);
                    }
                }
                boundary::enforce_pole_v(&mut state, &geom);
                boundary::fill_boundaries(&mut state, &geom);
                // z halos between ranks: fill from the analytic pattern so
                // the dp stencil (x/y only) is exact; dp needs no z halo
                let mut diag = Diag::new(&geom);
                let region = geom.interior();
                diag.update_surface(&geom, &sa, &state, region.y0 - 1, region.y1 + 1);
                apply_c(
                    &geom,
                    &sa,
                    &state,
                    &mut diag,
                    region,
                    &ZContext::Parallel(comm),
                    true,
                )
                .unwrap();
                // return this rank's gw + phi_p + vsum samples
                let mut out = Vec::new();
                for k in 0..geom.nz as isize {
                    out.push(diag.gw.get(5, 3, k));
                    out.push(diag.phi_p.get(5, 3, k));
                }
                out.push(diag.vsum.get(5, 3));
                (geom.sub.z.start, out)
            });
            for (z0, vals) in results {
                let nzl = (vals.len() - 1) / 2;
                for kk in 0..nzl {
                    let want_gw = sdiag.gw.get(5, 3, (z0 + kk) as isize);
                    let want_phi = sdiag.phi_p.get(5, 3, (z0 + kk) as isize);
                    assert!(
                        (vals[2 * kk] - want_gw).abs() < 1e-10,
                        "gw mismatch pz={pz} k={}",
                        z0 + kk
                    );
                    assert!(
                        (vals[2 * kk + 1] - want_phi).abs() < 1e-10,
                        "phi' mismatch pz={pz} k={}",
                        z0 + kk
                    );
                }
                assert!((vals[vals.len() - 1] - sdiag.vsum.get(5, 3)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn lanes_rows_and_scalar_paths_agree_bitwise() {
        let cfg = ModelConfig::test_medium();
        let (geom, sa, mut state, mut d_lanes) = serial_setup(&cfg);
        seed(&mut state, &geom, 4.0);
        let mut d_rows = Diag::new(&geom);
        let mut d_scalar = Diag::new(&geom);
        let region = geom.interior();
        for d in [&mut d_lanes, &mut d_rows, &mut d_scalar] {
            d.update_surface(&geom, &sa, &state, region.y0 - 1, region.y1 + 1);
        }
        apply_c_lanes(
            &geom,
            &sa,
            &state,
            &mut d_lanes,
            region,
            &ZContext::Serial,
            true,
        )
        .unwrap();
        apply_c_rows(
            &geom,
            &sa,
            &state,
            &mut d_rows,
            region,
            &ZContext::Serial,
            true,
        )
        .unwrap();
        apply_c_scalar(
            &geom,
            &sa,
            &state,
            &mut d_scalar,
            region,
            &ZContext::Serial,
            true,
        )
        .unwrap();
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    for (a, b) in [(&d_lanes, &d_scalar), (&d_rows, &d_scalar)] {
                        assert_eq!(
                            a.gw.get(i, j, k).to_bits(),
                            b.gw.get(i, j, k).to_bits(),
                            "gw bits differ at ({i},{j},{k})"
                        );
                        assert_eq!(
                            a.phi_p.get(i, j, k).to_bits(),
                            b.phi_p.get(i, j, k).to_bits(),
                            "phi' bits differ at ({i},{j},{k})"
                        );
                    }
                }
            }
        }
        for j in 0..geom.ny as isize {
            for i in 0..geom.nx as isize {
                assert_eq!(
                    d_lanes.vsum.get(i, j).to_bits(),
                    d_scalar.vsum.get(i, j).to_bits()
                );
                assert_eq!(
                    d_rows.vsum.get(i, j).to_bits(),
                    d_scalar.vsum.get(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    fn one_collective_event_per_application() {
        let results = Universe::run(2, |comm| {
            let cfg = ModelConfig::test_medium();
            let grid = Arc::new(cfg.grid().unwrap());
            let d = Decomposition::new(cfg.extents(), ProcessGrid::yz(1, 2).unwrap()).unwrap();
            let geom = LocalGeometry::new(
                &cfg,
                Arc::clone(&grid),
                &d,
                comm.rank(),
                HaloWidths::uniform(3),
            );
            let sa = StandardAtmosphere::new(&grid);
            let mut state = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
            boundary::fill_boundaries(&mut state, &geom);
            let mut diag = Diag::new(&geom);
            let region = geom.interior();
            diag.update_surface(&geom, &sa, &state, region.y0 - 1, region.y1 + 1);
            apply_c(
                &geom,
                &sa,
                &state,
                &mut diag,
                region,
                &ZContext::Parallel(comm),
                true,
            )
            .unwrap();
            comm.stats().snapshot().collective_calls
        });
        assert!(results.iter().all(|&n| n == 1));
    }
}
