//! The advection tendency `L̃(ξ) = −Σ_m L_m` (Eq. 3).
//!
//! `L₁`/`L₂` are the horizontal advection terms and `L₃` the vertical
//! convection term, in the IAP "2F′ − F" flux/advective blend
//!
//! ```text
//! L₁(F) = 1/(2a sinθ) (2 ∂(Fu)/∂λ − F ∂u/∂λ)
//! L₂(F) = 1/(2a sinθ) (2 ∂(Fv sinθ)/∂θ − F ∂(v sinθ)/∂θ)
//! L₃(F) = 1/2 (2 ∂(Fσ̇)/∂σ − F ∂σ̇/∂σ)
//! ```
//!
//! whose antisymmetry is what conserves the transformed quadratic energy.
//! The discretization is second-order with fluxes at the staggered
//! half-points, giving reads inside the Table 2 footprints.  The vertical
//! velocity `σ̇` comes from the `g_w` diagnostic of the **last** `C`
//! application of the adaptation process — the advection process itself
//! runs no collective, exactly as the operator form `(F L)³` requires.
//!
//! # Divide once
//!
//! The kernel is bound by f64 division throughput (0.68 ns per element on
//! the bench host, Emerald Rapids at 2.1 GHz, whether the divider is fed
//! 128- or 256-bit operands — against 0.19 and 0.11 for a multiply), and
//! evaluated point by point it divides 36 times per point of which 14 are
//! distinct: every point re-derives its neighbours' `u/P`, `v/P` and `σ̇`.
//! The sweep therefore *stages* each quotient once per `(j, k)` row into
//! per-worker row buffers (`Staged`) with the very bodies the per-point
//! form used (`u_phys`, `v_phys`, `sdot`, `vs_face`), and the three
//! equations load them — a stored quotient is bit-identical to a recomputed one.  Rows
//! `j` of a band are swept in order, so what was staged for row `j + 1`
//! (`u/P`, `σ̇` at both interfaces, the V equation's south face flux) and
//! row `j`'s own `v/P` roll into the next row instead of being divided
//! again.  Per point that leaves 5 staged quotients and the 9 divisions
//! by per-row constants that close `L₁`, `L₂`, `L₃` of each equation —
//! 14, plus the halo columns of the staged rows and one un-rolled row per
//! band and level (≤ 16 on every mesh the tests run; pinned by the
//! `division_budget` test).

use crate::diag::Diag;
use crate::geometry::{LocalGeometry, Region};
use crate::lanes::{lane_loop, Elem};
use crate::state::State;
use crate::sweep::{self, SweepBand, SweepScratch, Update};
use agcm_mesh::grid::constants as c;

const SIN_EPS: f64 = 1e-12;

/// Compute the advection tendency of `arg` into `tend` over `region`.
///
/// Preconditions: `arg` halos valid one row/level beyond `region`,
/// `diag.pes`/`cap_p` on `region ⊕ 1` rows, and `diag.gw` valid on `region`
/// (frozen from the adaptation process; exchanged alongside ξ by the CA
/// algorithm's advection message).  `tend.psa` is set to zero — the paper's
/// `L̃` has a zero fourth component.
///
/// Row-sliced and banded over the intra-rank worker pool; bit-identical to
/// `advection_tendency_scalar` at any `AGCM_THREADS`.
pub fn advection_tendency(
    geom: &LocalGeometry,
    arg: &State,
    diag: &Diag,
    tend: &mut State,
    region: Region,
) {
    // a transient scratch: a dozen row-sized allocations per call
    let mut scratch = SweepScratch::new();
    run_sweep(geom, arg, diag, tend, None, region, &mut scratch);
}

/// The advection sub-update's sweep: the tendency of `arg`, combined into
/// `out` at once on polar-filter-inactive rows and stored raw to `out` on
/// the active ones, which the caller filters and combines in place
/// (`Update::combine_filtered`).
pub fn fused_advection_update(
    geom: &LocalGeometry,
    arg: &State,
    diag: &Diag,
    upd: &Update<'_>,
    out: &mut State,
    region: Region,
    scratch: &mut SweepScratch,
) {
    run_sweep(geom, arg, diag, out, Some(upd), region, scratch);
}

fn run_sweep(
    geom: &LocalGeometry,
    arg: &State,
    diag: &Diag,
    out: &mut State,
    upd: Option<&Update<'_>>,
    region: Region,
    scratch: &mut SweepScratch,
) {
    sweep::sweep(
        geom.nx,
        region,
        out,
        upd,
        scratch,
        "advection.band",
        false,
        |band, rows| advection_band(geom, arg, diag, band, rows),
        // L̃'s fourth component is zero
        |_, o| o.fill(0.0),
    );
}

/// Input rows of one `(j, k)` advection row triple, fetched once at
/// `x ∈ [-2, nx+1)` (the L1 terms reach two points west through the
/// staggered physical velocities), so the slice index of logical point
/// `i + d` is `ii + 2 + d`.
struct Rows<'a> {
    u: &'a [f64],
    u_s: &'a [f64],
    u_n: &'a [f64],
    u_kl: &'a [f64],
    u_kh: &'a [f64],
    v: &'a [f64],
    v_s: &'a [f64],
    v_n: &'a [f64],
    v_kl: &'a [f64],
    v_kh: &'a [f64],
    f: &'a [f64],
    f_s: &'a [f64],
    f_n: &'a [f64],
    f_kl: &'a [f64],
    f_kh: &'a [f64],
    cp: &'a [f64],
    cp_s: &'a [f64],
    cp_n: &'a [f64],
    pes: &'a [f64],
    pes_s: &'a [f64],
    gw: &'a [f64],
    gw_h: &'a [f64],
    gw_s: &'a [f64],
    gw_s_h: &'a [f64],
}

fn fetch<'a>(nx: isize, arg: &'a State, diag: &'a Diag, j: isize, k: isize) -> Rows<'a> {
    Rows {
        u: arg.u.row(-2, nx + 1, j, k),
        u_s: arg.u.row(-2, nx + 1, j + 1, k),
        u_n: arg.u.row(-2, nx + 1, j - 1, k),
        u_kl: arg.u.row(-2, nx + 1, j, k - 1),
        u_kh: arg.u.row(-2, nx + 1, j, k + 1),
        v: arg.v.row(-2, nx + 1, j, k),
        v_s: arg.v.row(-2, nx + 1, j + 1, k),
        v_n: arg.v.row(-2, nx + 1, j - 1, k),
        v_kl: arg.v.row(-2, nx + 1, j, k - 1),
        v_kh: arg.v.row(-2, nx + 1, j, k + 1),
        f: arg.phi.row(-2, nx + 1, j, k),
        f_s: arg.phi.row(-2, nx + 1, j + 1, k),
        f_n: arg.phi.row(-2, nx + 1, j - 1, k),
        f_kl: arg.phi.row(-2, nx + 1, j, k - 1),
        f_kh: arg.phi.row(-2, nx + 1, j, k + 1),
        cp: diag.cap_p.row(-2, nx + 1, j, 0),
        cp_s: diag.cap_p.row(-2, nx + 1, j + 1, 0),
        cp_n: diag.cap_p.row(-2, nx + 1, j - 1, 0),
        pes: diag.pes.row(-2, nx + 1, j, 0),
        pes_s: diag.pes.row(-2, nx + 1, j + 1, 0),
        gw: diag.gw.row(-2, nx + 1, j, k),
        gw_h: diag.gw.row(-2, nx + 1, j, k + 1),
        gw_s: diag.gw.row(-2, nx + 1, j + 1, k),
        gw_s_h: diag.gw.row(-2, nx + 1, j + 1, k + 1),
    }
}

/// Per-`(j, k)` hoisted factors; every product matches a parenthesized
/// subexpression of the scalar reference, so hoisting is bitwise-neutral.
struct Coefs {
    sv_j: f64,
    sv_n: f64,
    s_c: f64,
    sc_s: f64,
    two_asdl_c: f64,
    two_asdt_c: f64,
    two_asdl_v: f64,
    two_asdt_v: f64,
    two_ds: f64,
    s_v: f64,
}

fn coefs(geom: &LocalGeometry, j: isize, k: isize) -> Coefs {
    let a = c::EARTH_RADIUS;
    let dl = geom.dlambda();
    let dth = geom.dtheta();
    let ds = geom.dsigma(k);
    let s_c = geom.sin_c(j);
    let s_v = geom.sin_v(j);
    Coefs {
        sv_j: geom.sin_v(j),
        sv_n: geom.sin_v(j - 1),
        s_c,
        sc_s: geom.sin_c(j + 1),
        two_asdl_c: 2.0 * a * s_c * dl,
        two_asdt_c: 2.0 * a * s_c * dth,
        two_asdl_v: 2.0 * a * s_v * dl,
        two_asdt_v: 2.0 * a * s_v * dth,
        two_ds: 2.0 * ds,
        s_v,
    }
}

/// Physical `u = U/P` at a U point: same expression tree as the scalar
/// reference's `u_at`.
#[inline(always)]
fn u_phys<E: Elem>(u: &[f64], cp: &[f64], p: usize) -> E {
    E::load(u, p) / (E::splat(0.5) * (E::load(cp, p - 1) + E::load(cp, p)))
}

/// Physical `v = V/P` at a V point (`v_at`).
#[inline(always)]
fn v_phys<E: Elem>(v: &[f64], cp: &[f64], cp_s: &[f64], p: usize) -> E {
    E::load(v, p) / (E::splat(0.5) * (E::load(cp, p) + E::load(cp_s, p)))
}

/// Interface `σ̇` (`sdot_at`).
#[inline(always)]
fn sdot<E: Elem>(gw: &[f64], pes: &[f64], p: usize) -> E {
    E::load(gw, p) * E::splat(c::P_REF) / E::load(pes, p)
}

/// The V equation's `v sinθ` at the scalar row between V rows `a` (north)
/// and `b` (south): `½(V_a + V_b)/P·sinθ` with the row's own `P`.
#[inline(always)]
fn vs_face<E: Elem>(v_a: &[f64], v_b: &[f64], cp: &[f64], sin_c: f64, p: usize) -> E {
    E::splat(0.5) * (E::load(v_a, p) + E::load(v_b, p)) / E::load(cp, p) * E::splat(sin_c)
}

/// The staged quotient rows of one `(j, k)` row triple, indexed like the
/// input rows (`x ∈ [-2, nx+1)`, logical point `i + d` at `ii + 2 + d`).
/// Each is filled over exactly the columns the equations read.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    /// `u/P` on rows `j` and `j + 1`, columns `x ∈ [-1, nx+1)`.
    uq: Vec<f64>,
    uq_s: Vec<f64>,
    /// `v/P` on rows `j` and `j − 1`, columns `x ∈ [-1, nx)`.
    vq: Vec<f64>,
    vq_n: Vec<f64>,
    /// `σ̇` at interfaces `k`, `k + 1` on rows `j` and `j + 1`, columns
    /// `x ∈ [-1, nx)`.
    sd_lo: Vec<f64>,
    sd_hi: Vec<f64>,
    sd_lo_s: Vec<f64>,
    sd_hi_s: Vec<f64>,
    /// [`vs_face`] at scalar rows `j + 1` and `j`, columns `x ∈ [0, nx)`.
    vs_s: Vec<f64>,
    vs_n: Vec<f64>,
}

impl Staged {
    /// Size every row for `nx` longitudes (allocates on a change only).
    pub(crate) fn size(&mut self, nx: usize) {
        for row in [
            &mut self.uq,
            &mut self.uq_s,
            &mut self.vq,
            &mut self.vq_n,
            &mut self.sd_lo,
            &mut self.sd_hi,
            &mut self.sd_lo_s,
            &mut self.sd_hi_s,
            &mut self.vs_s,
            &mut self.vs_n,
        ] {
            row.resize(nx + 3, 0.0);
        }
    }

    /// Make the rows those of `(j, k)`, whose inputs are `r`.  Unless
    /// `fresh`, the previous call was for `(j − 1, k)`: its south-side rows
    /// are this row's own, and its own `v/P` is this row's north side —
    /// the same bodies over the same operands, so rolling them in is
    /// bit-identical to staging them again.
    fn advance(&mut self, r: &Rows<'_>, cf: &Coefs, fresh: bool) {
        let nx = r.u.len() - 3;
        if fresh {
            // stage this row's own side where the roll below picks it up
            stage_south(self, r.u, r.cp, r.gw, r.gw_h, r.pes, nx);
            stage_v(&mut self.vq, r.v_n, r.cp_n, r.cp, nx);
            stage_vs(&mut self.vs_s, r.v_n, r.v, r.cp, cf.s_c, nx);
        }
        std::mem::swap(&mut self.uq, &mut self.uq_s);
        std::mem::swap(&mut self.sd_lo, &mut self.sd_lo_s);
        std::mem::swap(&mut self.sd_hi, &mut self.sd_hi_s);
        std::mem::swap(&mut self.vq_n, &mut self.vq);
        std::mem::swap(&mut self.vs_n, &mut self.vs_s);
        stage_south(self, r.u_s, r.cp_s, r.gw_s, r.gw_s_h, r.pes_s, nx);
        stage_v(&mut self.vq, r.v, r.cp, r.cp_s, nx);
        stage_vs(&mut self.vs_s, r.v, r.v_s, r.cp_s, cf.sc_s, nx);
    }
}

/// Stage `u/P` and both interfaces' `σ̇` of one row into the south slots.
fn stage_south(
    st: &mut Staged,
    u: &[f64],
    cp: &[f64],
    gw: &[f64],
    gw_h: &[f64],
    pes: &[f64],
    nx: usize,
) {
    let (uq, lo, hi) = (&mut st.uq_s[..], &mut st.sd_lo_s[..], &mut st.sd_hi_s[..]);
    lane_loop!(nx + 2, E, ii, {
        u_phys::<E>(u, cp, ii + 1).store(uq, ii + 1)
    });
    lane_loop!(nx + 1, E, ii, {
        sdot::<E>(gw, pes, ii + 1).store(lo, ii + 1);
        sdot::<E>(gw_h, pes, ii + 1).store(hi, ii + 1)
    });
}

fn stage_v(o: &mut [f64], v: &[f64], cp: &[f64], cp_s: &[f64], nx: usize) {
    lane_loop!(nx + 1, E, ii, {
        v_phys::<E>(v, cp, cp_s, ii + 1).store(o, ii + 1)
    });
}

fn stage_vs(o: &mut [f64], v_a: &[f64], v_b: &[f64], cp: &[f64], sin_c: f64, nx: usize) {
    lane_loop!(nx, E, ii, {
        vs_face::<E>(v_a, v_b, cp, sin_c, ii + 2).store(o, ii + 2)
    });
}

/// U advection at U point (i-1/2, j, k).
#[inline(always)]
fn u_eq<E: Elem>(ii: usize, o: &mut [f64], r: &Rows<'_>, st: &Staged, cf: &Coefs) {
    let q = ii + 2;
    let half = E::splat(0.5);
    let two = E::splat(2.0);
    let ua = |p: usize| E::load(&st.uq, p);
    let va = |p: usize| E::load(&st.vq, p);
    let va_n = |p: usize| E::load(&st.vq_n, p);
    let f = E::load(r.u, q);
    let uc_e = half * (ua(q) + ua(q + 1));
    let uc_w = half * (ua(q - 1) + ua(q));
    let fc_e = half * (E::load(r.u, q) + E::load(r.u, q + 1));
    let fc_w = half * (E::load(r.u, q - 1) + E::load(r.u, q));
    let l1 = (two * (fc_e * uc_e - fc_w * uc_w) - f * (uc_e - uc_w)) / E::splat(cf.two_asdl_c);
    let vs_s = half * (va(q - 1) + va(q)) * E::splat(cf.sv_j);
    let vs_n = half * (va_n(q - 1) + va_n(q)) * E::splat(cf.sv_n);
    let ff_s = half * (E::load(r.u, q) + E::load(r.u_s, q));
    let ff_n = half * (E::load(r.u_n, q) + E::load(r.u, q));
    let l2 = (two * (ff_s * vs_s - ff_n * vs_n) - f * (vs_s - vs_n)) / E::splat(cf.two_asdt_c);
    let sd_lo = half * (E::load(&st.sd_lo, q - 1) + E::load(&st.sd_lo, q));
    let sd_hi = half * (E::load(&st.sd_hi, q - 1) + E::load(&st.sd_hi, q));
    let fk_lo = half * (E::load(r.u_kl, q) + E::load(r.u, q));
    let fk_hi = half * (E::load(r.u, q) + E::load(r.u_kh, q));
    let l3 = (two * (fk_hi * sd_hi - fk_lo * sd_lo) - f * (sd_hi - sd_lo)) / E::splat(cf.two_ds);
    (-(l1 + l2 + l3)).store(o, ii);
}

/// V advection at V point (i, j+1/2, k); the caller handles the pole pin.
#[inline(always)]
fn v_eq<E: Elem>(ii: usize, o: &mut [f64], r: &Rows<'_>, st: &Staged, cf: &Coefs) {
    let q = ii + 2;
    let half = E::splat(0.5);
    let two = E::splat(2.0);
    let ua = |p: usize| E::load(&st.uq, p);
    let ua_s = |p: usize| E::load(&st.uq_s, p);
    let f = E::load(r.v, q);
    let ux_e = half * (ua(q + 1) + ua_s(q + 1));
    let ux_w = half * (ua(q) + ua_s(q));
    let fx_e = half * (E::load(r.v, q) + E::load(r.v, q + 1));
    let fx_w = half * (E::load(r.v, q - 1) + E::load(r.v, q));
    let l1 = (two * (fx_e * ux_e - fx_w * ux_w) - f * (ux_e - ux_w)) / E::splat(cf.two_asdl_v);
    let vs_s = E::load(&st.vs_s, q);
    let vs_n = E::load(&st.vs_n, q);
    let ff_s = half * (E::load(r.v, q) + E::load(r.v_s, q));
    let ff_n = half * (E::load(r.v_n, q) + E::load(r.v, q));
    let l2 = (two * (ff_s * vs_s - ff_n * vs_n) - f * (vs_s - vs_n)) / E::splat(cf.two_asdt_v);
    let sd_lo = half * (E::load(&st.sd_lo, q) + E::load(&st.sd_lo_s, q));
    let sd_hi = half * (E::load(&st.sd_hi, q) + E::load(&st.sd_hi_s, q));
    let fk_lo = half * (E::load(r.v_kl, q) + E::load(r.v, q));
    let fk_hi = half * (E::load(r.v, q) + E::load(r.v_kh, q));
    let l3 = (two * (fk_hi * sd_hi - fk_lo * sd_lo) - f * (sd_hi - sd_lo)) / E::splat(cf.two_ds);
    (-(l1 + l2 + l3)).store(o, ii);
}

/// Φ advection at cell centre (i, j, k).
#[inline(always)]
fn phi_eq<E: Elem>(ii: usize, o: &mut [f64], r: &Rows<'_>, st: &Staged, cf: &Coefs) {
    let q = ii + 2;
    let half = E::splat(0.5);
    let two = E::splat(2.0);
    let f = E::load(r.f, q);
    let u_e = E::load(&st.uq, q + 1);
    let u_w = E::load(&st.uq, q);
    let fx_e = half * (E::load(r.f, q) + E::load(r.f, q + 1));
    let fx_w = half * (E::load(r.f, q - 1) + E::load(r.f, q));
    let l1 = (two * (fx_e * u_e - fx_w * u_w) - f * (u_e - u_w)) / E::splat(cf.two_asdl_c);
    let v_s = E::load(&st.vq, q) * E::splat(cf.sv_j);
    let v_n = E::load(&st.vq_n, q) * E::splat(cf.sv_n);
    let fy_s = half * (E::load(r.f, q) + E::load(r.f_s, q));
    let fy_n = half * (E::load(r.f_n, q) + E::load(r.f, q));
    let l2 = (two * (fy_s * v_s - fy_n * v_n) - f * (v_s - v_n)) / E::splat(cf.two_asdt_c);
    let sd_lo = E::load(&st.sd_lo, q);
    let sd_hi = E::load(&st.sd_hi, q);
    let fk_lo = half * (E::load(r.f_kl, q) + E::load(r.f, q));
    let fk_hi = half * (E::load(r.f, q) + E::load(r.f_kh, q));
    let l3 = (two * (fk_hi * sd_hi - fk_lo * sd_lo) - f * (sd_hi - sd_lo)) / E::splat(cf.two_ds);
    (-(l1 + l2 + l3)).store(o, ii);
}

/// Compute the three tendency rows of one `(j, k)` via the generic bodies.
fn tendency_rows(
    r: &Rows<'_>,
    st: &Staged,
    cf: &Coefs,
    o_u: &mut [f64],
    o_v: &mut [f64],
    o_phi: &mut [f64],
) {
    lane_loop!(o_u.len(), E, ii, u_eq::<E>(ii, o_u, r, st, cf));
    if cf.s_v < SIN_EPS {
        o_v.fill(0.0);
    } else {
        lane_loop!(o_v.len(), E, ii, v_eq::<E>(ii, o_v, r, st, cf));
    }
    lane_loop!(o_phi.len(), E, ii, phi_eq::<E>(ii, o_phi, r, st, cf));
}

/// Row-sliced advection sweep over one worker band: rows `j` in order at
/// each level, so the staged quotients roll from one row into the next.
fn advection_band(
    geom: &LocalGeometry,
    arg: &State,
    diag: &Diag,
    band: &mut SweepBand<'_>,
    region: Region,
) {
    let nx = geom.nx as isize;
    for k in region.z0..region.z1 {
        for j in region.y0..region.y1 {
            let r = fetch(nx, arg, diag, j, k);
            let cf = coefs(geom, j, k);
            band.emit(nx, (j, k), |st, _, o_u, o_v, o_phi| {
                st.advance(&r, &cf, j == region.y0);
                tendency_rows(&r, st, &cf, o_u, o_v, o_phi)
            });
        }
    }
}

/// Scalar per-point reference implementation, retained verbatim as the
/// golden reference for the bitwise-equivalence property tests.
#[cfg(test)]
pub fn advection_tendency_scalar(
    geom: &LocalGeometry,
    arg: &State,
    diag: &Diag,
    tend: &mut State,
    region: Region,
) {
    let nx = geom.nx as isize;
    let a = c::EARTH_RADIUS;
    let dl = geom.dlambda();
    let dt = geom.dtheta();

    // physical velocities: u = U/P at U points, v = V/P at V points
    let u_at = |i: isize, j: isize, k: isize| {
        arg.u.get(i, j, k) / (0.5 * (diag.cap_p.get(i - 1, j, 0) + diag.cap_p.get(i, j, 0)))
    };
    let v_at = |i: isize, j: isize, k: isize| {
        arg.v.get(i, j, k) / (0.5 * (diag.cap_p.get(i, j, 0) + diag.cap_p.get(i, j + 1, 0)))
    };
    // σ̇ at the interface below centre k of the scalar column (i, j)
    let sdot_at = |i: isize, j: isize, k: isize| {
        let pes = diag.pes.get(i, j, 0);
        diag.gw.get(i, j, k) * c::P_REF / pes
    };

    for k in region.z0..region.z1 {
        let ds = geom.dsigma(k);
        for j in region.y0..region.y1 {
            let s_c = geom.sin_c(j);
            let s_v = geom.sin_v(j);
            for i in 0..nx {
                // =============== U (at U point i-1/2, j, k) ===============
                {
                    let f = arg.u.get(i, j, k);
                    // --- L1: u-advection along λ; cell centres i-1, i are
                    //     the half-points of the U grid ---
                    let uc_e = 0.5 * (u_at(i, j, k) + u_at(i + 1, j, k)); // centre i
                    let uc_w = 0.5 * (u_at(i - 1, j, k) + u_at(i, j, k)); // centre i-1
                    let fc_e = 0.5 * (arg.u.get(i, j, k) + arg.u.get(i + 1, j, k));
                    let fc_w = 0.5 * (arg.u.get(i - 1, j, k) + arg.u.get(i, j, k));
                    let l1 = (2.0 * (fc_e * uc_e - fc_w * uc_w) - f * (uc_e - uc_w))
                        / (2.0 * a * s_c * dl);
                    // --- L2: v sinθ advection along θ; faces j, j-1 at the
                    //     U point's longitude ---
                    let vs_s = 0.5 * (v_at(i - 1, j, k) + v_at(i, j, k)) * geom.sin_v(j);
                    let vs_n =
                        0.5 * (v_at(i - 1, j - 1, k) + v_at(i, j - 1, k)) * geom.sin_v(j - 1);
                    let ff_s = 0.5 * (arg.u.get(i, j, k) + arg.u.get(i, j + 1, k));
                    let ff_n = 0.5 * (arg.u.get(i, j - 1, k) + arg.u.get(i, j, k));
                    let l2 = (2.0 * (ff_s * vs_s - ff_n * vs_n) - f * (vs_s - vs_n))
                        / (2.0 * a * s_c * dt);
                    // --- L3: σ̇ advection; interfaces k∓1/2 at the U point ---
                    let sd_lo = 0.5 * (sdot_at(i - 1, j, k) + sdot_at(i, j, k));
                    let sd_hi = 0.5 * (sdot_at(i - 1, j, k + 1) + sdot_at(i, j, k + 1));
                    let fk_lo = 0.5 * (arg.u.get(i, j, k - 1) + arg.u.get(i, j, k));
                    let fk_hi = 0.5 * (arg.u.get(i, j, k) + arg.u.get(i, j, k + 1));
                    let l3 =
                        (2.0 * (fk_hi * sd_hi - fk_lo * sd_lo) - f * (sd_hi - sd_lo)) / (2.0 * ds);
                    tend.u.set(i, j, k, -(l1 + l2 + l3));
                }
                // =============== V (at V point i, j+1/2, k) ===============
                {
                    if s_v < SIN_EPS {
                        tend.v.set(i, j, k, 0.0);
                    } else {
                        let f = arg.v.get(i, j, k);
                        // L1 along λ: x-faces of the V point are at i∓1/2,
                        // where u is averaged from rows j and j+1
                        let ux_e = 0.5 * (u_at(i + 1, j, k) + u_at(i + 1, j + 1, k));
                        let ux_w = 0.5 * (u_at(i, j, k) + u_at(i, j + 1, k));
                        let fx_e = 0.5 * (arg.v.get(i, j, k) + arg.v.get(i + 1, j, k));
                        let fx_w = 0.5 * (arg.v.get(i - 1, j, k) + arg.v.get(i, j, k));
                        let l1 = (2.0 * (fx_e * ux_e - fx_w * ux_w) - f * (ux_e - ux_w))
                            / (2.0 * a * s_v * dl);
                        // L2 along θ: scalar rows j, j+1 are the half-points.
                        // v there divides by the *collocated* P (the scalar
                        // row's own value), keeping the read depth at the
                        // j±1 of Table 2's L2(V) row.
                        let vs_s = 0.5 * (arg.v.get(i, j, k) + arg.v.get(i, j + 1, k))
                            / diag.cap_p.get(i, j + 1, 0)
                            * geom.sin_c(j + 1);
                        let vs_n = 0.5 * (arg.v.get(i, j - 1, k) + arg.v.get(i, j, k))
                            / diag.cap_p.get(i, j, 0)
                            * geom.sin_c(j);
                        let ff_s = 0.5 * (arg.v.get(i, j, k) + arg.v.get(i, j + 1, k));
                        let ff_n = 0.5 * (arg.v.get(i, j - 1, k) + arg.v.get(i, j, k));
                        let l2 = (2.0 * (ff_s * vs_s - ff_n * vs_n) - f * (vs_s - vs_n))
                            / (2.0 * a * s_v * dt);
                        // L3: σ̇ at V point interfaces
                        let sd_lo = 0.5 * (sdot_at(i, j, k) + sdot_at(i, j + 1, k));
                        let sd_hi = 0.5 * (sdot_at(i, j, k + 1) + sdot_at(i, j + 1, k + 1));
                        let fk_lo = 0.5 * (arg.v.get(i, j, k - 1) + arg.v.get(i, j, k));
                        let fk_hi = 0.5 * (arg.v.get(i, j, k) + arg.v.get(i, j, k + 1));
                        let l3 = (2.0 * (fk_hi * sd_hi - fk_lo * sd_lo) - f * (sd_hi - sd_lo))
                            / (2.0 * ds);
                        tend.v.set(i, j, k, -(l1 + l2 + l3));
                    }
                }
                // =============== Φ (at cell centre i, j, k) ===============
                {
                    let f = arg.phi.get(i, j, k);
                    // L1: x-faces are the U points i, i+1
                    let u_e = u_at(i + 1, j, k);
                    let u_w = u_at(i, j, k);
                    let fx_e = 0.5 * (arg.phi.get(i, j, k) + arg.phi.get(i + 1, j, k));
                    let fx_w = 0.5 * (arg.phi.get(i - 1, j, k) + arg.phi.get(i, j, k));
                    let l1 =
                        (2.0 * (fx_e * u_e - fx_w * u_w) - f * (u_e - u_w)) / (2.0 * a * s_c * dl);
                    // L2: y-faces are the V points j-1, j
                    let v_s = v_at(i, j, k) * geom.sin_v(j);
                    let v_n = v_at(i, j - 1, k) * geom.sin_v(j - 1);
                    let fy_s = 0.5 * (arg.phi.get(i, j, k) + arg.phi.get(i, j + 1, k));
                    let fy_n = 0.5 * (arg.phi.get(i, j - 1, k) + arg.phi.get(i, j, k));
                    let l2 =
                        (2.0 * (fy_s * v_s - fy_n * v_n) - f * (v_s - v_n)) / (2.0 * a * s_c * dt);
                    // L3: interfaces of the scalar column
                    let sd_lo = sdot_at(i, j, k);
                    let sd_hi = sdot_at(i, j, k + 1);
                    let fk_lo = 0.5 * (arg.phi.get(i, j, k - 1) + arg.phi.get(i, j, k));
                    let fk_hi = 0.5 * (arg.phi.get(i, j, k) + arg.phi.get(i, j, k + 1));
                    let l3 =
                        (2.0 * (fk_hi * sd_hi - fk_lo * sd_lo) - f * (sd_hi - sd_lo)) / (2.0 * ds);
                    tend.phi.set(i, j, k, -(l1 + l2 + l3));
                }
            }
        }
    }
    // L̃'s fourth component is zero
    for j in region.y0..region.y1 {
        for i in 0..nx {
            tend.psa.set(i, j, 0, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary;
    use crate::config::ModelConfig;
    use crate::stdatm::StandardAtmosphere;
    use crate::vertical::{apply_c, ZContext};
    use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
    use std::sync::Arc;

    struct Setup {
        geom: LocalGeometry,
        sa: StandardAtmosphere,
        state: State,
        diag: Diag,
    }

    fn setup() -> Setup {
        let cfg = ModelConfig::test_small();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let geom = LocalGeometry::new(&cfg, Arc::clone(&grid), &d, 0, HaloWidths::uniform(3));
        let sa = StandardAtmosphere::new(&grid);
        let state = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        let diag = Diag::new(&geom);
        Setup {
            geom,
            sa,
            state,
            diag,
        }
    }

    fn run_tendency(s: &mut Setup) -> State {
        boundary::enforce_pole_v(&mut s.state, &s.geom);
        boundary::fill_boundaries(&mut s.state, &s.geom);
        let region = s.geom.interior();
        s.diag
            .update_surface(&s.geom, &s.sa, &s.state, region.y0 - 1, region.y1 + 1);
        // σ̇ diagnostics from the adaptation's C operator
        apply_c(
            &s.geom,
            &s.sa,
            &s.state,
            &mut s.diag,
            region,
            &ZContext::Serial,
            true,
        )
        .unwrap();
        let mut tend = State::like(&s.state);
        advection_tendency(&s.geom, &s.state, &s.diag, &mut tend, region);
        tend
    }

    #[test]
    fn rest_state_is_stationary() {
        let mut s = setup();
        let tend = run_tendency(&mut s);
        assert_eq!(tend.max_abs(), 0.0);
    }

    #[test]
    fn psa_component_is_zero() {
        let mut s = setup();
        for k in 0..s.geom.nz as isize {
            for j in 0..s.geom.ny as isize {
                for i in 0..s.geom.nx as isize {
                    s.state.u.set(i, j, k, (i as f64 * 0.5).sin() * 5.0);
                    s.state.phi.set(i, j, k, (i as f64 * 0.9).cos() * 10.0);
                }
            }
        }
        let tend = run_tendency(&mut s);
        assert_eq!(tend.psa.max_abs(), 0.0, "L̃ has no surface-pressure part");
    }

    #[test]
    fn zonal_advection_direction() {
        // uniform eastward u carrying a Φ bump: tendency at the bump's
        // eastern flank is positive (bump moves east)
        let mut s = setup();
        let nx = s.geom.nx as isize;
        for k in 0..s.geom.nz as isize {
            for j in 0..s.geom.ny as isize {
                for i in 0..nx {
                    s.state.u.set(i, j, k, 20.0);
                    let x = (i - 8) as f64;
                    s.state.phi.set(i, j, k, 30.0 * (-x * x / 4.0).exp());
                }
            }
        }
        let tend = run_tendency(&mut s);
        let jm = s.geom.ny as isize / 2;
        assert!(tend.phi.get(10, jm, 1) > 0.0, "east flank grows");
        assert!(tend.phi.get(6, jm, 1) < 0.0, "west flank shrinks");
    }

    #[test]
    fn uniform_field_unaffected_by_nondivergent_flow() {
        // If Φ is constant and the flow has no divergence, L(Φ) must vanish
        // identically (2∂(Fu) − F∂u = F·∂u when F const → (2-1)F·div).
        // Use a purely zonal, y-independent u: divergence free on the sphere
        // sections where u is x-constant.
        let mut s = setup();
        for k in 0..s.geom.nz as isize {
            for j in 0..s.geom.ny as isize {
                for i in 0..s.geom.nx as isize {
                    s.state.u.set(i, j, k, 15.0);
                    s.state.phi.set(i, j, k, 42.0);
                }
            }
        }
        let tend = run_tendency(&mut s);
        // u = U/P is x-constant → ∂u/∂λ = 0 → L1(Φ) = 0; v = 0, σ̇ = 0
        for j in 1..s.geom.ny as isize - 1 {
            for i in 0..s.geom.nx as isize {
                assert!(
                    tend.phi.get(i, j, 1).abs() < 1e-12,
                    "L(const Φ) ≠ 0 at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn lanes_rows_and_scalar_paths_agree_bitwise() {
        let mut s = setup();
        for k in 0..s.geom.nz as isize {
            for j in 0..s.geom.ny as isize {
                for i in 0..s.geom.nx as isize {
                    let x = (i + 5 * j + 11 * k) as f64 * 0.23;
                    s.state.u.set(i, j, k, 12.0 + 4.0 * x.sin());
                    s.state.v.set(i, j, k, 3.0 * (0.7 * x).cos());
                    s.state.phi.set(i, j, k, 40.0 * (0.4 * x).sin());
                }
            }
        }
        boundary::enforce_pole_v(&mut s.state, &s.geom);
        boundary::fill_boundaries(&mut s.state, &s.geom);
        let region = s.geom.interior();
        s.diag
            .update_surface(&s.geom, &s.sa, &s.state, region.y0 - 1, region.y1 + 1);
        apply_c(
            &s.geom,
            &s.sa,
            &s.state,
            &mut s.diag,
            region,
            &ZContext::Serial,
            true,
        )
        .unwrap();
        let mut rows = State::like(&s.state);
        let mut scalar = State::like(&s.state);
        advection_tendency(&s.geom, &s.state, &s.diag, &mut rows, region);
        advection_tendency_scalar(&s.geom, &s.state, &s.diag, &mut scalar, region);
        assert_eq!(rows.max_abs_diff(&scalar), 0.0, "row kernel vs scalar");
    }

    #[test]
    fn advection_conserves_quadratic_energy() {
        // the 2F'−F form is antisymmetric: Σ F·L(F)·w ≈ 0 (up to boundary
        // and discretization corrections).  Verify the energy change of a
        // forward-Euler step is second order in Δt.
        let mut s = setup();
        for k in 0..s.geom.nz as isize {
            for j in 0..s.geom.ny as isize {
                for i in 0..s.geom.nx as isize {
                    let x = i as f64 / s.geom.nx as f64 * std::f64::consts::TAU;
                    s.state.u.set(i, j, k, 10.0 + 3.0 * (x * 2.0).sin());
                    s.state.phi.set(i, j, k, 20.0 * (x * 3.0).cos());
                }
            }
        }
        let tend = run_tendency(&mut s);
        let energy = |st: &State, geom: &LocalGeometry| {
            let mut e = 0.0;
            for k in 0..geom.nz as isize {
                for j in 0..geom.ny as isize {
                    let w = geom.sin_c(j) * geom.dsigma(k);
                    for i in 0..geom.nx as isize {
                        e += w * (st.u.get(i, j, k).powi(2) + st.phi.get(i, j, k).powi(2));
                    }
                }
            }
            e
        };
        let e0 = energy(&s.state, &s.geom);
        let dt = 5.0;
        let mut next = State::like(&s.state);
        next.lincomb(&s.state, dt, &tend);
        let e1 = energy(&next, &s.geom);
        let drift = (e1 - e0).abs() / e0;
        assert!(drift < 0.02, "energy drift {drift} too large");
    }
}
