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
//!
//! `C` also produces `D(P)`, the input of its sums, into a field its caller
//! names ([`apply_c_into`]): an engine's sub-update passes its output's Φ
//! field, which the adaptation sweep reads `D(P)` back from row by row
//! before it stores the row's update there; the standalone [`apply_c`]
//! writes `Diag::dp`.

use crate::diag::Diag;
use crate::geometry::{LocalGeometry, Region};
use crate::lanes::{lane_loop, Elem};
use crate::pool::{self, band_struct};
use crate::state::State;
use crate::stdatm::StandardAtmosphere;
use agcm_comm::{CommResult, Communicator};
use agcm_mesh::grid::constants as c;
use agcm_mesh::{Field3, RowBand2, RowBand3};

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
/// `diag.dp`, `diag.vsum`, `diag.gw` and `diag.phi_p` — [`apply_c_into`]
/// with `diag.dp` (sized on first use) as the home of `D(P)`, which
/// [`crate::adaptation::adaptation_tendency`] reads.
pub fn apply_c(
    geom: &LocalGeometry,
    stdatm: &StandardAtmosphere,
    arg: &State,
    diag: &mut Diag,
    region: Region,
    zctx: &ZContext<'_>,
    wrap_x: bool,
) -> CommResult<()> {
    let mut dp = diag.take_dp(geom);
    let result = apply_c_into(geom, stdatm, arg, diag, &mut dp, region, zctx, wrap_x);
    diag.dp = dp;
    result
}

/// Apply the operator `C` for an evaluation state `arg`: fill `diag.dsa`,
/// `dp` (`D(P)`), `diag.vsum`, `diag.gw` and `diag.phi_p`.
///
/// * `region` — the sweep's target region, covering every owned level (the
///   column sums run over them).  `dsa`, `D(P)`, `vsum` and `gw` are
///   produced on it; `φ'` on the region grown by one latitude row (the
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
/// to `apply_c_scalar`.
///
/// Banded by latitude over the worker pool: a band computes `D_sa`, `D(P)`
/// and the Δσ column sums of its rows, walks `g_w` on them and `φ'` on its
/// share of the grown rows — one phase on a serial column.  Under a
/// z-split the walks need the other ranks' block sums, so the phase splits
/// in two around the allgather, which stays on the rank thread.
#[allow(clippy::too_many_arguments)]
pub fn apply_c_into(
    geom: &LocalGeometry,
    stdatm: &StandardAtmosphere,
    arg: &State,
    diag: &mut Diag,
    dp: &mut Field3,
    region: Region,
    zctx: &ZContext<'_>,
    wrap_x: bool,
) -> CommResult<()> {
    // the whole of C — the nested allgather inherits Phase::C
    let _c = agcm_obs::span_phase(agcm_obs::SpanKind::Op, agcm_obs::Phase::C, "apply_c");
    // only a region's own D(P) rows are written: a column sum over owned
    // levels outside it would read whatever `dp` held (an engine's output
    // rows).  Only an unsplit sweep runs a fresh C, so this always holds
    debug_assert!(
        region.z0 <= 0 && region.z1 >= geom.nz as isize,
        "C on a region that does not cover the owned column"
    );
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
    let grown = (
        (region.y0 - 1).max(-(geom.halo.ym as isize)),
        (region.y1 + 1).min(geom.ny as isize + geom.halo.yp as isize),
    );
    let cx = Columns {
        geom,
        stdatm,
        arg,
        region,
        grown,
        x: (-xe, geom.nx as isize + xe),
    };
    let nxu = geom.nx + 2 * xe as usize;
    // the cuts are made on the grown rows: a cut strictly inside them lies
    // inside or on the edge of the region's rows
    let grown_region = Region {
        y0: grown.0,
        y1: grown.1,
        ..region
    };
    let cuts = pool::region_cuts(&grown_region, nxu, |_| true);
    let region_rows = |j0: isize, j1: isize| (j0.max(region.y0), j1.min(region.y1));

    // scratch lives in `diag` across calls; taken out for disjoint borrows
    // (`Default` leaves empty Vecs behind — no allocation either way)
    let mut zs = std::mem::take(&mut diag.zscratch);
    // the walks' running accumulators and φ'_s, a row per grown row
    let n_grown = nxu * (grown.1 - grown.0).max(0) as usize;
    zs.run.resize(n_grown, 0.0);
    zs.phis.resize(n_grown, 0.0);
    let result = match zctx {
        ZContext::Serial => {
            let whole = cx.band(diag, dp, &mut zs.run, &mut zs.phis, None);
            pool::run(whole, &cuts, "vertical.band", |band, j0, j1| {
                cx.stencils(band, region_rows(j0, j1));
                cx.gw_walk(band, region_rows(j0, j1), None);
                cx.phi_walk(band, (j0, j1), None);
            });
            Ok(())
        }
        ZContext::Parallel(comm) => {
            // the allgather payload: [dp-sums over region rows | φ'-integrand
            // sums over grown rows], the blocks the column's other ranks need
            let n_dp = nxu * (region.y1 - region.y0).max(0) as usize;
            let n = n_dp + n_grown;
            zs.sums.clear();
            zs.sums.resize(n, 0.0);
            let (sums_dp, sums_phi) = zs.sums.split_at_mut(n_dp);
            let sums = (
                RowBand2::over_rows(sums_dp, nxu, region.y0),
                RowBand2::over_rows(sums_phi, nxu, grown.0),
            );
            let whole = cx.band(diag, dp, &mut zs.run, &mut zs.phis, Some(sums));
            pool::run(whole, &cuts, "vertical.sums", |band, j0, j1| {
                cx.stencils(band, region_rows(j0, j1));
                cx.phi_sums(band, (j0, j1));
            });
            // the collective: prefix = Σ of blocks above (lower global k),
            // suffix = Σ of blocks below, total = everything
            comm.allgather(&zs.sums).map(|all| {
                for acc in [&mut zs.prefix, &mut zs.suffix, &mut zs.total] {
                    acc.clear();
                    acc.resize(n, 0.0);
                }
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
                let blocks = Blocks {
                    total: &zs.total[..n_dp],
                    prefix: &zs.prefix[..n_dp],
                    suffix: &zs.suffix[n_dp..],
                };
                let whole = cx.band(diag, dp, &mut zs.run, &mut zs.phis, None);
                pool::run(whole, &cuts, "vertical.walks", |band, j0, j1| {
                    cx.gw_walk(band, region_rows(j0, j1), Some(&blocks));
                    cx.phi_walk(band, (j0, j1), Some(&blocks));
                });
            })
        }
    };
    diag.zscratch = zs;
    result?;

    // x halos of the C outputs (read at i±1 by the tendencies); under X-Y
    // decompositions the extended-x computation above covered them instead
    if wrap_x {
        diag.phi_p.wrap_x_halo();
        diag.gw.wrap_x_halo();
        diag.vsum.wrap_x_halo();
    }
    Ok(())
}

/// The other ranks' block sums a z-split's walks start from: rows of `w`
/// columns, of the region (`total`, `prefix`) and the grown rows (`suffix`).
struct Blocks<'a> {
    total: &'a [f64],
    prefix: &'a [f64],
    suffix: &'a [f64],
}

/// One worker's share of `C`: its rows of the five outputs (`φ'` on its
/// share of the grown rows), of the allgather payload when that is the
/// phase's output, and of the walks' row buffers.
struct ColumnBand<'a> {
    cap_p: &'a Field3,
    dsa: RowBand2<'a>,
    dp: RowBand3<'a>,
    vsum: RowBand2<'a>,
    gw: RowBand3<'a>,
    phi_p: RowBand3<'a>,
    sums: Option<(RowBand2<'a>, RowBand2<'a>)>,
    /// Running accumulator of the interface walks, a row per grown row.
    run: RowBand2<'a>,
    /// Surface geopotential deviation `φ'_s`, a row per grown row.
    phis: RowBand2<'a>,
}

band_struct!(ColumnBand {
    cap_p,
    dsa,
    dp,
    vsum,
    gw,
    phi_p,
    sums,
    run,
    phis
});

/// What every band of one `C` application shares.  The stencil pass runs
/// level by level over the band's rows — whole planes in storage order, so
/// the hardware streams the three state fields it reads — and the walks
/// row by row; what a column carries from one level to the next (sums,
/// running walks) is kept in a row per latitude.
struct Columns<'a> {
    geom: &'a LocalGeometry,
    stdatm: &'a StandardAtmosphere,
    arg: &'a State,
    region: Region,
    /// The region's rows grown by one on each side: where `φ'` is produced.
    grown: (isize, isize),
    /// The x range `[-xe, nx + xe)` every row of `C` spans.
    x: (isize, isize),
}

/// Rows `[j0, j1)`.
type Rows = (isize, isize);

/// Where row `j`'s column sum of `D(P)` accumulates: the allgather payload
/// under a z-split, `vsum` itself on a serial column.
fn sum_row<'b>(
    sums: &'b mut Option<(RowBand2<'_>, RowBand2<'_>)>,
    vsum: &'b mut RowBand2<'_>,
    (x0, x1): (isize, isize),
    j: isize,
) -> &'b mut [f64] {
    match sums {
        Some((dp_sums, _)) => dp_sums.row_mut(0, x1 - x0, j, 0),
        None => vsum.row_mut(x0, x1, j, 0),
    }
}

impl Columns<'_> {
    /// The whole row range of the outputs as one band.
    fn band<'a>(
        &self,
        diag: &'a mut Diag,
        dp: &'a mut Field3,
        run: &'a mut [f64],
        phis: &'a mut [f64],
        sums: Option<(RowBand2<'a>, RowBand2<'a>)>,
    ) -> ColumnBand<'a> {
        let Region { y0, y1, z0, z1 } = self.region;
        let w = (self.x.1 - self.x.0) as usize;
        ColumnBand {
            cap_p: &diag.cap_p,
            dsa: diag.dsa.row_band_mut((y0, y1), (0, 1)),
            dp: dp.row_band_mut((y0, y1), (z0, z1)),
            vsum: diag.vsum.row_band_mut((y0, y1), (0, 1)),
            gw: diag.gw.row_band_mut((y0, y1), (z0, z1 + 1)),
            phi_p: diag.phi_p.row_band_mut(self.grown, (z0, z1)),
            sums,
            run: RowBand2::over_rows(run, w, self.grown.0),
            phis: RowBand2::over_rows(phis, w, self.grown.0),
        }
    }

    /// `D_sa` and `D(P)` on `rows`, and the Δσ-weighted column sums over
    /// the OWNED levels, each taken while its `D(P)` row is hot — into the
    /// allgather payload under a z-split; a serial column's sum is `vsum`
    /// itself.
    fn stencils(&self, band: &mut ColumnBand<'_>, rows: Rows) {
        let Columns { geom, arg, .. } = *self;
        let (x0, x1) = self.x;
        let (nx, nz) = (geom.nx as isize, geom.nz as isize);
        let Region { z0, z1, .. } = self.region;
        let ColumnBand {
            dsa,
            dp,
            vsum,
            sums,
            ..
        } = band;
        for j in rows.0..rows.1 {
            crate::diag::dsa_row(geom, &arg.psa, j, dsa.row_mut(0, nx, j, 0));
            sum_row(sums, vsum, self.x, j).fill(0.0);
        }
        for k in z0..z1 {
            let ds = geom.dsigma(k);
            for j in rows.0..rows.1 {
                let out = dp.row_mut(x0, x1, j, k);
                crate::diag::dp_row(geom, arg, band.cap_p, (j, k), -x0, out);
                if (0..nz).contains(&k) {
                    let (acc, r_dp) = (sum_row(sums, vsum, self.x, j), dp.row(x0, x1, j, k));
                    lane_loop!(acc.len(), E, ii, axpy_body::<E>(ii, acc, ds, r_dp));
                }
            }
        }
    }

    /// `vsum` (from the allgathered total under a z-split) and the `g_w`
    /// interface walk on `rows`.  Each column's accumulation order matches
    /// the scalar walk exactly.
    fn gw_walk(&self, band: &mut ColumnBand<'_>, rows: Rows, blocks: Option<&Blocks<'_>>) {
        let geom = self.geom;
        let (x0, x1) = self.x;
        let w = x1 - x0;
        let Region { y0, z0, z1, .. } = self.region;
        let ColumnBand {
            dp, vsum, gw, run, ..
        } = band;
        for j in rows.0..rows.1 {
            // running prefix of Δσ·dp below global interface z0 − 1/2
            let run = run.row_mut(0, w, j, 0);
            match blocks {
                Some(b) => {
                    let at = (j - y0) as usize * run.len();
                    vsum.row_mut(x0, x1, j, 0)
                        .copy_from_slice(&b.total[at..at + run.len()]);
                    run.copy_from_slice(&b.prefix[at..at + run.len()]);
                }
                None => run.fill(0.0),
            }
            let total = vsum.row(x0, x1, j, 0);
            for l in z0..0 {
                let (ds, r_dp) = (geom.dsigma(l), dp.row(x0, x1, j, l));
                lane_loop!(run.len(), E, ii, axmy_body::<E>(ii, run, ds, r_dp));
            }
            // walk interfaces k−1/2 for k = z0 ..= z1
            for k in z0..=z1 {
                let gk = geom.sigma_lo(k).clamp(0.0, 1.0);
                let out = gw.row_mut(x0, x1, j, k);
                lane_loop!(out.len(), E, ii, gw_body::<E>(ii, out, gk, total, run));
                if k < z1 {
                    let (ds, r_dp) = (geom.dsigma(k), dp.row(x0, x1, j, k));
                    lane_loop!(run.len(), E, ii, axpy_body::<E>(ii, run, ds, r_dp));
                }
            }
        }
    }

    /// Block sums of the φ'-integrand `c_l = b·Φ·Δσ/(P·σ)` over the owned
    /// levels of the grown `rows` — what the ranks below need as their
    /// suffix.  A serial column has no such rank, so it never runs this
    /// sweep (a division per point).
    fn phi_sums(&self, band: &mut ColumnBand<'_>, rows: Rows) {
        let Columns { geom, arg, .. } = *self;
        let (x0, x1) = self.x;
        let Some((_, phi_sums)) = &mut band.sums else {
            return;
        };
        for k in 0..geom.nz as isize {
            let (ds, sigc) = (geom.dsigma(k), geom.sigma_c(k));
            for j in rows.0..rows.1 {
                let row = phi_sums.row_mut(0, x1 - x0, j, 0);
                let (r_phi, r_cp) = (arg.phi.row(x0, x1, j, k), band.cap_p.row(x0, x1, j, 0));
                lane_loop!(row.len(), E, ii, {
                    (E::load(row, ii) + integrand_at::<E>(r_phi, r_cp, ds, sigc, ii)).store(row, ii)
                });
            }
        }
    }

    /// The `φ'` walk on the grown `rows`, up from the surface.
    fn phi_walk(&self, band: &mut ColumnBand<'_>, rows: Rows, blocks: Option<&Blocks<'_>>) {
        let Columns {
            geom, stdatm, arg, ..
        } = *self;
        let (x0, x1) = self.x;
        let w = x1 - x0;
        let Region { z0, z1, .. } = self.region;
        let ColumnBand {
            cap_p,
            phi_p,
            run,
            phis,
            ..
        } = band;
        // φ'_s once per row, not once per level: the coefficient R·T̃_s is
        // a complete left subexpression of the scalar tree
        // (R·T̃_s)·p'_sa/p̃_s
        let rt = c::R_DRY * stdatm.ts;
        for j in rows.0..rows.1 {
            // running suffix Σ_{l > k} c_l, starting at k = z1 − 1
            let run = run.row_mut(0, w, j, 0);
            match blocks {
                Some(b) => {
                    let at = (j - self.grown.0) as usize * run.len();
                    run.copy_from_slice(&b.suffix[at..at + run.len()]);
                }
                None => run.fill(0.0),
            }
            let r_cp = cap_p.row(x0, x1, j, 0);
            for l in geom.nz as isize..z1 {
                let (ds, sigc) = (geom.dsigma(l), geom.sigma_c(l));
                let r_phi = arg.phi.row(x0, x1, j, l);
                lane_loop!(run.len(), E, ii, {
                    (E::load(run, ii) - integrand_at::<E>(r_phi, r_cp, ds, sigc, ii)).store(run, ii)
                });
            }
            let (phis, r_psa) = (phis.row_mut(0, w, j, 0), arg.psa.row(x0, x1, j, 0));
            lane_loop!(phis.len(), E, ii, {
                phis_body::<E>(ii, phis, rt, r_psa, stdatm.ps_tilde)
            });
            for k in (z0..z1).rev() {
                let (ds, sigc) = (geom.dsigma(k), geom.sigma_c(k));
                let r_phi = arg.phi.row(x0, x1, j, k);
                let out = phi_p.row_mut(x0, x1, j, k);
                lane_loop!(out.len(), E, ii, {
                    phip_body::<E>(ii, out, phis, r_phi, r_cp, ds, sigc, run)
                });
            }
        }
    }
}

/// Scalar per-point reference implementation, retained verbatim as the
/// golden reference for the bitwise-equivalence property tests.
#[cfg(test)]
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
    diag.dp = diag.take_dp(geom);
    // φ' needs one extra row on each side (clamped to the allocation)
    let gy0 = (region.y0 - 1).max(-(geom.halo.ym as isize));
    let gy1 = (region.y1 + 1).min(geom.ny as isize + geom.halo.yp as isize);

    // --- local stencil diagnostics -------------------------------------
    diag.update_dsa_scalar(geom, arg, region.y0, region.y1);
    diag.update_dp_scalar(geom, arg, region.y0, region.y1, region.z0, region.z1, xe);

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
                / (diag.cap_p.get(i, j, 0) * geom.sigma_c(k))
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
            diag.vsum.set(i, j, 0, vs);
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
            let phi_s = c::R_DRY * stdatm.ts * arg.psa.get(i, j, 0) / stdatm.ps_tilde;
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
                    .set(i, j, 0, amp * ((i * j) as f64 * 0.05).sin() * 30.0);
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
            let want = diag.vsum.get(4, 5, 0) - diag.dp.get(4, 5, k);
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
                            .set(i, j, 0, 4.0 * ((i * j) as f64 * 0.05).sin() * 30.0);
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
                out.push(diag.vsum.get(5, 3, 0));
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
                assert!((vals[vals.len() - 1] - sdiag.vsum.get(5, 3, 0)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn lanes_rows_and_scalar_paths_agree_bitwise() {
        let cfg = ModelConfig::test_medium();
        let (geom, sa, mut state, mut d_rows) = serial_setup(&cfg);
        seed(&mut state, &geom, 4.0);
        let mut d_scalar = Diag::new(&geom);
        let region = geom.interior();
        for d in [&mut d_rows, &mut d_scalar] {
            d.update_surface(&geom, &sa, &state, region.y0 - 1, region.y1 + 1);
        }
        let zctx = ZContext::Serial;
        apply_c(&geom, &sa, &state, &mut d_rows, region, &zctx, true).unwrap();
        apply_c_scalar(&geom, &sa, &state, &mut d_scalar, region, &zctx, true).unwrap();
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    assert_eq!(
                        d_rows.gw.get(i, j, k).to_bits(),
                        d_scalar.gw.get(i, j, k).to_bits(),
                        "gw bits differ at ({i},{j},{k})"
                    );
                    assert_eq!(
                        d_rows.phi_p.get(i, j, k).to_bits(),
                        d_scalar.phi_p.get(i, j, k).to_bits(),
                        "phi' bits differ at ({i},{j},{k})"
                    );
                }
            }
        }
        for j in 0..geom.ny as isize {
            for i in 0..geom.nx as isize {
                assert_eq!(
                    d_rows.vsum.get(i, j, 0).to_bits(),
                    d_scalar.vsum.get(i, j, 0).to_bits()
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
