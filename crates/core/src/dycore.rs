//! The shared integration engine.
//!
//! Every integrator — serial reference, parallel Algorithm 1 (original,
//! X-Y or Y-Z decomposition) and Algorithm 2 (communication-avoiding) —
//! drives the same [`Engine`] sub-update methods, so that any two of them
//! produce the *same arithmetic* on the mesh points they both own.  The
//! algorithms differ only in when they exchange halos, how often the
//! collective operator `C` runs fresh, and on which regions they sweep —
//! exactly the knobs the paper turns.

use crate::adaptation::{adaptation_tendency_path, fused_adaptation_update, FusedCtx};
use crate::advection::{advection_tendency_path, fused_advection_update};
use crate::boundary;
use crate::config::ModelConfig;
use crate::diag::Diag;
use crate::filterop::{build_filter, filter_row, filter_state_distributed, filter_state_local};
use crate::geometry::{LocalGeometry, Region};
use crate::lanes::KernelPath;
use crate::pool;
use crate::state::State;
use crate::stdatm::StandardAtmosphere;
use crate::vertical::{apply_c_path, ZContext};
use agcm_comm::{CommResult, Communicator};
use agcm_fft::{FilterScratch, FourierFilter};
use agcm_obs as obs;

/// How the Fourier filtering `F̃` runs for this rank.
pub enum FilterCtx<'a> {
    /// Full circles owned locally (`p_x = 1`): the communication-free path.
    Local,
    /// Circles split along x: transpose filter on this x-axis communicator.
    Distributed(&'a Communicator),
}

/// The per-rank integration engine: geometry, reference atmosphere, filter
/// and the diagnostic scratch (which doubles as the `C`-output cache of the
/// approximate nonlinear iteration).
pub struct Engine {
    /// Model configuration.
    pub cfg: ModelConfig,
    /// Local geometry.
    pub geom: LocalGeometry,
    /// Standard stratification.
    pub stdatm: StandardAtmosphere,
    /// Polar filter profiles.
    pub filter: FourierFilter,
    /// Diagnostics / C-output cache.
    pub diag: Diag,
    /// FFT tables and per-worker arenas of the local filter path, warmed
    /// at this rank's circle length for the configured worker count (zero
    /// steady-state allocation).
    fscratch: FilterScratch,
    /// `active_j[j + active_off]` — whether local row `j` (including halo
    /// mirror rows) is polar-filter active; precomputed so the fused sweeps
    /// can branch per row without re-deriving global indices.
    active_j: Vec<bool>,
    /// Offset mapping local row `j` into `active_j`.
    active_off: isize,
    /// Whether the fused tendency+lincomb sweeps run (local-filter path
    /// only); togglable at runtime so benchmarks can measure the unfused
    /// baseline in the same binary.
    fuse: bool,
    /// Which kernel implementation the sweeps dispatch to (lanes by
    /// default; togglable so benchmarks can reproduce earlier baselines
    /// in the same binary — every path is bitwise identical).
    path: KernelPath,
    /// Cache-block height (rows) of the fused sweeps' j-k tiling.
    tile_j: usize,
    /// Whether `diag.{vsum, gw, phi_p}` hold valid (possibly stale) values.
    pub c_cached: bool,
    /// Whether this rank owns full longitude circles (enables the local
    /// x-wrap; false only under X-Y decompositions).
    pub px1: bool,
}

impl Engine {
    /// Build an engine for one rank.
    pub fn new(cfg: &ModelConfig, geom: LocalGeometry, px1: bool) -> Self {
        let stdatm = StandardAtmosphere::new(&geom.grid);
        let filter = build_filter(&geom, cfg.filter_cutoff_deg);
        let diag = Diag::new(&geom);
        // polar-filter activity per local row, over the full halo-extended
        // j range (fused sweeps may cover dilated CA regions)
        let active_off = geom.halo.ym as isize;
        // model construction, not the stepping path: lint:allow(alloc)
        let active_j: Vec<bool> = (-active_off..geom.ny as isize + geom.halo.yp as isize)
            .map(|j| filter.is_active(filter_row(&geom, j)))
            .collect();
        // one FFT arena per configured worker, warmed so the local filter
        // is allocation-free from the first step
        let mut fscratch = FilterScratch::new();
        if px1 {
            fscratch.warm(geom.nx, pool::workers());
        }
        let tile_j = autotune_tile_j(&geom, &stdatm, &filter);
        Engine {
            cfg: cfg.clone(),
            geom,
            stdatm,
            filter,
            diag,
            fscratch,
            active_j,
            active_off,
            fuse: true,
            path: KernelPath::build_default(),
            tile_j,
            c_cached: false,
            px1,
        }
    }

    /// Toggle the fused tendency+lincomb sweeps (on by default).  Purely a
    /// scheduling choice: fused and unfused results are bitwise identical.
    pub fn set_fusion(&mut self, on: bool) {
        self.fuse = on;
    }

    /// Select the kernel path every sweep dispatches to (lanes / rows /
    /// scalar — bitwise identical; a pure scheduling choice).  Benchmarks
    /// use [`KernelPath::Rows`] to reproduce the PR 4 kernel baseline.
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        self.path = path;
    }

    /// The kernel path the sweeps currently dispatch to.
    pub fn kernel_path(&self) -> KernelPath {
        self.path
    }

    /// The fused sweeps' cache-block height in j (autotuned or pinned by
    /// `AGCM_TILE_J`).
    pub fn tile_j(&self) -> usize {
        self.tile_j
    }

    /// Fill physical-boundary halos of `st` (and wrap x when owned whole).
    pub fn fill(&self, st: &mut State) {
        boundary::enforce_pole_v(st, &self.geom);
        boundary::fill_boundaries_no_wrap(st, &self.geom);
        if self.px1 {
            st.wrap_x();
        }
    }

    fn apply_filter(
        &mut self,
        tend: &mut State,
        region: Region,
        fctx: &FilterCtx<'_>,
    ) -> CommResult<()> {
        // F̃ span; the distributed path's alltoallv inherits Phase::F
        let _f = obs::span_phase(obs::SpanKind::Op, obs::Phase::F, "filter");
        match fctx {
            FilterCtx::Local => {
                filter_state_local(&self.geom, &self.filter, tend, region, &mut self.fscratch);
                Ok(())
            }
            FilterCtx::Distributed(xc) => {
                filter_state_distributed(&self.geom, &self.filter, tend, region, xc)
            }
        }
    }

    /// Whether local row `j` is polar-filter active.
    #[inline]
    fn row_active(&self, j: isize) -> bool {
        self.active_j[(j + self.active_off) as usize]
    }

    /// The `out = base + dt·tend` completion of the filter-ACTIVE rows of a
    /// fused sub-update (the inactive rows were combined inside the fused
    /// sweep, before filtering — which skips them — could touch them).
    fn lincomb_active_rows(
        &self,
        out: &mut State,
        base: &State,
        dt: f64,
        tend: &State,
        region: Region,
    ) {
        for j in region.y0..region.y1 {
            if self.row_active(j) {
                let row = Region {
                    y0: j,
                    y1: j + 1,
                    z0: region.z0,
                    z1: region.z1,
                };
                out.lincomb_on(base, dt, tend, &row);
            }
        }
    }

    /// One adaptation sub-update: `out = base + dt·F̃(Ĉ + Â(arg))` on
    /// `region`.
    ///
    /// * `fresh_c = true` — the original iteration: run the collective `C`
    ///   on `arg` (refreshing `vsum`, `g_w`, `φ'`),
    /// * `fresh_c = false` — the approximate iteration (§4.2.2): reuse the
    ///   cached `C` outputs of an earlier state; only the local stencil
    ///   diagnostics (`D_sa`, `D(P)`, surface fields) are recomputed.
    ///
    /// Requires `arg` valid one row/level beyond `region` (owned halos via
    /// exchange; boundary halos are filled here).
    #[allow(clippy::too_many_arguments)]
    pub fn adaptation_subupdate(
        &mut self,
        base: &State,
        arg: &mut State,
        out: &mut State,
        tend: &mut State,
        region: Region,
        dt: f64,
        fresh_c: bool,
        zctx: &ZContext<'_>,
        fctx: &FilterCtx<'_>,
    ) -> CommResult<()> {
        // Â spans bracket only the stencil work; the nested C (collective)
        // and F̃ (filter) operators open their own spans, so per-operator
        // wall times are disjoint and sum to the sub-update total.
        {
            let _a = obs::span_phase(obs::SpanKind::Op, obs::Phase::A, "adaptation.local");
            self.fill(arg);
            self.diag
                .update_surface(&self.geom, &self.stdatm, arg, region.y0 - 1, region.y1 + 1);
            if !fresh_c {
                debug_assert!(self.c_cached, "approximate iteration without a cache");
                // stencil (Â) parts still evaluate at `arg`
                self.diag.update_dsa(&self.geom, arg, region.y0, region.y1);
                self.diag.update_dp(
                    &self.geom,
                    arg,
                    region.y0,
                    region.y1,
                    region.z0,
                    region.z1,
                    if self.px1 { 0 } else { 1 },
                );
            }
        }
        if fresh_c {
            // dsa/dp are inputs of apply_c's column sums
            apply_c_path(
                &self.geom,
                &self.stdatm,
                arg,
                &mut self.diag,
                region,
                zctx,
                self.px1,
                self.path,
            )?;
            self.c_cached = true;
        }
        if self.fuse && matches!(fctx, FilterCtx::Local) {
            // fused sweep: tendency + lincomb of the filter-inactive rows
            // in one cache-hot pass; certified as "adaptation.fused" in
            // `core::access` and proven by `verify::dataflow`
            {
                let _a = obs::span_phase(obs::SpanKind::Op, obs::Phase::A, "adaptation.fused");
                let fc = FusedCtx {
                    base,
                    dt,
                    active: &self.active_j,
                    active_off: self.active_off,
                };
                fused_adaptation_update(
                    &self.geom,
                    arg,
                    &self.diag,
                    &fc,
                    tend,
                    out,
                    region,
                    self.path,
                    self.tile_j,
                );
            }
            self.apply_filter(tend, region, fctx)?;
            let _a = obs::span_phase(obs::SpanKind::Op, obs::Phase::A, "adaptation.lincomb");
            self.lincomb_active_rows(out, base, dt, tend, region);
            return Ok(());
        }
        {
            let _a = obs::span_phase(obs::SpanKind::Op, obs::Phase::A, "adaptation.tendency");
            adaptation_tendency_path(&self.geom, arg, &self.diag, tend, region, self.path);
        }
        self.apply_filter(tend, region, fctx)?;
        {
            let _a = obs::span_phase(obs::SpanKind::Op, obs::Phase::A, "adaptation.lincomb");
            out.lincomb_on(base, dt, tend, &region);
        }
        Ok(())
    }

    /// One advection sub-update: `out = base + dt·F̃(L̃(arg))` on `region`,
    /// using the frozen `g_w` diagnostic (no collective — the `(F̃ L̃)³`
    /// factor of the operator form is collective-free).
    #[allow(clippy::too_many_arguments)]
    pub fn advection_subupdate(
        &mut self,
        base: &State,
        arg: &mut State,
        out: &mut State,
        tend: &mut State,
        region: Region,
        dt: f64,
        fctx: &FilterCtx<'_>,
    ) -> CommResult<()> {
        if self.fuse && matches!(fctx, FilterCtx::Local) {
            {
                let _l = obs::span_phase(obs::SpanKind::Op, obs::Phase::L, "advection.fused");
                self.fill(arg);
                self.diag.update_surface(
                    &self.geom,
                    &self.stdatm,
                    arg,
                    region.y0 - 1,
                    region.y1 + 1,
                );
                let fc = FusedCtx {
                    base,
                    dt,
                    active: &self.active_j,
                    active_off: self.active_off,
                };
                fused_advection_update(
                    &self.geom,
                    arg,
                    &self.diag,
                    &fc,
                    tend,
                    out,
                    region,
                    self.path,
                    self.tile_j,
                );
            }
            self.apply_filter(tend, region, fctx)?;
            let _l = obs::span_phase(obs::SpanKind::Op, obs::Phase::L, "advection.lincomb");
            self.lincomb_active_rows(out, base, dt, tend, region);
            return Ok(());
        }
        {
            let _l = obs::span_phase(obs::SpanKind::Op, obs::Phase::L, "advection.tendency");
            self.fill(arg);
            self.diag
                .update_surface(&self.geom, &self.stdatm, arg, region.y0 - 1, region.y1 + 1);
            advection_tendency_path(&self.geom, arg, &self.diag, tend, region, self.path);
        }
        self.apply_filter(tend, region, fctx)?;
        {
            let _l = obs::span_phase(obs::SpanKind::Op, obs::Phase::L, "advection.lincomb");
            out.lincomb_on(base, dt, tend, &region);
        }
        Ok(())
    }

    /// Apply the Held–Suarez forcing (if enabled) to `st` on `region`.
    pub fn apply_forcing(&mut self, st: &mut State, region: Region) {
        if !self.cfg.held_suarez {
            return;
        }
        self.fill(st);
        self.diag
            .update_surface(&self.geom, &self.stdatm, st, region.y0, region.y1);
        crate::forcing::apply_held_suarez(
            &self.geom,
            &self.stdatm,
            &self.diag,
            st,
            region,
            self.cfg.dt2,
        );
    }

    /// The per-sweep target region of the communication-avoiding schedule:
    /// sweep `s` (1-based) of `total` sweeps covers the interior dilated by
    /// `total − s` rows/levels on every side facing a real neighbour.
    pub fn ca_region(&self, s: usize, total: usize) -> Region {
        let d = (total - s) as isize;
        self.geom.interior().dilate(
            d,
            d,
            self.geom.ny,
            self.geom.nz,
            self.geom.halo,
            self.geom.grow_sides(),
        )
    }
}

/// Pick the fused sweeps' cache-block height in j — a small autotuner.
///
/// `AGCM_TILE_J` (≥ 1, strict parse) pins the height.  Otherwise candidate
/// heights are timed against the real fused adaptation sweep on a synthetic
/// resting state and the fastest is kept.  The fused result is bitwise
/// invariant to the tile height (rows are independent), so the choice is
/// purely a scheduling one — timing noise can never change the physics.
fn autotune_tile_j(
    geom: &LocalGeometry,
    stdatm: &StandardAtmosphere,
    filter: &FourierFilter,
) -> usize {
    let forced: usize = agcm_comm::env::parse_env_or("AGCM_TILE_J", 0usize);
    if forced >= 1 {
        return forced;
    }
    let ny = geom.ny.max(1);
    // engine construction, not the stepping path: transient states and the
    // activity table are dropped before the first step
    let mut arg = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
    boundary::enforce_pole_v(&mut arg, geom);
    boundary::fill_boundaries_no_wrap(&mut arg, geom);
    arg.wrap_x();
    let mut diag = Diag::new(geom);
    let region = geom.interior();
    diag.update_surface(geom, stdatm, &arg, region.y0 - 1, region.y1 + 1);
    let mut tend = State::like(&arg);
    let mut out = State::like(&arg);
    let base = State::like(&arg);
    let active_off = geom.halo.ym as isize;
    // model construction, not the stepping path: lint:allow(alloc)
    let active: Vec<bool> = (-active_off..geom.ny as isize + geom.halo.yp as isize)
        .map(|j| filter.is_active(filter_row(geom, j)))
        .collect();
    let fc = FusedCtx {
        base: &base,
        dt: 1.0,
        active: &active,
        active_off,
    };
    let mut best = (f64::INFINITY, 1usize);
    let mut prev = 0usize;
    for cand in [1usize, 2, 4, 8, ny] {
        let tj = cand.min(ny);
        if tj == prev {
            continue; // candidates are nondecreasing once saturated at ny
        }
        prev = tj;
        let mut t_tj = f64::INFINITY;
        pool::with_workers(1, || {
            // one warm pass, then keep the best of two timed passes
            for pass in 0..3 {
                let t0 = std::time::Instant::now();
                fused_adaptation_update(
                    geom,
                    &arg,
                    &diag,
                    &fc,
                    &mut tend,
                    &mut out,
                    region,
                    KernelPath::build_default(),
                    tj,
                );
                if pass > 0 {
                    t_tj = t_tj.min(t0.elapsed().as_secs_f64());
                }
            }
        });
        if t_tj < best.0 {
            best = (t_tj, tj);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
    use std::sync::Arc;

    fn engine() -> Engine {
        let cfg = ModelConfig::test_small();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let geom = LocalGeometry::new(&cfg, grid, &d, 0, HaloWidths::uniform(3));
        Engine::new(&cfg, geom, true)
    }

    #[test]
    fn subupdate_of_rest_is_identity() {
        let mut e = engine();
        let mut psi = crate::init::rest(&e.geom);
        let base = psi.clone();
        let mut out = State::like(&psi);
        let mut tend = State::like(&psi);
        let region = e.geom.interior();
        e.adaptation_subupdate(
            &base,
            &mut psi,
            &mut out,
            &mut tend,
            region,
            e.cfg.dt1,
            true,
            &ZContext::Serial,
            &FilterCtx::Local,
        )
        .unwrap();
        assert_eq!(out.max_abs_diff(&base), 0.0);
        e.advection_subupdate(
            &base,
            &mut psi,
            &mut out,
            &mut tend,
            region,
            e.cfg.dt2,
            &FilterCtx::Local,
        )
        .unwrap();
        assert_eq!(out.max_abs_diff(&base), 0.0);
    }

    #[test]
    fn cached_c_subupdate_reuses_stale_outputs() {
        let mut e = engine();
        let mut psi = crate::init::perturbed_rest(&e.geom, 200.0, 0.0, 3);
        let base = psi.clone();
        let mut out_fresh = State::like(&psi);
        let mut out_cached = State::like(&psi);
        let mut tend = State::like(&psi);
        let region = e.geom.interior();
        // fresh C at psi — establishes the cache
        e.adaptation_subupdate(
            &base,
            &mut psi,
            &mut out_fresh,
            &mut tend,
            region,
            10.0,
            true,
            &ZContext::Serial,
            &FilterCtx::Local,
        )
        .unwrap();
        // cached C on the SAME state must reproduce the same update
        e.adaptation_subupdate(
            &base,
            &mut psi,
            &mut out_cached,
            &mut tend,
            region,
            10.0,
            false,
            &ZContext::Serial,
            &FilterCtx::Local,
        )
        .unwrap();
        assert!(out_fresh.max_abs_diff(&out_cached) < 1e-13);
        // but on a DIFFERENT state the cached-C update differs from fresh
        let mut psi2 = crate::init::perturbed_rest(&e.geom, 350.0, 0.0, 4);
        let mut out_cached2 = State::like(&psi);
        e.adaptation_subupdate(
            &base,
            &mut psi2,
            &mut out_cached2,
            &mut tend,
            region,
            10.0,
            false,
            &ZContext::Serial,
            &FilterCtx::Local,
        )
        .unwrap();
        let mut out_fresh2 = State::like(&psi);
        e.adaptation_subupdate(
            &base,
            &mut psi2,
            &mut out_fresh2,
            &mut tend,
            region,
            10.0,
            true,
            &ZContext::Serial,
            &FilterCtx::Local,
        )
        .unwrap();
        assert!(out_cached2.max_abs_diff(&out_fresh2) > 0.0);
    }

    #[test]
    fn ca_regions_shrink_per_sweep() {
        let cfg = ModelConfig::test_small();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::yz(2, 2).unwrap()).unwrap();
        // interior rank in y (rank cy=1 of 2 is at south — pick a 2x2 grid
        // middle-ish rank: coords (0, 1, 0): south in y? ny=10, py=2: rank 1
        let geom = LocalGeometry::new(&cfg, grid, &d, 1, HaloWidths::uniform(3));
        let e = Engine::new(&cfg, geom, true);
        let r1 = e.ca_region(1, 3);
        let r2 = e.ca_region(2, 3);
        let r3 = e.ca_region(3, 3);
        assert!(r1.contains(&r2) && r2.contains(&r3));
        assert_eq!(r3, e.geom.interior());
        // the north side faces a neighbour → dilated; the south is a pole
        assert!(r1.y0 < 0);
        assert_eq!(r1.y1, e.geom.ny as isize);
    }
}
