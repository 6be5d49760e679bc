//! The shared integration engine.
//!
//! Every integrator — serial reference, parallel Algorithm 1 (original,
//! X-Y or Y-Z decomposition) and Algorithm 2 (communication-avoiding) —
//! drives the same [`Engine`] sub-update methods, so that any two of them
//! produce the *same arithmetic* on the mesh points they both own.  The
//! algorithms differ only in when they exchange halos, how often the
//! collective operator `C` runs fresh, and on which regions they sweep —
//! exactly the knobs the paper turns.

use crate::adaptation::fused_adaptation_update;
use crate::advection::fused_advection_update;
use crate::boundary;
use crate::config::ModelConfig;
use crate::diag::Diag;
use crate::filterop::{build_filter, filter_distributed_then, filter_local_then, filter_row};
use crate::geometry::{LocalGeometry, Region};
use crate::pool;
use crate::state::{Combine, State};
use crate::stdatm::StandardAtmosphere;
use crate::sweep::{SweepScratch, Update};
use crate::vertical::{apply_c, ZContext};
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
    /// Per-worker row buffers of the tendency sweeps, warmed like
    /// `fscratch`.
    sscratch: SweepScratch,
    /// `active_j[j + active_off]` — whether local row `j` (including halo
    /// mirror rows) is polar-filter active; precomputed so the sweeps can
    /// branch per row without re-deriving global indices.
    active_j: Vec<bool>,
    /// Offset mapping local row `j` into `active_j`.
    active_off: isize,
    /// Whether `diag.{vsum, gw, phi_p}` hold valid (possibly stale) values.
    pub c_cached: bool,
    /// Whether this rank owns full longitude circles (enables the local
    /// x-wrap; false only under X-Y decompositions).
    pub px1: bool,
}

impl Engine {
    /// Build an engine for one rank.
    pub fn new(cfg: &ModelConfig, geom: LocalGeometry, px1: bool) -> Self {
        // the pool's row bands keep one slice per level on the stack
        let planes = geom.nz + 1 + geom.halo.zm + geom.halo.zp;
        assert!(
            planes <= agcm_mesh::MAX_BAND_PLANES,
            "{planes} levels with halos: the worker pool's row bands hold at most {}",
            agcm_mesh::MAX_BAND_PLANES
        );
        let stdatm = StandardAtmosphere::new(&geom.grid);
        let filter = build_filter(&geom, cfg.filter_cutoff_deg);
        let diag = Diag::new(&geom);
        // polar-filter activity per local row, over the full halo-extended
        // j range (sweeps may cover dilated CA regions)
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
        let mut sscratch = SweepScratch::new();
        sscratch.warm(geom.nx, pool::workers());
        Engine {
            cfg: cfg.clone(),
            geom,
            stdatm,
            filter,
            diag,
            fscratch,
            sscratch,
            active_j,
            active_off,
            c_cached: false,
            px1,
        }
    }

    /// Fill physical-boundary halos of `st` (and wrap x when owned whole).
    pub fn fill(&self, st: &mut State) {
        boundary::enforce_pole_v(st, &self.geom);
        boundary::fill_boundaries_no_wrap(st, &self.geom);
        if self.px1 {
            st.wrap_x();
        }
    }

    /// One adaptation sub-update: `out = form(base, dt·F̃(Ĉ + Â(arg)))` on
    /// `region`.
    ///
    /// * `base = None` — the base is `arg` itself (the first sub-update of
    ///   an iteration), read after `arg`'s boundaries are filled.  That
    ///   differs from a snapshot taken before the fill only on the
    ///   south-pole face row of `V`, which the fill pins to zero: there
    ///   the tendency is zero as well (`sin θ = 0`), so `out.v` holds the
    ///   base's value on that row — and every reader of `out` (the next
    ///   sub-update, the forcing, the smoothing) fills it first, pinning
    ///   the row again before anything is read from it,
    /// * `fresh_c = true` — the original iteration: run the collective `C`
    ///   on `arg` (refreshing `vsum`, `g_w`, `φ'`),
    /// * `fresh_c = false` — the approximate iteration (§4.2.2): reuse the
    ///   cached `C` outputs of an earlier state; only the local stencil
    ///   diagnostics (`D_sa`, `D(P)`, surface fields) are recomputed.
    ///
    /// Requires `arg` valid one row/level beyond `region` (owned halos via
    /// exchange; boundary halos are filled here).  A polar-filter-active
    /// row's tendency passes through its own row of `out` ([`crate::sweep`]).
    #[allow(clippy::too_many_arguments)]
    pub fn adaptation_subupdate(
        &mut self,
        base: Option<&State>,
        arg: &mut State,
        out: &mut State,
        region: Region,
        dt: f64,
        form: Combine,
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
        let arg = &*arg;
        if fresh_c {
            // dsa/dp are inputs of apply_c's column sums
            apply_c(
                &self.geom,
                &self.stdatm,
                arg,
                &mut self.diag,
                region,
                zctx,
                self.px1,
            )?;
            self.c_cached = true;
        }
        let upd = Update {
            base: base.unwrap_or(arg),
            dt,
            form,
            active: &self.active_j,
            active_off: self.active_off,
        };
        {
            // certified as "adaptation.fused" in `core::access` and proven
            // by `verify::dataflow`
            let _a = obs::span_phase(obs::SpanKind::Op, obs::Phase::A, "adaptation.fused");
            fused_adaptation_update(
                &self.geom,
                arg,
                &self.diag,
                &upd,
                out,
                region,
                &mut self.sscratch,
            );
        }
        filter_and_combine(
            &self.geom,
            &self.filter,
            &mut self.fscratch,
            &upd,
            out,
            region,
            fctx,
        )
    }

    /// One advection sub-update: `out = form(base, dt·F̃(L̃(arg)))` on
    /// `region`, using the frozen `g_w` diagnostic (no collective — the
    /// `(F̃ L̃)³` factor of the operator form is collective-free).  `base`
    /// and `out` as in [`Self::adaptation_subupdate`].
    #[allow(clippy::too_many_arguments)]
    pub fn advection_subupdate(
        &mut self,
        base: Option<&State>,
        arg: &mut State,
        out: &mut State,
        region: Region,
        dt: f64,
        form: Combine,
        fctx: &FilterCtx<'_>,
    ) -> CommResult<()> {
        let sweep_span = obs::span_phase(obs::SpanKind::Op, obs::Phase::L, "advection.fused");
        self.fill(arg);
        self.advection_on(sweep_span, base, arg, out, region, dt, form, fctx)
    }

    /// [`Self::advection_subupdate`] on one part of a sweep that is split
    /// across an exchange (§4.3.1): `arg`'s boundaries are already filled —
    /// once for the part swept while the messages fly, once after they land
    /// — so the parts of a sweep share a fill instead of repeating it.
    #[allow(clippy::too_many_arguments)]
    pub fn advection_part(
        &mut self,
        base: Option<&State>,
        arg: &State,
        out: &mut State,
        region: Region,
        dt: f64,
        form: Combine,
        fctx: &FilterCtx<'_>,
    ) -> CommResult<()> {
        let sweep_span = obs::span_phase(obs::SpanKind::Op, obs::Phase::L, "advection.fused");
        self.advection_on(sweep_span, base, arg, out, region, dt, form, fctx)
    }

    #[allow(clippy::too_many_arguments)]
    fn advection_on(
        &mut self,
        sweep_span: obs::Span,
        base: Option<&State>,
        arg: &State,
        out: &mut State,
        region: Region,
        dt: f64,
        form: Combine,
        fctx: &FilterCtx<'_>,
    ) -> CommResult<()> {
        self.diag
            .update_surface(&self.geom, &self.stdatm, arg, region.y0 - 1, region.y1 + 1);
        let upd = Update {
            base: base.unwrap_or(arg),
            dt,
            form,
            active: &self.active_j,
            active_off: self.active_off,
        };
        fused_advection_update(
            &self.geom,
            arg,
            &self.diag,
            &upd,
            out,
            region,
            &mut self.sscratch,
        );
        drop(sweep_span);
        filter_and_combine(
            &self.geom,
            &self.filter,
            &mut self.fscratch,
            &upd,
            out,
            region,
            fctx,
        )
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
}

/// The rest of a sub-update after its sweep: `F̃` on the filter-active rows
/// of `region`, whose raw tendencies the sweep left in `out`, each row then
/// combined in place — `out = form(base, dt·F̃(t))` — as soon as it is
/// filtered.  A free function over the engine's parts so a sub-update can
/// keep borrowing its row-activity table across the call.
pub(crate) fn filter_and_combine(
    geom: &LocalGeometry,
    filter: &FourierFilter,
    fscratch: &mut FilterScratch,
    upd: &Update<'_>,
    out: &mut State,
    region: Region,
    fctx: &FilterCtx<'_>,
) -> CommResult<()> {
    // F̃ span; the distributed path's alltoallv inherits Phase::F
    let _f = obs::span_phase(obs::SpanKind::Op, obs::Phase::F, "filter");
    let done = |row: &mut [f64], id| upd.combine_filtered(row, id);
    match fctx {
        FilterCtx::Local => {
            filter_local_then(geom, filter, out, region, fscratch, done);
            Ok(())
        }
        FilterCtx::Distributed(xc) => filter_distributed_then(geom, filter, out, region, xc, done),
    }
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
        let region = e.geom.interior();
        e.adaptation_subupdate(
            Some(&base),
            &mut psi,
            &mut out,
            region,
            e.cfg.dt1,
            Combine::Euler,
            true,
            &ZContext::Serial,
            &FilterCtx::Local,
        )
        .unwrap();
        assert_eq!(out.max_abs_diff(&base), 0.0);
        e.advection_subupdate(
            Some(&base),
            &mut psi,
            &mut out,
            region,
            e.cfg.dt2,
            Combine::Euler,
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
        let region = e.geom.interior();
        // fresh C at psi — establishes the cache
        e.adaptation_subupdate(
            Some(&base),
            &mut psi,
            &mut out_fresh,
            region,
            10.0,
            Combine::Euler,
            true,
            &ZContext::Serial,
            &FilterCtx::Local,
        )
        .unwrap();
        // cached C on the SAME state must reproduce the same update
        e.adaptation_subupdate(
            Some(&base),
            &mut psi,
            &mut out_cached,
            region,
            10.0,
            Combine::Euler,
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
            Some(&base),
            &mut psi2,
            &mut out_cached2,
            region,
            10.0,
            Combine::Euler,
            false,
            &ZContext::Serial,
            &FilterCtx::Local,
        )
        .unwrap();
        let mut out_fresh2 = State::like(&psi);
        e.adaptation_subupdate(
            Some(&base),
            &mut psi2,
            &mut out_fresh2,
            region,
            10.0,
            Combine::Euler,
            true,
            &ZContext::Serial,
            &FilterCtx::Local,
        )
        .unwrap();
        assert!(out_cached2.max_abs_diff(&out_fresh2) > 0.0);
    }
}
