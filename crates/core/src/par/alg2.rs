//! Parallel **Algorithm 2** — the communication-avoiding algorithm (§4.4).
//!
//! Runs under the Y-Z decomposition only (`p_x = 1`), so the Fourier
//! filtering is communication-free (§4.2.1).  Per time step:
//!
//! * deep halos feed **groups of sweeps** between exchanges: with blocks
//!   large enough for the full `3M(+2)`-deep halo the schedule is the
//!   paper's — **two** exchanges per step instead of `3M + 4` — and with
//!   smaller blocks the group size `g` clamps (iteration-aligned, see
//!   [`crate::analysis::ca_group_size`]) and the frequency degrades
//!   gracefully to `⌈3M/g⌉ + ⌈3/g_a⌉ (+1)`,
//! * the first exchange fuses the **smoothing** of the previous step
//!   (§4.3.2: former smoothing overlaps the messages; later smoothing
//!   completes edge and halo rows after they arrive) and ships the cached
//!   `C` outputs (`vsum`, `g_w`, `φ'`) alongside ξ — 7 arrays, echoing the
//!   paper's "length of ξ being ten",
//! * the **approximate nonlinear iteration** (§4.2.2) runs the collective
//!   `C` twice per iteration (the first sub-update reuses the cached
//!   outputs), eliminating one third of the collective traffic,
//! * exchanges are split into post/compute/finish so computation overlaps
//!   communication (§4.3.1),
//! * halo sweeps are redundant: with validity `v` layers left, a sweep
//!   covers the interior dilated by `v − 1`.

use crate::analysis::ca_group_size;
use crate::config::ModelConfig;
use crate::dycore::{Engine, FilterCtx};
use crate::error::ModelError;
use crate::geometry::{frame, LocalGeometry, Region};
use crate::par::exchange::{state_fields, ExField, HaloExchanger, Pending};
use crate::smoothing::smooth_full;
use crate::state::{Combine, State};
use crate::vertical::ZContext;
use agcm_comm::{CommResult, Communicator};
use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
use agcm_obs as obs;
use std::sync::Arc;

/// Parallel communication-avoiding algorithm (Algorithm 2).
pub struct CaModel {
    /// The shared engine.
    pub engine: Engine,
    /// Current state — **unsmoothed** after a step: the smoothing is fused
    /// into the next step (or applied by [`CaModel::finish`]).
    pub state: State,
    /// Completed steps.
    pub steps: usize,
    /// Whether `state` still awaits its smoothing.
    pub pending_smooth: bool,
    /// Adaptation sweeps per exchange (`3M` when the blocks allow it).
    pub group: usize,
    /// Whether the smoothing is fused into the first deep exchange.
    pub fused_smoothing: bool,
    /// Advection sweeps per exchange.
    pub group_adv: usize,
    /// Degraded (post-rollback) mode: blocking instead of overlapped split
    /// exchanges, and exact `C(ψ^{i-1})` instead of the Eq. 13 reuse.
    pub degraded: bool,
    exchanger: HaloExchanger,
    zcomm: Option<Communicator>,
    deep: HaloWidths,
    group_depth: HaloWidths,
    sweep_depth: HaloWidths,
    shallow: HaloWidths,
    smooth_depth: HaloWidths,
    // scratch; `state`, `psi`, `psi0` and `eta1` trade buffers through a
    // step instead of being copied into one another
    psi: State,
    psi0: State,
    eta1: State,
    mid: State,
    tend: State,
}

impl CaModel {
    /// Build the CA model.  `pgrid` must be a Y-Z (or serial) grid; any
    /// block sizes are supported — the sweep-group size adapts.
    pub fn new(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
    ) -> Result<Self, ModelError> {
        if pgrid.px() != 1 {
            return Err(ModelError::Config(
                "the communication-avoiding algorithm requires a Y-Z decomposition (p_x = 1)"
                    .into(),
            ));
        }
        if comm.size() != pgrid.size() {
            return Err(ModelError::Config(format!(
                "communicator size {} != process grid size {}",
                comm.size(),
                pgrid.size()
            )));
        }
        let (g, fuse, ga) = ca_group_size(cfg, &pgrid);
        // shared with the static schedule metadata so analyzer and
        // integrator cannot drift
        let depths = super::schedule::ca_depths(g, fuse, ga);
        let deep = depths.deep;
        let group_depth = depths.group;
        let sweep_depth = depths.sweep;
        let shallow = depths.shallow;
        let smooth_depth = depths.smooth;
        // allocate the max of every depth in use
        let halo = deep.max(shallow).max(smooth_depth);

        let grid = Arc::new(cfg.grid()?);
        let decomp = Decomposition::new(cfg.extents(), pgrid)?;
        let rank = comm.rank();
        let geom = LocalGeometry::new(cfg, Arc::clone(&grid), &decomp, rank, halo);
        let exchanger = HaloExchanger::new(decomp, rank);
        exchanger.validate_depth(deep).map_err(ModelError::Config)?;
        exchanger
            .validate_depth(shallow)
            .map_err(ModelError::Config)?;

        let (_, _py, pz) = pgrid.dims();
        let (_, cy, _cz) = pgrid.coords(rank);
        let zcomm = if pz > 1 {
            Some(comm.split(cy, rank)?)
        } else {
            None
        };

        let engine = Engine::new(cfg, geom, true);
        let state = State::new(engine.geom.nx, engine.geom.ny, engine.geom.nz, halo);
        let scratch = || State::like(&state);
        Ok(CaModel {
            psi: scratch(),
            psi0: scratch(),
            eta1: scratch(),
            mid: scratch(),
            tend: scratch(),
            engine,
            state,
            steps: 0,
            pending_smooth: false,
            group: g,
            fused_smoothing: fuse,
            group_adv: ga,
            degraded: false,
            exchanger,
            zcomm,
            deep,
            group_depth,
            sweep_depth,
            shallow,
            smooth_depth,
        })
    }

    /// Replace the state with an initial condition.
    pub fn set_state(&mut self, st: &State) {
        self.state.assign(st);
        self.engine.c_cached = false;
        self.pending_smooth = false;
    }

    /// Local geometry.
    pub fn geom(&self) -> &LocalGeometry {
        &self.engine.geom
    }

    /// Enter/leave degraded mode (rollback recovery): exchanges become
    /// blocking (no compute inside the communication window) and every
    /// adaptation sub-update recomputes `C` exactly instead of reusing the
    /// cached outputs — the most conservative schedule the model has.
    pub fn set_degraded(&mut self, on: bool) {
        self.degraded = on;
    }

    /// Enable checksum-framed halo payloads with validated, retrying
    /// receives (see [`crate::par::exchange::RetryPolicy`]).
    pub fn set_framed(&mut self, on: bool) {
        self.exchanger.set_framed(on);
    }

    /// Change the framed-receive retry policy.
    pub fn set_retry(&mut self, retry: crate::par::exchange::RetryPolicy) {
        self.exchanger.set_retry(retry);
    }

    /// Re-align communication sequence numbers after a rollback (must be
    /// called collectively with the same `epoch`): halo-exchange tags and
    /// the z-communicator's collective tags jump to an epoch-derived base
    /// so the re-run can never match stragglers of the aborted attempt.
    pub fn resync(&mut self, epoch: u64) {
        self.exchanger.resync(epoch);
        if let Some(z) = &self.zcomm {
            z.resync_collectives(epoch);
        }
    }

    /// Snapshot everything a bitwise restart needs: the prognostic state,
    /// the cached `C` outputs (`vsum`, `g_w`, `φ'` — Algorithm 2 reuses
    /// them across steps, Eq. 13), and the step-loop flags.
    pub fn capture(&self) -> crate::resilience::Checkpoint {
        crate::resilience::Checkpoint {
            step: self.steps as u64,
            state: self.state.clone(),
            vsum: Some(self.engine.diag.vsum.clone()),
            gw: Some(self.engine.diag.gw.clone()),
            phi_p: Some(self.engine.diag.phi_p.clone()),
            c_cached: self.engine.c_cached,
            pending_smooth: self.pending_smooth,
        }
    }

    /// Restore a [`Self::capture`]d snapshot bit-for-bit.
    pub fn restore(&mut self, ck: &crate::resilience::Checkpoint) {
        self.steps = ck.step as usize;
        self.state.clone_from(&ck.state);
        if let (Some(vsum), Some(gw), Some(phi_p)) = (&ck.vsum, &ck.gw, &ck.phi_p) {
            self.engine.diag.vsum.clone_from(vsum);
            self.engine.diag.gw.clone_from(gw);
            self.engine.diag.phi_p.clone_from(phi_p);
            self.engine.c_cached = ck.c_cached;
        } else {
            // no cached-C arrays in the checkpoint: recompute on first use
            self.engine.c_cached = false;
        }
        self.pending_smooth = ck.pending_smooth;
    }

    /// Completed halo exchanges (all steps).
    pub fn exchange_count(&self) -> u64 {
        self.exchanger.exchanges
    }

    /// Halo exchanges one step costs at steady state:
    /// `⌈3M/g⌉ + ⌈3/g_a⌉ (+1 when the smoothing is not fused)`.
    pub fn exchanges_per_step(&self) -> u64 {
        let m = self.engine.cfg.m_iters;
        let adapt = if self.group == 1 {
            3 * m as u64 // one exchange per sweep
        } else {
            (3 * m).div_ceil(self.group) as u64
        };
        let adv = 3usize.div_ceil(self.group_adv) as u64;
        adapt + adv + u64::from(!self.fused_smoothing)
    }

    /// post+S1-overlap+recv of the step's first (deep) exchange
    fn deep_exchange(&mut self, comm: &Communicator) -> CommResult<()> {
        self.engine.fill(&mut self.state);
        let pending = {
            let mut fields = [
                ExField::F3(&mut self.state.u),
                ExField::F3(&mut self.state.v),
                ExField::F3(&mut self.state.phi),
                ExField::F2(&mut self.state.psa),
                ExField::F2(&mut self.engine.diag.vsum),
                ExField::F3(&mut self.engine.diag.gw),
                ExField::F3(&mut self.engine.diag.phi_p),
            ];
            self.exchanger.post_sends(comm, self.deep, &mut fields)?
        };
        // --- overlap: former smoothing on D1 (no neighbour data needed) ---
        let grow = self.engine.geom.grow_sides();
        let (ny, nz) = (self.engine.geom.ny, self.engine.geom.nz);
        let d1 = Region {
            y0: if grow.north { 2 } else { 0 },
            y1: if grow.south {
                ny as isize - 2
            } else {
                ny as isize
            },
            z0: 0,
            z1: nz as isize,
        };
        if self.pending_smooth && self.fused_smoothing && !self.degraded {
            // this is the compute the deep exchange hides (§4.3.1/§4.3.2)
            let _ov = obs::span(obs::SpanKind::OverlapCompute, "overlap.smooth_former");
            let _s1 = obs::span_phase(obs::SpanKind::Op, obs::Phase::S1, "smooth.former");
            smooth_full(
                &self.engine.geom,
                self.engine.cfg.smooth_beta,
                &self.state,
                &mut self.psi0,
                d1,
            );
        }
        {
            let mut fields = [
                ExField::F3(&mut self.state.u),
                ExField::F3(&mut self.state.v),
                ExField::F3(&mut self.state.phi),
                ExField::F2(&mut self.state.psa),
                ExField::F2(&mut self.engine.diag.vsum),
                ExField::F3(&mut self.engine.diag.gw),
                ExField::F3(&mut self.engine.diag.phi_p),
            ];
            self.exchanger.finish_recvs(comm, pending, &mut fields)?;
        }
        if self.pending_smooth && self.fused_smoothing && self.degraded {
            // blocking mode: the same D1 smoothing, run outside the (now
            // closed) exchange window — it reads no halo data, so the
            // result is bitwise the one the overlapped schedule produces
            let _s1 = obs::span_phase(obs::SpanKind::Op, obs::Phase::S1, "smooth.former");
            smooth_full(
                &self.engine.geom,
                self.engine.cfg.smooth_beta,
                &self.state,
                &mut self.psi0,
                d1,
            );
        }
        self.engine.fill(&mut self.state);
        self.engine.diag.gw.wrap_x_halo();
        self.engine.diag.phi_p.wrap_x_halo();
        self.engine.diag.vsum.wrap_x_halo();
        // --- later smoothing: edge rows + (redundantly) the halo areas ---
        let halo = self.engine.geom.halo;
        let outer = self.engine.geom.interior().dilate(
            self.group as isize,
            self.group as isize,
            ny,
            nz,
            halo,
            grow,
        );
        if self.pending_smooth && self.fused_smoothing {
            let _s2 = obs::span_phase(obs::SpanKind::Op, obs::Phase::S2, "smooth.later");
            for strip in frame(&outer, &d1) {
                smooth_full(
                    &self.engine.geom,
                    self.engine.cfg.smooth_beta,
                    &self.state,
                    &mut self.psi0,
                    strip,
                );
            }
            // ψ⁰ is the smoothed state: valid on `outer`, all the sweeps
            // of the first group read
            std::mem::swap(&mut self.psi, &mut self.psi0);
        } else {
            // ψ⁰ is the state as exchanged; `state` is assigned again at
            // the end of the step and not read in between
            std::mem::swap(&mut self.psi, &mut self.state);
        }
        Ok(())
    }

    /// exchange the cached-C trio + an adaptation state at group depth
    fn group_exchange(&mut self, comm: &Communicator) -> CommResult<()> {
        self.engine.fill(&mut self.psi);
        let mut fields = [
            ExField::F3(&mut self.psi.u),
            ExField::F3(&mut self.psi.v),
            ExField::F3(&mut self.psi.phi),
            ExField::F2(&mut self.psi.psa),
            ExField::F2(&mut self.engine.diag.vsum),
            ExField::F3(&mut self.engine.diag.gw),
            ExField::F3(&mut self.engine.diag.phi_p),
        ];
        self.exchanger
            .exchange(comm, self.group_depth, &mut fields)?;
        self.engine.diag.gw.wrap_x_halo();
        self.engine.diag.phi_p.wrap_x_halo();
        self.engine.diag.vsum.wrap_x_halo();
        Ok(())
    }

    /// Advance one time step (Algorithm 2 body, grouped-sweep form).
    pub fn step(&mut self, comm: &Communicator) -> CommResult<()> {
        obs::set_step(self.steps as u64);
        let _step = obs::span(obs::SpanKind::Step, "alg2.step");
        let m = self.engine.cfg.m_iters;
        let g = self.group;
        let ga = self.group_adv;
        let dt1 = self.engine.cfg.dt1;
        let dt2 = self.engine.cfg.dt2;
        let interior = self.engine.geom.interior();
        let grow = self.engine.geom.grow_sides();
        let (ny, nz) = (self.engine.geom.ny, self.engine.geom.nz);
        let halo = self.engine.geom.halo;
        let dil = |d: isize| interior.dilate(d, d, ny, nz, halo, grow);

        // ---- separate smoothing exchange when fusion does not fit --------
        if self.pending_smooth && !self.fused_smoothing {
            self.exchanger
                .exchange(comm, self.smooth_depth, &mut state_fields(&mut self.state))?;
            let _s = obs::span_phase(obs::SpanKind::Op, obs::Phase::S1, "smooth.full");
            self.engine.fill(&mut self.state);
            smooth_full(
                &self.engine.geom,
                self.engine.cfg.smooth_beta,
                &self.state,
                &mut self.psi0,
                interior,
            );
            std::mem::swap(&mut self.state, &mut self.psi0);
        }

        // ---- first deep exchange (+ fused smoothing) ----------------------
        self.deep_exchange(comm)?;
        let mut valid = g;

        let fctx = FilterCtx::Local;

        // ---- 3M adaptation sweeps in groups -------------------------------
        for _iter in 0..m {
            let _itspan = obs::span(obs::SpanKind::Iter, "adaptation.iter");
            if valid == 0 {
                // iteration-aligned group boundary
                self.group_exchange(comm)?;
                valid = g;
            }
            let zctx = match &self.zcomm {
                Some(z) => ZContext::Parallel(z),
                None => ZContext::Serial,
            };
            // degraded mode disables the Eq. 13 reuse: every sub-update
            // recomputes C(ψ^{i-1}) exactly
            let fresh1 = !self.engine.c_cached || self.degraded;
            // sub-update 1 (cached C): ψ is base and argument at once
            self.engine.adaptation_subupdate(
                None,
                &mut self.psi,
                &mut self.eta1,
                &mut self.tend,
                dil(valid as isize - 1),
                dt1,
                Combine::Euler,
                fresh1,
                &zctx,
                &fctx,
            )?;
            // sub-update 2 (fresh C) emits the midpoint ½(ψ + η₂) directly.
            // For g = 1 it covers the interior only — the midpoint's halos
            // are refreshed by the exchange just below.
            if g == 1 {
                self.exchanger.exchange(
                    comm,
                    self.sweep_depth,
                    &mut state_fields(&mut self.eta1),
                )?;
            }
            let region2 = if g == 1 {
                interior
            } else {
                dil(valid as isize - 2)
            };
            self.engine.adaptation_subupdate(
                Some(&self.psi),
                &mut self.eta1,
                &mut self.mid,
                &mut self.tend,
                region2,
                dt1,
                Combine::Midpoint,
                true,
                &zctx,
                &fctx,
            )?;
            // sub-update 3 (fresh C at the midpoint)
            if g == 1 {
                self.exchanger.exchange(
                    comm,
                    self.sweep_depth,
                    &mut state_fields(&mut self.mid),
                )?;
            }
            let region3 = if g == 1 {
                interior
            } else {
                dil(valid as isize - 3)
            };
            self.engine.adaptation_subupdate(
                Some(&self.psi),
                &mut self.mid,
                &mut self.eta1,
                &mut self.tend,
                region3,
                dt1,
                Combine::Euler,
                true,
                &zctx,
                &fctx,
            )?;
            // η₃, valid on `region3`, is the next iteration's ψ: its
            // sweeps read no further (the next group exchange refreshes
            // the rest)
            std::mem::swap(&mut self.psi, &mut self.eta1);
            valid = valid.saturating_sub(3);
        }

        // ================ advection: grouped the same way ==================
        // ψM is base and argument of sweep 1: its halos are stale until the
        // exchange lands, and the inner overlap sweep only touches interior
        // rows
        self.engine.fill(&mut self.psi);
        let pending: Pending = {
            let mut fields = [
                ExField::F3(&mut self.psi.u),
                ExField::F3(&mut self.psi.v),
                ExField::F3(&mut self.psi.phi),
                ExField::F2(&mut self.psi.psa),
                ExField::F3(&mut self.engine.diag.gw),
            ];
            self.exchanger.post_sends(comm, self.shallow, &mut fields)?
        };
        // overlap: sweep 1 on the inner part
        let dila = |d: isize| interior.dilate(d, d, ny, nz, self.shallow, grow);
        let outer1 = dila(ga as isize - 1);
        let inner1 = interior.shrink(1, 1);
        if !self.degraded {
            // inner-region sweep deliberately placed inside the exchange
            // window (§4.3.1)
            let _ov = obs::span(obs::SpanKind::OverlapCompute, "overlap.advection_inner");
            self.engine.advection_subupdate(
                None,
                &mut self.psi,
                &mut self.eta1,
                &mut self.tend,
                inner1,
                dt2,
                Combine::Euler,
                &fctx,
            )?;
        }
        {
            let mut fields = [
                ExField::F3(&mut self.psi.u),
                ExField::F3(&mut self.psi.v),
                ExField::F3(&mut self.psi.phi),
                ExField::F2(&mut self.psi.psa),
                ExField::F3(&mut self.engine.diag.gw),
            ];
            self.exchanger.finish_recvs(comm, pending, &mut fields)?;
        }
        self.engine.diag.gw.wrap_x_halo();
        // blocking mode: the inner sweep runs after the exchange closes (no
        // compute inside the communication window)
        let inner_late = self.degraded.then_some(inner1);
        for strip in inner_late.into_iter().chain(frame(&outer1, &inner1)) {
            self.engine.advection_subupdate(
                None,
                &mut self.psi,
                &mut self.eta1,
                &mut self.tend,
                strip,
                dt2,
                Combine::Euler,
                &fctx,
            )?;
        }
        let mut valida = ga - 1;
        // sweep 2 emits the midpoint directly
        if valida == 0 {
            let mut fields = [
                ExField::F3(&mut self.eta1.u),
                ExField::F3(&mut self.eta1.v),
                ExField::F3(&mut self.eta1.phi),
                ExField::F2(&mut self.eta1.psa),
                ExField::F3(&mut self.engine.diag.gw),
            ];
            self.exchanger.exchange(comm, self.shallow, &mut fields)?;
            self.engine.diag.gw.wrap_x_halo();
            valida = ga;
        }
        let region2 = dila(valida as isize - 1);
        let region2 = Region {
            y0: region2.y0.max(interior.y0 - 1),
            y1: region2.y1.min(interior.y1 + 1),
            z0: region2.z0.max(interior.z0 - 1),
            z1: region2.z1.min(interior.z1 + 1),
        };
        self.engine.advection_subupdate(
            Some(&self.psi),
            &mut self.eta1,
            &mut self.mid,
            &mut self.tend,
            region2,
            dt2,
            Combine::Midpoint,
            &fctx,
        )?;
        valida = valida.saturating_sub(1);
        // sweep 3 (midpoint)
        if valida == 0 {
            let mut fields = [
                ExField::F3(&mut self.mid.u),
                ExField::F3(&mut self.mid.v),
                ExField::F3(&mut self.mid.phi),
                ExField::F2(&mut self.mid.psa),
                ExField::F3(&mut self.engine.diag.gw),
            ];
            self.exchanger.exchange(comm, self.shallow, &mut fields)?;
            self.engine.diag.gw.wrap_x_halo();
        }
        self.engine.advection_subupdate(
            Some(&self.psi),
            &mut self.mid,
            &mut self.eta1,
            &mut self.tend,
            interior,
            dt2,
            Combine::Euler,
            &fctx,
        )?;

        // ================= physics; smoothing deferred =====================
        self.engine.apply_forcing(&mut self.eta1, interior);
        std::mem::swap(&mut self.state, &mut self.eta1);
        self.pending_smooth = true;
        self.steps += 1;
        Ok(())
    }

    /// Apply the deferred smoothing of the final step (Algorithm 2 line 30)
    /// with one shallow exchange.  Call once after the last [`Self::step`].
    pub fn finish(&mut self, comm: &Communicator) -> CommResult<()> {
        if !self.pending_smooth {
            return Ok(());
        }
        // stamp the epilogue with the step count, not the last step's
        // index: its exchange is not part of any steady-state step and
        // must not inflate that step's span counts in a trace
        obs::set_step(self.steps as u64);
        self.exchanger
            .exchange(comm, self.smooth_depth, &mut state_fields(&mut self.state))?;
        let _s = obs::span_phase(obs::SpanKind::Op, obs::Phase::S1, "smooth.full");
        self.engine.fill(&mut self.state);
        smooth_full(
            &self.engine.geom,
            self.engine.cfg.smooth_beta,
            &self.state,
            &mut self.psi0,
            self.engine.geom.interior(),
        );
        std::mem::swap(&mut self.state, &mut self.psi0);
        self.pending_smooth = false;
        Ok(())
    }

    /// Run `n` steps and apply the final smoothing.
    pub fn run(&mut self, comm: &Communicator, n: usize) -> CommResult<()> {
        for _ in 0..n {
            self.step(comm)?;
        }
        self.finish(comm)
    }
}

/// Gather the CA model's state to rank 0 (see
/// [`crate::par::alg1::gather_state_impl`]).
pub fn gather_ca_state(
    model: &CaModel,
    comm: &Communicator,
) -> CommResult<Option<crate::par::alg1::GlobalState>> {
    crate::par::alg1::gather_state_impl(&model.state, &model.engine.geom, comm)
}
