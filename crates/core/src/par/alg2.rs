//! Parallel **Algorithm 2** — the communication-avoiding algorithm (§4.4).
//!
//! Runs under the Y-Z decomposition only (`p_x = 1`), so the Fourier
//! filtering is communication-free (§4.2.1).  Per time step:
//!
//! * deep halos feed **groups of sweeps** between exchanges: `g` sweeps an
//!   exchange costs `⌈3M/g⌉ + ⌈3/g_a⌉ (+1)` exchanges a step instead of
//!   `3M + 4`.  At `g = 3M` ([`CaModel::with_groups`], where the blocks
//!   hold the `3M(+2)`-deep halo) that is the paper's **two**;
//!   [`CaModel::new`] runs the rung of the iteration-aligned ladder whose
//!   redundant sweeps cost least against the exchanges they save
//!   ([`crate::analysis::ca_group_size`]),
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
//!   covers the interior dilated by `v − 1` — on the sides that face a
//!   neighbour only, and only those sides carry a deep halo
//!   ([`schedule::CaDepths::alloc`]).

use crate::analysis::ca_group_size;
use crate::boundary;
use crate::config::ModelConfig;
use crate::diag::Diag;
use crate::dycore::{Engine, FilterCtx};
use crate::error::ModelError;
use crate::geometry::{frame, GrowSides, LocalGeometry, Region};
use crate::par::exchange::{state_fields, ExField, HaloExchanger};
use crate::par::schedule::{self, CaDepths};
use crate::smoothing::smooth_full;
use crate::state::{Combine, State};
use crate::vertical::ZContext;
use agcm_comm::{CommResult, Communicator};
use agcm_mesh::{Decomposition, ProcessGrid};
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
    /// Adaptation sweeps per exchange (`3M` is the paper's schedule).
    pub group: usize,
    /// Whether the smoothing is fused into the first deep exchange.
    pub fused_smoothing: bool,
    /// Advection sweeps per exchange.
    pub group_adv: usize,
    /// Degraded (post-rollback) mode: blocking instead of overlapped split
    /// exchanges, and exact `C(ψ^{i-1})` instead of the Eq. 13 reuse.
    pub degraded: bool,
    pgrid: ProcessGrid,
    exchanger: HaloExchanger,
    zcomm: Option<Communicator>,
    depths: CaDepths,
    // scratch; `state`, `psi`, `psi0` and `eta1` trade buffers through a
    // step instead of being copied into one another
    psi: State,
    psi0: State,
    eta1: State,
    mid: State,
    tend: State,
}

/// ξ and the cached `C` outputs: the 7 arrays of a deep or group exchange.
fn deep_fields<'a>(st: &'a mut State, diag: &'a mut Diag) -> [ExField<'a>; 7] {
    let [u, v, phi, psa] = state_fields(st);
    let (vsum, gw, phi_p) = (&mut diag.vsum, &mut diag.gw, &mut diag.phi_p);
    [
        u,
        v,
        phi,
        psa,
        ExField::F2(vsum),
        ExField::F3(gw),
        ExField::F3(phi_p),
    ]
}

/// ξ and the frozen `g_w`: the 5 arrays of an advection exchange.
fn adv_fields<'a>(st: &'a mut State, diag: &'a mut Diag) -> [ExField<'a>; 5] {
    let [u, v, phi, psa] = state_fields(st);
    [u, v, phi, psa, ExField::F3(&mut diag.gw)]
}

impl CaModel {
    /// Build the CA model on the sweep groups [`ca_group_size`] picks for
    /// `pgrid`, which must be a Y-Z (or serial) grid; any block sizes are
    /// supported.
    pub fn new(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
    ) -> Result<Self, ModelError> {
        Self::build(cfg, pgrid, comm, None)
    }

    /// Build the CA model on explicit sweep groups `(g, fuse, g_a)` — the
    /// executing twin of [`schedule::alg2_step_for`].  Any rung of
    /// [`crate::analysis::ca_ladder`] is bitwise the same integration;
    /// `(3M, true, 3)` is the paper's two-exchange schedule.  Groups whose
    /// halo does not fit the blocks are refused.
    pub fn with_groups(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
        groups: (usize, bool, usize),
    ) -> Result<Self, ModelError> {
        Self::build(cfg, pgrid, comm, Some(groups))
    }

    fn build(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
        groups: Option<(usize, bool, usize)>,
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
        let grid = Arc::new(cfg.grid()?);
        let decomp = Decomposition::new(cfg.extents(), pgrid)?;
        let (g, fuse, ga) = groups.unwrap_or_else(|| ca_group_size(cfg, &pgrid));
        let aligned = g == 1 || (g % 3 == 0 && (3..=3 * cfg.m_iters).contains(&g));
        if !aligned || !(1..=3).contains(&ga) {
            return Err(ModelError::Config(format!(
                "sweep groups ({g}, {fuse}, {ga}) are not iteration-aligned"
            )));
        }
        // shared with the static schedule metadata so analyzer and
        // integrator cannot drift
        let depths = schedule::ca_depths(g, fuse, ga);
        let rank = comm.rank();
        let halo = depths.alloc(GrowSides::of(&decomp.subdomain(rank), cfg.ny, cfg.nz));
        let geom = LocalGeometry::new(cfg, grid, &decomp, rank, halo);
        let exchanger = HaloExchanger::new(decomp, rank);
        for depth in [depths.deep, depths.shallow] {
            exchanger
                .validate_depth(depth)
                .map_err(ModelError::Config)?;
        }

        let (_, cy, _) = pgrid.coords(rank);
        let zcomm = if pgrid.pz() > 1 {
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
            pgrid,
            exchanger,
            zcomm,
            depths,
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

    /// Restore a [`Self::capture`]d snapshot bit-for-bit.  The snapshot may
    /// come from a model on other sweep groups, whose halos are sized
    /// differently: everything it holds that this model reads before
    /// refreshing it — interiors, and the cached `C` rows just beyond a
    /// physical boundary — lies in the layers the two have in common.
    pub fn restore(&mut self, ck: &crate::resilience::Checkpoint) {
        self.steps = ck.step as usize;
        self.state.u.assign_common(&ck.state.u);
        self.state.v.assign_common(&ck.state.v);
        self.state.phi.assign_common(&ck.state.phi);
        self.state.psa.assign_common(&ck.state.psa);
        if let (Some(vsum), Some(gw), Some(phi_p)) = (&ck.vsum, &ck.gw, &ck.phi_p) {
            self.engine.diag.vsum.assign_common(vsum);
            self.engine.diag.gw.assign_common(gw);
            self.engine.diag.phi_p.assign_common(phi_p);
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

    /// Halo exchanges one step costs at steady state, counted off the
    /// schedule this model executes ([`schedule::alg2_step_for`]).
    pub fn exchanges_per_step(&self) -> u64 {
        schedule::exchange_count(&schedule::alg2_step_for(
            &self.engine.cfg,
            &self.pgrid,
            self.group,
            self.fused_smoothing,
            self.group_adv,
        ))
    }

    /// The smoothing on its own exchange: the epilogue of a run, and every
    /// step's prologue when the fused form does not fit the blocks.
    fn smooth_separately(&mut self, comm: &Communicator) -> CommResult<()> {
        self.exchanger
            .exchange(comm, self.depths.smooth, &mut state_fields(&mut self.state))?;
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
        Ok(())
    }

    /// the former smoothing: rows of the state as posted, no neighbour data
    fn smooth_former(&mut self, d1: Region) {
        let _s1 = obs::span_phase(obs::SpanKind::Op, obs::Phase::S1, "smooth.former");
        smooth_full(
            &self.engine.geom,
            self.engine.cfg.smooth_beta,
            &self.state,
            &mut self.psi0,
            d1,
        );
    }

    /// post+S1-overlap+recv of the step's first (deep) exchange
    fn deep_exchange(&mut self, comm: &Communicator) -> CommResult<()> {
        self.engine.fill(&mut self.state);
        let pending = self.exchanger.post_sends(
            comm,
            self.depths.deep,
            &mut deep_fields(&mut self.state, &mut self.engine.diag),
        )?;
        let fused = self.pending_smooth && self.fused_smoothing;
        let grow = self.engine.geom.grow_sides();
        let interior = self.engine.geom.interior();
        // D1: the rows whose ±2 smoothing stencil needs no neighbour data
        let d1 = interior.shrink(2, 0, grow);
        if fused && !self.degraded {
            // this is the compute the deep exchange hides (§4.3.1/§4.3.2)
            let _ov = obs::span(obs::SpanKind::OverlapCompute, "overlap.smooth_former");
            self.smooth_former(d1);
        }
        self.exchanger.finish_recvs(
            comm,
            pending,
            &mut deep_fields(&mut self.state, &mut self.engine.diag),
        )?;
        if fused && self.degraded {
            // blocking mode: the same D1 smoothing, run outside the (now
            // closed) exchange window — it reads no halo data, so the
            // result is bitwise the one the overlapped schedule produces
            self.smooth_former(d1);
        }
        self.engine.fill(&mut self.state);
        self.engine.diag.gw.wrap_x_halo();
        self.engine.diag.phi_p.wrap_x_halo();
        self.engine.diag.vsum.wrap_x_halo();
        if fused {
            // later smoothing: edge rows + (redundantly) the halo areas
            let _s2 = obs::span_phase(obs::SpanKind::Op, obs::Phase::S2, "smooth.later");
            let (geom, g) = (&self.engine.geom, self.group as isize);
            let outer = interior.dilate(g, g, geom.ny, geom.nz, geom.halo, grow);
            for strip in frame(&outer, &d1) {
                smooth_full(
                    geom,
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
        // an exchange packs interior rows only, and of the boundary fill
        // only the pinned pole face is one (shipped when the depth spans
        // the block); the sub-update that follows fills ψ's halos itself
        boundary::enforce_pole_v(&mut self.psi, &self.engine.geom);
        self.exchanger.exchange(
            comm,
            self.depths.group,
            &mut deep_fields(&mut self.psi, &mut self.engine.diag),
        )?;
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
            self.smooth_separately(comm)?;
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
                    self.depths.sweep,
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
                    self.depths.sweep,
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
        // ψM is base and argument of sweep 1.  Its halos are stale until the
        // exchange lands, so the sweep is split, not repeated: the part that
        // reads none of them runs while the messages fly (§4.3.1), one strip
        // per neighbour-facing side once they are in; each half shares one
        // boundary fill
        let shallow = self.depths.shallow;
        self.engine.fill(&mut self.psi);
        let pending = self.exchanger.post_sends(
            comm,
            shallow,
            &mut adv_fields(&mut self.psi, &mut self.engine.diag),
        )?;
        let dila = |d: isize| interior.dilate(d, d, ny, nz, shallow, grow);
        let outer1 = dila(ga as isize - 1);
        let inner1 = interior.shrink(1, 1, grow);
        if !self.degraded {
            let _ov = obs::span(obs::SpanKind::OverlapCompute, "overlap.advection_inner");
            self.engine.advection_part(
                None,
                &self.psi,
                &mut self.eta1,
                &mut self.tend,
                inner1,
                dt2,
                Combine::Euler,
                &fctx,
            )?;
        }
        self.exchanger.finish_recvs(
            comm,
            pending,
            &mut adv_fields(&mut self.psi, &mut self.engine.diag),
        )?;
        self.engine.diag.gw.wrap_x_halo();
        self.engine.fill(&mut self.psi);
        // blocking mode: the inner part runs after the exchange closes (no
        // compute inside the communication window)
        let inner_late = self.degraded.then_some(inner1);
        for part in inner_late.into_iter().chain(frame(&outer1, &inner1)) {
            self.engine.advection_part(
                None,
                &self.psi,
                &mut self.eta1,
                &mut self.tend,
                part,
                dt2,
                Combine::Euler,
                &fctx,
            )?;
        }
        let mut valida = ga - 1;
        // sweep 2 emits the midpoint directly
        if valida == 0 {
            self.exchanger.exchange(
                comm,
                shallow,
                &mut adv_fields(&mut self.eta1, &mut self.engine.diag),
            )?;
            self.engine.diag.gw.wrap_x_halo();
            valida = ga;
        }
        let region2 = dila((valida as isize - 1).min(1));
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
            self.exchanger.exchange(
                comm,
                shallow,
                &mut adv_fields(&mut self.mid, &mut self.engine.diag),
            )?;
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
        self.smooth_separately(comm)?;
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
