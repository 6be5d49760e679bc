//! The one integrator: an interpreter of a step program.
//!
//! The model is one operator product, `ξ^(K) = [S (F L)^3 (F C A)^{3M}]^K ξ^(0)`
//! (Eq. 8).  The serial reference, Algorithm 1 and Algorithm 2 differ only in
//! where exchanges land, how often `C` runs fresh and on which dilated regions
//! the sweeps run — all of which [`crate::par::schedule`] writes down as a list
//! of [`StepOp`]s.  [`Integrator`] builds that list once and its
//! [`Integrator::step`] is a walk over it, so the program `agcm-verify`
//! certifies (deadlock-free, halo-covered, 13 → 2 exchanges) is the program
//! that executes.  The rules of the walk:
//!
//! 1. a sub-update's number picks its buffers — 1 sweeps `state → η₁` with
//!    `state` as its own base, 2 `η₁ → mid` as the midpoint on base `state`,
//!    3 `mid → η₁` on base `state`, after which `η₁` *is* `state`; the
//!    smoothing writes `state → mid`, dead from sub-update 3 to the next
//!    step's sub-update 2, after which `mid` *is* `state`.  Those three are
//!    every buffer a program needs: a filter-active row's tendency lives in
//!    its own output row until it is filtered and combined there
//!    ([`crate::sweep`]), and `out`'s Φ rows carry `D(P)` from `C` to the
//!    sweep.  An exchange refreshes the argument of the kernel
//!    that follows it and wraps the `C` outputs it carried in x,
//! 2. `dilate` is the region: the interior grown on the sides that face a
//!    neighbour, or (negative) the part of it that reads no exchanged halo,
//! 3. an overlapped exchange is post → that halo-free part of the next kernel
//!    → finish → the frame strips around it,
//! 4. a `Cached` sub-update runs `C` fresh while there is no cache, and the
//!    smoothing ops (with an exchange that feeds only them) run only while a
//!    smoothing is pending — the forcing sets it, the smoothing clears it; so
//!    Algorithm 1 ends a step smoothed, Algorithm 2 leaves the smoothing to
//!    the next step's first exchange, and [`Integrator::finish`] is the
//!    smoothing program alone,
//! 5. `ZAllgather` / `FilterTranspose` mark the collectives `C` and the
//!    distributed filter issue from inside their sub-update.

use crate::analysis::AlgKind;
use crate::boundary;
use crate::config::ModelConfig;
use crate::dycore::{Engine, FilterCtx};
use crate::error::ModelError;
use crate::geometry::{frame, GrowSides, LocalGeometry, Region};
use crate::par::alg1::{gather_state_impl, GlobalState};
use crate::par::exchange::{with_fields, ExField, HaloExchanger, RetryPolicy};
use crate::par::schedule::{self, CSource, ComputeOp, ExchangeOp, StepOp};
use crate::resilience::Checkpoint;
use crate::serial::Iteration;
use crate::smoothing::smooth_full;
use crate::state::{Combine, State};
use crate::vertical::ZContext;
use agcm_comm::{CommResult, Communicator};
use agcm_mesh::{Decomposition, ProcessGrid};
use agcm_obs as obs;
use std::sync::Arc;

/// One rank of the dynamical core, running the step program it was built
/// with.
pub struct Integrator {
    /// The integration engine.
    pub engine: Engine,
    /// The prognostic state `ξ`.  Under Algorithm 2 it is **unsmoothed**
    /// after a step: the smoothing is fused into the next step (or applied
    /// by [`Integrator::finish`]).  After a *failed* step it is scratch.
    pub state: State,
    /// Completed steps.
    pub steps: usize,
    /// Whether `state` still awaits its smoothing.
    pub pending_smooth: bool,
    /// Name of the step span.
    label: &'static str,
    /// Shared so a walk can hold it while the kernels borrow the rest.
    program: Arc<[StepOp]>,
    exchanger: HaloExchanger,
    zcomm: Option<Communicator>,
    xcomm: Option<Communicator>,
    // scratch; `state` trades buffers with `eta1` (sub-update 3) and with
    // `mid` (the smoothing) instead of being copied into either
    eta1: State,
    mid: State,
}

/// Rule 1: the argument of sub-update `sub` (0: the smoothing's and the
/// forcing's).  `ψ` is `state`.
fn arg_of<'a>(
    sub: u8,
    state: &'a mut State,
    eta1: &'a mut State,
    mid: &'a mut State,
) -> &'a mut State {
    match sub {
        2 => eta1,
        3 => mid,
        _ => state,
    }
}

/// Rule 2: the region `c` sweeps.
fn region(geom: &LocalGeometry, c: &ComputeOp) -> Region {
    c.region(geom.ny, geom.nz, geom.halo, geom.grow_sides())
}

/// The part of the interior on which `c` reads no exchanged halo.
fn halo_free(geom: &LocalGeometry, c: &ComputeOp) -> Region {
    c.halo_free(geom.ny, geom.nz, geom.grow_sides())
}

impl Integrator {
    /// The serial reference: Algorithm 1's program on a single rank, every
    /// `C` fresh ([`Iteration::Exact`]) or with the first sub-update of each
    /// iteration reusing the cached one ([`Iteration::Approximate`] — what
    /// Algorithm 2 computes).  Step it with `comm = None`.
    pub fn serial(cfg: &ModelConfig, variant: Iteration) -> Result<Self, ModelError> {
        let pgrid = ProcessGrid::serial();
        let mut program = schedule::alg1_step(cfg, &pgrid);
        if variant == Iteration::Approximate {
            schedule::approximate(&mut program);
        }
        Self::build(cfg, pgrid, None, "serial.step", program)
    }

    /// Algorithm 1 on this rank of `pgrid` (any 2-D decomposition).  `comm`
    /// must have exactly `pgrid.size()` ranks; rank ↔ cartesian coordinates
    /// follow [`ProcessGrid`]'s x-fastest numbering.
    pub fn alg1(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
    ) -> Result<Self, ModelError> {
        let program = schedule::alg1_step(cfg, &pgrid);
        Self::build(cfg, pgrid, Some(comm), "alg1.step", program)
    }

    /// Algorithm 2 on sweep groups `(g, fuse, g_a)` — any rung of
    /// [`crate::analysis::ca_ladder`] is bitwise the same integration.
    /// `pgrid` must be a Y-Z (or serial) grid; groups that are not
    /// iteration-aligned, or whose halo does not fit the blocks, are
    /// refused.
    pub fn alg2(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
        (g, fuse, ga): (usize, bool, usize),
    ) -> Result<Self, ModelError> {
        if pgrid.px() != 1 {
            return Err(ModelError::Config(
                "the communication-avoiding algorithm requires a Y-Z decomposition (p_x = 1)"
                    .into(),
            ));
        }
        let aligned = g == 1 || (g % 3 == 0 && (3..=3 * cfg.m_iters).contains(&g));
        if !aligned || !(1..=3).contains(&ga) {
            // lint:allow(alloc) — a refused constructor
            let why = format!("sweep groups ({g}, {fuse}, {ga}) are not iteration-aligned");
            return Err(ModelError::Config(why));
        }
        let program = schedule::alg2_step_for(cfg, &pgrid, g, fuse, ga);
        Self::build(cfg, pgrid, Some(comm), "alg2.step", program)
    }

    /// `alg` on this rank of `pgrid`; Algorithm 2 on the rung
    /// [`crate::analysis::ca_group_size`] picks.
    pub fn parallel(
        cfg: &ModelConfig,
        alg: AlgKind,
        pgrid: ProcessGrid,
        comm: &mut Communicator,
    ) -> Result<Self, ModelError> {
        match alg {
            AlgKind::CommAvoiding => {
                let groups = crate::analysis::ca_group_size(cfg, &pgrid);
                Self::alg2(cfg, pgrid, comm, groups)
            }
            _ => Self::alg1(cfg, pgrid, comm),
        }
    }

    fn build(
        cfg: &ModelConfig,
        pgrid: ProcessGrid,
        mut comm: Option<&mut Communicator>,
        label: &'static str,
        program: Vec<StepOp>,
    ) -> Result<Self, ModelError> {
        let (rank, size) = comm.as_ref().map_or((0, 1), |c| (c.rank(), c.size()));
        if size != pgrid.size() {
            // lint:allow(alloc) — a refused constructor
            let why = format!(
                "communicator size {size} != process grid size {}",
                pgrid.size()
            );
            return Err(ModelError::Config(why));
        }
        let grid = Arc::new(cfg.grid()?);
        let decomp = Decomposition::new(cfg.extents(), pgrid)?;
        let grow = GrowSides::of(&decomp.subdomain(rank), cfg.ny, cfg.nz);
        let halo = schedule::halo_alloc(&program, grow);
        let geom = LocalGeometry::new(cfg, grid, &decomp, rank, halo);
        let exchanger = HaloExchanger::new(decomp, rank);
        for depth in schedule::exchange_depths(&program) {
            exchanger
                .validate_depth(depth)
                .map_err(ModelError::Config)?;
        }
        let (px, py, pz) = pgrid.dims();
        let (cx, cy, cz) = pgrid.coords(rank);
        let mut split = |on: bool, color: usize, key: usize| match &mut comm {
            Some(comm) if on => comm.split(color, key).map(Some),
            _ => Ok(None),
        };
        let zcomm = split(pz > 1, cx + cy * px, cz)?;
        let xcomm = split(px > 1, cy + cz * py, cx)?;

        let engine = Engine::new(cfg, geom, px == 1);
        let state = State::new(engine.geom.nx, engine.geom.ny, engine.geom.nz, halo);
        Ok(Integrator {
            eta1: State::like(&state),
            mid: State::like(&state),
            engine,
            state,
            steps: 0,
            pending_smooth: false,
            label,
            program: program.into(),
            exchanger,
            zcomm,
            xcomm,
        })
    }

    /// The step program this integrator executes.
    pub fn program(&self) -> &[StepOp] {
        &self.program
    }

    /// Local geometry.
    pub fn geom(&self) -> &LocalGeometry {
        &self.engine.geom
    }

    /// Replace the state with an initial condition.
    pub fn set_state(&mut self, st: &State) {
        self.state.assign(st);
        self.engine.c_cached = false;
        self.pending_smooth = false;
    }

    /// Enable checksum-framed halo payloads with validated, retrying
    /// receives (see [`RetryPolicy`]).
    pub fn set_framed(&mut self, on: bool) {
        self.exchanger.set_framed(on);
    }

    /// Change the framed-receive retry policy.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.exchanger.set_retry(retry);
    }

    /// Completed halo exchanges (all steps).
    pub fn exchange_count(&self) -> u64 {
        self.exchanger.exchanges
    }

    /// Halo exchanges one step costs at steady state, counted off the
    /// program.
    pub fn exchanges_per_step(&self) -> u64 {
        schedule::exchange_count(&self.program)
    }

    /// Snapshot everything a bitwise restart needs: the prognostic state,
    /// whether it awaits its smoothing and — when the program reuses them
    /// across steps (Eq. 13) — the cached `C` outputs.  A program that runs
    /// every `C` fresh restores from the state alone.
    pub fn capture(&self) -> Checkpoint {
        let diag = &self.engine.diag;
        let cached = (self.program.iter())
            .any(|op| matches!(op, StepOp::Compute(k) if k.c == CSource::Cached));
        Checkpoint {
            step: self.steps as u64,
            state: self.state.clone(), // lint:allow(alloc) — a snapshot owns its arrays
            vsum: cached.then(|| diag.vsum.clone()), // lint:allow(alloc)
            gw: cached.then(|| diag.gw.clone()), // lint:allow(alloc)
            phi_p: cached.then(|| diag.phi_p.clone()), // lint:allow(alloc)
            c_cached: cached && self.engine.c_cached,
            pending_smooth: self.pending_smooth,
        }
    }

    /// Restore a [`Self::capture`]d snapshot bit-for-bit.  The snapshot may
    /// come from a model on other sweep groups, whose halos are sized
    /// differently: everything it holds that this model reads before
    /// refreshing it — interiors, and the cached `C` rows just beyond a
    /// physical boundary — lies in the layers the two have in common.
    pub fn restore(&mut self, ck: &Checkpoint) {
        self.steps = ck.step as usize;
        for (f, saved) in self.state.fields_mut().into_iter().zip(ck.state.fields()) {
            f.assign_common(saved);
        }
        // without the cached-C arrays: recompute on first use
        self.engine.c_cached = false;
        if let (Some(vsum), Some(gw), Some(phi_p)) = (&ck.vsum, &ck.gw, &ck.phi_p) {
            self.engine.diag.vsum.assign_common(vsum);
            self.engine.diag.gw.assign_common(gw);
            self.engine.diag.phi_p.assign_common(phi_p);
            self.engine.c_cached = ck.c_cached;
        }
        self.pending_smooth = ck.pending_smooth;
    }

    /// Gather the global state to rank 0 of `comm` (`None` elsewhere).
    pub fn gather_state(&self, comm: &Communicator) -> CommResult<Option<GlobalState>> {
        gather_state_impl(&self.state, &self.engine.geom, comm)
    }

    /// Advance one time step: one walk over the program.  `comm` is the
    /// communicator the integrator was built on (`None` for the serial
    /// reference, whose exchanges have nobody to talk to).
    pub fn step(&mut self, comm: Option<&Communicator>) -> CommResult<()> {
        obs::set_step(self.steps as u64);
        let _step = obs::span(obs::SpanKind::Step, self.label);
        let program = Arc::clone(&self.program);
        self.run(&program, comm)?;
        self.steps += 1;
        Ok(())
    }

    /// Apply the smoothing the last step left pending (Algorithm 2 line 30)
    /// on its own exchange.  Call once after the last [`Self::step`]; a
    /// no-op when nothing is pending.
    pub fn finish(&mut self, comm: Option<&Communicator>) -> CommResult<()> {
        // stamp the epilogue with the step count, not the last step's
        // index: its exchange is not part of any steady-state step and
        // must not inflate that step's span counts in a trace
        obs::set_step(self.steps as u64);
        self.run(&schedule::smoothing(), comm)
    }

    /// Run `n` steps and apply the final smoothing.
    pub fn run_steps(&mut self, comm: Option<&Communicator>, n: usize) -> CommResult<()> {
        for _ in 0..n {
            self.step(comm)?;
        }
        self.finish(comm)
    }

    /// Rule 4: whether the walk runs `c` now.
    fn runs(&self, c: &ComputeOp) -> bool {
        self.pending_smooth || !c.is_smoothing()
    }

    fn run(&mut self, ops: &[StepOp], comm: Option<&Communicator>) -> CommResult<()> {
        let mut iter = None;
        let mut i = 0;
        while i < ops.len() {
            match &ops[i] {
                StepOp::Exchange(x) => {
                    if let Some(comm) = comm {
                        // the kernel swept inside the exchange's window is done
                        i += usize::from(self.exchange(x, &ops[i + 1..], comm)?);
                    }
                }
                StepOp::ZAllgather => debug_assert!(self.zcomm.is_some()),
                StepOp::FilterTranspose => debug_assert!(self.xcomm.is_some()),
                StepOp::Compute(c) if !self.runs(c) => {}
                StepOp::Compute(c) => {
                    let adaptation = c.op == "adaptation.fused";
                    if adaptation && c.sub == 1 {
                        iter = Some(obs::span(obs::SpanKind::Iter, "adaptation.iter"));
                    }
                    self.compute(c, region(self.geom(), c), false)?;
                    if c.sub == 3 {
                        // η₃ is the next ψ
                        std::mem::swap(&mut self.state, &mut self.eta1);
                        iter = None;
                    }
                }
            }
            i += 1;
        }
        drop(iter);
        Ok(())
    }

    /// Hand `f` the exchanger and the arrays `x` carries for sub-update
    /// `sub`, in wire order.
    fn wire<R>(
        &mut self,
        x: &ExchangeOp,
        sub: u8,
        f: impl FnOnce(&mut HaloExchanger, &mut [ExField<'_>]) -> R,
    ) -> R {
        let st = arg_of(sub, &mut self.state, &mut self.eta1, &mut self.mid);
        let ex = &mut self.exchanger;
        with_fields(x.fields, st, &mut self.engine.diag, |fields| f(ex, fields))
    }

    /// One exchange, for the kernels in `rest` up to the next exchange.
    /// Returns whether the first of them ran inside its window (rule 3).
    fn exchange(
        &mut self,
        x: &ExchangeOp,
        rest: &[StepOp],
        comm: &Communicator,
    ) -> CommResult<bool> {
        // it feeds the first kernel that runs before the next exchange; when
        // none does (a smoothing exchange with no smoothing pending) it has
        // nothing to refresh
        let mut fed = rest
            .iter()
            .take_while(|op| !matches!(op, StepOp::Exchange(_)));
        let user = fed.find_map(|op| match op {
            StepOp::Compute(c) if self.runs(c) => Some(*c),
            _ => None,
        });
        let Some(user) = user else {
            return Ok(false);
        };
        // only a kernel that issues no collective of its own can be split
        // around the messages
        let splits = rest.first() == Some(&StepOp::Compute(user)) && user.splits();
        let overlap = x.overlapped && splits;
        let arg = arg_of(user.sub, &mut self.state, &mut self.eta1, &mut self.mid);
        if overlap {
            // the part swept while the messages fly reads the boundary fill
            self.engine.fill(arg);
        } else {
            // an exchange packs interior rows only, and of the boundary fill
            // only the pinned pole face is one (shipped when the depth spans
            // the block)
            boundary::enforce_pole_v(arg, &self.engine.geom);
        }
        let pending = self.wire(x, user.sub, |ex, f| ex.post_sends(comm, x.depth, f))?;
        if overlap {
            // this is the compute the exchange hides (§4.3.1/§4.3.2)
            let _ov = obs::span(obs::SpanKind::OverlapCompute, "overlap.halo_free");
            self.compute(&user, halo_free(self.geom(), &user), true)?;
        }
        self.wire(x, user.sub, |ex, f| ex.finish_recvs(comm, pending, f))?;
        if self.engine.px1 {
            let diag = &mut self.engine.diag;
            if x.fields.has_gw() {
                diag.gw.wrap_x_halo();
            }
            if x.fields.has_c() {
                diag.phi_p.wrap_x_halo();
                diag.vsum.wrap_x_halo();
            }
        }
        if overlap {
            // the rest of the kernel: its parts share one boundary fill
            let arg = arg_of(user.sub, &mut self.state, &mut self.eta1, &mut self.mid);
            self.engine.fill(arg);
            if user.dilate >= 0 {
                let geom = self.geom();
                for strip in frame(&region(geom, &user), &halo_free(geom, &user)) {
                    self.compute(&user, strip, true)?;
                }
            }
        }
        Ok(overlap)
    }

    /// One kernel application on `region`.  `filled`: the boundaries of its
    /// argument are filled already (a part of a kernel split around an
    /// exchange).
    fn compute(&mut self, c: &ComputeOp, region: Region, filled: bool) -> CommResult<()> {
        let Integrator {
            engine,
            state,
            eta1,
            mid,
            ..
        } = self;
        let fctx = match &self.xcomm {
            Some(x) => FilterCtx::Distributed(x),
            None => FilterCtx::Local,
        };
        // rule 1: ψ is `state`
        let (base, arg, out, form) = match c.sub {
            1 => (None, &mut *state, &mut *eta1, Combine::Euler),
            2 => (Some(&*state), &mut *eta1, &mut *mid, Combine::Midpoint),
            _ => (Some(&*state), &mut *mid, &mut *eta1, Combine::Euler),
        };
        match c.op {
            "adaptation.fused" => {
                let zctx = match &self.zcomm {
                    Some(z) => ZContext::Parallel(z),
                    None => ZContext::Serial,
                };
                // rule 4: the Eq. 13 reuse needs a cache
                let fresh = c.c != CSource::Cached || !engine.c_cached;
                let dt = engine.cfg.dt1;
                engine.adaptation_subupdate(base, arg, out, region, dt, form, fresh, &zctx, &fctx)
            }
            "advection.fused" => {
                let dt = engine.cfg.dt2;
                if filled {
                    engine.advection_part(base, arg, out, region, dt, form, &fctx)
                } else {
                    engine.advection_subupdate(base, arg, out, region, dt, form, &fctx)
                }
            }
            // the sub-update it follows ran it
            "filter" => Ok(()),
            "forcing" => {
                engine.apply_forcing(state, region);
                self.pending_smooth = true;
                Ok(())
            }
            "smooth.s1" | "smooth.s2" => {
                // the later smoothing completes what the former — swept
                // while the deep exchange flew — left: edge rows and,
                // redundantly, the halo the first sweep group reads (§4.3.2)
                let later = c.op == "smooth.s2";
                let (phase, name) = match (later, c.dilate < 0) {
                    (true, _) => (obs::Phase::S2, "smooth.later"),
                    (false, true) => (obs::Phase::S1, "smooth.former"),
                    (false, false) => (obs::Phase::S1, "smooth.full"),
                };
                let _s = obs::span_phase(obs::SpanKind::Op, phase, name);
                if !filled && !later {
                    engine.fill(state);
                }
                // rule 1: `mid` is dead from sub-update 3 to the next
                // step's sub-update 2, so the smoothing writes into it
                let beta = engine.cfg.smooth_beta;
                let mut smooth = |part| smooth_full(&engine.geom, beta, state, mid, part);
                if later {
                    frame(&region, &halo_free(&engine.geom, c)).for_each(smooth);
                } else {
                    smooth(region);
                }
                if c.dilate >= 0 {
                    // the whole region is in: publish
                    std::mem::swap(state, mid);
                    self.pending_smooth = false;
                }
                Ok(())
            }
            other => unreachable!("unknown schedule kernel {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ca_ladder;
    use agcm_comm::Universe;

    fn poison(st: &mut State) {
        for f in st.fields_mut() {
            f.fill(f64::NAN);
        }
    }

    /// The bits of a state's interior, field after field.
    fn interior_bits(st: &State) -> Vec<u64> {
        let mut bits = Vec::new();
        for f in st.fields() {
            let (nx, ny, nz) = f.extents();
            for k in 0..nz as isize {
                for j in 0..ny as isize {
                    bits.extend(f.row(0, nx as isize, j, k).iter().map(|v| v.to_bits()));
                }
            }
        }
        bits
    }

    /// Four steps and the final smoothing from a perturbed rest; with
    /// `poisoned`, `eta1` and `mid` are NaN — halos included — before every
    /// step and before `finish`.
    fn run(model: &mut Integrator, comm: Option<&Communicator>, poisoned: bool) -> Vec<u64> {
        let ic = crate::init::perturbed_rest(model.geom(), 100.0, 1.0, 3);
        model.set_state(&ic);
        let kill = |model: &mut Integrator| {
            if poisoned {
                poison(&mut model.eta1);
                poison(&mut model.mid);
            }
        };
        for _ in 0..4 {
            kill(model);
            model.step(comm).unwrap();
        }
        kill(model);
        model.finish(comm).unwrap();
        let bits = interior_bits(&model.state);
        assert!(
            bits.iter().all(|&b| f64::from_bits(b).is_finite()),
            "a poisoned buffer leaked into the state"
        );
        bits
    }

    /// Every rank's interior, poisoned against clean, for the integrator
    /// `build` makes on a `p`-rank world.
    fn assert_dead_buffers_are_dead(
        what: &str,
        p: usize,
        build: impl Fn(&mut Communicator) -> Integrator + Sync,
    ) {
        let ranks = Universe::run(p, |comm| {
            let [clean, poisoned] = [false, true].map(|poisoned| {
                let mut model = build(comm);
                run(&mut model, Some(comm), poisoned)
            });
            clean == poisoned
        });
        assert!(ranks.iter().all(|&same| same), "{what}: {ranks:?}");
    }

    /// `eta1` and `mid` hold nothing across a step boundary: the swaps leave
    /// only stale halos, and every program refreshes those before it reads
    /// them.
    #[test]
    fn eta1_and_mid_are_dead_between_steps() {
        let cfg = ModelConfig {
            ny: 24,
            ..ModelConfig::test_medium()
        };
        for variant in [Iteration::Exact, Iteration::Approximate] {
            let [clean, poisoned] = [false, true].map(|poisoned| {
                let mut model = Integrator::serial(&cfg, variant).unwrap();
                run(&mut model, None, poisoned)
            });
            assert!(clean == poisoned, "serial {variant:?}");
        }
        let alg1 = [
            ProcessGrid::yz(2, 1),
            ProcessGrid::yz(1, 2),
            ProcessGrid::xy(2, 1),
        ];
        for pgrid in alg1.map(Result::unwrap) {
            let what = format!("alg1 {:?}", pgrid.dims());
            assert_dead_buffers_are_dead(&what, pgrid.size(), |comm| {
                Integrator::alg1(&cfg, pgrid, comm).unwrap()
            });
        }
        for pgrid in [ProcessGrid::yz(2, 1), ProcessGrid::yz(2, 2)].map(Result::unwrap) {
            for groups in ca_ladder(&cfg, &pgrid) {
                let what = format!("alg2 {:?} {groups:?}", pgrid.dims());
                assert_dead_buffers_are_dead(&what, pgrid.size(), |comm| {
                    Integrator::alg2(&cfg, pgrid, comm, groups).unwrap()
                });
            }
        }
    }

    /// `D(P)` passes from `C` to the sweep in the output's Φ rows, so after
    /// the steps of any integrator the engine's diagnostics hold two sized
    /// 3-D arrays: `gw` and `phi_p`.
    #[test]
    fn diag_holds_two_3d_arrays() {
        let cfg = ModelConfig::test_medium();
        let sized_3d = |model: &Integrator| {
            let d = &model.engine.diag;
            let fields = [&d.dp, &d.gw, &d.phi_p];
            fields.iter().filter(|f| f.total_len() > 0).count()
        };
        for variant in [Iteration::Exact, Iteration::Approximate] {
            let mut model = Integrator::serial(&cfg, variant).unwrap();
            run(&mut model, None, false);
            assert_eq!(sized_3d(&model), 2, "serial {variant:?}");
        }
        for alg in [AlgKind::OriginalYZ, AlgKind::CommAvoiding] {
            let pgrid = ProcessGrid::yz(1, 2).unwrap();
            let sized = Universe::run(2, |comm| {
                let mut model = Integrator::parallel(&cfg, alg, pgrid, comm).unwrap();
                run(&mut model, Some(comm), false);
                sized_3d(&model)
            });
            assert_eq!(sized, [2, 2], "{alg:?}");
        }
    }
}
