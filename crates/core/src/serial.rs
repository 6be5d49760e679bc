//! The serial reference integrator — Algorithm 1 on a single rank.
//!
//! This is the ground truth every parallel configuration is checked
//! against.  Two variants exist:
//!
//! * `exact` — Algorithm 1 verbatim: every sub-update runs the operator `C`
//!   fresh (3 per nonlinear iteration),
//! * `approximate` — the nonlinear iteration of Eq. 13: the *first*
//!   sub-update of each iteration reuses the most recent `C` outputs
//!   (2 fresh `C` per iteration).  The communication-avoiding Algorithm 2
//!   computes exactly this variant, so "parallel CA ≡ serial approximate"
//!   is the correctness statement tested in `tests/equivalence.rs`.

use crate::config::ModelConfig;
use crate::dycore::{Engine, FilterCtx};
use crate::geometry::LocalGeometry;
use crate::smoothing::smooth_full_path;
use crate::state::{Combine, State};
use crate::tables;
use crate::vertical::ZContext;
use agcm_mesh::{Decomposition, HaloWidths, MeshError, ProcessGrid};
use std::sync::Arc;

/// Which nonlinear iteration the adaptation process uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Iteration {
    /// Algorithm 1: 3 `C` executions per iteration.
    Exact,
    /// Eq. 13: first sub-update reuses the cached `C` (2 executions).
    Approximate,
}

/// Serial (single-rank) dynamical core.
pub struct SerialModel {
    /// The integration engine.
    pub engine: Engine,
    /// Current prognostic state `ξ^{(k)}`.
    pub state: State,
    /// Iteration variant.
    pub variant: Iteration,
    /// Completed steps.
    pub steps: usize,
    // scratch; `state`, `psi`, `eta1` and `smoothed` trade buffers
    // through a step instead of being copied into one another
    psi: State,
    eta1: State,
    mid: State,
    tend: State,
    smoothed: State,
}

impl SerialModel {
    /// Create a serial model at rest.
    pub fn new(cfg: &ModelConfig, variant: Iteration) -> Result<Self, MeshError> {
        let grid = Arc::new(cfg.grid()?);
        let decomp = Decomposition::new(cfg.extents(), ProcessGrid::serial())?;
        // the per-sweep union halo is enough: serial fills all halos locally
        let halo = HaloWidths::for_footprint(&tables::per_sweep_union());
        let geom = LocalGeometry::new(cfg, grid, &decomp, 0, halo);
        let engine = Engine::new(cfg, geom, true);
        let state = State::new(engine.geom.nx, engine.geom.ny, engine.geom.nz, halo);
        let scratch = || State::like(&state);
        Ok(SerialModel {
            psi: scratch(),
            eta1: scratch(),
            mid: scratch(),
            tend: scratch(),
            smoothed: scratch(),
            engine,
            state,
            variant,
            steps: 0,
        })
    }

    /// Replace the state (e.g. with an initial condition from
    /// [`crate::init`]).
    pub fn set_state(&mut self, st: &State) {
        self.state.assign(st);
        self.engine.c_cached = false;
    }

    /// Degraded mode forces the exact iteration (fresh `C` in every
    /// sub-update) until cleared.
    pub fn set_degraded(&mut self, on: bool) {
        if on {
            self.variant = Iteration::Exact;
            self.engine.c_cached = false;
        }
    }

    /// Snapshot the restart state, including the cached `C` outputs the
    /// approximate iteration reuses across steps (Eq. 13).
    pub fn capture(&self) -> crate::resilience::Checkpoint {
        crate::resilience::Checkpoint {
            step: self.steps as u64,
            state: self.state.clone(),
            vsum: Some(self.engine.diag.vsum.clone()),
            gw: Some(self.engine.diag.gw.clone()),
            phi_p: Some(self.engine.diag.phi_p.clone()),
            c_cached: self.engine.c_cached,
            pending_smooth: false,
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
            self.engine.c_cached = false;
        }
    }

    /// Advance one full time step (Algorithm 1 body).
    pub fn step(&mut self) {
        agcm_obs::set_step(self.steps as u64);
        let _step = agcm_obs::span(agcm_obs::SpanKind::Step, "serial.step");
        let region = self.engine.geom.interior();
        let zctx = ZContext::Serial;
        let fctx = FilterCtx::Local;
        let dt1 = self.engine.cfg.dt1;
        let dt2 = self.engine.cfg.dt2;
        let m = self.engine.cfg.m_iters;

        // ψ⁰ = ξ^{(k-1)}: trade buffers — `state` is assigned again at the
        // end of the step and not read in between
        std::mem::swap(&mut self.psi, &mut self.state);

        // ---- adaptation: M nonlinear iterations of 3 sub-updates --------
        for _ in 0..m {
            let _iter = agcm_obs::span(agcm_obs::SpanKind::Iter, "adaptation.iter");
            // first sub-update: exact → fresh C; approximate → cached C
            // (bootstrap: the very first sub-update ever has no cache yet)
            let fresh1 = match self.variant {
                Iteration::Exact => true,
                Iteration::Approximate => !self.engine.c_cached,
            };
            // η₁ = ψ + Δt·F̃Ã(ψ): ψ is base and argument at once
            self.engine
                .adaptation_subupdate(
                    None,
                    &mut self.psi,
                    &mut self.eta1,
                    &mut self.tend,
                    region,
                    dt1,
                    Combine::Euler,
                    fresh1,
                    &zctx,
                    &fctx,
                )
                .expect("serial subupdate cannot fail");
            // ½(ψ + η₂) with η₂ = ψ + Δt·F̃Ã(η₁), emitted directly
            self.engine
                .adaptation_subupdate(
                    Some(&self.psi),
                    &mut self.eta1,
                    &mut self.mid,
                    &mut self.tend,
                    region,
                    dt1,
                    Combine::Midpoint,
                    true,
                    &zctx,
                    &fctx,
                )
                .expect("serial subupdate cannot fail");
            // η₃ = ψ + Δt·F̃Ã(mid) is the next iteration's ψ
            self.engine
                .adaptation_subupdate(
                    Some(&self.psi),
                    &mut self.mid,
                    &mut self.eta1,
                    &mut self.tend,
                    region,
                    dt1,
                    Combine::Euler,
                    true,
                    &zctx,
                    &fctx,
                )
                .expect("serial subupdate cannot fail");
            std::mem::swap(&mut self.psi, &mut self.eta1);
        }

        // ---- advection: one nonlinear iteration with Δt₂ ----------------
        self.engine
            .advection_subupdate(
                None,
                &mut self.psi,
                &mut self.eta1,
                &mut self.tend,
                region,
                dt2,
                Combine::Euler,
                &fctx,
            )
            .expect("serial subupdate cannot fail");
        self.engine
            .advection_subupdate(
                Some(&self.psi),
                &mut self.eta1,
                &mut self.mid,
                &mut self.tend,
                region,
                dt2,
                Combine::Midpoint,
                &fctx,
            )
            .expect("serial subupdate cannot fail");
        self.engine
            .advection_subupdate(
                Some(&self.psi),
                &mut self.mid,
                &mut self.eta1,
                &mut self.tend,
                region,
                dt2,
                Combine::Euler,
                &fctx,
            )
            .expect("serial subupdate cannot fail");

        // ---- physics (H-S) then smoothing ξ^{(k)} = S̃(ζ₃) ---------------
        self.engine.apply_forcing(&mut self.eta1, region);
        {
            let _s =
                agcm_obs::span_phase(agcm_obs::SpanKind::Op, agcm_obs::Phase::S1, "smooth.full");
            self.engine.fill(&mut self.eta1);
            smooth_full_path(
                &self.engine.geom,
                self.engine.cfg.smooth_beta,
                &self.eta1,
                &mut self.smoothed,
                region,
                self.engine.kernel_path(),
            );
        }
        std::mem::swap(&mut self.state, &mut self.smoothed);
        self.steps += 1;
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Local geometry (for building initial conditions).
    pub fn geom(&self) -> &LocalGeometry {
        &self.engine.geom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn model(variant: Iteration) -> SerialModel {
        let cfg = ModelConfig::test_small();
        SerialModel::new(&cfg, variant).unwrap()
    }

    #[test]
    fn rest_stays_at_rest() {
        let mut m = model(Iteration::Exact);
        m.run(3);
        assert_eq!(m.state.max_abs(), 0.0);
        assert_eq!(m.steps, 3);
    }

    #[test]
    fn perturbation_evolves_and_stays_finite() {
        let mut m = model(Iteration::Exact);
        let ic = init::perturbed_rest(m.geom(), 200.0, 0.0, 1);
        m.set_state(&ic);
        m.run(5);
        assert!(!m.state.has_nan(), "solution blew up");
        assert!(m.state.max_abs() > 0.0);
        // the pressure bump radiates gravity waves: winds appear
        assert!(m.state.u.max_abs() > 1e-6);
        assert!(m.state.v.max_abs() > 1e-6);
        // amplitudes remain bounded (filter + smoothing keep it stable)
        assert!(m.state.psa.max_abs() < 1000.0);
    }

    #[test]
    fn approximate_close_to_exact_at_small_dt() {
        // Eq. 13 modifies only the highest-order correction: one step of
        // the two variants must agree to O(Δt²)-ish
        let cfg = {
            let mut c = ModelConfig::test_small();
            c.dt1 = 5.0;
            c
        };
        let mut me = SerialModel::new(&cfg, Iteration::Exact).unwrap();
        let mut ma = SerialModel::new(&cfg, Iteration::Approximate).unwrap();
        let ic = init::perturbed_rest(me.geom(), 200.0, 0.5, 2);
        me.set_state(&ic);
        ma.set_state(&ic);
        me.run(2);
        ma.run(2);
        let diff = me.state.max_abs_diff(&ma.state);
        let scale = me.state.max_abs().max(1.0);
        assert!(diff > 0.0, "variants must actually differ");
        assert!(
            diff / scale < 0.02,
            "approximate iteration drifted too far: {diff} vs scale {scale}"
        );
    }

    #[test]
    fn forcing_spins_up_circulation_from_rest() {
        let mut cfg = ModelConfig::test_small();
        cfg.held_suarez = true;
        let mut m = SerialModel::new(&cfg, Iteration::Exact).unwrap();
        m.run(3);
        // H-S heating creates an equator-pole Φ gradient → winds spin up
        assert!(m.state.phi.max_abs() > 0.0, "thermal forcing acted");
        assert!(!m.state.has_nan());
    }

    #[test]
    fn mass_approximately_conserved_without_forcing() {
        let mut m = model(Iteration::Exact);
        let ic = init::perturbed_rest(m.geom(), 150.0, 0.0, 9);
        m.set_state(&ic);
        let mass = |st: &State, g: &LocalGeometry| {
            let mut t = 0.0;
            for j in 0..g.ny as isize {
                let w = g.sin_c(j);
                for i in 0..g.nx as isize {
                    t += w * st.psa.get(i, j);
                }
            }
            t
        };
        let m0 = mass(&m.state, m.geom());
        m.run(4);
        let m1 = mass(&m.state, m.geom());
        // flux-form D(P) conserves ∫p'_sa up to the smoothing/filter and
        // D_sa diffusion, all of which preserve the weighted mean closely
        let scale = 150.0 * (m.geom().nx * m.geom().ny) as f64;
        assert!((m1 - m0).abs() / scale < 1e-3, "mass drift {m0} -> {m1}");
    }
}
