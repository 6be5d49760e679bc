//! The serial reference — Algorithm 1's program on a single rank.
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
//!
//! [`SerialModel`] is [`Integrator::serial`] behind the communicator-free
//! signatures a single rank wants; everything else it offers is the
//! integrator's, through `Deref`.

use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::integrator::Integrator;
use std::ops::{Deref, DerefMut};

/// Which nonlinear iteration the adaptation process uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Iteration {
    /// Algorithm 1: 3 `C` executions per iteration.
    Exact,
    /// Eq. 13: first sub-update reuses the cached `C` (2 executions).
    Approximate,
}

/// Serial (single-rank) dynamical core.
pub struct SerialModel(Integrator);

impl SerialModel {
    /// Create a serial model at rest.
    pub fn new(cfg: &ModelConfig, variant: Iteration) -> Result<Self, ModelError> {
        Integrator::serial(cfg, variant).map(SerialModel)
    }

    /// Advance one full time step.
    pub fn step(&mut self) {
        // no communicator, so no call that can fail
        self.0.step(None).expect("a serial step cannot fail");
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }
}

impl Deref for SerialModel {
    type Target = Integrator;
    fn deref(&self) -> &Integrator {
        &self.0
    }
}

impl DerefMut for SerialModel {
    fn deref_mut(&mut self) -> &mut Integrator {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::LocalGeometry;
    use crate::init;
    use crate::state::State;

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
                    t += w * st.psa.get(i, j, 0);
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
