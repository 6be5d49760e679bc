//! Conservation diagnostics.
//!
//! The IAP transform (Eq. 1) is chosen precisely because the transformed
//! system conserves the sum of kinetic energy, available potential energy
//! and available surface potential energy (§2.2) — in the transformed
//! variables this total is the quadratic form
//!
//! ```text
//! E = ∫ (U² + V² + Φ²)/2 dσ dA  +  ∫ b²·(p'_sa/p₀)²·(p₀/p̃_es)/2 dA
//! ```
//!
//! with `dA = sin θ dθ dλ`.  The discretization conserves it approximately
//! (the advection form is antisymmetric; the filter and smoothing only
//! remove variance), which the tests and the H-S example monitor.  Total
//! mass `∫ p'_sa dA` is conserved by the flux-form divergence exactly, up
//! to the `D_sa` diffusion (which preserves the integral) and rounding.

use crate::geometry::LocalGeometry;
use crate::state::State;
use agcm_mesh::grid::constants as c;

/// Pointwise-summable budget of one (sub)domain.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    /// Kinetic part `Σ (U² + V²)/2 · w`.
    pub kinetic: f64,
    /// Available potential part `Σ Φ²/2 · w`.
    pub potential: f64,
    /// Surface part `Σ b²(p'_sa/p₀)²/2 · w`.
    pub surface: f64,
    /// Mass `Σ p'_sa · w`.
    pub mass: f64,
    /// Sum of area weights (for normalization).
    pub weight: f64,
}

impl Budget {
    /// Total transformed energy.
    pub fn energy(&self) -> f64 {
        self.kinetic + self.potential + self.surface
    }
}

/// Compute the budget of this rank's interior.
pub fn local_budget(geom: &LocalGeometry, state: &State) -> Budget {
    let mut b = Budget::default();
    let nx = geom.nx as isize;
    for k in 0..geom.nz as isize {
        let ds = geom.dsigma(k);
        for j in 0..geom.ny as isize {
            let w = geom.sin_c(j) * ds;
            for i in 0..nx {
                let u = state.u.get(i, j, k);
                let v = state.v.get(i, j, k);
                let f = state.phi.get(i, j, k);
                b.kinetic += 0.5 * w * (u * u + v * v);
                b.potential += 0.5 * w * f * f;
            }
        }
    }
    // surface (2-D) terms are replicated across the z layer of ranks;
    // only the top layer contributes them to a cross-rank reduction
    if !geom.at_top() {
        return b;
    }
    let bsq = (c::B_GRAVITY_WAVE / c::P_REF).powi(2) * c::P_REF / (c::P_REF - c::P_TOP);
    for j in 0..geom.ny as isize {
        let w = geom.sin_c(j);
        for i in 0..nx {
            let ps = state.psa.get(i, j, 0);
            b.surface += 0.5 * w * bsq * ps * ps;
            b.mass += w * ps;
            b.weight += w;
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::init;
    use crate::serial::{Iteration, SerialModel};

    #[test]
    fn rest_budget_is_zero() {
        let m = SerialModel::new(&ModelConfig::test_small(), Iteration::Exact).unwrap();
        let b = local_budget(m.geom(), &m.state);
        assert_eq!(b.energy(), 0.0);
        assert_eq!(b.mass, 0.0);
        assert!(b.weight > 0.0);
    }

    #[test]
    fn budget_components_positive_for_perturbed_state() {
        let m = SerialModel::new(&ModelConfig::test_small(), Iteration::Exact).unwrap();
        let st = init::perturbed_rest(m.geom(), 200.0, 5.0, 1);
        let b = local_budget(m.geom(), &st);
        assert!(b.surface > 0.0);
        assert!(b.potential > 0.0);
        assert_eq!(b.kinetic, 0.0, "perturbed rest has no wind");
        assert!(b.mass > 0.0, "positive pressure bump adds mass");
    }

    #[test]
    fn unforced_run_conserves_mass_and_bounds_energy() {
        let mut m = SerialModel::new(&ModelConfig::test_small(), Iteration::Exact).unwrap();
        let ic = init::perturbed_rest(m.geom(), 150.0, 0.0, 2);
        m.set_state(&ic);
        let b0 = local_budget(m.geom(), &m.state);
        m.run(6);
        let b1 = local_budget(m.geom(), &m.state);
        // mass: conserved to rounding
        // the P2 smoothing's meridional fourth difference is not in flux
        // form, so it exchanges a little mass with the pole mirrors —
        // bounded well below the dynamics scales
        let mass_scale = 150.0 * b0.weight;
        assert!(
            (b1.mass - b0.mass).abs() / mass_scale < 1e-4,
            "mass drift {} -> {}",
            b0.mass,
            b1.mass
        );
        // energy: never grows (filter + smoothing dissipate; the dynamics
        // is neutral); must not collapse either
        assert!(b1.energy() <= b0.energy() * 1.02);
        assert!(b1.energy() >= b0.energy() * 0.2, "energy collapsed");
    }
}
