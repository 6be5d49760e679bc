//! Held–Suarez forcing — the idealized dry benchmark of §5.1.
//!
//! Held & Suarez (1994) replace the full physical parameterizations with
//! two analytic terms, making the dynamical core testable in isolation:
//!
//! * Newtonian relaxation of temperature towards a prescribed radiative
//!   equilibrium `T_eq(φ, p)` with rate `k_T(φ, σ)`,
//! * Rayleigh damping of the low-level winds with rate `k_v(σ)`.
//!
//! In the transformed variables (`Φ ∝ P(T − T̃)`), the temperature
//! relaxation becomes a relaxation of `Φ` towards
//! `Φ_eq = P·R·(T_eq − T̃)/b`, and the wind damping acts directly on `U`
//! and `V`.  The forcing is pointwise — no communication — and is applied
//! once per (advection) time step, like the physics step it stands in for.

use crate::diag::Diag;
use crate::geometry::{LocalGeometry, Region};
use crate::pool;
use crate::state::State;
use crate::stdatm::StandardAtmosphere;
use agcm_mesh::grid::constants as c;

// Held–Suarez constants.

/// Surface equilibrium temperature at the equator \[K\].
const T_EQ_SURF: f64 = 315.0;
/// Minimum (stratospheric) equilibrium temperature \[K\].
const T_MIN: f64 = 200.0;
/// Equator-to-pole temperature difference \[K\].
const DELTA_T_Y: f64 = 60.0;
/// Static-stability parameter \[K\].
const DELTA_THETA_Z: f64 = 10.0;
/// Base relaxation rate `k_a` \[1/s\] (1/40 day).
const K_A: f64 = 1.0 / (40.0 * 86400.0);
/// Enhanced boundary-layer relaxation `k_s` \[1/s\] (1/4 day).
const K_S: f64 = 1.0 / (4.0 * 86400.0);
/// Rayleigh friction rate `k_f` \[1/s\] (1/day).
const K_F: f64 = 1.0 / 86400.0;
/// Boundary-layer top in σ.
const SIGMA_B: f64 = 0.7;

/// The H-S radiative-equilibrium temperature at pressure `p` \[Pa\] from
/// `sin²φ` and `cos²φ` of the latitude `φ` — the part that varies along a
/// latitude row.
#[inline]
fn t_equilibrium_at(sin2: f64, cos2: f64, p: f64) -> f64 {
    let pr = (p / c::P_REF).max(1e-6);
    let t = (T_EQ_SURF - DELTA_T_Y * sin2 - DELTA_THETA_Z * pr.ln() * cos2) * pr.powf(c::KAPPA);
    t.max(T_MIN)
}

/// The latitude/σ-dependent thermal relaxation rate `k_T`.
fn k_t(lat: f64, sigma: f64) -> f64 {
    let cos4 = lat.cos().powi(4);
    let bl = ((sigma - SIGMA_B) / (1.0 - SIGMA_B)).max(0.0);
    K_A + (K_S - K_A) * bl * cos4
}

/// The σ-dependent Rayleigh friction rate `k_v`.
fn k_v(sigma: f64) -> f64 {
    K_F * ((sigma - SIGMA_B) / (1.0 - SIGMA_B)).max(0.0)
}

/// Apply one Held–Suarez forcing step of length `dt` to `state` on
/// `region` (implicit/exact relaxation factors, unconditionally stable).
/// `diag.pes`/`cap_p` must be current.
///
/// Row-sliced and banded by latitude over the intra-rank worker pool.
/// What is constant along a row is hoisted out of it — `sin²φ`, `cos²φ`,
/// `k_T` and `exp(−k_T Δt)` per row, `exp(−k_v Δt)` and its `k_v > 0`
/// branch per level — each a complete subexpression of the per-point tree,
/// so the result is bit-identical to `apply_held_suarez_scalar` at any
/// `AGCM_THREADS`.  The two transcendentals of `T_eq` (`ln`, `powf` of the
/// point's pressure) stay per point.
pub fn apply_held_suarez(
    geom: &LocalGeometry,
    stdatm: &StandardAtmosphere,
    diag: &Diag,
    state: &mut State,
    region: Region,
    dt: f64,
) {
    let nx = geom.nx as isize;
    let grid = &geom.grid;
    let cuts = pool::region_cuts(&region, geom.nx, |_| true);
    let whole = state.band_mut(&region);
    pool::run(whole, &cuts, "forcing.band", |band, y0, y1| {
        for k in region.z0..region.z1 {
            let sigma = geom.sigma_c(k).clamp(0.0, 1.0);
            let kv = k_v(sigma);
            let wind_fac = (-kv * dt).exp();
            let gk = geom.global_k(k).clamp(0, grid.nz() as i64 - 1) as usize;
            let t_tilde = stdatm.t_tilde[gk];
            for j in y0..y1 {
                let gj = geom.global_j(j).clamp(0, grid.ny() as i64 - 1) as usize;
                let lat = grid.latitude(gj);
                let sin2 = lat.sin() * lat.sin();
                let cos2 = 1.0 - sin2;
                let temp_fac = (-k_t(lat, sigma) * dt).exp();
                // winds: exact Rayleigh decay
                if kv > 0.0 {
                    for f in [&mut band.u, &mut band.v] {
                        f.row_mut(0, nx, j, k)
                            .iter_mut()
                            .for_each(|w| *w *= wind_fac);
                    }
                }
                // temperature: relax Φ to Φ_eq
                let phi = band.phi.row_mut(0, nx, j, k);
                let (cap_p, pes) = (diag.cap_p.row(0, nx, j, 0), diag.pes.row(0, nx, j, 0));
                for ((phi, &p_cap), &pes) in phi.iter_mut().zip(cap_p).zip(pes) {
                    let t_eq = t_equilibrium_at(sin2, cos2, c::P_TOP + sigma * pes);
                    let phi_eq = p_cap * c::R_DRY * (t_eq - t_tilde) / c::B_GRAVITY_WAVE;
                    *phi = phi_eq + (*phi - phi_eq) * temp_fac;
                }
            }
        }
    });
}

/// [`t_equilibrium_at`] at latitude `lat` (radians).
#[cfg(test)]
fn t_equilibrium(lat: f64, p: f64) -> f64 {
    let sin2 = lat.sin() * lat.sin();
    t_equilibrium_at(sin2, 1.0 - sin2, p)
}

/// Scalar per-point reference implementation, retained verbatim as the
/// golden reference for the bitwise-equivalence property tests.
#[cfg(test)]
pub fn apply_held_suarez_scalar(
    geom: &LocalGeometry,
    stdatm: &StandardAtmosphere,
    diag: &Diag,
    state: &mut State,
    region: Region,
    dt: f64,
) {
    let nx = geom.nx as isize;
    let grid = &geom.grid;
    for k in region.z0..region.z1 {
        let sigma = geom.sigma_c(k).clamp(0.0, 1.0);
        let kv = k_v(sigma);
        let wind_fac = (-kv * dt).exp();
        let gk = geom.global_k(k).clamp(0, grid.nz() as i64 - 1) as usize;
        let t_tilde = stdatm.t_tilde[gk];
        for j in region.y0..region.y1 {
            let gj = geom.global_j(j).clamp(0, grid.ny() as i64 - 1) as usize;
            let lat = grid.latitude(gj);
            let kt = k_t(lat, sigma);
            let temp_fac = (-kt * dt).exp();
            for i in 0..nx {
                // winds: exact Rayleigh decay
                if kv > 0.0 {
                    let u = state.u.get(i, j, k);
                    state.u.set(i, j, k, u * wind_fac);
                    let v = state.v.get(i, j, k);
                    state.v.set(i, j, k, v * wind_fac);
                }
                // temperature: relax Φ to Φ_eq
                let p_cap = diag.cap_p.get(i, j, 0);
                let pres = c::P_TOP + sigma * diag.pes.get(i, j, 0);
                let t_eq = t_equilibrium(lat, pres);
                let phi_eq = p_cap * c::R_DRY * (t_eq - t_tilde) / c::B_GRAVITY_WAVE;
                let phi = state.phi.get(i, j, k);
                state.phi.set(i, j, k, phi_eq + (phi - phi_eq) * temp_fac);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary;
    use crate::config::ModelConfig;
    use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
    use std::sync::Arc;

    #[test]
    fn equilibrium_profile_shape() {
        // warmer at the equator than the poles at the surface
        let p = c::P_REF;
        assert!(t_equilibrium(0.0, p) > t_equilibrium(1.2, p));
        // equatorial surface T_eq = 315 K
        assert!((t_equilibrium(0.0, p) - T_EQ_SURF).abs() < 1e-9);
        // stratosphere clamps to 200 K
        assert_eq!(t_equilibrium(0.3, 3.0e3), T_MIN);
    }

    #[test]
    fn relaxation_rates() {
        // boundary layer relaxes faster, most strongly at the equator
        assert!(k_t(0.0, 1.0) > k_t(0.0, 0.5));
        assert!(k_t(0.0, 1.0) > k_t(1.0, 1.0));
        assert_eq!(k_t(0.5, 0.3), K_A, "free atmosphere uses k_a");
        // friction only below σ_b
        assert_eq!(k_v(0.5), 0.0);
        assert!(k_v(0.9) > 0.0);
        assert!((k_v(1.0) - K_F).abs() < 1e-18);
    }

    #[test]
    fn forcing_damps_low_level_winds_only() {
        let cfg = ModelConfig::test_small();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let geom = LocalGeometry::new(&cfg, Arc::clone(&grid), &d, 0, HaloWidths::uniform(1));
        let sa = StandardAtmosphere::new(&grid);
        let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    st.u.set(i, j, k, 10.0);
                }
            }
        }
        boundary::fill_boundaries(&mut st, &geom);
        let mut diag = Diag::new(&geom);
        diag.update_surface(&geom, &sa, &st, 0, geom.ny as isize);
        apply_held_suarez(&geom, &sa, &diag, &mut st, geom.interior(), 36000.0);
        // top level (σ ~ 0.125 < σ_b): no friction
        assert_eq!(st.u.get(3, 3, 0), 10.0);
        // bottom level (σ ~ 0.875 > σ_b): damped
        let bottom = st.u.get(3, 3, geom.nz as isize - 1);
        assert!(bottom < 10.0 && bottom > 0.0);
    }

    #[test]
    fn forcing_drives_phi_towards_equilibrium() {
        let cfg = ModelConfig::test_small();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
        let geom = LocalGeometry::new(&cfg, Arc::clone(&grid), &d, 0, HaloWidths::uniform(1));
        let sa = StandardAtmosphere::new(&grid);
        let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
        let mut diag = Diag::new(&geom);
        diag.update_surface(&geom, &sa, &st, 0, geom.ny as isize);
        // huge dt → Φ lands (almost exactly) on Φ_eq
        apply_held_suarez(&geom, &sa, &diag, &mut st, geom.interior(), 1.0e9);
        let k = geom.nz as isize - 1;
        let j = geom.ny as isize / 2;
        let lat = grid.latitude(j as usize);
        let sigma = geom.sigma_c(k);
        let pres = c::P_TOP + sigma * diag.pes.get(3, j, 0);
        let want = diag.cap_p.get(3, j, 0)
            * c::R_DRY
            * (t_equilibrium(lat, pres) - sa.t_tilde[k as usize])
            / c::B_GRAVITY_WAVE;
        assert!((st.phi.get(3, j, k) - want).abs() < 1e-9);
        // equator ends warmer than pole at the surface
        assert!(st.phi.get(3, j, k) > st.phi.get(3, 0, k));
    }
}
