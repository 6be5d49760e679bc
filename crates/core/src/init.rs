//! Initial conditions.
//!
//! H-S runs traditionally start from a resting, horizontally uniform
//! atmosphere plus a small perturbation that breaks the zonal symmetry so
//! baroclinic eddies can develop.  A zonal-jet initial state is provided
//! for tests that need nontrivial winds immediately.
//!
//! All generators are deterministic: the "random" perturbation uses an
//! explicit 64-bit LCG seeded by the caller, so a decomposed run seeds the
//! *global* field identically regardless of the process grid — which is
//! what lets the tests demand bit-identical results across decompositions.

use crate::geometry::LocalGeometry;
use crate::state::State;

/// Deterministic pseudo-random value in `[-1, 1)` for global coordinates.
fn hash_noise(seed: u64, i: u64, j: u64, k: u64, comp: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(i.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(j.wrapping_mul(0x94D049BB133111EB))
        .wrapping_add(k.wrapping_mul(0xD6E8FEB86659FD93))
        .wrapping_add(comp.wrapping_mul(0xFF51AFD7ED558CCD));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A resting atmosphere (`U = V = Φ = p'_sa = 0`): the exact equilibrium of
/// the unforced equations.
pub fn rest(geom: &LocalGeometry) -> State {
    State::new(geom.nx, geom.ny, geom.nz, geom.halo)
}

/// Rest plus a smooth mid-latitude surface-pressure anomaly and small
/// deterministic noise on `Φ` — the standard "perturbed rest" start.
///
/// * `bump_amp` — peak `p'_sa` \[Pa\],
/// * `noise_amp` — noise amplitude on `Φ` \[m/s·(m/s)\],
/// * `seed` — noise seed.
pub fn perturbed_rest(geom: &LocalGeometry, bump_amp: f64, noise_amp: f64, seed: u64) -> State {
    let mut st = rest(geom);
    let grid = &geom.grid;
    let (gnx, gny) = (grid.nx() as f64, grid.ny() as f64);
    // bump centred at (λ, θ) = (90°E, 45°N-ish)
    let ic = gnx / 4.0;
    let jc = gny / 3.0;
    let rx = gnx / 12.0;
    let ry = gny / 12.0;
    for j in 0..geom.ny as isize {
        let gj = geom.global_j(j) as f64;
        for i in 0..geom.nx as isize {
            let gi = (geom.sub.x.start + i as usize) as f64;
            // periodic distance in x
            let mut dx = (gi - ic).abs();
            dx = dx.min(gnx - dx);
            let r2 = (dx / rx).powi(2) + ((gj - jc) / ry).powi(2);
            st.psa.set(i, j, 0, bump_amp * (-r2).exp());
        }
    }
    if noise_amp > 0.0 {
        for k in 0..geom.nz as isize {
            let gk = geom.global_k(k) as u64;
            for j in 0..geom.ny as isize {
                let gj = geom.global_j(j) as u64;
                for i in 0..geom.nx as isize {
                    let gi = (geom.sub.x.start + i as usize) as u64;
                    let n = hash_noise(seed, gi, gj, gk, 2);
                    st.phi.set(i, j, k, noise_amp * n);
                }
            }
        }
    }
    st
}

/// A broad westerly jet in each hemisphere (transformed wind
/// `U = u₀ · sin²(2θ)`-shaped) with zero `Φ` deviation — *not* balanced;
/// the adaptation process immediately responds, which is exactly what
/// dynamics tests want to exercise.
pub fn zonal_jet(geom: &LocalGeometry, u0: f64) -> State {
    let mut st = rest(geom);
    for k in 0..geom.nz as isize {
        let sigma = geom.sigma_c(k).clamp(0.0, 1.0);
        let vert = (std::f64::consts::PI * sigma).sin(); // max mid-troposphere
        for j in 0..geom.ny as isize {
            let theta = {
                // colatitude of the row (mirror-safe through the tables)
                geom.sin_c(j).asin()
            };
            let shape = (2.0 * theta).sin().powi(2);
            for i in 0..geom.nx as isize {
                st.u.set(i, j, k, u0 * shape * vert);
            }
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use agcm_mesh::{Decomposition, HaloWidths, ProcessGrid};
    use std::sync::Arc;

    fn geom_for(pg: ProcessGrid, rank: usize) -> LocalGeometry {
        let cfg = ModelConfig::test_medium();
        let grid = Arc::new(cfg.grid().unwrap());
        let d = Decomposition::new(cfg.extents(), pg).unwrap();
        LocalGeometry::new(&cfg, grid, &d, rank, HaloWidths::uniform(2))
    }

    #[test]
    fn rest_is_zero() {
        let g = geom_for(ProcessGrid::serial(), 0);
        assert_eq!(rest(&g).max_abs(), 0.0);
    }

    #[test]
    fn perturbation_peak_location_and_amplitude() {
        let g = geom_for(ProcessGrid::serial(), 0);
        let st = perturbed_rest(&g, 400.0, 0.0, 1);
        let mut peak = (0, 0, f64::MIN);
        for j in 0..g.ny as isize {
            for i in 0..g.nx as isize {
                if st.psa.get(i, j, 0) > peak.2 {
                    peak = (i, j, st.psa.get(i, j, 0));
                }
            }
        }
        assert!((peak.2 - 400.0).abs() < 40.0, "peak {}", peak.2);
        assert_eq!(peak.0, (g.nx / 4) as isize);
        // winds start at rest
        assert_eq!(st.u.max_abs(), 0.0);
        assert_eq!(st.v.max_abs(), 0.0);
    }

    #[test]
    fn decomposed_init_matches_serial() {
        let serial = perturbed_rest(&geom_for(ProcessGrid::serial(), 0), 300.0, 1.0, 7);
        // y-z split: each rank's block must equal the serial slice
        for rank in 0..4 {
            let g = geom_for(ProcessGrid::yz(2, 2).unwrap(), rank);
            let st = perturbed_rest(&g, 300.0, 1.0, 7);
            for k in 0..g.nz as isize {
                for j in 0..g.ny as isize {
                    for i in 0..g.nx as isize {
                        let gj = g.global_j(j) as isize;
                        let gk = g.global_k(k) as isize;
                        assert_eq!(st.phi.get(i, j, k), serial.phi.get(i, gj, gk));
                        assert_eq!(st.psa.get(i, j, 0), serial.psa.get(i, gj, 0));
                    }
                }
            }
        }
    }

    #[test]
    fn noise_depends_on_seed() {
        let g = geom_for(ProcessGrid::serial(), 0);
        let a = perturbed_rest(&g, 0.0, 1.0, 1);
        let b = perturbed_rest(&g, 0.0, 1.0, 2);
        assert!(a.max_abs_diff(&b) > 0.0);
        let a2 = perturbed_rest(&g, 0.0, 1.0, 1);
        assert_eq!(a.max_abs_diff(&a2), 0.0, "same seed → same field");
    }

    #[test]
    fn jet_shape() {
        let g = geom_for(ProcessGrid::serial(), 0);
        let st = zonal_jet(&g, 30.0);
        let kmid = g.nz as isize / 2;
        // mid-latitude faster than equator-adjacent and near-pole rows
        let jm = g.ny as isize / 4; // ~45°N
        let je = g.ny as isize / 2; // equator
        assert!(st.u.get(0, jm, kmid) > st.u.get(0, je, kmid));
        assert!(st.u.get(0, jm, kmid) > st.u.get(0, 0, kmid));
        assert!(st.u.get(0, jm, kmid) > 10.0);
        // vertical profile peaks mid-column
        assert!(st.u.get(0, jm, kmid) > st.u.get(0, jm, 0));
    }
}
