//! Property-based tests of the dynamical-core operators, driven by a
//! deterministic case generator.

use agcm_core::boundary;
use agcm_core::geometry::LocalGeometry;
use agcm_core::smoothing::{smooth_full, smooth_rows, RowMask};
use agcm_core::state::{Combine, State};
use agcm_core::ModelConfig;
use agcm_mesh::{Decomposition, Field3, HaloWidths, ProcessGrid};
use std::sync::Arc;

/// splitmix64 — deterministic case generator for the property loops.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

const CASES: u64 = 24;

fn geom() -> LocalGeometry {
    let cfg = ModelConfig::test_small();
    let grid = Arc::new(cfg.grid().unwrap());
    let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
    LocalGeometry::new(&cfg, grid, &d, 0, HaloWidths::uniform(3))
}

fn random_state(geom: &LocalGeometry, seed: u64) -> State {
    let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 17) % 2001) as f64 / 10.0 - 100.0
    };
    for k in 0..geom.nz as isize {
        for j in 0..geom.ny as isize {
            for i in 0..geom.nx as isize {
                st.u.set(i, j, k, next());
                st.v.set(i, j, k, next());
                st.phi.set(i, j, k, next());
            }
        }
    }
    for j in 0..geom.ny as isize {
        for i in 0..geom.nx as isize {
            st.psa.set(i, j, 0, next());
        }
    }
    boundary::enforce_pole_v(&mut st, geom);
    boundary::fill_boundaries(&mut st, geom);
    st
}

#[test]
fn smoothing_splittings_exact() {
    // Eq. 14: both operator splittings of the smoothing reproduce the full
    // sweep on arbitrary states.
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let seed = rng.next_u64() % 100_000;
        let beta = rng.f64_in(0.01, 0.4);
        let geom = geom();
        let st = random_state(&geom, seed);
        let region = geom.interior();
        let mut full = State::like(&st);
        smooth_full(&geom, beta, &st, &mut full, region);
        for (a, b) in [
            (RowMask::L, RowMask::L_PRIME),
            (RowMask::R, RowMask::R_PRIME),
        ] {
            let mut split = State::like(&st);
            smooth_rows(&geom, beta, &st, &mut split, region, a, false);
            smooth_rows(&geom, beta, &st, &mut split, region, b, true);
            assert!(full.max_abs_diff(&split) <= 1e-10);
        }
    }
}

#[test]
fn smoothing_linear() {
    // smoothing is linear: S(a·x + b·y) = a·S(x) + b·S(y).
    for case in 0..CASES {
        let mut rng = Rng::new(100 + case);
        let seed = rng.next_u64() % 100_000;
        let a = rng.f64_in(-3.0, 3.0);
        let b = rng.f64_in(-3.0, 3.0);
        let geom = geom();
        let x = random_state(&geom, seed);
        let y = random_state(&geom, seed.wrapping_add(1));
        let region = geom.interior();
        // z = a·x + b·y over the full allocation (halos included, so the
        // stencil reads consistent data)
        let mut z = State::like(&x);
        for k in -3..geom.nz as isize + 3 {
            for j in -3..geom.ny as isize + 3 {
                for i in -3..geom.nx as isize + 3 {
                    z.u.set(i, j, k, a * x.u.get(i, j, k) + b * y.u.get(i, j, k));
                    z.phi
                        .set(i, j, k, a * x.phi.get(i, j, k) + b * y.phi.get(i, j, k));
                }
            }
        }
        let mut sz = State::like(&x);
        smooth_full(&geom, 0.1, &z, &mut sz, region);
        let mut sx = State::like(&x);
        smooth_full(&geom, 0.1, &x, &mut sx, region);
        let mut sy = State::like(&x);
        smooth_full(&geom, 0.1, &y, &mut sy, region);
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    let want = a * sx.u.get(i, j, k) + b * sy.u.get(i, j, k);
                    assert!((sz.u.get(i, j, k) - want).abs() <= 1e-7 * (1.0 + want.abs()));
                    let want = a * sx.phi.get(i, j, k) + b * sy.phi.get(i, j, k);
                    assert!((sz.phi.get(i, j, k) - want).abs() <= 1e-7 * (1.0 + want.abs()));
                }
            }
        }
    }
}

#[test]
fn boundary_fill_idempotent() {
    // boundary filling is idempotent: applying it twice equals once.
    for case in 0..CASES {
        let mut rng = Rng::new(200 + case);
        let seed = rng.next_u64() % 100_000;
        let geom = geom();
        let mut st = random_state(&geom, seed);
        boundary::fill_boundaries(&mut st, &geom);
        let once = st.clone();
        boundary::fill_boundaries(&mut st, &geom);
        // compare over the full allocated arrays
        assert_eq!(once.u.raw(), st.u.raw());
        assert_eq!(once.v.raw(), st.v.raw());
        assert_eq!(once.phi.raw(), st.phi.raw());
    }
}

#[test]
fn midpoint_form_is_half_sum_of_base_and_euler_update() {
    // state algebra: the midpoint form is the half sum of the base and its
    // Euler update, as if the update had been stored in between.
    for case in 0..CASES {
        let mut rng = Rng::new(300 + case);
        let seed = rng.next_u64() % 100_000;
        let geom = geom();
        let a = random_state(&geom, seed);
        let t = random_state(&geom, seed.wrapping_add(7));
        let region = geom.interior();
        let mut euler = State::like(&a);
        euler.combine_on(Combine::Euler, &a, 0.3, &t, &region);
        let mut m = State::like(&a);
        m.combine_on(Combine::Midpoint, &a, 0.3, &t, &region);
        for k in 0..geom.nz as isize {
            for j in 0..geom.ny as isize {
                for i in 0..geom.nx as isize {
                    let want = 0.5 * (a.phi.get(i, j, k) + euler.phi.get(i, j, k));
                    assert_eq!(m.phi.get(i, j, k).to_bits(), want.to_bits());
                }
            }
        }
    }
}

#[test]
fn divergence_conserves_mass() {
    // the divergence D(P) of any state sums (area-weighted) to ~zero —
    // global mass is never created by the transformed divergence.
    for case in 0..CASES {
        let mut rng = Rng::new(400 + case);
        let seed = rng.next_u64() % 100_000;
        let geom = geom();
        let st = random_state(&geom, seed);
        let grid = Arc::clone(&geom.grid);
        let sa = agcm_core::stdatm::StandardAtmosphere::new(&grid);
        let mut diag = agcm_core::diag::Diag::new(&geom);
        let ny = geom.ny as isize;
        diag.update_surface(&geom, &sa, &st, -1, ny + 1);
        let mut dp = Field3::like(&st.phi);
        diag.update_dp(&geom, &st, geom.interior(), 0, &mut dp);
        for k in 0..geom.nz as isize {
            let mut total = 0.0;
            let mut scale = 0.0;
            for j in 0..ny {
                let w = geom.sin_c(j);
                for i in 0..geom.nx as isize {
                    total += w * dp.get(i, j, k);
                    scale += w * dp.get(i, j, k).abs();
                }
            }
            assert!(
                total.abs() <= 1e-10 * scale.max(1e-10),
                "level {k}: {total}"
            );
        }
    }
}
