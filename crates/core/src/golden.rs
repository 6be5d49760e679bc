//! Golden bitwise-equivalence property tests.
//!
//! Every row-sliced kernel is pinned to its scalar reference
//! (`*_scalar`, kept under `cfg(test)`/the `scalar-ref` feature) across
//! randomized states, diagnostics, regions, halo widths and worker counts.
//! Equality is `f64::to_bits` — the vectorized paths must be *bit*-identical,
//! not merely close, because the paper's correctness statement (parallel CA
//! ≡ serial approximate) is itself bitwise.

use crate::adaptation::{adaptation_tendency, adaptation_tendency_scalar};
use crate::advection::{advection_tendency, advection_tendency_scalar};
use crate::config::ModelConfig;
use crate::diag::Diag;
use crate::geometry::{LocalGeometry, Region};
use crate::pool;
use crate::smoothing::{smooth_rows, smooth_rows_scalar, RowMask};
use crate::state::State;
use crate::stdatm::StandardAtmosphere;
use crate::vertical::{apply_c, apply_c_scalar, ZContext};
use agcm_mesh::{Decomposition, Field2, Field3, HaloWidths, ProcessGrid};
use std::sync::Arc;

fn splitmix64(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// uniform in [-1, 1)
fn rand_sym(s: &mut u64) -> f64 {
    (splitmix64(s) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// uniform in [0.5, 1.5) — for fields the kernels divide by
fn rand_pos(s: &mut u64) -> f64 {
    0.5 + (splitmix64(s) >> 12) as f64 / (1u64 << 52) as f64
}

fn geom_with_halo(h: usize) -> LocalGeometry {
    let cfg = ModelConfig::test_small();
    let grid = Arc::new(cfg.grid().unwrap());
    let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
    LocalGeometry::new(&cfg, grid, &d, 0, HaloWidths::uniform(h))
}

fn fill3(f: &mut Field3, s: &mut u64) {
    for v in f.raw_mut() {
        *v = rand_sym(s);
    }
}

fn fill2(f: &mut Field2, s: &mut u64) {
    for v in f.raw_mut() {
        *v = rand_sym(s);
    }
}

fn fill2_pos(f: &mut Field2, s: &mut u64) {
    for v in f.raw_mut() {
        *v = rand_pos(s);
    }
}

/// every point including halos gets a random value — halo reads of the
/// kernels then exercise arbitrary data, not just boundary-filled patterns
fn random_state(geom: &LocalGeometry, seed: u64) -> State {
    let mut s = seed;
    let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
    fill3(&mut st.u, &mut s);
    fill3(&mut st.v, &mut s);
    fill3(&mut st.phi, &mut s);
    fill2(&mut st.psa, &mut s);
    st
}

fn random_diag(geom: &LocalGeometry, seed: u64) -> Diag {
    let mut s = seed;
    let mut d = Diag::new(geom);
    fill2_pos(&mut d.pes, &mut s); // divided by: keep positive
    fill2_pos(&mut d.cap_p, &mut s); // divided by: keep positive
    fill2(&mut d.dsa, &mut s);
    fill3(&mut d.dp, &mut s);
    fill2(&mut d.vsum, &mut s);
    fill3(&mut d.gw, &mut s);
    fill3(&mut d.phi_p, &mut s);
    d
}

/// random subregion of the interior, at least one row/level thick
fn random_region(geom: &LocalGeometry, s: &mut u64) -> Region {
    let (ny, nz) = (geom.ny as isize, geom.nz as isize);
    let y0 = (splitmix64(s) % 3) as isize;
    let y1 = (ny - (splitmix64(s) % 3) as isize).max(y0 + 1);
    let z0 = (splitmix64(s) % 2) as isize;
    let z1 = (nz - (splitmix64(s) % 2) as isize).max(z0 + 1);
    Region { y0, y1, z0, z1 }
}

fn assert_bits3(a: &Field3, b: &Field3, what: &str) {
    for (i, (x, y)) in a.raw().iter().zip(b.raw()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: raw index {i}");
    }
}

fn assert_bits2(a: &Field2, b: &Field2, what: &str) {
    for (i, (x, y)) in a.raw().iter().zip(b.raw()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: raw index {i}");
    }
}

fn assert_state_bits(a: &State, b: &State, what: &str) {
    assert_bits3(&a.u, &b.u, what);
    assert_bits3(&a.v, &b.v, what);
    assert_bits3(&a.phi, &b.phi, what);
    assert_bits2(&a.psa, &b.psa, what);
}

const HALOS: [usize; 2] = [2, 3];
const THREADS: [usize; 3] = [1, 2, 4];
const SEEDS: [u64; 3] = [7, 1234, 0xDEADBEEF];

#[test]
fn adaptation_row_kernel_matches_scalar_bitwise() {
    for h in HALOS {
        let geom = geom_with_halo(h);
        for seed in SEEDS {
            let mut s = seed;
            let arg = random_state(&geom, splitmix64(&mut s));
            let diag = random_diag(&geom, splitmix64(&mut s));
            let region = random_region(&geom, &mut s);
            let init = random_state(&geom, splitmix64(&mut s));
            let mut want = init.clone();
            adaptation_tendency_scalar(&geom, &arg, &diag, &mut want, region);
            for nt in THREADS {
                let mut got = init.clone();
                pool::with_workers(nt, || {
                    adaptation_tendency(&geom, &arg, &diag, &mut got, region)
                });
                assert_state_bits(
                    &got,
                    &want,
                    &format!("adaptation h={h} nt={nt} seed={seed}"),
                );
            }
        }
    }
}

#[test]
fn advection_row_kernel_matches_scalar_bitwise() {
    for h in HALOS {
        let geom = geom_with_halo(h);
        for seed in SEEDS {
            let mut s = seed.wrapping_mul(3);
            let arg = random_state(&geom, splitmix64(&mut s));
            let diag = random_diag(&geom, splitmix64(&mut s));
            let region = random_region(&geom, &mut s);
            let init = random_state(&geom, splitmix64(&mut s));
            let mut want = init.clone();
            advection_tendency_scalar(&geom, &arg, &diag, &mut want, region);
            for nt in THREADS {
                let mut got = init.clone();
                pool::with_workers(nt, || {
                    advection_tendency(&geom, &arg, &diag, &mut got, region)
                });
                assert_state_bits(&got, &want, &format!("advection h={h} nt={nt} seed={seed}"));
            }
        }
    }
}

#[test]
fn smoothing_row_kernel_matches_scalar_bitwise() {
    let masks = [
        RowMask::FULL,
        RowMask::L,
        RowMask::L_PRIME,
        RowMask::R,
        RowMask::R_PRIME,
    ];
    for h in HALOS {
        let geom = geom_with_halo(h);
        for seed in SEEDS {
            for (mi, &mask) in masks.iter().enumerate() {
                for add in [false, true] {
                    let mut s = seed.wrapping_add(mi as u64) ^ u64::from(add);
                    let src = random_state(&geom, splitmix64(&mut s));
                    let region = random_region(&geom, &mut s);
                    let init = random_state(&geom, splitmix64(&mut s));
                    let mut want = init.clone();
                    smooth_rows_scalar(&geom, 0.1, &src, &mut want, region, mask, add);
                    for nt in THREADS {
                        let mut got = init.clone();
                        pool::with_workers(nt, || {
                            smooth_rows(&geom, 0.1, &src, &mut got, region, mask, add)
                        });
                        assert_state_bits(
                            &got,
                            &want,
                            &format!("smoothing h={h} nt={nt} mask={mi} add={add} seed={seed}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn apply_c_row_kernel_matches_scalar_bitwise() {
    for h in HALOS {
        let geom = geom_with_halo(h);
        let stdatm = StandardAtmosphere::new(&geom.grid);
        for seed in SEEDS {
            let mut s = seed.wrapping_mul(17);
            let dseed = splitmix64(&mut s);
            let arg = random_state(&geom, splitmix64(&mut s));
            let region = random_region(&geom, &mut s);
            let mut want = random_diag(&geom, dseed);
            apply_c_scalar(
                &geom,
                &stdatm,
                &arg,
                &mut want,
                region,
                &ZContext::Serial,
                true,
            )
            .unwrap();
            // apply_c is not banded, but still honor the worker-count sweep
            // so a future banding of C stays pinned
            for nt in THREADS {
                let mut got = random_diag(&geom, dseed);
                pool::with_workers(nt, || {
                    apply_c(
                        &geom,
                        &stdatm,
                        &arg,
                        &mut got,
                        region,
                        &ZContext::Serial,
                        true,
                    )
                })
                .unwrap();
                let what = format!("apply_c h={h} nt={nt} seed={seed}");
                assert_bits3(&got.dp, &want.dp, &what);
                assert_bits2(&got.vsum, &want.vsum, &what);
                assert_bits3(&got.gw, &want.gw, &what);
                assert_bits3(&got.phi_p, &want.phi_p, &what);
                assert_bits2(&got.dsa, &want.dsa, &what);
            }
        }
    }
}

/// pseudo-random per-row filter-activity mask over the full halo-extended
/// j range, as [`crate::adaptation::FusedCtx`] consumes it
fn random_active(geom: &LocalGeometry, s: &mut u64) -> (Vec<bool>, isize) {
    let off = geom.halo.ym as isize;
    let n = geom.halo.ym + geom.ny + geom.halo.yp;
    let mask = (0..n).map(|_| splitmix64(s).is_multiple_of(3)).collect();
    (mask, off)
}

#[test]
fn fused_adaptation_matches_sequential_sweep_bitwise() {
    use crate::adaptation::{fused_adaptation_update, FusedCtx};
    use crate::lanes::KernelPath;
    for h in HALOS {
        let geom = geom_with_halo(h);
        for seed in SEEDS {
            let mut s = seed.wrapping_mul(11);
            let arg = random_state(&geom, splitmix64(&mut s));
            let diag = random_diag(&geom, splitmix64(&mut s));
            let base = random_state(&geom, splitmix64(&mut s));
            let region = random_region(&geom, &mut s);
            let (active, active_off) = random_active(&geom, &mut s);
            let dt = 0.25 + rand_pos(&mut s);
            let tend0 = random_state(&geom, splitmix64(&mut s));
            let out0 = random_state(&geom, splitmix64(&mut s));

            // sequential reference: full tendency sweep, then a separate
            // per-row lincomb sweep over the filter-inactive rows
            let mut tend_ref = tend0.clone();
            let mut out_ref = out0.clone();
            adaptation_tendency(&geom, &arg, &diag, &mut tend_ref, region);
            for j in region.y0..region.y1 {
                if !active[(j + active_off) as usize] {
                    let row = Region {
                        y0: j,
                        y1: j + 1,
                        ..region
                    };
                    out_ref.lincomb_on(&base, dt, &tend_ref, &row);
                }
            }

            let fc = FusedCtx {
                base: &base,
                dt,
                active: &active,
                active_off,
            };
            for nt in THREADS {
                for tile_j in [1usize, 3, geom.ny] {
                    let mut tend = tend0.clone();
                    let mut out = out0.clone();
                    pool::with_workers(nt, || {
                        fused_adaptation_update(
                            &geom,
                            &arg,
                            &diag,
                            &fc,
                            &mut tend,
                            &mut out,
                            region,
                            KernelPath::build_default(),
                            tile_j,
                        )
                    });
                    let what = format!("fused adaptation h={h} nt={nt} tj={tile_j} seed={seed}");
                    assert_state_bits(&tend, &tend_ref, &format!("{what}: tend"));
                    assert_state_bits(&out, &out_ref, &format!("{what}: out"));
                }
            }
        }
    }
}

#[test]
fn fused_advection_matches_sequential_sweep_bitwise() {
    use crate::adaptation::FusedCtx;
    use crate::advection::fused_advection_update;
    use crate::lanes::KernelPath;
    for h in HALOS {
        let geom = geom_with_halo(h);
        for seed in SEEDS {
            let mut s = seed.wrapping_mul(13);
            let arg = random_state(&geom, splitmix64(&mut s));
            let diag = random_diag(&geom, splitmix64(&mut s));
            let base = random_state(&geom, splitmix64(&mut s));
            let region = random_region(&geom, &mut s);
            let (active, active_off) = random_active(&geom, &mut s);
            let dt = 0.25 + rand_pos(&mut s);
            let tend0 = random_state(&geom, splitmix64(&mut s));
            let out0 = random_state(&geom, splitmix64(&mut s));

            let mut tend_ref = tend0.clone();
            let mut out_ref = out0.clone();
            advection_tendency(&geom, &arg, &diag, &mut tend_ref, region);
            for j in region.y0..region.y1 {
                if !active[(j + active_off) as usize] {
                    let row = Region {
                        y0: j,
                        y1: j + 1,
                        ..region
                    };
                    out_ref.lincomb_on(&base, dt, &tend_ref, &row);
                }
            }

            let fc = FusedCtx {
                base: &base,
                dt,
                active: &active,
                active_off,
            };
            for nt in THREADS {
                for tile_j in [1usize, 3, geom.ny] {
                    let mut tend = tend0.clone();
                    let mut out = out0.clone();
                    pool::with_workers(nt, || {
                        fused_advection_update(
                            &geom,
                            &arg,
                            &diag,
                            &fc,
                            &mut tend,
                            &mut out,
                            region,
                            KernelPath::build_default(),
                            tile_j,
                        )
                    });
                    let what = format!("fused advection h={h} nt={nt} tj={tile_j} seed={seed}");
                    assert_state_bits(&tend, &tend_ref, &format!("{what}: tend"));
                    assert_state_bits(&out, &out_ref, &format!("{what}: out"));
                }
            }
        }
    }
}

#[test]
fn batched_fft_filter_matches_row_oracle_bitwise_at_any_worker_count() {
    use crate::filterop::{build_filter, filter_row, filter_state_local};
    use agcm_fft::FilterScratch;
    for h in HALOS {
        let geom = geom_with_halo(h);
        let filter = build_filter(&geom, 70.0);
        let nx = geom.nx as isize;
        for seed in SEEDS {
            let mut s = seed.wrapping_mul(17);
            let init = random_state(&geom, splitmix64(&mut s));
            let region = random_region(&geom, &mut s);

            // the oracle: every row of the region through the allocating
            // per-row filter (identity on inactive rows)
            let mut want = init.clone();
            for j in region.y0..region.y1 {
                let gj = filter_row(&geom, j);
                for k in region.z0..region.z1 {
                    for f in [&mut want.u, &mut want.v, &mut want.phi] {
                        filter.apply_row(gj, f.row_mut(0, nx, j, k));
                    }
                }
                filter.apply_row(gj, want.psa.row_mut(0, nx, j));
            }

            // one scratch across worker counts: it must grow on demand
            let mut scratch = FilterScratch::new();
            for nt in THREADS {
                let mut got = init.clone();
                pool::with_workers(nt, || {
                    filter_state_local(&geom, &filter, &mut got, region, &mut scratch)
                });
                assert_state_bits(
                    &got,
                    &want,
                    &format!("batched filter h={h} nt={nt} seed={seed}"),
                );
            }
        }
    }
}
