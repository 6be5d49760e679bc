//! Golden bitwise-equivalence property tests.
//!
//! Every row-sliced kernel is pinned to its scalar reference
//! (`*_scalar`, compiled for tests only) across randomized states,
//! diagnostics, regions, row lengths, halo widths and worker counts.
//! Equality is `f64::to_bits` — the lane chunks and the `f64` tail must be
//! *bit*-identical to the per-point form, not merely close, because the
//! paper's correctness statement (parallel CA ≡ serial approximate) is
//! itself bitwise.  The module is test code as a whole.

#![cfg(test)]

use crate::adaptation::{adaptation_tendency, adaptation_tendency_scalar};
use crate::advection::{advection_tendency, advection_tendency_scalar};
use crate::config::ModelConfig;
use crate::diag::Diag;
use crate::geometry::{LocalGeometry, Region};
use crate::pool;
use crate::smoothing::{smooth_rows, smooth_rows_scalar, RowMask};
use crate::state::{Combine, RowId, State};
use crate::stdatm::StandardAtmosphere;
use crate::sweep::{SweepScratch, Update};
use crate::vertical::{apply_c, apply_c_scalar, ZContext};
use agcm_mesh::{Decomposition, Field3, HaloWidths, ProcessGrid};
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

fn geom_with(nx: usize, h: usize) -> LocalGeometry {
    let cfg = with_nx(nx, ModelConfig::test_small());
    let grid = Arc::new(cfg.grid().unwrap());
    let d = Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
    LocalGeometry::new(&cfg, grid, &d, 0, HaloWidths::uniform(h))
}

fn fill(f: &mut Field3, s: &mut u64) {
    for v in f.raw_mut() {
        *v = rand_sym(s);
    }
}

fn fill_pos(f: &mut Field3, s: &mut u64) {
    for v in f.raw_mut() {
        *v = rand_pos(s);
    }
}

/// every point including halos gets a random value — halo reads of the
/// kernels then exercise arbitrary data, not just boundary-filled patterns
fn random_state(geom: &LocalGeometry, seed: u64) -> State {
    let mut s = seed;
    let mut st = State::new(geom.nx, geom.ny, geom.nz, geom.halo);
    for f in st.fields_mut() {
        fill(f, &mut s);
    }
    st
}

fn random_diag(geom: &LocalGeometry, seed: u64) -> Diag {
    let mut s = seed;
    let mut d = Diag::new(geom);
    fill_pos(&mut d.pes, &mut s); // divided by: keep positive
    fill_pos(&mut d.cap_p, &mut s); // divided by: keep positive
    fill(&mut d.dsa, &mut s);
    // the standalone entry points' D(P) and φ', sized as `apply_c` sizes
    // them
    crate::diag::sized(&mut d.phi_p, geom);
    d.dp = Field3::like(&d.phi_p);
    fill(&mut d.dp, &mut s);
    fill(&mut d.vsum, &mut s);
    fill(&mut d.gw, &mut s);
    fill(&mut d.phi_p, &mut s);
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

/// random region of a `C`: random rows, the owned levels its column sums
/// run over, and on each side one level into the halo or not
fn random_c_region(geom: &LocalGeometry, s: &mut u64) -> Region {
    let r = random_region(geom, s);
    Region {
        z0: r.z0 - 1,
        z1: r.z1 + 1,
        ..r
    }
}

fn assert_bits(a: &Field3, b: &Field3, what: &str) {
    for (i, (x, y)) in a.raw().iter().zip(b.raw()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: raw index {i}");
    }
}

fn assert_state_bits(a: &State, b: &State, what: &str) {
    for (x, y) in a.fields().into_iter().zip(b.fields()) {
        assert_bits(x, y, what);
    }
}

/// `(nx, halo)` of the serial geometries: `test_small`'s 16 longitudes are
/// whole lane chunks, 18 leave every kernel a ragged `f64` tail.  (A row
/// shorter than one lane is not a geometry: `LatLonGrid` refuses `nx < 4`.)
const MESHES: [(usize, usize); 3] = [(16, 2), (16, 3), (18, 3)];

fn with_nx(nx: usize, cfg: ModelConfig) -> ModelConfig {
    ModelConfig { nx, ..cfg }
}

const THREADS: [usize; 4] = [1, 2, 3, 4];
const SEEDS: [u64; 3] = [7, 1234, 0xDEADBEEF];

#[test]
fn adaptation_row_kernel_matches_scalar_bitwise() {
    for (nx, h) in MESHES {
        let geom = geom_with(nx, h);
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
                    &format!("adaptation nx={nx} h={h} nt={nt} seed={seed}"),
                );
            }
        }
    }
}

#[test]
fn advection_row_kernel_matches_scalar_bitwise() {
    for (nx, h) in MESHES {
        let geom = geom_with(nx, h);
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
                assert_state_bits(
                    &got,
                    &want,
                    &format!("advection nx={nx} h={h} nt={nt} seed={seed}"),
                );
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
    for (nx, h) in MESHES {
        let geom = geom_with(nx, h);
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
                            &format!(
                                "smoothing nx={nx} h={h} nt={nt} mask={mi} add={add} seed={seed}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn apply_c_row_kernel_matches_scalar_bitwise() {
    for (nx, h) in MESHES {
        let geom = geom_with(nx, h);
        let stdatm = StandardAtmosphere::new(&geom.grid);
        for seed in SEEDS {
            let mut s = seed.wrapping_mul(17);
            let dseed = splitmix64(&mut s);
            let arg = random_state(&geom, splitmix64(&mut s));
            let region = random_c_region(&geom, &mut s);
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
                let what = format!("apply_c nx={nx} h={h} nt={nt} seed={seed}");
                assert_bits(&got.dp, &want.dp, &what);
                assert_bits(&got.vsum, &want.vsum, &what);
                assert_bits(&got.gw, &want.gw, &what);
                assert_bits(&got.phi_p, &want.phi_p, &what);
                assert_bits(&got.dsa, &want.dsa, &what);
            }
        }
    }
}

/// `C` under a z-split: the block-sum phase, the allgather on the rank
/// thread and the walk phase, at every worker count, against the per-point
/// oracle run on the same two-rank world.
#[test]
fn apply_c_under_a_z_split_matches_scalar_bitwise_at_any_worker_count() {
    use agcm_comm::Universe;
    for (nx, seed) in [24, 18].into_iter().flat_map(|nx| SEEDS.map(|s| (nx, s))) {
        let cfg = with_nx(nx, ModelConfig::test_medium());
        Universe::run(2, |comm| {
            let geom = geom_of_rank(&cfg, 1, 2, comm.rank());
            let stdatm = StandardAtmosphere::new(&geom.grid);
            let mut s = seed.wrapping_mul(23) ^ comm.rank() as u64;
            let dseed = splitmix64(&mut s);
            let arg = random_state(&geom, splitmix64(&mut s));
            // the ranks of a column share the y-range: same rows, and one
            // level into the z halo on the side that has a neighbour
            let region = Region {
                y0: 1,
                z1: geom.nz as isize + (comm.rank() == 0) as isize,
                ..geom.interior()
            };
            let zctx = ZContext::Parallel(comm);
            let mut want = random_diag(&geom, dseed);
            apply_c_scalar(&geom, &stdatm, &arg, &mut want, region, &zctx, true).unwrap();
            for nt in THREADS {
                let mut got = random_diag(&geom, dseed);
                pool::with_workers(nt, || {
                    apply_c(&geom, &stdatm, &arg, &mut got, region, &zctx, true)
                })
                .unwrap();
                let what = format!(
                    "z-split apply_c nx={nx} rank={} nt={nt} seed={seed}",
                    comm.rank()
                );
                assert_bits(&got.dp, &want.dp, &what);
                assert_bits(&got.vsum, &want.vsum, &what);
                assert_bits(&got.gw, &want.gw, &what);
                assert_bits(&got.phi_p, &want.phi_p, &what);
                assert_bits(&got.dsa, &want.dsa, &what);
            }
        });
    }
}

/// The row-sliced, banded Held–Suarez forcing against the retained
/// per-point loop — which calls the public `t_equilibrium(lat, p)`, so the
/// row body's hoisted `sin²φ`/`cos²φ` form is pinned to it as well.
#[test]
fn held_suarez_row_body_matches_scalar_bitwise_at_any_worker_count() {
    use crate::forcing::{apply_held_suarez, apply_held_suarez_scalar};
    for (nx, h) in MESHES {
        let geom = geom_with(nx, h);
        let stdatm = StandardAtmosphere::new(&geom.grid);
        for seed in SEEDS {
            let mut s = seed.wrapping_mul(31);
            let mut diag = random_diag(&geom, splitmix64(&mut s));
            // surface pressures around p₀, so T_eq's ln/powf see a range
            for v in diag.pes.raw_mut() {
                *v *= 1.0e5;
            }
            let init = random_state(&geom, splitmix64(&mut s));
            let region = random_region(&geom, &mut s);
            let dt = 600.0 * rand_pos(&mut s);
            let mut want = init.clone();
            apply_held_suarez_scalar(&geom, &stdatm, &diag, &mut want, region, dt);
            assert!(want.phi.max_abs_diff(&init.phi) > 0.0, "forcing acted");
            for nt in THREADS {
                let mut got = init.clone();
                pool::with_workers(nt, || {
                    apply_held_suarez(&geom, &stdatm, &diag, &mut got, region, dt)
                });
                assert_state_bits(
                    &got,
                    &want,
                    &format!("forcing nx={nx} h={h} nt={nt} seed={seed}"),
                );
            }
        }
    }
}

/// Property: whatever rows carry work, the cuts cover the range exactly
/// once, every band has a working row, and the working rows are shared out
/// to within one.
#[test]
fn weighted_cuts_cover_the_region_once_for_random_activity_masks() {
    let mut s = 0x5EED_CAFEu64;
    for case in 0..2000 {
        let y0 = (splitmix64(&mut s) % 7) as isize - 3;
        let rows = (splitmix64(&mut s) % 40) as isize;
        let density = splitmix64(&mut s) % 5; // 0 = no row works
        let mask: Vec<bool> = (0..rows)
            .map(|_| density > 0 && splitmix64(&mut s) % 4 < density)
            .collect();
        let works = |j: isize| mask[(j - y0) as usize];
        let nw = 1 + (splitmix64(&mut s) % pool::MAX_WORKERS as u64) as usize;
        let cuts = pool::with_workers(nw, || pool::row_cuts(y0, y0 + rows, 1, works));
        let working = mask.iter().filter(|&&w| w).count();
        assert_eq!(cuts.bands(), nw.min(working), "case {case}");
        if cuts.bands() == 0 {
            continue;
        }
        let mut next = y0;
        let mut shares = Vec::new();
        for b in 0..cuts.bands() {
            let (j0, j1) = cuts.band(b);
            assert_eq!(j0, next, "case {case}: gap or overlap before band {b}");
            assert!(j0 < j1, "case {case}: empty band {b}");
            shares.push((j0..j1).filter(|&j| works(j)).count());
            next = j1;
        }
        assert_eq!(next, y0 + rows, "case {case}: rows left over");
        let (lo, hi) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
        assert!(*lo >= 1 && hi - lo <= 1, "case {case}: shares {shares:?}");
    }
}

/// pseudo-random per-row filter-activity mask over the full halo-extended
/// j range, as [`crate::sweep::Update`] consumes it
fn random_active(geom: &LocalGeometry, s: &mut u64) -> (Vec<bool>, isize) {
    let off = geom.halo.ym as isize;
    let n = geom.halo.ym + geom.ny + geom.halo.yp;
    let mask = (0..n).map(|_| splitmix64(s).is_multiple_of(3)).collect();
    (mask, off)
}

type ScalarTendency = fn(&LocalGeometry, &State, &Diag, &mut State, Region);
type FusedUpdate =
    fn(&LocalGeometry, &State, &Diag, &Update<'_>, &mut State, Region, &mut SweepScratch);

/// The per-point combine of a sub-update — the oracle of both row kernels.
fn combine_point(form: Combine, b: f64, dt: f64, t: f64) -> f64 {
    match form {
        Combine::Euler => b + dt * t,
        Combine::Midpoint => 0.5 * (b + (b + dt * t)),
    }
}

/// `out0` with every point of `region` on the rows `combined(j)` picks
/// replaced by the per-point combine of `base` and `tend`, and every point
/// of the other rows of `region` by `tend` itself.
fn combine_oracle(
    out0: &State,
    base: &State,
    tend: &State,
    region: Region,
    (form, dt): (Combine, f64),
    combined: impl Fn(isize) -> bool,
) -> State {
    let nx = out0.extents().0 as isize;
    let mut out = out0.clone();
    for j in region.y0..region.y1 {
        let pick = |b: f64, t: f64| {
            if combined(j) {
                combine_point(form, b, dt, t)
            } else {
                t
            }
        };
        for i in 0..nx {
            for k in region.z0..region.z1 {
                for (o, t, b) in [
                    (&mut out.u, &tend.u, &base.u),
                    (&mut out.v, &tend.v, &base.v),
                    (&mut out.phi, &tend.phi, &base.phi),
                ] {
                    o.set(i, j, k, pick(b.get(i, j, k), t.get(i, j, k)));
                }
            }
            out.psa
                .set(i, j, 0, pick(base.psa.get(i, j, 0), tend.psa.get(i, j, 0)));
        }
    }
    out
}

/// The sub-update sweep against the per-point oracle: filter-inactive rows
/// are combined into `out` (either form); active rows are left holding
/// their raw tendency in `out`, for the filter to transform and combine.
fn assert_fused_sweep_matches_scalar(name: &str, scalar: ScalarTendency, fused: FusedUpdate) {
    for (nx, h) in MESHES {
        let geom = geom_with(nx, h);
        for seed in SEEDS {
            let mut s = seed.wrapping_mul(11);
            let arg = random_state(&geom, splitmix64(&mut s));
            let diag = random_diag(&geom, splitmix64(&mut s));
            let base = random_state(&geom, splitmix64(&mut s));
            let region = random_region(&geom, &mut s);
            let (active, active_off) = random_active(&geom, &mut s);
            let dt = 0.25 + rand_pos(&mut s);
            let out0 = random_state(&geom, splitmix64(&mut s));
            let mut full = out0.clone();
            scalar(&geom, &arg, &diag, &mut full, region);

            for form in [Combine::Euler, Combine::Midpoint] {
                let inactive = |j: isize| !active[(j + active_off) as usize];
                let want = combine_oracle(&out0, &base, &full, region, (form, dt), inactive);
                let upd = Update {
                    base: &base,
                    dt,
                    form,
                    active: &active,
                    active_off,
                };
                // one scratch across worker counts: it must grow on demand
                let mut scratch = SweepScratch::new();
                for nt in THREADS {
                    let mut out = out0.clone();
                    pool::with_workers(nt, || {
                        fused(&geom, &arg, &diag, &upd, &mut out, region, &mut scratch)
                    });
                    let what = format!("fused {name} {form:?} nx={nx} h={h} nt={nt} seed={seed}");
                    assert_state_bits(&out, &want, &what);
                }
            }
        }
    }
}

/// The adaptation sub-update's sweep fed as the engine of a program that
/// caches `C` feeds it: `D(P)` — `diag.dp` here — in the Φ rows of `out` on
/// `region`, where `C` leaves it, and `φ'` in the cache `diag.phi_p`.
fn fused_adaptation_update(
    geom: &LocalGeometry,
    arg: &State,
    diag: &Diag,
    upd: &Update<'_>,
    out: &mut State,
    region: Region,
    scratch: &mut SweepScratch,
) {
    let nx = geom.nx as isize;
    for k in region.z0..region.z1 {
        for j in region.y0..region.y1 {
            let dp = diag.dp.row(0, nx, j, k);
            out.phi.row_mut(0, nx, j, k).copy_from_slice(dp);
        }
    }
    let phi_p = Some(&diag.phi_p);
    crate::adaptation::fused_adaptation_update(geom, arg, diag, phi_p, upd, out, region, scratch)
}

/// The same sweep as the engine of a program whose every `C` runs fresh
/// feeds it: `φ'` as well in `out`, in its U rows at `x ∈ [-1, nx+1)` on
/// the rows `region` reads (its own and the one past it).  The sweep
/// stores `x ∈ [0, nx)` of the region's rows over it; what it leaves of
/// `φ'` is scratch, and gets `out`'s prior values back, as the oracle has
/// them.
fn fused_adaptation_carried(
    geom: &LocalGeometry,
    arg: &State,
    diag: &Diag,
    upd: &Update<'_>,
    out: &mut State,
    region: Region,
    scratch: &mut SweepScratch,
) {
    let nx = geom.nx as isize;
    let prior = out.u.clone();
    let rows = |k| (region.y0..=region.y1).map(move |j| (j, k));
    let grown: Vec<_> = (region.z0..region.z1).flat_map(rows).collect();
    for &(j, k) in &grown {
        let phi_p = diag.phi_p.row(-1, nx + 1, j, k);
        out.u.row_mut(-1, nx + 1, j, k).copy_from_slice(phi_p);
    }
    for k in region.z0..region.z1 {
        for j in region.y0..region.y1 {
            let dp = diag.dp.row(0, nx, j, k);
            out.phi.row_mut(0, nx, j, k).copy_from_slice(dp);
        }
    }
    crate::adaptation::fused_adaptation_update(geom, arg, diag, None, upd, out, region, scratch);
    for (j, k) in grown {
        let (row, was) = (out.u.row_mut(-1, nx + 1, j, k), prior.row(-1, nx + 1, j, k));
        if j == region.y1 {
            row.copy_from_slice(was);
        } else {
            let last = row.len() - 1;
            (row[0], row[last]) = (was[0], was[last]);
        }
    }
}

#[test]
fn fused_adaptation_matches_scalar_tendency_then_combine_bitwise() {
    assert_fused_sweep_matches_scalar(
        "adaptation",
        adaptation_tendency_scalar,
        fused_adaptation_update,
    );
    assert_fused_sweep_matches_scalar(
        "adaptation, φ' carried",
        adaptation_tendency_scalar,
        fused_adaptation_carried,
    );
}

#[test]
fn fused_advection_matches_scalar_tendency_then_combine_bitwise() {
    assert_fused_sweep_matches_scalar(
        "advection",
        advection_tendency_scalar,
        crate::advection::fused_advection_update,
    );
}

/// The inputs of one whole sub-update on a rank: argument, diagnostics,
/// base, the output's prior contents, time step.
struct SubupdateCase {
    arg: State,
    diag: Diag,
    base: State,
    out0: State,
    dt: f64,
}

impl SubupdateCase {
    fn new(geom: &LocalGeometry, seed: u64) -> Self {
        let mut s = seed;
        SubupdateCase {
            arg: random_state(geom, splitmix64(&mut s)),
            diag: random_diag(geom, splitmix64(&mut s)),
            base: random_state(geom, splitmix64(&mut s)),
            out0: random_state(geom, splitmix64(&mut s)),
            dt: 0.25 + rand_pos(&mut s),
        }
    }

    /// Sweep, then filter, then combine in place — the engine's
    /// sub-update after its diagnostics — at `nt` workers.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        geom: &LocalGeometry,
        filter: &agcm_fft::FourierFilter,
        fused: FusedUpdate,
        form: Combine,
        region: Region,
        fctx: &crate::dycore::FilterCtx<'_>,
        nt: usize,
    ) -> State {
        let (active, active_off) = filter_activity(geom, filter);
        let upd = Update {
            base: &self.base,
            dt: self.dt,
            form,
            active: &active,
            active_off,
        };
        let mut out = self.out0.clone();
        let mut sscratch = SweepScratch::new();
        let mut fscratch = agcm_fft::FilterScratch::new();
        pool::with_workers(nt, || {
            fused(
                geom,
                &self.arg,
                &self.diag,
                &upd,
                &mut out,
                region,
                &mut sscratch,
            );
            crate::dycore::filter_and_combine(
                geom,
                filter,
                &mut fscratch,
                &upd,
                &mut out,
                region,
                fctx,
            )
        })
        .unwrap();
        out
    }
}

/// The filter's own activity per local row, as the engine hands it to
/// [`Update`].
fn filter_activity(geom: &LocalGeometry, filter: &agcm_fft::FourierFilter) -> (Vec<bool>, isize) {
    use crate::filterop::filter_row;
    let off = geom.halo.ym as isize;
    let rows = -off..(geom.ny + geom.halo.yp) as isize;
    (
        rows.map(|j| filter.is_active(filter_row(geom, j)))
            .collect(),
        off,
    )
}

/// Every circle of `region` the filter damps — each component of each
/// active row — with its profile row.
fn active_circles(
    geom: &LocalGeometry,
    filter: &agcm_fft::FourierFilter,
    region: Region,
) -> Vec<(usize, RowId)> {
    let mut ids = Vec::new();
    for j in region.y0..region.y1 {
        let gj = crate::filterop::filter_row(geom, j);
        if filter.is_active(gj) {
            let levels = region.z0..region.z1;
            ids.extend(levels.flat_map(|k| (0..3).map(move |f| (gj, (f, j, k)))));
            ids.push((gj, (3, j, 0)));
        }
    }
    ids
}

/// A whole sub-update — sweep, filter, in-place combine — against the
/// oracle chain: `*_tendency_scalar`, `FourierFilter::apply_row` on each
/// active row, the per-point combine.  Both forms, 1–4 workers, two filter
/// cut-offs; the active rows of some case fill whole `agcm_fft::W` batches
/// and leave a ragged tail (asserted, so the cases cannot drift off it).
fn assert_subupdate_matches_oracle_chain(name: &str, scalar: ScalarTendency, fused: FusedUpdate) {
    use crate::dycore::FilterCtx;
    use crate::filterop::build_filter;
    let mut batches_and_tail = false;
    for (nx, h) in MESHES {
        let geom = geom_with(nx, h);
        for (cutoff, seed) in [60.0, 40.0].into_iter().flat_map(|c| SEEDS.map(|s| (c, s))) {
            let filter = build_filter(&geom, cutoff);
            let mut s = seed.wrapping_mul(41);
            let case = SubupdateCase::new(&geom, splitmix64(&mut s));
            let region = random_region(&geom, &mut s);
            let circles = active_circles(&geom, &filter, region);
            let n = circles.len();
            batches_and_tail |= n > agcm_fft::W && !n.is_multiple_of(agcm_fft::W);

            let mut tend = case.out0.clone();
            scalar(&geom, &case.arg, &case.diag, &mut tend, region);
            for (gj, id) in circles {
                filter.apply_row(gj, tend.row_mut(geom.nx as isize, id));
            }
            for form in [Combine::Euler, Combine::Midpoint] {
                let all = |_| true;
                let want =
                    combine_oracle(&case.out0, &case.base, &tend, region, (form, case.dt), all);
                for nt in THREADS {
                    let got = case.run(&geom, &filter, fused, form, region, &FilterCtx::Local, nt);
                    let what = format!(
                        "{name} sub-update {form:?} nx={nx} h={h} cutoff={cutoff} nt={nt} seed={seed}"
                    );
                    assert_state_bits(&got, &want, &what);
                }
            }
        }
    }
    assert!(batches_and_tail, "no case filled a batch and left a tail");
}

/// The same sub-update on the X-Y path: two ranks split every circle, the
/// filter transposes it whole and the filtered rows are combined where they
/// are scattered back.  The oracle joins the two ranks' halves of each raw
/// tendency row and filters the circle with the allocating per-row filter.
fn assert_xy_subupdate_matches_oracle_chain(
    name: &str,
    scalar: ScalarTendency,
    fused: FusedUpdate,
) {
    use crate::dycore::FilterCtx;
    use crate::filterop::build_filter;
    use agcm_comm::Universe;
    for nx in [16, 18] {
        let cfg = with_nx(nx, ModelConfig::test_small());
        let geom_of = |rank| {
            let grid = Arc::new(cfg.grid().unwrap());
            let d = Decomposition::new(cfg.extents(), ProcessGrid::xy(2, 1).unwrap()).unwrap();
            LocalGeometry::new(&cfg, grid, &d, rank, HaloWidths::uniform(2))
        };
        for seed in SEEDS {
            let geoms = [geom_of(0), geom_of(1)];
            let filter = build_filter(&geoms[0], cfg.filter_cutoff_deg);
            // the ranks share rows and levels, so one region serves both
            let region = random_region(&geoms[0], &mut seed.wrapping_mul(43));
            let cases = [0, 1].map(|r| SubupdateCase::new(&geoms[r], seed ^ (r as u64 + 1)));
            let mut tends = [0, 1].map(|r| {
                let (g, c) = (&geoms[r], &cases[r]);
                let mut t = c.out0.clone();
                scalar(g, &c.arg, &c.diag, &mut t, region);
                t
            });
            for (gj, id) in active_circles(&geoms[0], &filter, region) {
                let [t0, t1] = &mut tends;
                let (n0, n1) = (geoms[0].nx as isize, geoms[1].nx as isize);
                let mut circle = [t0.row(n0, id), t1.row(n1, id)].concat();
                filter.apply_row(gj, &mut circle);
                t0.row_mut(n0, id).copy_from_slice(&circle[..n0 as usize]);
                t1.row_mut(n1, id).copy_from_slice(&circle[n0 as usize..]);
            }
            for form in [Combine::Euler, Combine::Midpoint] {
                for nt in [1, 2] {
                    let got = Universe::run(2, |comm| {
                        let r = comm.rank();
                        let fctx = FilterCtx::Distributed(comm);
                        cases[r].run(&geoms[r], &filter, fused, form, region, &fctx, nt)
                    });
                    for (r, got) in got.iter().enumerate() {
                        let c = &cases[r];
                        let want = combine_oracle(
                            &c.out0,
                            &c.base,
                            &tends[r],
                            region,
                            (form, c.dt),
                            |_| true,
                        );
                        let what = format!(
                            "X-Y {name} sub-update {form:?} nx={nx} rank {r} nt={nt} seed={seed}"
                        );
                        assert_state_bits(got, &want, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn adaptation_subupdate_is_the_oracle_chain_bitwise() {
    let scalar: ScalarTendency = adaptation_tendency_scalar;
    let cases: [(&str, FusedUpdate); 2] = [
        ("adaptation", fused_adaptation_update),
        ("adaptation, φ' carried", fused_adaptation_carried),
    ];
    for (name, fused) in cases {
        assert_subupdate_matches_oracle_chain(name, scalar, fused);
        assert_xy_subupdate_matches_oracle_chain(name, scalar, fused);
    }
}

#[test]
fn advection_subupdate_is_the_oracle_chain_bitwise() {
    let (scalar, fused): (ScalarTendency, FusedUpdate) = (
        advection_tendency_scalar,
        crate::advection::fused_advection_update,
    );
    assert_subupdate_matches_oracle_chain("advection", scalar, fused);
    assert_xy_subupdate_matches_oracle_chain("advection", scalar, fused);
}

/// Rank `rank`'s geometry of `cfg` under a Y-Z process grid, 3-deep halos.
fn geom_of_rank(cfg: &ModelConfig, py: usize, pz: usize, rank: usize) -> LocalGeometry {
    let grid = Arc::new(cfg.grid().unwrap());
    let d = Decomposition::new(cfg.extents(), ProcessGrid::yz(py, pz).unwrap()).unwrap();
    LocalGeometry::new(cfg, grid, &d, rank, HaloWidths::uniform(3))
}

/// The staged, rolling advection sweep where its staging could go wrong:
/// the pole rows (V pinned, the rolled south rows unused), deep-halo
/// regions dilated past the block on every side, bands that restart the
/// roll mid-region, and a row length that leaves ragged lane tails in the
/// equations as well as in the (wider) staged rows.
#[test]
fn staged_advection_matches_scalar_on_poles_dilated_regions_and_ragged_rows() {
    let ragged = with_nx(18, ModelConfig::test_small());
    let medium = ModelConfig::test_medium();
    let cases: [(&str, LocalGeometry, [isize; 4]); 4] = [
        // whole serial interior: both pole rows
        ("poles", geom_with(16, 3), [0, 0, 0, 0]),
        ("ragged", geom_of_rank(&ragged, 1, 1, 0), [0, 0, 0, 0]),
        // a block with neighbours north, south and below, dilated by two
        // rows / one level where a neighbour is
        ("dilated", geom_of_rank(&medium, 4, 2, 1), [2, 2, 0, 1]),
        (
            "dilated ragged",
            geom_of_rank(&ragged, 2, 2, 3),
            [2, 0, 1, 0],
        ),
    ];
    for (what, geom, [dn, ds, dt, db]) in cases {
        let interior = geom.interior();
        let region = Region {
            y0: interior.y0 - dn,
            y1: interior.y1 + ds,
            z0: interior.z0 - dt,
            z1: interior.z1 + db,
        };
        for seed in SEEDS {
            let mut s = seed.wrapping_mul(29);
            let arg = random_state(&geom, splitmix64(&mut s));
            let diag = random_diag(&geom, splitmix64(&mut s));
            let init = random_state(&geom, splitmix64(&mut s));
            let mut want = init.clone();
            advection_tendency_scalar(&geom, &arg, &diag, &mut want, region);
            for nt in THREADS {
                let mut got = init.clone();
                pool::with_workers(nt, || {
                    advection_tendency(&geom, &arg, &diag, &mut got, region)
                });
                assert_state_bits(&got, &want, &format!("{what} nt={nt} seed={seed}"));
            }
        }
    }
}

/// Divisions the real sweeps spend, counted by driving the public entry
/// points inside `lanes::counted::divisions_in` — and, as the counting
/// element is plain `f64` arithmetic, one more bitwise pin against the
/// default run.  The kernels are division-bound (DESIGN.md §8), so these
/// budgets are the property that must not silently regress.
#[test]
fn division_budget_of_the_tendency_sweeps_and_c() {
    use crate::lanes::counted::divisions_in;

    for cfg in [ModelConfig::test_small(), ModelConfig::test_medium()] {
        let geom = geom_of_rank(&cfg, 1, 1, 0);
        let stdatm = StandardAtmosphere::new(&geom.grid);
        let (nx, ny, nz) = (geom.nx as u64, geom.ny as u64, geom.nz as u64);
        let mut s = 0xD1D1u64;
        let arg = random_state(&geom, splitmix64(&mut s));
        let diag = random_diag(&geom, splitmix64(&mut s));
        let init = random_state(&geom, splitmix64(&mut s));
        let interior = geom.interior();
        // the V equation is pinned, not evaluated, on the south-pole face
        let no_pole = Region {
            y1: interior.y1 - 1,
            ..interior
        };
        let counted = |f: &dyn Fn(&mut State)| {
            let mut want = init.clone();
            f(&mut want);
            let mut got = init.clone();
            let n = divisions_in(|| f(&mut got));
            assert_state_bits(&got, &want, "counted run");
            n
        };

        // adaptation: 5 (U) + 5 (V) + 6 (Φ), nothing shared
        let n = counted(&|t| adaptation_tendency(&geom, &arg, &diag, t, no_pole));
        assert_eq!(n, 16 * nx * (ny - 1) * nz, "adaptation");

        // advection: 9 closing divisions + 5 staged quotients per point,
        // plus the staged rows' halo columns and one un-rolled row per level
        let n = counted(&|t| advection_tendency(&geom, &arg, &diag, t, interior));
        let per_point = n as f64 / (nx * ny * nz) as f64;
        assert!(
            (14.0..=16.0).contains(&per_point),
            "advection: {per_point} divisions per point"
        );
        // exactly: per row 9·nx (less the 3 of the pinned V row) closing,
        // 5·nx + 5 staged; per level one row staged twice
        let rows = ny * nz;
        assert_eq!(n, rows * (14 * nx + 5) + nz * (5 * nx + 5) - 3 * nx * nz);

        // C on a serial column, all of it counted: per 3-D point the 3 of
        // `D(P)` and 1 of the φ' walk's integrand (the block-sum sweep is
        // skipped) — 4; per surface point the 3 of `D_sa` and 1 of φ'_s
        let mut d_want = random_diag(&geom, 7);
        let mut d_got = random_diag(&geom, 7);
        let zctx = ZContext::Serial;
        apply_c(&geom, &stdatm, &arg, &mut d_want, interior, &zctx, true).unwrap();
        let n = divisions_in(|| {
            apply_c(&geom, &stdatm, &arg, &mut d_got, interior, &zctx, true).unwrap()
        });
        assert_bits(&d_got.phi_p, &d_want.phi_p, "counted C");
        assert_bits(&d_got.gw, &d_want.gw, "counted C");
        let walked_rows = ny + 2; // φ' is produced one row beyond the region
        assert_eq!(n, 3 * nx * ny * (nz + 1) + nx * walked_rows * (nz + 1), "C");
        assert_bits(&d_got.dp, &d_want.dp, "counted C");
        assert_bits(&d_got.dsa, &d_want.dsa, "counted C");
    }
}

#[test]
fn batched_fft_filter_matches_row_oracle_bitwise_at_any_worker_count() {
    use crate::filterop::{build_filter, filter_row, filter_state_local};
    use agcm_fft::FilterScratch;
    for (nx, h) in MESHES {
        let geom = geom_with(nx, h);
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
                filter.apply_row(gj, want.psa.row_mut(0, nx, j, 0));
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
                    &format!("batched filter nx={nx} h={h} nt={nt} seed={seed}"),
                );
            }
        }
    }
}
