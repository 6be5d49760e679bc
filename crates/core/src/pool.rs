//! Intra-rank worker pool: a std-only scoped-thread parallel-for over
//! z-bands of a [`Region`].
//!
//! The paper removes the *communication* bottleneck; once that is done the
//! step time is dominated by the pointwise tendency sweeps.  Those sweeps
//! write disjoint `(j, k)` points, so they can be split across OS threads
//! with **no** change to the floating-point result: each point's expression
//! tree is evaluated exactly as in the serial sweep, only by a different
//! worker.  Band splitting is therefore deterministic and bit-identical at
//! any thread count.
//!
//! Design constraints honoured here:
//!
//! * **std-only** — `std::thread::scope`, no external thread-pool crate;
//! * **zero allocation at one thread** — the band lists live in stack arrays
//!   (`[Option<T>; MAX_WORKERS]`) and the single-band path runs inline
//!   without entering `thread::scope` (which allocates per spawn);
//! * **aliasing-safe splitting** — mutable output fields are carved into
//!   disjoint [`SlabMut3`] views via `split_at_mut`, never by sharing a
//!   `&mut Field3` across threads.

use crate::geometry::Region;
use agcm_mesh::{Field3, SlabMut3};
use std::cell::Cell;
use std::sync::OnceLock;

/// Upper bound on worker count; keeps band lists on the stack.
pub const MAX_WORKERS: usize = 16;

static ENV_WORKERS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// 0 = no override (use the `AGCM_THREADS` environment variable).
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

fn env_workers() -> usize {
    // strict parse: `AGCM_THREADS=8x` must fail loudly, not silently run
    // single-threaded
    agcm_comm::env::parse_env_or("AGCM_THREADS", 1usize).clamp(1, MAX_WORKERS)
}

/// Number of intra-rank workers for kernel sweeps.
///
/// Reads `AGCM_THREADS` once (default 1, clamped to [`MAX_WORKERS`]); tests
/// override it per-thread via [`with_workers`] so parallel test binaries
/// never mutate the process environment.
#[inline]
pub fn workers() -> usize {
    let o = OVERRIDE.with(Cell::get);
    if o != 0 {
        return o;
    }
    *ENV_WORKERS.get_or_init(env_workers)
}

/// Minimum grid points per band before a sweep is worth another worker:
/// below this, scoped-thread spawn overhead outweighs the parallel gain.
pub const MIN_BAND_POINTS: usize = 8192;

/// Worker count for a sweep over `points` grid points.
///
/// The `AGCM_THREADS` setting is clamped so every band keeps at least
/// [`MIN_BAND_POINTS`] points — small sweeps run inline rather than paying
/// thread-spawn latency.  A [`with_workers`] override is returned verbatim
/// (tests force exact band counts to pin bit-identity).  Band splitting is
/// bit-identical at any worker count, so this is purely a scheduling
/// heuristic.
#[inline]
pub fn workers_for(points: usize) -> usize {
    let o = OVERRIDE.with(Cell::get);
    if o != 0 {
        return o;
    }
    workers().min((points / MIN_BAND_POINTS).max(1))
}

/// Run `f` with the worker count forced to `n` on the current thread.
///
/// The override is thread-local: worker threads spawned *by* the pool do not
/// consult it (they never re-enter the pool), and concurrently running tests
/// cannot race each other through the environment.
pub fn with_workers<T>(n: usize, f: impl FnOnce() -> T) -> T {
    assert!((1..=MAX_WORKERS).contains(&n));
    let prev = OVERRIDE.with(|c| c.replace(n));
    let out = f();
    OVERRIDE.with(|c| c.set(prev));
    out
}

/// Split `[z0, z1)` into `nw` contiguous, balanced, non-empty bands.
///
/// Returns the number of bands actually produced (`min(nw, z1 - z0)`, zero
/// for an empty range) and fills `cuts[0..=nb]` with the band boundaries.
pub fn band_cuts(z0: isize, z1: isize, nw: usize, cuts: &mut [isize; MAX_WORKERS + 1]) -> usize {
    if z1 <= z0 {
        return 0;
    }
    let len = (z1 - z0) as usize;
    let nb = nw.clamp(1, MAX_WORKERS).min(len);
    for (b, c) in cuts.iter_mut().enumerate().take(nb + 1) {
        *c = z0 + (len * b / nb) as isize;
    }
    nb
}

/// One worker's share of a tendency sweep: a z-band of the region plus
/// disjoint mutable views of the three 3-D output fields.
pub struct StateBand<'a> {
    /// Sub-region this band covers (`y` span unchanged, `z` restricted).
    pub region: Region,
    /// Output view of the zonal-wind field.
    pub u: SlabMut3<'a>,
    /// Output view of the meridional-wind field.
    pub v: SlabMut3<'a>,
    /// Output view of the geopotential field.
    pub phi: SlabMut3<'a>,
}

/// Carve three output fields into per-worker [`StateBand`]s over `region`.
///
/// Returns the stack-allocated band list and the band count (0 when the
/// region has an empty z-range).  All splitting is allocation-free.
pub fn split_state_bands<'a>(
    u: &'a mut Field3,
    v: &'a mut Field3,
    phi: &'a mut Field3,
    region: &Region,
    nw: usize,
) -> ([Option<StateBand<'a>>; MAX_WORKERS], usize) {
    let mut out: [Option<StateBand<'a>>; MAX_WORKERS] = std::array::from_fn(|_| None);
    let mut cuts = [0isize; MAX_WORKERS + 1];
    let nb = band_cuts(region.z0, region.z1, nw, &mut cuts);
    if nb == 0 {
        return (out, 0);
    }
    let mut rest_u = Some(u.slab_mut(region.z0, region.z1));
    let mut rest_v = Some(v.slab_mut(region.z0, region.z1));
    let mut rest_phi = Some(phi.slab_mut(region.z0, region.z1));
    for b in 0..nb {
        let hi = cuts[b + 1];
        let (bu, ru) = rest_u.take().expect("band split").split_at_k(hi);
        let (bv, rv) = rest_v.take().expect("band split").split_at_k(hi);
        let (bp, rp) = rest_phi.take().expect("band split").split_at_k(hi);
        rest_u = Some(ru);
        rest_v = Some(rv);
        rest_phi = Some(rp);
        out[b] = Some(StateBand {
            region: Region {
                y0: region.y0,
                y1: region.y1,
                z0: cuts[b],
                z1: hi,
            },
            u: bu,
            v: bv,
            phi: bp,
        });
    }
    (out, nb)
}

/// Parallel-for over band items.
///
/// With zero or one item this runs inline on the calling thread — no
/// `thread::scope`, no spawn, no allocation.  With more, item 0 runs on the
/// calling thread while items `1..` run on scoped worker threads; every band
/// (including the caller's) is wrapped in a [`agcm_obs::SpanKind::Worker`]
/// span named `label` so the overlap profiler can attribute worker time.
///
/// `f` must only write through the `&mut T` it is handed; since the items
/// were built from disjoint field views, the result is independent of the
/// band count and of scheduling.
pub fn run<T: Send>(items: &mut [Option<T>], label: &'static str, f: impl Fn(&mut T) + Sync) {
    match items {
        [] => {}
        [only] => {
            if let Some(item) = only.as_mut() {
                f(item);
            }
        }
        [first, rest @ ..] => {
            std::thread::scope(|scope| {
                let f = &f;
                for item in rest.iter_mut() {
                    if let Some(item) = item.as_mut() {
                        scope.spawn(move || {
                            let _s = agcm_obs::span(agcm_obs::SpanKind::Worker, label);
                            f(item);
                        });
                    }
                }
                if let Some(item) = first.as_mut() {
                    let _s = agcm_obs::span(agcm_obs::SpanKind::Worker, label);
                    f(item);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mesh::HaloWidths;

    #[test]
    fn band_cuts_cover_range_without_gaps() {
        let mut cuts = [0isize; MAX_WORKERS + 1];
        for nw in 1..=6 {
            for (z0, z1) in [(0isize, 7isize), (-1, 3), (2, 2), (0, 1)] {
                let nb = band_cuts(z0, z1, nw, &mut cuts);
                if z1 <= z0 {
                    assert_eq!(nb, 0);
                    continue;
                }
                assert!(nb >= 1 && nb <= nw);
                assert_eq!(cuts[0], z0);
                assert_eq!(cuts[nb], z1);
                for b in 0..nb {
                    assert!(cuts[b] < cuts[b + 1], "empty band");
                }
            }
        }
    }

    #[test]
    fn with_workers_overrides_thread_locally() {
        with_workers(4, || assert_eq!(workers(), 4));
        with_workers(2, || {
            with_workers(1, || assert_eq!(workers(), 1));
            assert_eq!(workers(), 2);
        });
    }

    #[test]
    fn run_executes_every_band_exactly_once() {
        let h = HaloWidths::uniform(1);
        let mut u = Field3::new(4, 3, 6, h);
        let mut v = Field3::new(4, 3, 6, h);
        let mut phi = Field3::new(4, 3, 6, h);
        let region = Region {
            y0: 0,
            y1: 3,
            z0: 0,
            z1: 6,
        };
        for nw in [1usize, 2, 3, 4] {
            let (mut bands, nb) = split_state_bands(&mut u, &mut v, &mut phi, &region, nw);
            run(&mut bands[..nb], "test.band", |band| {
                for k in band.region.z0..band.region.z1 {
                    for j in band.region.y0..band.region.y1 {
                        for i in 0..4 {
                            band.u.add(i, j, k, 1.0);
                            band.v.add(i, j, k, 2.0);
                            band.phi.add(i, j, k, 3.0);
                        }
                    }
                }
            });
        }
        for k in 0..6 {
            for j in 0..3 {
                for i in 0..4 {
                    assert_eq!(u.get(i, j, k), 4.0);
                    assert_eq!(v.get(i, j, k), 8.0);
                    assert_eq!(phi.get(i, j, k), 12.0);
                }
            }
        }
    }
}
