//! Intra-rank worker pool: a std-only scoped-thread parallel-for over
//! **latitude bands** of a sweep.
//!
//! A worker owns rows `[j0, j1)` of *every* level, so each operator of a
//! sub-update keeps its global direction inside a band: the column sums and
//! interface walks of `C` run along z, the polar filter's FFTs along x, and
//! neither crosses a band.  Rows are independent in every operator, so band
//! splitting changes no expression tree: the result is bit-identical at any
//! thread count.
//!
//! Design constraints honoured here:
//!
//! * **std-only** — `std::thread::scope`, no external thread-pool crate;
//! * **zero allocation at one thread** — cuts live in a stack array and the
//!   single-band path runs inline without entering `thread::scope` (which
//!   allocates per spawn);
//! * **aliasing-safe splitting** — a phase describes its outputs once, as a
//!   [`Band`] over the whole row range, and [`run`] peels one band per
//!   worker off it with [`Band::split_at_row`] (`split_at_mut` underneath,
//!   see `agcm_mesh::band`); a `&mut Field3` is never shared across threads.

use crate::geometry::Region;
use agcm_mesh::RowBand;
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

/// Minimum grid points per band before a phase is worth another worker.
///
/// Derived from a measured phase-overhead curve (EXPERIMENTS.md "One
/// kernel path", the pool-phase table; DESIGN.md §8): a two-band phase
/// costs 53–120 µs over half the serial time between 0.1 and 1 ms of work a
/// band (an empty two-band `thread::scope` phase alone: 16–24 µs, against
/// 8–12 µs for a parked thread's round trip), so a band has to carry about
/// three times that, ≈ 0.3 ms, before the phase returns a clear share of
/// its work.  At the ≈ 10 ns a point of the stencil sweeps
/// that is 30 000 points; 2¹⁵ is the constant.  (It was 8192 ≈ 80 µs a
/// band: at or below the cost of the phase.)
pub const MIN_BAND_POINTS: usize = 32_768;

/// Worker count for a phase over `points` grid points.
///
/// The `AGCM_THREADS` setting is clamped so every band keeps at least
/// [`MIN_BAND_POINTS`] points — small phases run inline rather than paying
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
    bands_worth(workers(), points)
}

/// At most `workers` bands, each of at least [`MIN_BAND_POINTS`] points.
fn bands_worth(workers: usize, points: usize) -> usize {
    workers.min((points / MIN_BAND_POINTS).max(1))
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

/// Row cuts of one phase: band `b` owns rows `[at[b], at[b + 1])`.
#[derive(Debug, Clone, Copy)]
pub struct Cuts {
    at: [isize; MAX_WORKERS + 1],
    bands: usize,
}

impl Cuts {
    /// Number of bands (zero when no row carries work).
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Rows `[j0, j1)` of band `b`.
    pub fn band(&self, b: usize) -> (isize, isize) {
        (self.at[b], self.at[b + 1])
    }
}

/// Cut rows `[y0, y1)` into bands carrying equal shares of the phase's
/// work: `works(j)` says whether row `j` carries any (every row of a
/// stencil sweep; the polar-filter-active rows of a filter pass), a working
/// row costs `row_points` grid points.
///
/// The band count is [`workers_for`] the working points, at most one band
/// per working row; band `b > 0` starts at its first working row, so idle
/// rows ride along with a neighbour and a phase without work has no bands.
pub fn row_cuts(y0: isize, y1: isize, row_points: usize, works: impl Fn(isize) -> bool) -> Cuts {
    let total = (y0..y1).filter(|&j| works(j)).count();
    let bands = workers_for(total * row_points).min(total);
    let mut at = [y0; MAX_WORKERS + 1];
    let (mut seen, mut b) = (0, 1);
    for j in (y0..y1).filter(|&j| works(j)) {
        if b < bands && seen == total * b / bands {
            at[b] = j;
            b += 1;
        }
        seen += 1;
    }
    at[bands] = y1;
    Cuts { at, bands }
}

/// [`row_cuts`] of a sweep over `region` with `nx` points a row and level.
pub fn region_cuts(region: &Region, nx: usize, works: impl Fn(isize) -> bool) -> Cuts {
    let levels = (region.z1 - region.z0).max(0) as usize;
    row_cuts(region.y0, region.y1, nx * levels, works)
}

/// What a phase hands its workers: mutable views and scratch covering the
/// phase's whole row range, which [`run`] splits into one value per band.
pub trait Band: Send + Sized {
    /// Split into the part north of row `j` (one band) and the rest.
    fn split_at_row(self, j: isize) -> (Self, Self);
}

impl<const P: usize> Band for RowBand<'_, P> {
    fn split_at_row(self, j: isize) -> (Self, Self) {
        RowBand::split_at_row(self, j)
    }
}

/// What the bands only read, every band gets.
impl<T: Sync + ?Sized> Band for &T {
    fn split_at_row(self, _j: isize) -> (Self, Self) {
        (self, self)
    }
}

impl<A: Band, B: Band> Band for (A, B) {
    fn split_at_row(self, j: isize) -> (Self, Self) {
        let (a, a_rest) = self.0.split_at_row(j);
        let (b, b_rest) = self.1.split_at_row(j);
        ((a, b), (a_rest, b_rest))
    }
}

impl<T: Band> Band for Option<T> {
    fn split_at_row(self, j: isize) -> (Self, Self) {
        self.map(|t| t.split_at_row(j)).unzip()
    }
}

/// Per-worker scratch: every band takes the first remaining element.
#[derive(Debug)]
pub struct PerWorker<'a, S>(pub &'a mut [S]);

impl<S> PerWorker<'_, S> {
    /// This band's element.
    pub fn mine(&mut self) -> &mut S {
        &mut self.0[0]
    }
}

impl<S: Send> Band for PerWorker<'_, S> {
    fn split_at_row(self, _j: isize) -> (Self, Self) {
        let (mine, rest) = self.0.split_at_mut(1);
        (PerWorker(mine), PerWorker(rest))
    }
}

/// `impl Band` for a struct whose fields are all [`Band`]s: split every
/// field at the same row.
macro_rules! band_struct {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::pool::Band for $name<'_> {
            fn split_at_row(self, j: isize) -> (Self, Self) {
                $(let $field = $crate::pool::Band::split_at_row(self.$field, j);)*
                ($name { $($field: $field.0),* }, $name { $($field: $field.1),* })
            }
        }
    };
}
pub(crate) use band_struct;

/// Parallel-for over the bands of `cuts`: `f(band, j0, j1)` once per band.
///
/// With one band this runs inline on the calling thread — no
/// `thread::scope`, no spawn, no allocation.  With more, band 0 runs on the
/// calling thread while the others run on scoped worker threads; every band
/// (including the caller's) is wrapped in a [`agcm_obs::SpanKind::Worker`]
/// span named `label` so the overlap profiler can attribute worker time.
///
/// `f` writes only through the band it is handed; bands are disjoint by
/// construction, so the result is independent of the band count and of
/// scheduling.
pub fn run<T: Band>(
    mut whole: T,
    cuts: &Cuts,
    label: &'static str,
    f: impl Fn(&mut T, isize, isize) + Sync,
) {
    match cuts.bands {
        0 => {}
        1 => f(&mut whole, cuts.at[0], cuts.at[1]),
        _ => run_split(whole, cuts, label, &f),
    }
}

/// The multi-band path of [`run`], out of line so its band list costs the
/// inline path no stack.  The bands live here and the workers borrow them:
/// a spawn allocates its closure, which must stay a few words.
#[inline(never)]
fn run_split<T: Band>(
    whole: T,
    cuts: &Cuts,
    label: &'static str,
    f: &(impl Fn(&mut T, isize, isize) + Sync),
) {
    let mut slots: [Option<T>; MAX_WORKERS] = std::array::from_fn(|_| None);
    let mut rest = whole;
    for b in 1..cuts.bands {
        let (band, tail) = rest.split_at_row(cuts.at[b]);
        slots[b - 1] = Some(band);
        rest = tail;
    }
    slots[cuts.bands - 1] = Some(rest);
    std::thread::scope(|scope| {
        let mut bands = slots.iter_mut().flatten().enumerate();
        let first = bands.next();
        for (b, band) in bands {
            let (j0, j1) = cuts.band(b);
            scope.spawn(move || {
                let _s = agcm_obs::span(agcm_obs::SpanKind::Worker, label);
                f(band, j0, j1);
            });
        }
        if let Some((_, band)) = first {
            let _s = agcm_obs::span(agcm_obs::SpanKind::Worker, label);
            f(band, cuts.at[0], cuts.at[1]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mesh::{Field2, Field3, HaloWidths};

    #[test]
    fn row_cuts_cover_range_without_gaps_or_empty_bands() {
        for nw in 1..=6 {
            for (y0, y1) in [(0isize, 7isize), (-1, 3), (2, 2), (0, 1)] {
                let cuts = with_workers(nw, || row_cuts(y0, y1, 1, |_| true));
                assert_eq!(cuts.bands(), nw.min((y1 - y0) as usize));
                if cuts.bands() == 0 {
                    continue;
                }
                assert_eq!(cuts.band(0).0, y0);
                assert_eq!(cuts.band(cuts.bands() - 1).1, y1);
                for b in 0..cuts.bands() {
                    let (j0, j1) = cuts.band(b);
                    assert!(j0 < j1, "empty band");
                    assert!(b == 0 || cuts.band(b - 1).1 == j0, "gap between bands");
                }
            }
        }
    }

    #[test]
    fn row_cuts_balance_the_working_rows() {
        // one pole's worth of active rows at the north end of 12
        let works = |j: isize| j < 4;
        let cuts = with_workers(2, || row_cuts(0, 12, 1, works));
        assert_eq!((cuts.band(0), cuts.band(1)), ((0, 2), (2, 12)));
        // both poles: the idle middle rides with the northern band
        let works = |j: isize| !(3..9).contains(&j);
        let cuts = with_workers(2, || row_cuts(0, 12, 1, works));
        assert_eq!((cuts.band(0), cuts.band(1)), ((0, 9), (9, 12)));
        // fewer working rows than workers; none at all
        assert_eq!(
            with_workers(4, || row_cuts(0, 12, 1, |j| j == 5)).bands(),
            1
        );
        assert_eq!(with_workers(4, || row_cuts(0, 12, 1, |_| false)).bands(), 0);
    }

    #[test]
    fn small_phases_stay_on_one_band_unless_forced() {
        assert_eq!(bands_worth(4, 2 * MIN_BAND_POINTS - 1), 1);
        assert_eq!(bands_worth(4, 2 * MIN_BAND_POINTS), 2);
        assert_eq!(bands_worth(4, 100 * MIN_BAND_POINTS), 4);
        assert_eq!(bands_worth(1, 100 * MIN_BAND_POINTS), 1);
        // an override is exact, whatever the size
        assert_eq!(with_workers(3, || row_cuts(0, 8, 1, |_| true)).bands(), 3);
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
        let mut u = Field3::new(4, 6, 3, h);
        let mut p = Field2::new(4, 6, h);
        let mut scratch = [0usize; MAX_WORKERS];
        for nw in [1usize, 2, 3, 4] {
            let cuts = with_workers(nw, || row_cuts(-1, 7, 1, |_| true));
            assert_eq!(cuts.bands(), nw);
            let whole = (
                (u.row_band_mut((-1, 7), (0, 3)), p.row_band_mut((-1, 7))),
                PerWorker(&mut scratch[..nw]),
            );
            run(whole, &cuts, "test.band", |((u, p), mine), j0, j1| {
                assert_eq!((u.rows(), p.rows()), ((j0, j1), (j0, j1)));
                *mine.mine() += 1;
                for j in j0..j1 {
                    for k in 0..3 {
                        u.row_mut(0, 4, j, k).iter_mut().for_each(|v| *v += 1.0);
                    }
                    p.row_mut(-1, 5, j, 0).iter_mut().for_each(|v| *v += 2.0);
                }
            });
        }
        // worker b ran once in every split that had a band b
        assert_eq!(scratch[..5], [4, 3, 2, 1, 0]);
        for j in -1..7 {
            for k in 0..3 {
                assert_eq!(u.row(-1, 5, j, k), [0.0, 4.0, 4.0, 4.0, 4.0, 0.0]);
            }
            assert_eq!(p.row(-1, 5, j), [8.0; 6]);
        }
    }
}
