//! Minimal wall-clock benchmark loop used by the `benches/` harnesses.
//!
//! The workspace builds fully offline, so the benches are plain
//! `harness = false` binaries over this loop instead of a framework: each
//! case is warmed up, timed `iters` times, and reported as
//! min / median / max.  Run with `cargo bench` as usual.

use std::time::{Duration, Instant};

/// Summary of one benchmark case: `iters` timed runs after `warmup`
/// untimed ones, order statistics over the sorted samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Fastest observed iteration.
    pub min: Duration,
    /// Median iteration (the headline number — robust to one-off stalls).
    pub median: Duration,
    /// Slowest observed iteration.
    pub max: Duration,
    /// Timed iterations the statistics summarize.
    pub iters: usize,
}

/// Time `f`: `warmup` untimed calls (cache/allocator warm-up), then `iters`
/// timed calls; returns min/median/max order statistics.  No printing — the
/// caller owns presentation (and JSON emission).
pub fn bench_stats<T>(warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> Stats {
    assert!(iters > 0, "need at least one timed iteration");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut times: Vec<Duration> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed());
    }
    times.sort();
    Stats {
        min: times[0],
        median: times[times.len() / 2],
        max: times[times.len() - 1],
        iters,
    }
}

/// Time `f(0)` and `f(1)` in alternation — side 0, side 1, side 0, … — so a
/// host whose speed drifts during the measurement (a shared runner, a noisy
/// VM) slows both sides alike and their *ratio* survives.
pub fn bench_stats_alternating(
    warmup: usize,
    iters: usize,
    mut f: impl FnMut(usize),
) -> [Stats; 2] {
    assert!(iters > 0, "need at least one timed iteration");
    let mut times: [Vec<Duration>; 2] = [Vec::new(), Vec::new()];
    for i in 0..warmup + iters {
        for (side, times) in times.iter_mut().enumerate() {
            let t0 = Instant::now();
            f(side);
            if i >= warmup {
                times.push(t0.elapsed());
            }
        }
    }
    times.map(|mut t| {
        t.sort();
        Stats {
            min: t[0],
            median: t[t.len() / 2],
            max: t[t.len() - 1],
            iters,
        }
    })
}

/// Time `f` `iters` times (after one warm-up call) and print a one-line
/// summary.  Returns the median iteration time.
pub fn bench<T>(name: &str, iters: usize, f: impl FnMut() -> T) -> Duration {
    let s = bench_stats(1, iters, f);
    println!(
        "{name:<44} min {:>12?}  median {:>12?}  max {:>12?}  ({iters} iters)",
        s.min, s.median, s.max,
    );
    s.median
}

/// Print a benchmark-group header.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}
