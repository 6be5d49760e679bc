//! The metrics registry: counters and log-linear histograms.
//!
//! Unlike the tracer (which records a timeline and is drained per run),
//! metrics are cheap cumulative aggregates: every instrument is a handful
//! of atomics, safe to bump from any rank thread without locking.  The
//! registry is name-keyed and get-or-create — instrumentation sites hold
//! an `Arc` to their instrument and never touch the registry lock on the
//! hot path.
//!
//! Histograms are **log-linear**: buckets are grouped in power-of-two
//! octaves, each octave split into [`Histogram::SUB`] linear sub-buckets.
//! Reported quantiles interpolate linearly *within* the target bucket
//! (upper bound clamped to the exact recorded maximum), so on smooth
//! distributions the error is far below the `1/SUB` (25%) bucketing bound
//! a floor-only readout would pay — plenty for latency distributions
//! spanning ns..s.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    n: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.n.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }
}

/// Lock-free log-linear histogram of `u64` samples (e.g. nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Linear sub-buckets per power-of-two octave.
    const SUB: usize = 4;
    /// Number of octaves covered (values ≥ 2^63 clamp into the last).
    const OCTAVES: usize = 64;

    fn new() -> Self {
        let n = Self::SUB * Self::OCTAVES;
        Histogram {
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a sample.
    #[inline]
    fn index(v: u64) -> usize {
        if v < Self::SUB as u64 {
            return v as usize; // exact buckets for tiny values
        }
        let octave = 63 - v.leading_zeros() as usize;
        // position of the SUB linear sub-buckets within the octave
        let sub = ((v >> (octave.saturating_sub(2))) & (Self::SUB as u64 - 1)) as usize;
        let idx = octave * Self::SUB + sub;
        idx.min(Self::SUB * Self::OCTAVES - 1)
    }

    /// Lower bound of bucket `idx` (inverse of [`Self::index`]).
    fn bucket_floor(idx: usize) -> u64 {
        if idx < Self::SUB {
            return idx as u64;
        }
        let octave = idx / Self::SUB;
        let sub = (idx % Self::SUB) as u64;
        let base = 1u64 << octave;
        base + (sub << octave.saturating_sub(2))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`, linearly interpolated within
    /// the bucket containing the q-th sample; 0 when empty.
    ///
    /// A floor-only readout biases every quantile low by up to a full
    /// sub-bucket (25% relative): interpolation places the q-th sample
    /// fractionally between the bucket bounds instead, with the upper
    /// bound clamped to the exact recorded maximum so the tail quantiles
    /// of a distribution ending mid-bucket stay honest.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lo = Self::bucket_floor(i);
                let hi = Self::bucket_ceiling(i).min(self.max()).max(lo);
                let frac = (target - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            seen += c;
        }
        self.max()
    }

    /// Exclusive upper bound of bucket `idx` (the next *reachable*
    /// bucket's floor; the small-value seam where exact buckets meet the
    /// first octave is smoothed by the floor+1 lower bound).
    fn bucket_ceiling(idx: usize) -> u64 {
        if idx + 1 >= Self::SUB * Self::OCTAVES {
            return u64::MAX;
        }
        Self::bucket_floor(idx + 1).max(Self::bucket_floor(idx) + 1)
    }
}

/// The global, name-keyed instrument registry.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static REG: OnceLock<Registry> = OnceLock::new();
        REG.get_or_init(Registry::default)
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        m.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.histograms.lock().unwrap_or_else(|p| p.into_inner());
        m.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Snapshot every instrument's current value, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSummary {
                        count: v.count(),
                        sum: v.sum(),
                        mean: v.mean(),
                        p50: v.quantile(0.50),
                        p95: v.quantile(0.95),
                        p99: v.quantile(0.99),
                        max: v.max(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Remove every instrument (tests; sites holding `Arc`s keep theirs,
    /// detached from future snapshots).
    pub fn clear(&self) {
        self.counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
        self.histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }
}

/// Point-in-time summary of a histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Mean sample.
    pub mean: f64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Point-in-time values of every registered instrument.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let reg = Registry::default();
        let c = reg.counter("steps");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("steps").get(), 5);
    }

    #[test]
    fn histogram_buckets_monotone() {
        // index must be monotone non-decreasing in the sample value
        let mut prev = 0;
        for v in (0..2000u64).chain([1 << 20, (1 << 20) + 1, u64::MAX]) {
            let i = Histogram::index(v);
            assert!(i >= prev, "index not monotone at {v}: {i} < {prev}");
            prev = i;
            // floor of the bucket must not exceed the value
            assert!(
                Histogram::bucket_floor(i) <= v.max(1),
                "floor > value at {v}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_bracket() {
        let reg = Registry::default();
        let h = reg.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        // within-bucket interpolation: far tighter than the 1/SUB
        // bucketing bound (exact p50 of 1..=1000 is 500)
        assert!((480..=520).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((970..=1000).contains(&p99), "p99 {p99}");
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn histogram_quantile_interpolates_within_bucket() {
        let reg = Registry::default();
        let h = reg.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        // vs exact quantiles of 1..=1000 (the q-th sample is ceil(q·1000)):
        // interpolation must land within ~2% where a bucket floor would be
        // off by up to a full sub-bucket (25%)
        for q in [0.10f64, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0] {
            let exact = (q * 1000.0).ceil().max(1.0);
            let got = h.quantile(q) as f64;
            assert!(
                (got - exact).abs() <= 21.0,
                "q={q}: interpolated {got} vs exact {exact}"
            );
        }
        // monotone in q, never past the exact max
        let mut prev = 0;
        for i in 0..=20 {
            let v = h.quantile(i as f64 / 20.0);
            assert!(v >= prev, "quantile not monotone at {i}/20: {v} < {prev}");
            prev = v;
        }
        assert!(h.quantile(1.0) <= h.max());
        // a distribution ending mid-bucket clamps to its exact max: the
        // top quantile reports the recorded maximum, not the bucket bound
        let c = reg.histogram("const");
        for _ in 0..100 {
            c.record(777);
        }
        assert_eq!(c.quantile(1.0), 777);
        let p50 = c.quantile(0.5);
        assert!((768..=777).contains(&p50), "constant p50 {p50}");
    }

    #[test]
    fn snapshot_collects_everything() {
        let reg = Registry::default();
        reg.counter("a").add(2);
        reg.histogram("c").record(10);
        let s = reg.snapshot();
        assert_eq!(s.counters["a"], 2);
        assert_eq!(s.histograms["c"].count, 1);
        reg.clear();
        assert!(reg.snapshot().counters.is_empty());
    }

    #[test]
    fn histogram_concurrent_records() {
        let reg = Registry::default();
        let h = reg.histogram("par");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for v in 0..1000 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }
}
