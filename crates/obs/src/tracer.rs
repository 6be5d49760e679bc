//! The span tracer.
//!
//! A global, process-wide recorder of **spans** (intervals with wall-clock
//! *and* logical timestamps) and **instant samples**.  Rank threads are
//! identified by a per-thread rank id set by the communication runtime
//! ([`set_rank`]); model code stamps the current time step ([`set_step`]).
//!
//! Cost discipline:
//!
//! * tracing **disabled** (the default): every instrumentation site is one
//!   relaxed atomic load and a branch — no clock read, no allocation, no
//!   lock,
//! * tracing **enabled**: each span costs two monotonic clock reads and a
//!   push into one of [`SHARDS`] sharded buffers (a short uncontended lock
//!   — ranks hash to different shards); the benchmark ledger's
//!   `obs.overhead_frac` row measures the sum over a step (noise on the
//!   mid and paper meshes, +17 % on `small_alg1_y2_uds`),
//! * feature `trace` **off**: everything here compiles to nothing.
//!
//! Buffers grow until [`drain`]; runs that trace should drain per run.

use crate::phase::Phase;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// What a trace event describes (the exporter's `cat` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One whole time step of an integrator.
    Step,
    /// One nonlinear iteration inside a step.
    Iter,
    /// One operator application (`A`, `C`, `F`, `L`, `S1`, `S2`).
    Op,
    /// Posting the sends of a halo exchange.
    ExchangePost,
    /// Waiting for + unpacking the receives of a halo exchange.  One such
    /// span per completed exchange — the static-schedule cross-check
    /// counts these.
    ExchangeWait,
    /// Computation deliberately placed between post and wait (§4.3.1);
    /// the overlap-efficiency profile sums these against the wait spans.
    OverlapCompute,
    /// A collective operation (allreduce, allgather, …).
    Collective,
    /// An instant gauge sample (`value` holds the sample).
    Gauge,
    /// Fault recovery: a rollback + degraded re-run window.
    Recovery,
    /// One intra-rank worker executing a `(j, k)` band of a kernel sweep
    /// (the `AGCM_THREADS` pool).  Never counted by the schedule
    /// cross-check — worker fan-out is an implementation detail below the
    /// operator level.
    Worker,
    /// Transport-layer activity below the exchange level: the socket
    /// handshake (listen / dial / hello), and per-connection reader-thread
    /// frame receipt.  Like [`SpanKind::Worker`], never counted by the
    /// schedule cross-check.
    Transport,
}

impl SpanKind {
    /// Stable label for exporters.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Step => "step",
            SpanKind::Iter => "iter",
            SpanKind::Op => "op",
            SpanKind::ExchangePost => "exchange_post",
            SpanKind::ExchangeWait => "exchange_wait",
            SpanKind::OverlapCompute => "overlap_compute",
            SpanKind::Collective => "collective",
            SpanKind::Gauge => "gauge",
            SpanKind::Recovery => "recovery",
            SpanKind::Worker => "worker",
            SpanKind::Transport => "transport",
        }
    }
}

/// One recorded event.  For spans `t1_ns >= t0_ns`; for instants they are
/// equal and `value` carries the sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Rank of the recording thread ([`set_rank`]; 0 when never set).
    pub rank: usize,
    /// Time step active when the event was recorded ([`set_step`]).
    pub step: u64,
    /// Event kind.
    pub kind: SpanKind,
    /// Operator phase the event belongs to.
    pub phase: Phase,
    /// Site name (static, e.g. `"apply_c"`, `"halo.wait"`).
    pub name: &'static str,
    /// Wall-clock start, nanoseconds since the process trace epoch.
    pub t0_ns: u64,
    /// Wall-clock end.
    pub t1_ns: u64,
    /// Logical timestamp: globally ordered event sequence number,
    /// allocated at span *end* (record time).
    pub seq: u64,
    /// Payload bytes moved (exchanges, collectives), else 0.
    pub bytes: u64,
    /// Gauge sample value (0.0 for spans).
    pub value: f64,
}

impl Event {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Number of event-buffer shards (threads hash across them, so rank
/// threads rarely contend on the same lock).
pub const SHARDS: usize = 16;

fn shards() -> &'static [Mutex<Vec<Event>>; SHARDS] {
    static BUFS: OnceLock<[Mutex<Vec<Event>>; SHARDS]> = OnceLock::new();
    BUFS.get_or_init(|| std::array::from_fn(|_| Mutex::new(Vec::new())))
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first use).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static RANK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static STEP: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Whether tracing is currently recording.  The single relaxed load every
/// instrumentation site pays when tracing is disabled.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        ENABLED.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Start recording trace events.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
    let _ = epoch(); // pin the epoch before the first span
}

/// Stop recording (buffers keep their events until [`drain`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Tag this thread as `rank` for all subsequent events.  Called by the
/// communication runtime when it spawns rank threads; harness threads
/// default to rank 0.
#[inline]
pub fn set_rank(rank: usize) {
    #[cfg(feature = "trace")]
    RANK.with(|c| c.set(rank));
    #[cfg(not(feature = "trace"))]
    let _ = rank;
}

/// Stamp the time step subsequent events on this thread belong to.
#[inline]
pub fn set_step(step: u64) {
    #[cfg(feature = "trace")]
    STEP.with(|c| c.set(step));
    #[cfg(not(feature = "trace"))]
    let _ = step;
}

#[cfg(feature = "trace")]
fn my_shard() -> usize {
    SHARD.with(|c| {
        let s = c.get();
        if s != usize::MAX {
            return s;
        }
        // cheap per-thread hash: address of a thread-local
        let addr = c as *const _ as usize;
        let s = (addr >> 6) % SHARDS;
        c.set(s);
        s
    })
}

#[cfg(feature = "trace")]
fn push(ev: Event) {
    let shard = &shards()[my_shard()];
    shard.lock().unwrap_or_else(|p| p.into_inner()).push(ev);
}

/// Record a fully-formed span (used by [`Span`]'s drop; also available to
/// code that measured an interval itself).
#[inline]
pub fn record_span(kind: SpanKind, phase: Phase, name: &'static str, t0_ns: u64, bytes: u64) {
    #[cfg(feature = "trace")]
    {
        if !enabled() {
            return;
        }
        let t1 = now_ns();
        let ev = Event {
            rank: RANK.with(|c| c.get()),
            step: STEP.with(|c| c.get()),
            kind,
            phase,
            name,
            t0_ns,
            t1_ns: t1,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            bytes,
            value: 0.0,
        };
        push(ev);
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (kind, phase, name, t0_ns, bytes);
    }
}

/// Record an instant gauge sample (`value` at now).
#[inline]
pub fn record_value(name: &'static str, value: f64) {
    #[cfg(feature = "trace")]
    {
        if !enabled() {
            return;
        }
        let t = now_ns();
        push(Event {
            rank: RANK.with(|c| c.get()),
            step: STEP.with(|c| c.get()),
            kind: SpanKind::Gauge,
            phase: crate::phase::current_phase(),
            name,
            t0_ns: t,
            t1_ns: t,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            bytes: 0,
            value,
        });
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (name, value);
    }
}

/// An in-flight span; records itself on drop.  Construct with [`span`] or
/// [`span_phase`].
#[must_use = "a span records its interval when dropped"]
pub struct Span {
    #[cfg(feature = "trace")]
    state: Option<SpanState>,
}

#[cfg(feature = "trace")]
struct SpanState {
    kind: SpanKind,
    phase: Phase,
    name: &'static str,
    t0_ns: u64,
    bytes: u64,
    restore_phase: Option<Phase>,
}

impl Span {
    /// Attribute moved payload bytes to this span (no-op when disabled).
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        #[cfg(feature = "trace")]
        if let Some(s) = self.state.as_mut() {
            s.bytes += n;
        }
        #[cfg(not(feature = "trace"))]
        let _ = n;
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "trace")]
        if let Some(s) = self.state.take() {
            if let Some(prev) = s.restore_phase {
                crate::phase::swap_phase(prev);
            }
            record_span(s.kind, s.phase, s.name, s.t0_ns, s.bytes);
        }
    }
}

/// Open a span tagged with the thread's *current* phase.  One relaxed
/// atomic load when tracing is disabled.
#[inline]
pub fn span(kind: SpanKind, name: &'static str) -> Span {
    #[cfg(feature = "trace")]
    {
        if !enabled() {
            return Span { state: None };
        }
        Span {
            state: Some(SpanState {
                kind,
                phase: crate::phase::current_phase(),
                name,
                t0_ns: now_ns(),
                bytes: 0,
                restore_phase: None,
            }),
        }
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (kind, name);
        Span {}
    }
}

/// Open a span for operator `phase` and make it the thread's current phase
/// for the span's lifetime, so nested communication events inherit the tag.
///
/// The phase is switched even when tracing is disabled (a thread-local
/// `Cell` store, ~1 ns) so that [`crate::current_phase`]-based tagging —
/// e.g. `agcm-comm`'s collective-event log — works without the tracer.
#[inline]
pub fn span_phase(kind: SpanKind, phase: Phase, name: &'static str) -> Span {
    #[cfg(feature = "trace")]
    {
        let prev = crate::phase::swap_phase(phase);
        if !enabled() {
            // keep the phase switched; drop restores it
            return Span {
                state: Some(SpanState {
                    kind,
                    phase,
                    name,
                    t0_ns: 0,
                    bytes: 0,
                    restore_phase: Some(prev),
                }),
            };
        }
        Span {
            state: Some(SpanState {
                kind,
                phase,
                name,
                t0_ns: now_ns(),
                bytes: 0,
                restore_phase: Some(prev),
            }),
        }
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (kind, phase, name);
        Span {}
    }
}

/// Remove and return every event recorded so far, ordered by wall-clock
/// start time (ties by logical sequence number).
pub fn drain() -> Vec<Event> {
    let mut out = Vec::new();
    for shard in shards() {
        let mut buf = shard.lock().unwrap_or_else(|p| p.into_inner());
        out.append(&mut buf);
    }
    out.sort_by_key(|e| (e.t0_ns, e.seq));
    out
}

/// How many events are buffered right now, without draining them — a
/// cheap progress figure for live telemetry snapshots.
pub fn pending_events() -> usize {
    shards()
        .iter()
        .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
        .sum()
}

/// Drop all buffered events and reset the logical clock (the wall-clock
/// epoch is process-wide and never resets).
pub fn reset() {
    for shard in shards() {
        shard.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
    SEQ.store(0, Ordering::Relaxed);
}

/// Serialize access to the global tracer for tests: the tracer is
/// process-wide, so concurrent tests inside one test binary must hold this
/// lock around enable/run/drain sequences.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

// The behavioral tests exercise recording, which requires the compiled-in
// tracer; without the feature every call is a no-op by design.
#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _g = exclusive();
        disable();
        reset();
        {
            let mut s = span(SpanKind::Op, "noop");
            s.add_bytes(10);
        }
        record_value("g", 1.0);
        assert!(drain().is_empty());
    }

    #[test]
    fn span_records_interval_and_bytes() {
        let _g = exclusive();
        reset();
        enable();
        set_rank(3);
        set_step(7);
        {
            let mut s = span_phase(SpanKind::Op, Phase::C, "apply_c");
            s.add_bytes(64);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        disable();
        let evs = drain();
        assert_eq!(evs.len(), 1);
        let e = &evs[0];
        assert_eq!(e.rank, 3);
        assert_eq!(e.step, 7);
        assert_eq!(e.phase, Phase::C);
        assert_eq!(e.name, "apply_c");
        assert_eq!(e.bytes, 64);
        assert!(e.dur_ns() >= 1_000_000, "dur {}", e.dur_ns());
        set_rank(0);
        set_step(0);
    }

    #[test]
    fn phase_nests_and_restores() {
        let _g = exclusive();
        reset();
        enable();
        assert_eq!(crate::phase::current_phase(), Phase::Other);
        {
            let _a = span_phase(SpanKind::Op, Phase::A, "adapt");
            assert_eq!(crate::phase::current_phase(), Phase::A);
            {
                let _c = span_phase(SpanKind::Op, Phase::C, "apply_c");
                assert_eq!(crate::phase::current_phase(), Phase::C);
            }
            assert_eq!(crate::phase::current_phase(), Phase::A);
            // plain spans inherit the current phase
            let _s = span(SpanKind::Collective, "allgather");
        }
        assert_eq!(crate::phase::current_phase(), Phase::Other);
        disable();
        let evs = drain();
        assert_eq!(evs.len(), 3);
        let coll = evs.iter().find(|e| e.kind == SpanKind::Collective).unwrap();
        assert_eq!(coll.phase, Phase::A);
    }

    #[test]
    fn phase_switch_works_while_disabled() {
        let _g = exclusive();
        disable();
        reset();
        {
            let _a = span_phase(SpanKind::Op, Phase::S1, "former");
            assert_eq!(crate::phase::current_phase(), Phase::S1);
        }
        assert_eq!(crate::phase::current_phase(), Phase::Other);
        assert!(drain().is_empty());
    }

    #[test]
    fn events_from_threads_merge_ordered() {
        let _g = exclusive();
        reset();
        enable();
        std::thread::scope(|s| {
            for r in 0..4 {
                s.spawn(move || {
                    set_rank(r);
                    for _ in 0..10 {
                        let _sp = span(SpanKind::Iter, "work");
                    }
                });
            }
        });
        disable();
        let evs = drain();
        assert_eq!(evs.len(), 40);
        assert!(evs.windows(2).all(|w| w[0].t0_ns <= w[1].t0_ns));
        for r in 0..4 {
            assert_eq!(evs.iter().filter(|e| e.rank == r).count(), 10);
        }
    }
}
