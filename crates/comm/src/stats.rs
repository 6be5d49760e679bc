//! Per-rank communication statistics.
//!
//! The paper's evaluation separates *collective* communication (Figure 6)
//! from *stencil* (point-to-point) communication (Figure 7).  The runtime
//! counts every message and collective it executes; the dynamical core takes
//! [`StatsSnapshot`]s around each phase and reports deltas, which is how the
//! per-figure numbers are produced without the runtime knowing anything
//! about atmospheric physics.
//!
//! Counters are atomics shared (via `Arc`) between a communicator and all
//! sub-communicators split from it, so traffic on an axis communicator (the
//! z-direction `allreduce` of the summation operator `C`, say) still lands
//! in the owning rank's totals.

use agcm_obs::Phase;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Which collective operation an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// All-reduce (ring or recursive doubling).
    Allreduce,
    /// Reduce to a root.
    Reduce,
    /// Broadcast from a root.
    Bcast,
    /// All-gather.
    Allgather,
    /// Personalized all-to-all (used by the distributed FFT transpose).
    Alltoall,
    /// Barrier.
    Barrier,
    /// Gather to a root.
    Gather,
}

/// One collective executed by this rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveEvent {
    /// Operation type.
    pub kind: CollectiveKind,
    /// Size of the communicator it ran on.
    pub comm_size: usize,
    /// Payload `f64` element count (per-rank contribution).
    pub elems: usize,
    /// Operator phase (`A`/`C`/`F`/`L`/`S1`/`S2`) active on the calling
    /// thread when the collective ran; [`Phase::Other`] outside any
    /// operator span.
    pub phase: Phase,
}

#[derive(Debug, Default)]
struct Inner {
    p2p_sends: AtomicU64,
    p2p_send_elems: AtomicU64,
    p2p_recvs: AtomicU64,
    p2p_recv_elems: AtomicU64,
    collective_calls: AtomicU64,
    collective_elems: AtomicU64,
    // Injected-fault counters (see crate::fault).  Kept out of
    // StatsSnapshot: that struct is the certified-traffic contract the
    // verifier constructs literally; faults get their own snapshot type.
    faults_dropped: AtomicU64,
    faults_corrupted: AtomicU64,
    faults_duplicated: AtomicU64,
    faults_delayed: AtomicU64,
    faults_stalled: AtomicU64,
    faults_crashed: AtomicU64,
    retries: AtomicU64,
    // The per-event log is opt-in: the unconditional push-under-mutex it
    // used to do both grew without bound in long runs and serialized every
    // rank's collectives on one lock.  Counters above stay always-on.
    event_log: AtomicBool,
    events: Mutex<Vec<CollectiveEvent>>,
}

/// Shared, thread-safe communication counters for one rank.
#[derive(Debug, Clone, Default)]
pub struct CommStats {
    inner: Arc<Inner>,
}

impl CommStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        CommStats::default()
    }

    /// Lock the event log, recovering from poisoning (a panicking rank must
    /// not wedge the survivors' bookkeeping).
    fn events(&self) -> MutexGuard<'_, Vec<CollectiveEvent>> {
        self.inner
            .events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Record a point-to-point send of `elems` `f64` values.
    pub fn record_send(&self, elems: usize) {
        self.inner.p2p_sends.fetch_add(1, Ordering::Relaxed);
        self.inner
            .p2p_send_elems
            .fetch_add(elems as u64, Ordering::Relaxed);
    }

    /// Record a point-to-point receive of `elems` `f64` values.
    pub fn record_recv(&self, elems: usize) {
        self.inner.p2p_recvs.fetch_add(1, Ordering::Relaxed);
        self.inner
            .p2p_recv_elems
            .fetch_add(elems as u64, Ordering::Relaxed);
    }

    /// Turn the per-event collective log on or off (off by default; the
    /// scalar counters are unaffected).  Shared by all clones / split
    /// communicators of this rank.
    pub fn set_event_logging(&self, on: bool) {
        self.inner.event_log.store(on, Ordering::Relaxed);
    }

    /// Whether the per-event collective log is recording.
    pub fn event_logging(&self) -> bool {
        self.inner.event_log.load(Ordering::Relaxed)
    }

    /// Record a collective call.  Counters always update; the per-event
    /// log only when [`Self::set_event_logging`] enabled it (one relaxed
    /// atomic check on the hot path otherwise).
    pub fn record_collective(&self, kind: CollectiveKind, comm_size: usize, elems: usize) {
        self.inner.collective_calls.fetch_add(1, Ordering::Relaxed);
        self.inner
            .collective_elems
            .fetch_add(elems as u64, Ordering::Relaxed);
        if self.inner.event_log.load(Ordering::Relaxed) {
            self.events().push(CollectiveEvent {
                kind,
                comm_size,
                elems,
                phase: agcm_obs::current_phase(),
            });
        }
    }

    /// Record an injected fault of `kind` (bumps the matching counter and
    /// the process-wide `comm.fault.<kind>` obs counter).
    pub fn record_fault(&self, kind: crate::fault::FaultKind) {
        use crate::fault::FaultKind::*;
        let ctr = match kind {
            Drop => &self.inner.faults_dropped,
            Corrupt => &self.inner.faults_corrupted,
            Dup => &self.inner.faults_duplicated,
            Delay => &self.inner.faults_delayed,
            Stall => &self.inner.faults_stalled,
            Crash => &self.inner.faults_crashed,
            Lat => return, // a dial, not a fault: never fires as one
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one receive retry attempt (resilience layer bookkeeping).
    pub fn record_retry(&self) {
        self.inner.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Current injected-fault totals.
    pub fn fault_snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            dropped: self.inner.faults_dropped.load(Ordering::Relaxed),
            corrupted: self.inner.faults_corrupted.load(Ordering::Relaxed),
            duplicated: self.inner.faults_duplicated.load(Ordering::Relaxed),
            delayed: self.inner.faults_delayed.load(Ordering::Relaxed),
            stalled: self.inner.faults_stalled.load(Ordering::Relaxed),
            crashed: self.inner.faults_crashed.load(Ordering::Relaxed),
            retries: self.inner.retries.load(Ordering::Relaxed),
        }
    }

    /// Current totals.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            p2p_sends: self.inner.p2p_sends.load(Ordering::Relaxed),
            p2p_send_elems: self.inner.p2p_send_elems.load(Ordering::Relaxed),
            p2p_recvs: self.inner.p2p_recvs.load(Ordering::Relaxed),
            p2p_recv_elems: self.inner.p2p_recv_elems.load(Ordering::Relaxed),
            collective_calls: self.inner.collective_calls.load(Ordering::Relaxed),
            collective_elems: self.inner.collective_elems.load(Ordering::Relaxed),
        }
    }

    /// All collective events recorded so far (clone).
    pub fn collective_events(&self) -> Vec<CollectiveEvent> {
        self.events().clone()
    }

    /// Number of collective events of a given kind.
    pub fn count_collectives(&self, kind: CollectiveKind) -> usize {
        self.events().iter().filter(|e| e.kind == kind).count()
    }
}

/// A point-in-time copy of the injected-fault counters (separate from
/// [`StatsSnapshot`], which only carries certified traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Messages whose first delivery was dropped.
    pub dropped: u64,
    /// Messages whose first delivery was bit-corrupted.
    pub corrupted: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back for reordering.
    pub delayed: u64,
    /// Rank stalls injected.
    pub stalled: u64,
    /// Rank crashes injected.
    pub crashed: u64,
    /// Receive retry attempts performed by the resilience layer.
    pub retries: u64,
}

impl FaultSnapshot {
    /// Total injected message/process faults (retries are reactions, not
    /// faults, and are excluded).
    pub fn total(&self) -> u64 {
        self.dropped + self.corrupted + self.duplicated + self.delayed + self.stalled + self.crashed
    }
}

/// A point-in-time copy of the counters; subtract two to get per-phase
/// traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Point-to-point messages sent.
    pub p2p_sends: u64,
    /// `f64` values sent point-to-point.
    pub p2p_send_elems: u64,
    /// Point-to-point messages received.
    pub p2p_recvs: u64,
    /// `f64` values received point-to-point.
    pub p2p_recv_elems: u64,
    /// Collective operations executed.
    pub collective_calls: u64,
    /// `f64` values contributed to collectives.
    pub collective_elems: u64,
}

impl StatsSnapshot {
    /// `self - earlier`, component-wise (saturating).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            p2p_sends: self.p2p_sends.saturating_sub(earlier.p2p_sends),
            p2p_send_elems: self.p2p_send_elems.saturating_sub(earlier.p2p_send_elems),
            p2p_recvs: self.p2p_recvs.saturating_sub(earlier.p2p_recvs),
            p2p_recv_elems: self.p2p_recv_elems.saturating_sub(earlier.p2p_recv_elems),
            collective_calls: self
                .collective_calls
                .saturating_sub(earlier.collective_calls),
            collective_elems: self
                .collective_elems
                .saturating_sub(earlier.collective_elems),
        }
    }

    /// Bytes sent point-to-point (8 bytes per `f64`).
    pub fn p2p_send_bytes(&self) -> u64 {
        self.p2p_send_elems * 8
    }

    /// Bytes received point-to-point (8 bytes per `f64`).
    pub fn p2p_recv_bytes(&self) -> u64 {
        self.p2p_recv_elems * 8
    }

    /// Bytes contributed to collectives (8 bytes per `f64`).
    pub fn collective_bytes(&self) -> u64 {
        self.collective_elems * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = CommStats::new();
        s.record_send(100);
        s.record_send(50);
        s.record_recv(100);
        s.record_collective(CollectiveKind::Allreduce, 4, 32);
        let snap = s.snapshot();
        assert_eq!(snap.p2p_sends, 2);
        assert_eq!(snap.p2p_send_elems, 150);
        assert_eq!(snap.p2p_recvs, 1);
        assert_eq!(snap.collective_calls, 1);
        assert_eq!(snap.collective_elems, 32);
        assert_eq!(snap.p2p_send_bytes(), 1200);
        assert_eq!(snap.p2p_recv_bytes(), 800);
        assert_eq!(snap.collective_bytes(), 256);
    }

    #[test]
    fn snapshot_delta() {
        let s = CommStats::new();
        s.record_send(10);
        let a = s.snapshot();
        s.record_send(5);
        s.record_collective(CollectiveKind::Bcast, 8, 1);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.p2p_sends, 1);
        assert_eq!(d.p2p_send_elems, 5);
        assert_eq!(d.collective_calls, 1);
    }

    #[test]
    fn clones_share_counters() {
        let s = CommStats::new();
        let t = s.clone();
        t.record_send(7);
        assert_eq!(s.snapshot().p2p_send_elems, 7);
    }

    #[test]
    fn events_recorded_per_kind() {
        let s = CommStats::new();
        s.set_event_logging(true);
        s.record_collective(CollectiveKind::Allreduce, 4, 8);
        s.record_collective(CollectiveKind::Allreduce, 4, 8);
        s.record_collective(CollectiveKind::Barrier, 4, 0);
        assert_eq!(s.count_collectives(CollectiveKind::Allreduce), 2);
        assert_eq!(s.count_collectives(CollectiveKind::Barrier), 1);
        assert_eq!(s.collective_events().len(), 3);
        assert!(s
            .collective_events()
            .iter()
            .all(|e| e.phase == Phase::Other));
    }

    #[test]
    fn event_log_off_by_default_counters_still_on() {
        let s = CommStats::new();
        assert!(!s.event_logging());
        s.record_collective(CollectiveKind::Allreduce, 4, 8);
        assert_eq!(s.snapshot().collective_calls, 1);
        assert!(s.collective_events().is_empty());
        // clones share the flag, like the counters
        let t = s.clone();
        t.set_event_logging(true);
        assert!(s.event_logging());
        s.record_collective(CollectiveKind::Bcast, 4, 1);
        assert_eq!(t.collective_events().len(), 1);
    }

    #[test]
    fn fault_counters_accumulate() {
        use crate::fault::FaultKind;
        let s = CommStats::new();
        s.record_fault(FaultKind::Drop);
        s.record_fault(FaultKind::Drop);
        s.record_fault(FaultKind::Corrupt);
        s.record_fault(FaultKind::Stall);
        s.record_retry();
        let f = s.fault_snapshot();
        assert_eq!(f.dropped, 2);
        assert_eq!(f.corrupted, 1);
        assert_eq!(f.stalled, 1);
        assert_eq!(f.retries, 1);
        assert_eq!(f.total(), 4);
        // fault counters are shared across clones like the traffic ones
        let t = s.clone();
        t.record_fault(FaultKind::Crash);
        assert_eq!(s.fault_snapshot().crashed, 1);
    }

    #[test]
    fn concurrent_updates() {
        let s = CommStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_send(1);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().p2p_sends, 8000);
    }
}
