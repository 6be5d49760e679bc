//! The message-passing runtime: a simulated MPI.
//!
//! A [`Universe`] runs `p` ranks as OS threads.  Each rank gets a
//! [`Communicator`] with MPI-like semantics:
//!
//! * **buffered, non-blocking sends** ([`Communicator::send`]) — the payload
//!   is copied into the destination's mailbox immediately, like `MPI_Isend`
//!   with an eager protocol; computation can proceed while messages are in
//!   flight, which is what the paper's overlap scheme (§4.3.1) relies on,
//! * **tag- and source-matched receives** ([`Communicator::recv`]) with an
//!   unexpected-message queue, so out-of-order arrival is handled exactly as
//!   MPI does,
//! * **deadlock detection**: a receive that cannot be matched within the
//!   configurable timeout returns [`CommError::DeadlockTimeout`] instead of
//!   hanging the test suite,
//! * communicator **contexts**: messages from a split sub-communicator can
//!   never be matched by receives on the parent, mirroring MPI context ids.
//!
//! All of those semantics — plus [`crate::CommStats`] accounting, fault
//! injection and tracing — live *above* the pluggable
//! [`crate::transport::Transport`] trait, so they are identical
//! over thread-backed channels ([`crate::transport::MpscTransport`], the
//! default) and over real OS byte streams
//! ([`crate::transport::SocketTransport`], one process per rank via the
//! `agcm-run` launcher).
//!
//! The runtime transfers real data (the dynamical core built on it is
//! checked bit-for-bit against a serial reference); the wall-clock cost of
//! running at `p = 1024` is instead *modelled* (see [`crate::model`]) from
//! the traffic this runtime counts, as explained in `DESIGN.md`.

use crate::error::{CommError, CommResult};
use crate::fault::{self, FaultAction, FaultEvent, FaultKind, FaultPlan, FaultSite};
use crate::stats::CommStats;
use crate::transport::{
    Endpoint, Envelope, MpscTransport, SocketTransport, Transport, WireStats, POISON_CTX,
};
use agcm_obs as obs;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default deadlock-detection timeout: `AGCM_COMM_TIMEOUT_MS` (milliseconds)
/// if set in the environment, otherwise 30 s.  A malformed value panics (see
/// [`crate::env`]).  Tests that exercise failure paths should either set the
/// env var for the whole run or call [`Communicator::set_timeout`] /
/// [`Universe::run_with_timeout`] so expected deadlocks fail in
/// milliseconds.
pub fn default_timeout() -> Duration {
    static MS: OnceLock<u64> = OnceLock::new();
    let ms = *MS.get_or_init(|| crate::env::parse_env_or("AGCM_COMM_TIMEOUT_MS", 30_000));
    Duration::from_millis(ms)
}

/// Tags with this bit set are reserved for collectives.
pub(crate) const COLLECTIVE_TAG_BIT: u32 = 0x8000_0000;

/// Trailer words appended by [`Communicator::send_framed`]:
/// `[payload_len, checksum_lo32, checksum_hi32]`, each stored as an
/// exactly-representable small `f64`.
pub const FRAME_WORDS: usize = 3;

/// Message-latency histogram: time a rank spends blocked in `recv` waiting
/// for the matching message (only sampled while tracing is enabled, so the
/// hot path pays one relaxed load).
fn recv_wait_hist() -> &'static Arc<obs::Histogram> {
    static H: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| obs::Registry::global().histogram("comm.recv_wait_ns"))
}

/// Per-rank fault-injection state, shared (via `Rc`) by every communicator
/// split from the one the plan was installed on, so the per-rank event
/// counter — the deterministic clock fault specs pin to — is global to the
/// rank, not per-communicator.
pub(crate) struct FaultCtx {
    plan: FaultPlan,
    /// Index of the next send/recv operation on this rank.
    event: Cell<u64>,
    /// Per-rule match counters backing `nth=` selectors.
    nth: RefCell<Vec<u64>>,
    /// Messages held back by `delay` faults: `(release_event, peer, env)`.
    held: RefCell<Vec<(u64, usize, Envelope)>>,
    /// Every fault fired so far, in firing order (the replayable schedule).
    log: RefCell<Vec<FaultEvent>>,
}

impl FaultCtx {
    fn new(plan: FaultPlan) -> Self {
        let n = plan.rules.len();
        FaultCtx {
            plan,
            event: Cell::new(0),
            nth: RefCell::new(vec![0; n]),
            held: RefCell::new(Vec::new()),
            log: RefCell::new(Vec::new()),
        }
    }
}

fn fault_metric_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Drop => "comm.fault.drop",
        FaultKind::Corrupt => "comm.fault.corrupt",
        FaultKind::Dup => "comm.fault.dup",
        FaultKind::Delay => "comm.fault.delay",
        FaultKind::Stall => "comm.fault.stall",
        FaultKind::Crash => "comm.fault.crash",
        FaultKind::Lat => "comm.fault.lat",
    }
}

/// A set of ranks executing one SPMD program.
pub struct Universe {
    size: usize,
}

impl Universe {
    /// Run `f` on `p` ranks (threads) over the in-memory transport.
    /// Returns the per-rank results in rank order.  Panics in any rank are
    /// propagated (the whole run fails).
    pub fn run<T, F>(p: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Communicator) -> T + Sync,
    {
        assert!(p >= 1, "need at least one rank");
        let mesh: Vec<Mutex<Option<MpscTransport>>> = MpscTransport::mesh(p)
            .into_iter()
            .map(|t| Mutex::new(Some(t)))
            .collect();
        run_scoped(
            p,
            |rank| {
                let tr = mesh[rank]
                    .lock()
                    .expect("mesh slot")
                    .take()
                    .expect("one transport per rank");
                Communicator::on_transport(Rc::new(tr))
            },
            f,
        )
    }

    /// Like [`Universe::run`], but every rank talks through its own
    /// [`SocketTransport`] at `endpoint` — real kernel byte streams between
    /// threads of this process.  Used by the cross-transport test suites
    /// and benches; the `agcm-run` launcher runs the same transport with
    /// one OS *process* per rank instead.
    pub fn run_sockets<T, F>(p: usize, endpoint: &Endpoint, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Communicator) -> T + Sync,
    {
        assert!(p >= 1, "need at least one rank");
        run_scoped(
            p,
            |rank| {
                let tr = SocketTransport::connect(rank, p, endpoint)
                    .unwrap_or_else(|e| panic!("rank {rank}: socket transport: {e}"));
                Communicator::on_transport(Rc::new(tr))
            },
            f,
        )
    }

    /// Like [`Universe::run`], but with an explicit deadlock-detection
    /// timeout applied to every rank's world communicator before `f` runs.
    pub fn run_with_timeout<T, F>(p: usize, timeout: Duration, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Communicator) -> T + Sync,
    {
        Self::run(p, move |comm| {
            comm.set_timeout(timeout);
            f(comm)
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// Shared SPMD harness: one scoped thread per rank, a communicator built
/// *on* that thread (communicators are `!Send`), panics caught so peers
/// get poisoned (fail-fast [`CommError::PeerFailed`]) and re-thrown at
/// join.
fn run_scoped<T, F, S>(p: usize, setup: S, f: F) -> Vec<T>
where
    T: Send,
    S: Fn(usize) -> Communicator + Sync,
    F: Fn(&mut Communicator) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for rank in 0..p {
            let f = &f;
            let setup = &setup;
            handles.push(scope.spawn(move || {
                // tag trace events from this thread with its rank
                obs::set_rank(rank);
                let mut comm = setup(rank);
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
                if r.is_err() {
                    comm.poison_peers();
                }
                r
            }));
        }
        let mut first_panic = None;
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(v)) => out[rank] = Some(v),
                Ok(Err(payload)) | Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    out.into_iter().map(|v| v.expect("joined")).collect()
}

/// Per-rank mailbox state above the transport: the unexpected-message
/// queue plus the sticky poison flag.
pub(crate) struct Mailbox {
    pending: RefCell<Vec<Envelope>>,
    /// Set when a poison envelope arrives: the global rank that panicked.
    /// Sticky — every subsequent receive fails fast with `PeerFailed`.
    poisoned: Cell<Option<usize>>,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            pending: RefCell::new(Vec::new()),
            poisoned: Cell::new(None),
        }
    }
}

/// A communication handle for one rank, scoped to a group of ranks and a
/// context (like an `MPI_Comm`).
///
/// Not `Send`: a communicator lives on the thread of its rank, exactly like
/// an MPI rank's communicator handle.
pub struct Communicator {
    transport: Rc<dyn Transport>,
    mailbox: Rc<Mailbox>,
    /// Next free slot in this world rank's private context-id space (shared
    /// by every communicator split from the same world handle).
    ctx_alloc: Rc<Cell<u64>>,
    ctx: u64,
    rank: usize,
    /// local rank -> global rank
    members: Arc<Vec<usize>>,
    timeout: Cell<Duration>,
    /// Collective sequence number (same on every rank of the communicator,
    /// because collectives are called in the same order by all of them).
    pub(crate) coll_seq: Cell<u64>,
    stats: CommStats,
    /// Fault-injection state, shared with every sub-communicator split off
    /// after [`Communicator::install_faults`].
    fault: Option<Rc<FaultCtx>>,
}

impl Communicator {
    /// The world communicator of this rank over an already-connected
    /// transport.  The fault plan (if `AGCM_FAULT_SPEC` is set) and the
    /// default deadlock timeout are read from the environment, exactly as
    /// for thread-backed worlds — chaos replays and timeouts are
    /// transport-independent.
    pub fn on_transport(transport: Rc<dyn Transport>) -> Self {
        let rank = transport.world_rank();
        let size = transport.world_size();
        Communicator {
            transport,
            mailbox: Rc::new(Mailbox::new()),
            ctx_alloc: Rc::new(Cell::new(1)),
            ctx: 0,
            rank,
            members: Arc::new((0..size).collect()),
            timeout: Cell::new(default_timeout()),
            coll_seq: Cell::new(0),
            stats: CommStats::new(),
            fault: FaultPlan::from_env().map(|p| Rc::new(FaultCtx::new(p))),
        }
    }

    /// This rank within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global (world) rank of a local rank.
    pub fn global_rank(&self, local: usize) -> usize {
        self.members[local]
    }

    /// Shared traffic counters of this rank (shared with sub-communicators).
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Wire-level byte/frame counters of the underlying transport (`None`
    /// on in-memory transports).  Unlike [`Communicator::stats`], these
    /// count *everything* that crosses the wire: checksum framing and
    /// redundant duplicate deliveries included.
    pub fn wire_stats(&self) -> Option<WireStats> {
        self.transport.wire_stats()
    }

    /// Short name of the underlying transport (`"mpsc"`, `"uds"`, `"tcp"`).
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// Change the deadlock-detection timeout (default: [`default_timeout`]).
    pub fn set_timeout(&self, t: Duration) {
        self.timeout.set(t);
    }

    /// The currently configured deadlock-detection timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout.get()
    }

    fn check_rank(&self, r: usize) -> CommResult<()> {
        if r >= self.size() {
            Err(CommError::InvalidRank {
                rank: r,
                size: self.size(),
            })
        } else {
            Ok(())
        }
    }

    /// Buffered non-blocking send of `data` to local rank `dest` with `tag`
    /// (user tags must not use the collective bit).
    pub fn send(&self, dest: usize, tag: u32, data: &[f64]) -> CommResult<()> {
        assert!(
            tag & COLLECTIVE_TAG_BIT == 0,
            "user tags must leave the top bit clear"
        );
        self.send_raw(dest, tag, data.to_vec())
    }

    pub(crate) fn send_raw(&self, dest: usize, tag: u32, data: Vec<f64>) -> CommResult<()> {
        self.check_rank(dest)?;
        let peer = self.members[dest];
        self.send_impl(peer, tag, data, 0)
    }

    /// Checksum-framed send: the payload travels with a
    /// `[len, checksum_lo, checksum_hi]` trailer that [`Self::recv_framed`]
    /// validates, turning silent in-flight corruption into a typed,
    /// retryable [`CommError::CorruptPayload`].  Traffic stats count the
    /// *logical* payload only, so framing does not perturb the certified
    /// communication counts.
    pub fn send_framed(&self, dest: usize, tag: u32, data: &[f64]) -> CommResult<()> {
        assert!(
            tag & COLLECTIVE_TAG_BIT == 0,
            "user tags must leave the top bit clear"
        );
        self.check_rank(dest)?;
        let peer = self.members[dest];
        let ck = fault::checksum(data);
        let mut framed = Vec::with_capacity(data.len() + FRAME_WORDS);
        framed.extend_from_slice(data);
        framed.push(data.len() as f64);
        framed.push((ck & 0xFFFF_FFFF) as u32 as f64);
        framed.push((ck >> 32) as u32 as f64);
        self.send_impl(peer, tag, framed, FRAME_WORDS)
    }

    /// The shared send path: applies the fault plan (if any) and records
    /// the logical (`data.len() - frame_words`) element count.
    fn send_impl(
        &self,
        peer_global: usize,
        tag: u32,
        data: Vec<f64>,
        frame_words: usize,
    ) -> CommResult<()> {
        let n = data.len() - frame_words;
        let mut env = Envelope::new(self.ctx, self.members[self.rank], tag, data);
        let mut dup = false;
        match self.fault_tick(peer_global, tag) {
            None => {}
            Some(FaultAction::Drop) => env.drops = 1,
            Some(FaultAction::Corrupt { bit, elem_seed }) => {
                env.corrupt = 1;
                env.corrupt_bit = bit;
                env.corrupt_seed = elem_seed;
            }
            Some(FaultAction::Dup) => dup = true,
            Some(FaultAction::Delay { events }) => {
                // hold the message; it is released (possibly out of order)
                // once this rank's event counter passes the release point,
                // or at the latest when the last communicator drops
                let ctx = self.fault.as_ref().expect("delay fired without plan");
                let release = ctx.event.get() + events;
                ctx.held.borrow_mut().push((release, peer_global, env));
                self.stats.record_send(n);
                return Ok(());
            }
            Some(FaultAction::Stall { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultAction::Crash) => panic!(
                "injected fault: crash at world rank {} (tag {tag:#x})",
                self.members[self.rank]
            ),
        }
        let redundant = dup.then(|| {
            let mut copy = env.clone();
            copy.redundant = true;
            copy
        });
        self.transport.send(peer_global, env)?;
        self.stats.record_send(n);
        if let Some(copy) = redundant {
            // the duplicate is best-effort and never counted
            let _ = self.transport.send(peer_global, copy);
        }
        Ok(())
    }

    /// Install a deterministic fault plan on this rank.  Shared with every
    /// sub-communicator split off *afterwards*; install before splitting.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(Rc::new(FaultCtx::new(plan)));
    }

    /// Every fault fired on this rank so far, in firing order.  Two runs
    /// with the same plan and program produce identical logs — the
    /// determinism contract chaos tests assert on (over *any* transport).
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.fault
            .as_ref()
            .map(|c| c.log.borrow().clone())
            .unwrap_or_default()
    }

    /// Advance the per-rank fault clock by one **send**, release due
    /// delayed messages, and decide whether a fault fires here.
    ///
    /// Only sends tick the clock: a receive may legitimately run more than
    /// once (retry after an injected drop/corruption — or after a spurious
    /// deadlock timeout on a loaded machine), so a clock that counted
    /// receives would drift between otherwise identical runs and break the
    /// byte-for-byte replay contract.  Sends are posted exactly once per
    /// logical operation, timing cannot change their count.
    fn fault_tick(&self, peer_global: usize, tag: u32) -> Option<FaultAction> {
        let ctx = self.fault.as_ref()?;
        let event = ctx.event.get();
        ctx.event.set(event + 1);
        self.flush_held(event + 1, false);
        let site = FaultSite {
            rank: self.members[self.rank],
            peer: peer_global,
            tag,
            user_tag: tag & COLLECTIVE_TAG_BIT == 0,
            event,
            phase: obs::current_phase(),
            is_send: true,
        };
        let action = {
            let mut nth = ctx.nth.borrow_mut();
            ctx.plan.decide(&site, &mut nth)?
        };
        let kind = match action {
            FaultAction::Drop => FaultKind::Drop,
            FaultAction::Corrupt { .. } => FaultKind::Corrupt,
            FaultAction::Dup => FaultKind::Dup,
            FaultAction::Delay { .. } => FaultKind::Delay,
            FaultAction::Stall { .. } => FaultKind::Stall,
            FaultAction::Crash => FaultKind::Crash,
        };
        self.stats.record_fault(kind);
        let name = fault_metric_name(kind);
        obs::Registry::global().counter(name).inc();
        if obs::enabled() {
            obs::record_value(name, event as f64);
        }
        ctx.log.borrow_mut().push(FaultEvent {
            kind,
            rank: site.rank,
            peer: peer_global,
            tag,
            event,
        });
        Some(action)
    }

    /// Send delayed messages whose release point has passed (`all`: every
    /// held message, used at teardown).
    fn flush_held(&self, now: u64, all: bool) {
        let Some(ctx) = self.fault.as_ref() else {
            return;
        };
        let mut held = ctx.held.borrow_mut();
        let mut i = 0;
        while i < held.len() {
            if all || held[i].0 <= now {
                let (_, peer, env) = held.swap_remove(i);
                let _ = self.transport.send(peer, env);
            } else {
                i += 1;
            }
        }
    }

    /// Notify every peer that this rank is dying (poison envelopes make
    /// their receives fail fast with [`CommError::PeerFailed`]).
    fn poison_peers(&self) {
        let me = self.members[self.rank];
        for g in 0..self.transport.world_size() {
            if g != me {
                let _ = self.transport.send(g, Envelope::poison(me));
            }
        }
    }

    /// Per-rank operation count for error context: the (send-only) fault
    /// clock when a plan is installed, otherwise the total p2p operations
    /// from the stats.
    fn events_so_far(&self) -> u64 {
        match &self.fault {
            Some(ctx) => ctx.event.get(),
            None => {
                let s = self.stats.snapshot();
                s.p2p_sends + s.p2p_recvs
            }
        }
    }

    /// Blocking receive of the message from local rank `src` with `tag`.
    pub fn recv(&self, src: usize, tag: u32) -> CommResult<Vec<f64>> {
        assert!(
            tag & COLLECTIVE_TAG_BIT == 0,
            "user tags must leave the top bit clear"
        );
        self.recv_raw(src, tag)
    }

    pub(crate) fn recv_raw(&self, src: usize, tag: u32) -> CommResult<Vec<f64>> {
        self.recv_inner(src, tag, 0)
    }

    /// Checksum-validated receive of a [`Self::send_framed`] message
    /// carrying `expected` logical elements.  A corrupted or truncated
    /// frame returns [`CommError::CorruptPayload`]; because the runtime
    /// keeps the clean payload for injected corruption, a retry of the same
    /// receive can succeed (see [`crate::fault`]).
    pub fn recv_framed(&self, src: usize, tag: u32, expected: usize) -> CommResult<Vec<f64>> {
        assert!(
            tag & COLLECTIVE_TAG_BIT == 0,
            "user tags must leave the top bit clear"
        );
        let mut data = self.recv_inner(src, tag, FRAME_WORDS)?;
        if data.len() < FRAME_WORDS {
            return Err(CommError::CorruptPayload {
                src,
                tag,
                detail: format!("framed message of {} words has no trailer", data.len()),
            });
        }
        if data.len() != expected + FRAME_WORDS {
            return Err(CommError::SizeMismatch {
                expected,
                got: data.len() - FRAME_WORDS,
                src,
                tag,
            });
        }
        let trailer = data.split_off(data.len() - FRAME_WORDS);
        if trailer[0] != data.len() as f64 {
            return Err(CommError::CorruptPayload {
                src,
                tag,
                detail: format!(
                    "length word {} != payload length {}",
                    trailer[0],
                    data.len()
                ),
            });
        }
        // the trailer words are u32 values; `as` saturates on corrupted
        // garbage (NaN, negatives), which just fails the comparison below
        let stored = (trailer[1] as u32 as u64) | ((trailer[2] as u32 as u64) << 32);
        let computed = fault::checksum(&data);
        if stored != computed {
            return Err(CommError::CorruptPayload {
                src,
                tag,
                detail: format!("checksum {computed:#018x} != framed {stored:#018x}"),
            });
        }
        Ok(data)
    }

    /// The shared receive path.  Fails fast on poisoned mailboxes, honours
    /// injected drop/corrupt riders on matching envelopes, and records the
    /// logical (`len - frame_words`) element count.  Receives do **not**
    /// tick the fault clock (see [`Self::fault_tick`]): retried receives
    /// would make the clock timing-dependent.  They do release every held
    /// (delayed) message first — this rank is about to block, and a message
    /// held past the end of its send batch would deadlock the peer; the
    /// flush point is fixed by program order, so replay stays exact.
    fn recv_inner(&self, src: usize, tag: u32, frame_words: usize) -> CommResult<Vec<f64>> {
        let data = self.recv_matched(src, tag, frame_words)?;
        if let Some(ctx) = &self.fault {
            // the `lat` dial: the message is here, its receiver is not told
            // yet.  Spun, not slept — a sleep oversleeps by more than most
            // settings of the dial
            let late = ctx.plan.recv_latency(&FaultSite {
                rank: self.members[self.rank],
                peer: self.members[src],
                tag,
                user_tag: tag & COLLECTIVE_TAG_BIT == 0,
                event: ctx.event.get(),
                phase: obs::current_phase(),
                is_send: false,
            });
            let arrived = Instant::now();
            while arrived.elapsed() < late {
                std::hint::spin_loop();
            }
        }
        Ok(data)
    }

    fn recv_matched(&self, src: usize, tag: u32, frame_words: usize) -> CommResult<Vec<f64>> {
        self.check_rank(src)?;
        self.flush_held(0, true);
        let want_src = self.members[src];
        if let Some(peer) = self.mailbox.poisoned.get() {
            return Err(CommError::PeerFailed { peer });
        }
        let record = |env: &Envelope| {
            if !env.redundant {
                self.stats
                    .record_recv(env.data.len() - frame_words.min(env.data.len()));
            }
        };
        // 1. check the unexpected-message queue
        {
            let mut pending = self.mailbox.pending.borrow_mut();
            if let Some(pos) = pending
                .iter()
                .position(|e| e.ctx == self.ctx && e.src_global == want_src && e.tag == tag)
            {
                if pending[pos].drops > 0 {
                    // injected loss of this delivery; the payload stays
                    // queued so a later retry can still succeed.  Fail fast
                    // instead of sleeping out the timeout: recovery must
                    // cost one retry, not one deadlock-detection window —
                    // otherwise every rank waiting on this one races its
                    // own identical timeout while we sleep
                    pending[pos].drops -= 1;
                    return self.timeout_err(src, tag);
                } else if pending[pos].corrupt > 0 {
                    pending[pos].corrupt -= 1;
                    let env = &pending[pos];
                    record(env);
                    return Ok(env.corrupted_copy());
                } else {
                    let env = pending.swap_remove(pos);
                    record(&env);
                    return Ok(env.data);
                }
            }
        }
        // 2. drain the transport until the match arrives
        let entered = Instant::now();
        let deadline = entered + self.timeout.get();
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return self.timeout_err(src, tag);
            }
            match self.transport.recv(remaining) {
                Some(env) => {
                    if env.ctx == POISON_CTX {
                        self.mailbox.poisoned.set(Some(env.src_global));
                        return Err(CommError::PeerFailed {
                            peer: env.src_global,
                        });
                    }
                    if env.ctx == self.ctx && env.src_global == want_src && env.tag == tag {
                        let mut env = env;
                        if env.drops > 0 {
                            // injected loss: queue the payload for a retry
                            // and fail fast (see the pending-queue branch)
                            env.drops -= 1;
                            self.mailbox.pending.borrow_mut().push(env);
                            return self.timeout_err(src, tag);
                        }
                        if env.corrupt > 0 {
                            env.corrupt -= 1;
                            record(&env);
                            let data = env.corrupted_copy();
                            self.mailbox.pending.borrow_mut().push(env);
                            return Ok(data);
                        }
                        if obs::enabled() {
                            recv_wait_hist().record(entered.elapsed().as_nanos() as u64);
                        }
                        record(&env);
                        return Ok(env.data);
                    }
                    self.mailbox.pending.borrow_mut().push(env);
                }
                None => {
                    return self.timeout_err(src, tag);
                }
            }
        }
    }

    fn timeout_err(&self, src: usize, tag: u32) -> CommResult<Vec<f64>> {
        Err(CommError::DeadlockTimeout {
            rank: self.rank,
            src,
            tag,
            waited: self.timeout.get(),
            phase: obs::current_phase(),
            events_so_far: self.events_so_far(),
        })
    }

    /// Receive into a preallocated buffer; errors if the message length
    /// differs from `buf.len()`.
    pub fn recv_into(&self, src: usize, tag: u32, buf: &mut [f64]) -> CommResult<()> {
        let data = self.recv(src, tag)?;
        if data.len() != buf.len() {
            return Err(CommError::SizeMismatch {
                expected: buf.len(),
                got: data.len(),
                src,
                tag,
            });
        }
        buf.copy_from_slice(&data);
        Ok(())
    }

    /// Drop every queued message that does not belong to this communicator's
    /// context (rollback hygiene: stale messages from an aborted step
    /// attempt must not survive into the re-run).  Messages for any of the
    /// `keep` communicators survive — the resilient runner passes its
    /// control communicator here so an in-flight control barrier can never
    /// be purged on the receiving side.  Poison envelopes still take
    /// effect.
    pub fn purge_other_contexts(&self, keep: &[&Communicator]) {
        let mut pending = self.mailbox.pending.borrow_mut();
        while let Some(env) = self.transport.try_recv() {
            if env.ctx == POISON_CTX {
                self.mailbox.poisoned.set(Some(env.src_global));
                continue;
            }
            pending.push(env);
        }
        pending.retain(|e| e.ctx == self.ctx || keep.iter().any(|c| c.ctx == e.ctx));
    }

    /// Jump the collective sequence to an epoch-derived base (must be
    /// called collectively with the same `epoch` on every rank).  After a
    /// rollback this guarantees post-recovery collective tags can never
    /// cross-match stragglers from the aborted attempt.
    pub fn resync_collectives(&self, epoch: u64) {
        self.coll_seq.set(epoch << 10);
    }

    /// Blocking send-and-receive with (possibly different) partners, safe
    /// against head-of-line deadlock thanks to buffered sends.
    pub fn sendrecv(
        &self,
        dest: usize,
        send_tag: u32,
        data: &[f64],
        src: usize,
        recv_tag: u32,
    ) -> CommResult<Vec<f64>> {
        self.send(dest, send_tag, data)?;
        self.recv(src, recv_tag)
    }

    /// Allocate a contiguous block of `n` context ids from this world
    /// rank's private id space.
    ///
    /// There is no cross-process shared counter in a socket-backed world,
    /// so context ids are namespaced by the *allocating* world rank:
    /// `((world_rank + 1) << 32) | counter`.  Two distinct communicators
    /// can only collide if the same allocator handed out the same counter
    /// value — impossible.  The salted ids are identical across transports
    /// (the mpsc world uses the same scheme), exceed every user context of
    /// the pre-salt scheme, and can never reach the poison id.
    fn alloc_ctx_block(&self, n: u64) -> u64 {
        let c = self.ctx_alloc.get();
        self.ctx_alloc.set(c + n);
        debug_assert!(c + n < 1 << 32, "context space exhausted");
        ((self.members[self.rank] as u64 + 1) << 32) | c
    }

    /// Create a sub-communicator per distinct `color`; ranks are ordered by
    /// `key` (ties broken by parent rank).  Collective over the parent.
    pub fn split(&mut self, color: usize, key: usize) -> CommResult<Communicator> {
        // Gather (color, key, parent_rank) from everyone.
        let mine = [color as f64, key as f64, self.rank as f64];
        let all = self.allgather(&mine)?;
        let mut triples: Vec<(usize, usize, usize)> = all
            .chunks_exact(3)
            .map(|c| (c[0] as usize, c[1] as usize, c[2] as usize))
            .collect();
        triples.sort_by_key(|&(c, k, r)| (c, k, r));
        // Distinct colors in sorted order determine ctx allocation.
        let mut colors: Vec<usize> = triples.iter().map(|t| t.0).collect();
        colors.dedup();
        let num_groups = colors.len();
        // Parent rank 0 allocates a contiguous ctx block from its own id
        // space and broadcasts the base (exactly representable as f64:
        // world ranks are far below 2^20, so the id fits in 52 bits).
        let mut base = [0.0f64];
        if self.rank == 0 {
            base[0] = self.alloc_ctx_block(num_groups as u64) as f64;
        }
        self.bcast(0, &mut base)?;
        let base = base[0] as u64;
        // Both lookups are guaranteed by construction (our own triple is in
        // the allgather result); corruption of the exchanged triples must
        // surface as a typed error, not a panic inside the runtime.
        let color_index = colors.iter().position(|&c| c == color).ok_or_else(|| {
            CommError::CollectiveMismatch(format!("split: own color {color} missing from gather"))
        })?;
        let members: Vec<usize> = triples
            .iter()
            .filter(|t| t.0 == color)
            .map(|t| self.members[t.2])
            .collect();
        let my_global = self.members[self.rank];
        let new_rank = members
            .iter()
            .position(|&g| g == my_global)
            .ok_or_else(|| {
                CommError::CollectiveMismatch(format!(
                    "split: rank {} missing from its color group {color}",
                    self.rank
                ))
            })?;
        Ok(Communicator {
            transport: Rc::clone(&self.transport),
            mailbox: Rc::clone(&self.mailbox),
            ctx_alloc: Rc::clone(&self.ctx_alloc),
            ctx: base + color_index as u64,
            rank: new_rank,
            members: Arc::new(members),
            timeout: Cell::new(self.timeout.get()),
            coll_seq: Cell::new(0),
            stats: self.stats.clone(),
            fault: self.fault.clone(),
        })
    }

    /// Next collective tag (sequence-stamped so consecutive collectives on
    /// the same communicator cannot cross-match).
    pub(crate) fn next_coll_tag(&self, round: u32) -> u32 {
        debug_assert!(round < 1 << 12);
        let seq = self.coll_seq.get();
        COLLECTIVE_TAG_BIT | (((seq & 0x7FFFF) as u32) << 12) | round
    }

    /// Advance the collective sequence number; call once per collective.
    pub(crate) fn bump_coll_seq(&self) {
        self.coll_seq.set(self.coll_seq.get() + 1);
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        if let Some(ctx) = &self.fault {
            if Rc::strong_count(ctx) == 1 {
                // last communicator of this rank: flush every still-held
                // delayed message so injected delays cannot strand payloads
                self.flush_held(u64::MAX, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results = Universe::run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, &[comm.rank() as f64]).unwrap();
            comm.recv(prev, 1).unwrap()[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn single_rank_universe() {
        let r = Universe::run(1, |comm| comm.rank() + comm.size());
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn out_of_order_matching() {
        let results = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[7.0]).unwrap();
                comm.send(1, 8, &[8.0]).unwrap();
                comm.send(1, 9, &[9.0]).unwrap();
                0.0
            } else {
                // receive in reverse tag order: unexpected-queue must stash
                let a = comm.recv(0, 9).unwrap()[0];
                let b = comm.recv(0, 8).unwrap()[0];
                let c = comm.recv(0, 7).unwrap()[0];
                a * 100.0 + b * 10.0 + c
            }
        });
        assert_eq!(results[1], 987.0);
    }

    #[test]
    fn deadlock_detection() {
        let results = Universe::run(2, |comm| {
            comm.set_timeout(Duration::from_millis(50));
            if comm.rank() == 1 {
                comm.recv(0, 42).err()
            } else {
                None
            }
        });
        match &results[1] {
            Some(CommError::DeadlockTimeout {
                src: 0, tag: 42, ..
            }) => {}
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn run_with_timeout_applies_to_all_ranks() {
        let results = Universe::run_with_timeout(2, Duration::from_millis(20), |comm| {
            assert_eq!(comm.timeout(), Duration::from_millis(20));
            if comm.rank() == 1 {
                comm.recv(0, 99).err()
            } else {
                None
            }
        });
        match &results[1] {
            Some(CommError::DeadlockTimeout {
                src: 0, tag: 99, ..
            }) => {}
            other => panic!("expected fast deadlock, got {other:?}"),
        }
    }

    #[test]
    fn size_mismatch_detected() {
        let results = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1.0, 2.0, 3.0]).unwrap();
                None
            } else {
                let mut buf = [0.0; 2];
                comm.recv_into(0, 1, &mut buf).err()
            }
        });
        assert_eq!(
            results[1],
            Some(CommError::SizeMismatch {
                expected: 2,
                got: 3,
                src: 0,
                tag: 1
            })
        );
    }

    #[test]
    fn invalid_rank_rejected() {
        let results = Universe::run(2, |comm| comm.send(5, 0, &[1.0]).err());
        assert_eq!(
            results[0],
            Some(CommError::InvalidRank { rank: 5, size: 2 })
        );
    }

    #[test]
    fn sendrecv_exchanges() {
        let results = Universe::run(2, |comm| {
            let other = 1 - comm.rank();
            comm.sendrecv(other, 3, &[comm.rank() as f64 + 10.0], other, 3)
                .unwrap()[0]
        });
        assert_eq!(results, vec![11.0, 10.0]);
    }

    #[test]
    fn stats_count_p2p() {
        let results = Universe::run(2, |comm| {
            let other = 1 - comm.rank();
            comm.send(other, 1, &[0.0; 16]).unwrap();
            comm.recv(other, 1).unwrap();
            comm.stats().snapshot()
        });
        for s in results {
            assert_eq!(s.p2p_sends, 1);
            assert_eq!(s.p2p_send_elems, 16);
            assert_eq!(s.p2p_recvs, 1);
        }
    }

    #[test]
    fn overlap_send_compute_recv() {
        // the paper's overlap pattern: post sends, compute, then receive
        let results = Universe::run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, &[comm.rank() as f64]).unwrap();
            // "inner computation" happens here — no recv posted yet
            let local: f64 = (0..1000).map(|i| i as f64).sum();
            let remote = comm.recv(prev, 1).unwrap()[0];
            local + remote
        });
        let local: f64 = (0..1000).map(|i| i as f64).sum();
        assert_eq!(results[0], local + 3.0);
    }

    #[test]
    fn split_isolates_contexts() {
        // even/odd sub-communicators exchange on the same tags concurrently;
        // contexts must keep the traffic separate
        let results = Universe::run(4, |comm| {
            let sub = comm.split(comm.rank() % 2, comm.rank()).unwrap();
            assert_eq!(sub.size(), 2);
            let other = 1 - sub.rank();
            sub.send(other, 1, &[comm.rank() as f64 * 2.0]).unwrap();
            sub.recv(other, 1).unwrap()[0]
        });
        // world ranks: 0<->2 (colors 0), 1<->3 (colors 1)
        assert_eq!(results, vec![4.0, 6.0, 0.0, 2.0]);
    }

    #[test]
    fn split_key_reorders() {
        let results = Universe::run(3, |comm| {
            // reverse order by key
            let sub = comm.split(0, comm.size() - comm.rank()).unwrap();
            sub.rank()
        });
        assert_eq!(results, vec![2, 1, 0]);
    }

    #[test]
    fn salted_ctx_allocation_never_collides_across_allocators() {
        // two different allocator ranks (world rank 0 for the world split,
        // the pair's lowest rank for a nested split) must hand out disjoint
        // context ids, even without a shared counter
        let results = Universe::run(4, |comm| {
            let sub = comm.split(comm.rank() % 2, comm.rank()).unwrap();
            // nested split allocates from the *sub* communicator's rank 0
            // (world rank 0 or 1 depending on color)
            let mut sub = sub;
            let nested = sub.split(0, sub.rank()).unwrap();
            (sub.ctx, nested.ctx)
        });
        let mut ids: Vec<u64> = results.iter().flat_map(|&(a, b)| [a, b]).collect();
        ids.sort_unstable();
        ids.dedup();
        // 2 sub-communicator contexts + 2 nested contexts, all distinct
        assert_eq!(ids.len(), 4, "ctx ids must be globally unique: {ids:?}");
        for id in ids {
            assert!(id >= 1 << 32, "salted ids live above the world context");
            assert_ne!(id, u64::MAX);
        }
    }

    #[cfg(unix)]
    #[test]
    fn socket_universe_matches_mpsc_semantics() {
        // same program as ring_pass + out_of_order_matching, over real
        // kernel byte streams
        let ep = Endpoint::unique_uds();
        let results = Universe::run_sockets(4, &ep, |comm| {
            assert_eq!(comm.transport_name(), "uds");
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, &[comm.rank() as f64]).unwrap();
            let ring = comm.recv(prev, 1).unwrap()[0];
            let sub = comm.split(comm.rank() % 2, comm.rank()).unwrap();
            let other = 1 - sub.rank();
            sub.send(other, 1, &[ring * 2.0]).unwrap();
            sub.recv(other, 1).unwrap()[0]
        });
        assert_eq!(results, vec![2.0, 4.0, 6.0, 0.0]);
        assert!(comm_wire_identity_holds(&ep));
    }

    /// Helper: re-run a tiny exchange and check the wire-byte identity
    /// `bytes == 8·elems + overhead·msgs` against the logical stats.
    #[cfg(unix)]
    fn comm_wire_identity_holds(_: &Endpoint) -> bool {
        use crate::transport::WIRE_OVERHEAD_BYTES;
        let ep = Endpoint::unique_uds();
        let ok = Universe::run_sockets(2, &ep, |comm| {
            let other = 1 - comm.rank();
            comm.send(other, 1, &[1.0; 10]).unwrap();
            comm.recv(other, 1).unwrap();
            let s = comm.stats().snapshot();
            let w = comm.wire_stats().expect("socket transport has wire stats");
            w.msgs_sent == s.p2p_sends
                && w.bytes_sent == 8 * s.p2p_send_elems + WIRE_OVERHEAD_BYTES * w.msgs_sent
        });
        ok.into_iter().all(|b| b)
    }

    #[cfg(unix)]
    #[test]
    fn socket_poison_fails_peers_fast() {
        let ep = Endpoint::unique_uds();
        let caught = std::panic::catch_unwind(|| {
            Universe::run_sockets(2, &ep, |comm| {
                comm.set_timeout(Duration::from_secs(30));
                if comm.rank() == 0 {
                    panic!("rank 0 dies");
                }
                // must fail fast with PeerFailed, not wait out 30 s
                let t0 = Instant::now();
                let err = comm.recv(0, 1).unwrap_err();
                assert!(matches!(err, CommError::PeerFailed { peer: 0 }));
                assert!(t0.elapsed() < Duration::from_secs(10));
            })
        });
        assert!(caught.is_err(), "the injected panic propagates");
    }
}
