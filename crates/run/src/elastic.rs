//! The launcher every `agcm-run` and `agcm-soak` world goes through: a
//! [`Plan`] of fixed-size phases, one phase runner ([`run_phase`]: hand-off,
//! supervise, verify), one pure [`Supervisor`] whose decisions its driver
//! ([`supervise_world`]) performs, and the elastic worker.
//!
//! A world is *classic* or *elastic* by its respawn policy.  A classic world
//! writes no checkpoints and fails on its first non-zero exit.  In an
//! elastic world every worker checkpoints to a durable per-rank file
//! (tmp + rename), and when a rank's process dies — detected twice, as a
//! child exit in the parent and as poison on every surviving peer's
//! connection — the parent respawns it from the latest checkpoint while the
//! survivors park in a recovery barrier and rewire the socket mesh to the
//! next epoch.  The epoch word in every frame (and in the reconnect hello)
//! is what makes this safe: stale in-flight frames of the dead generation
//! are dropped on receive, frames from a fast-recovering peer are parked
//! until the local epoch catches up, and the whole world rolls back in
//! lockstep to the newest step every rank holds durable — so the completed
//! run is still **bitwise identical** to the serial reference.
//!
//! A planned shrink/grow is the next phase of a plan: [`run_phase`]
//! re-decomposes the previous phase's checkpoints onto the new world
//! ([`agcm_core::redistribute`]) and certifies its schedule
//! ([`agcm_verify::certify_yz`]) before stepping resumes.

use crate::{
    new_model, run_config, set_default_ic, verify_world, write_record, ParentError, Worker,
};
use agcm_comm::{CommError, Communicator, Endpoint, ReduceOp, SocketTransport, Transport};
use agcm_core::{
    checkpoint_path, latest_checkpoint_step, prune_checkpoints, read_checkpoint, redistribute,
    resize_retention, write_checkpoint, Integrator,
};
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;
use agcm_obs::dist::Record;
use agcm_verify::certify_yz;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Patience for one model step's communication.  Generous against a busy
/// CI box, but bounded: a peer that died without leaving poison (or a
/// genuinely wedged mesh) must surface as an error, not a hang.
const STEP_TIMEOUT: Duration = Duration::from_secs(10);

/// Patience for the recovery barrier and the rewire handshake: covers the
/// supervisor noticing the death, respawning the replacement, and the
/// replacement re-dialing the mesh — plus the skew of survivors arriving
/// at the barrier at different times.
const RECOVERY_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// One phase of a run: a fixed-size world integrating to `end`.
#[derive(Debug, Clone)]
pub struct Phase {
    /// World size.
    pub p: usize,
    /// First step this phase integrates (the previous phase's hand-off).
    pub start: u64,
    /// Step count at the end of this phase (the workers' `AGCM_RUN_STEPS`).
    pub end: u64,
    /// Kill events `(rank, step)` injected into this phase: that rank's
    /// first incarnation aborts after completing the step.
    pub kills: Vec<(usize, u64)>,
}

/// The phases one run executes, in order: `agcm-run` builds one (two under
/// `--resize`), `agcm-soak` expands one from its seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Phases in execution order; each after the first starts with a
    /// hand-off of its predecessor's checkpoints.
    pub phases: Vec<Phase>,
    /// Message-fault injection shipped to every worker: an
    /// `AGCM_FAULT_SPEC` grammar string plus its `AGCM_FAULT_SEED` (`None`:
    /// workers inherit the parent's environment).
    pub fault: Option<(String, u64)>,
}

impl Plan {
    /// The kill invariants: every kill names a rank inside its phase's
    /// world, and a rank carries at most one kill per phase (only the first
    /// incarnation reads its kill step, so a second would be silently inert).
    pub fn check(&self) -> Result<(), String> {
        for ph in &self.phases {
            for (n, &(rank, step)) in ph.kills.iter().enumerate() {
                let p = ph.p;
                if rank >= p {
                    return Err(format!(
                        "--kill rank {rank} outside the world of {p} ranks \
                         (step {step} lands in the p={p} phase)"
                    ));
                }
                if ph.kills[..n].iter().any(|&(r, _)| r == rank) {
                    return Err(format!(
                        "--kill rank {rank} listed twice in the same phase (only the first \
                         incarnation honors a kill step)"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checkpoint retention of phase `i` — the one rule.  Neighbor-lockstep
    /// skew lets a distant survivor run up to `p − 1` steps past the
    /// victim's last durable step before noticing the death, so a world
    /// keeps `p + 1` files; and a hand-off shares one checkpoint lineage
    /// between two worlds, so each side of it keeps what the larger one
    /// needs ([`resize_retention`]).
    pub fn keep(&self, i: usize) -> usize {
        let p = self.phases[i].p;
        self.phases[i.saturating_sub(1)..self.phases.len().min(i + 2)]
            .iter()
            .map(|n| resize_retention(p, n.p))
            .max()
            .unwrap_or(p + 1)
    }

    /// Phase `i`'s checkpoint directory under a run's scratch root.
    pub(crate) fn ckpt_dir(&self, out: &Path, i: usize) -> PathBuf {
        out.join(format!("ckpt-phase{i}-p{}", self.phases[i].p))
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Where and how often an elastic world's workers write durable
/// checkpoints: the parent ships it in `AGCM_CKPT_*`, and a worker is
/// elastic exactly when `AGCM_CKPT_DIR` is set.
pub(crate) struct Ckpt {
    pub dir: PathBuf,
    /// Steady-state cadence (steps between durable writes).
    pub interval: u64,
    /// Files each rank retains ([`Plan::keep`]).
    pub keep: usize,
}

/// Why one epoch's run ended early.
enum EpochEnd {
    /// A peer's process died: recoverable by rewiring to the next epoch.
    /// Carries the detection detail for the recovery log line.
    PeerLost(usize, String),
    /// Anything else: this worker exits and lets the supervisor decide.
    Fatal(String),
}

fn classify(rank: usize, what: &str, e: CommError) -> EpochEnd {
    match e {
        CommError::PeerGone { peer } | CommError::PeerFailed { peer } => {
            EpochEnd::PeerLost(peer, format!("{what}: {e}"))
        }
        other => EpochEnd::Fatal(format!("rank {rank}: {what}: {other}")),
    }
}

/// One rank of an elastic world: integrate with durable checkpoints into
/// `ckpt.dir`, and on peer death rewire the mesh to the next epoch and
/// re-enter from the agreed restore point.  Returns only when the run
/// completed (`Ok`) or hit a non-recoverable error (`Err` → exit code 1, at
/// which point the supervisor's respawn policy takes over).
pub(crate) fn elastic_worker(
    w: &Worker,
    transport: &Rc<SocketTransport>,
    ckpt: &Ckpt,
    kill_step: Option<u64>,
) -> Result<(), String> {
    let rank = w.rank;
    let mut epoch = transport.epoch();
    // the epoch this incarnation was born into names its record, one file
    // per incarnation, so the merge can sum counters across a rank's
    // incarnations instead of last-write-wins mixing pre- and post-crash
    // counts.  The record is refreshed at birth, after every rewire and at
    // completion; a failed write is logged, never fatal
    let birth = epoch;
    let record = || {
        let rec = Record {
            metrics: obs::Registry::global().snapshot(),
            trace: None,
        };
        if let Err(e) = write_record(&ckpt.dir, rank, birth, &rec) {
            eprintln!("agcm-run worker {rank}: writing its record: {e}");
        }
    };
    let gauge = obs::Registry::global().gauge("resilience.epoch");
    gauge.set(epoch as f64);
    record();
    loop {
        match run_epoch(w, transport, ckpt, kill_step) {
            Ok(()) => {
                record();
                return Ok(());
            }
            Err(EpochEnd::PeerLost(peer, detail)) => {
                let _sp = obs::span(obs::SpanKind::Recovery, "run.rewire");
                obs::Registry::global().counter("resilience.rewires").inc();
                epoch += 1;
                eprintln!(
                    "agcm-run worker {rank}: peer {peer} lost ({detail}); rewiring mesh to \
                     epoch {epoch}"
                );
                transport
                    .rewire(epoch, peer, RECOVERY_TIMEOUT)
                    .map_err(|e| format!("rank {rank}: rewire to epoch {epoch}: {e}"))?;
                gauge.set(epoch as f64);
                record();
            }
            Err(EpochEnd::Fatal(msg)) => return Err(msg),
        }
    }
}

/// One incarnation of the integration at the transport's current epoch:
/// recovery barrier (agree on the restore step), restore or cold-start,
/// step with durable checkpoints, and on completion the final checkpoint —
/// the one the parent assembles the world's state from — and a final
/// barrier.
fn run_epoch(
    w: &Worker,
    transport: &Rc<SocketTransport>,
    ck: &Ckpt,
    kill_step: Option<u64>,
) -> Result<(), EpochEnd> {
    let rank = w.rank;
    let fatal = |msg: String| EpochEnd::Fatal(format!("rank {rank}: {msg}"));
    // a kill -9 exactly between two frames EOFs the stream cleanly; under
    // a supervisor that still means "peer died", so arm the poison path
    // (re-armed on every epoch: completion disarms it, see below)
    transport.set_poison_on_eof(true);
    // a *fresh* communicator per mesh generation: context ids restart from
    // the same base on every rank (deterministic across epochs, so the
    // rebuilt worlds agree), and the failed generation's sticky poison is
    // gone — per-frame epoch filtering is what keeps the reuse safe
    let mut comm = Communicator::on_transport(Rc::clone(transport) as Rc<dyn Transport>);
    let mut model = new_model(w.alg, &w.cfg, w.pgrid, &mut comm).map_err(fatal)?;

    // the recovery barrier: agree on the newest step EVERY rank holds
    // durable (-1 = none).  A replacement may be behind the survivors —
    // everyone rolls back to the minimum, in lockstep, so the continued
    // run is the bitwise continuation of a state that actually existed.
    comm.set_timeout(RECOVERY_TIMEOUT);
    let mine = latest_checkpoint_step(&ck.dir, rank)
        .map_err(|e| fatal(format!("listing checkpoints: {e}")))?;
    let mut agreed = [mine.map_or(-1.0, |s| s as f64)];
    comm.allreduce(ReduceOp::Min, &mut agreed)
        .map_err(|e| classify(rank, "recovery barrier", e))?;
    let restored = if agreed[0] >= 0.0 {
        let step = agreed[0] as u64;
        let snap = read_checkpoint(&checkpoint_path(&ck.dir, rank, step))
            .map_err(|e| fatal(format!("reading checkpoint at step {step}: {e}")))?;
        model.restore(&snap);
        Some(step)
    } else {
        set_default_ic(&mut model);
        None
    };
    comm.set_timeout(STEP_TIMEOUT);

    // recovery burst: in a rewired epoch every rank checkpoints every step
    // through one skew window past the agreed restore point, so a
    // replacement's durable progress overtakes the victim's quickly even
    // when the steady-state interval is sparse.  The rule is a pure
    // function of (epoch, agreed step), both identical across the world,
    // so the per-rank checkpoint step sets stay aligned and the recovery
    // barrier's minimum always names a file every rank holds.
    let burst_end: Option<u64> = if transport.epoch() > 0 {
        Some(restored.unwrap_or(0) + w.pgrid.size() as u64)
    } else {
        None
    };
    while model.steps < w.steps {
        let s = model.steps as u64;
        if s.is_multiple_of(ck.interval) || burst_end.is_some_and(|b| s <= b) {
            durable_checkpoint(&model, ck, rank).map_err(fatal)?;
        }
        if kill_step == Some(s) {
            // chaos injection: die like a kill -9 — no unwinding, no
            // flushes, the kernel closes the sockets mid-run.  Fires in
            // whatever epoch this incarnation first reaches the step
            // (replacements never inherit the kill environment, so each
            // scheduled kill fires at most once).
            std::process::abort();
        }
        model
            .step(Some(&comm))
            .map_err(|e| classify(rank, "step", e))?;
    }
    model
        .finish(Some(&comm))
        .map_err(|e| classify(rank, "finish", e))?;
    // the completed state must be durable too: the parent assembles the
    // world's state from exactly this step's checkpoints, and a planned
    // resize re-decomposes them
    durable_checkpoint(&model, ck, rank).map_err(fatal)?;

    // completion barrier — but disarm poison-on-EOF FIRST.  A rank exiting
    // while a peer still has receives pending would otherwise read as a
    // death, and exits during the barrier itself do race: a ring rank can
    // complete its rounds and exit while a distant rank still awaits a
    // frame from a third party, and the EOF (a different connection) is
    // not ordered against that frame.  An allreduce output depends on
    // every rank's input, so any rank *completing* the barrier implies
    // every rank *entered* it — and entering happens after disarming, so
    // by the time any peer's EOF can arrive, this rank ignores it.  A real
    // crash inside this last window degrades to a step timeout, which the
    // supervisor's respawn budget bounds.
    transport.set_poison_on_eof(false);
    let mut one = [1.0];
    comm.allreduce(ReduceOp::Min, &mut one)
        .map_err(|e| classify(rank, "completion barrier", e))?;
    Ok(())
}

/// Capture + tmp/rename-write this rank's checkpoint, then prune to the
/// retention budget.  The measured wall cost lands in the
/// `resilience.ckpt_write_ns` histogram — the soak harness's checkpoint
/// auto-tuner reads its mean as the per-checkpoint overhead δ.
fn durable_checkpoint(model: &Integrator, ck: &Ckpt, rank: usize) -> Result<(), String> {
    let t0 = Instant::now();
    let snap = model.capture();
    write_checkpoint(&checkpoint_path(&ck.dir, rank, snap.step), &snap)
        .map_err(|e| format!("writing checkpoint at step {}: {e}", snap.step))?;
    prune_checkpoints(&ck.dir, rank, ck.keep).map_err(|e| format!("pruning checkpoints: {e}"))?;
    obs::Registry::global()
        .histogram("resilience.ckpt_write_ns")
        .record(t0.elapsed().as_nanos() as u64);
    Ok(())
}

// ---------------------------------------------------------------------------
// Supervisor: the decisions, as a transition function
// ---------------------------------------------------------------------------

/// What the driver observed of a world.
#[derive(Debug)]
pub(crate) enum Event {
    /// A worker process exited; `status` is how the OS reported it.
    Exited {
        rank: usize,
        success: bool,
        status: String,
    },
    /// `rank`'s newest durable checkpoint is at `step`.
    Durable { rank: usize, step: u64 },
    /// Time since the world was launched.
    Tick { elapsed: Duration },
}

/// What the supervisor decided; the driver performs it.
#[derive(Debug)]
pub(crate) enum Action {
    /// Start a replacement for `rank` at mesh epoch `epoch`.
    Respawn { rank: usize, epoch: u64 },
    /// Kill the world and fail the run.
    Fail(ParentError),
    /// Every rank exited cleanly.
    Done(SuperviseReport),
}

/// One repaired failure: which rank died, the epoch its replacement was
/// spawned into, and the measured repair time — from death detection until
/// the replacement's durable progress passes the victim's last
/// checkpointed step (the world has provably re-achieved what it lost) or
/// the replacement exits cleanly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Incident {
    pub rank: usize,
    pub epoch: u64,
    pub downtime: Duration,
}

/// What one supervised world's run looked like, for soak accounting:
/// total supervised wall time plus every repaired death, in order.
#[derive(Debug)]
pub(crate) struct SuperviseReport {
    pub wall: Duration,
    pub incidents: Vec<Incident>,
}

/// A repair in progress: the victim's newest durable step at its death
/// (`None`: it had written none) and when the death was detected.
struct Repair {
    incident: usize,
    rank: usize,
    baseline: Option<u64>,
    detected: Duration,
}

/// The supervisor of one world: no clock, process or filesystem in it —
/// [`supervise_world`] feeds it [`Event`]s and performs the [`Action`]s it
/// returns.
pub(crate) struct Supervisor<'a> {
    /// Respawns left, one counter for every phase of a run; `None` is the
    /// classic policy: the first failed exit fails the world.
    budget: Option<&'a mut u32>,
    timeout: Duration,
    now: Duration,
    epoch: u64,
    /// Ranks that have not exited cleanly yet.
    running: usize,
    /// Newest durable step reported per rank.
    durable: Vec<Option<u64>>,
    incidents: Vec<Incident>,
    open: Vec<Repair>,
}

impl<'a> Supervisor<'a> {
    pub(crate) fn new(p: usize, budget: Option<&'a mut u32>, timeout: Duration) -> Self {
        Supervisor {
            budget,
            timeout,
            now: Duration::ZERO,
            epoch: 0,
            running: p,
            durable: vec![None; p],
            incidents: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Ranks with an open repair, whose durable progress the driver reports.
    pub(crate) fn repairing(&self) -> Vec<usize> {
        self.open.iter().map(|r| r.rank).collect()
    }

    /// Respawns left (none under the classic policy).
    pub(crate) fn left(&self) -> u32 {
        self.budget.as_deref().copied().unwrap_or(0)
    }

    pub(crate) fn on(&mut self, event: Event) -> Option<Action> {
        match event {
            Event::Tick { elapsed } => {
                self.now = elapsed;
                (elapsed >= self.timeout).then(|| {
                    Action::Fail(ParentError::Other(format!(
                        "world did not finish within {:?}; killed {} straggler(s)",
                        self.timeout, self.running
                    )))
                })
            }
            Event::Durable { rank, step } => {
                self.durable[rank] = Some(step);
                self.close(|r| r.rank == rank && r.baseline.is_none_or(|b| step > b));
                None
            }
            Event::Exited {
                rank,
                success: true,
                ..
            } => {
                self.running = self.running.saturating_sub(1);
                let all = self.running == 0;
                self.close(|r| r.rank == rank || all);
                all.then(|| {
                    Action::Done(SuperviseReport {
                        wall: self.now,
                        incidents: std::mem::take(&mut self.incidents),
                    })
                })
            }
            Event::Exited { rank, status, .. } => Some(match self.budget.as_deref_mut() {
                None => Action::Fail(ParentError::Other(format!("rank {rank} failed ({status})"))),
                Some(0) => Action::Fail(ParentError::RespawnExhausted(format!(
                    "rank {rank} died ({status}) after the respawn budget was spent"
                ))),
                Some(left) => {
                    *left -= 1;
                    self.epoch += 1;
                    self.open.push(Repair {
                        incident: self.incidents.len(),
                        rank,
                        baseline: self.durable[rank],
                        detected: self.now,
                    });
                    self.incidents.push(Incident {
                        rank,
                        epoch: self.epoch,
                        downtime: Duration::ZERO,
                    });
                    Action::Respawn {
                        rank,
                        epoch: self.epoch,
                    }
                }
            }),
        }
    }

    /// Close, at the current time, every open repair `done` selects.
    fn close(&mut self, done: impl Fn(&Repair) -> bool) {
        let (now, incidents) = (self.now, &mut self.incidents);
        self.open.retain(|r| {
            if done(r) {
                incidents[r.incident].downtime = now.saturating_sub(r.detected);
            }
            !done(r)
        });
    }
}

// ---------------------------------------------------------------------------
// Driver: processes, the checkpoint directory and the clock
// ---------------------------------------------------------------------------

/// What every phase of one run shares.
pub(crate) struct Launch {
    /// The binary the workers run (this one).
    pub exe: PathBuf,
    pub alg: u32,
    /// Ranks along z of every world (1 for every elastic one).
    pub pz: usize,
    /// Scratch root: a classic world's final checkpoints and records, and
    /// every elastic phase's checkpoint directory.
    pub out: PathBuf,
    /// Kill a world that has not finished within this budget.
    pub timeout: Duration,
    /// `--trace`'s artifact directory (classic worlds only).
    pub trace: Option<PathBuf>,
}

impl Launch {
    /// Resolve this binary and create the run's scratch root, named by `tag`.
    pub(crate) fn new(
        alg: u32,
        pz: usize,
        tag: &str,
        timeout: Duration,
        trace: Option<PathBuf>,
    ) -> Result<Launch, ParentError> {
        let out = std::env::temp_dir().join(format!("agcm-run-{}-{tag}", std::process::id()));
        fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        Ok(Launch {
            exe,
            alg,
            pz,
            out,
            timeout,
            trace,
        })
    }

    /// Delete the scratch root after a success (unless `keep`); name it
    /// after a failure.
    pub(crate) fn finish<T>(
        &self,
        result: Result<T, ParentError>,
        keep: bool,
    ) -> Result<T, ParentError> {
        if result.is_err() {
            eprintln!("agcm-run: scratch directory kept at {}", self.out.display());
        } else if !keep {
            let _ = fs::remove_dir_all(&self.out);
        }
        result
    }
}

/// One phase's world: everything needed to (re)spawn its workers.
pub(crate) struct WorldSpec<'a> {
    pub run: &'a Launch,
    pub endpoint: Endpoint,
    pub pgrid: ProcessGrid,
    pub steps: usize,
    /// `None`: a classic world.
    pub ckpt: Option<Ckpt>,
    pub fault: Option<&'a (String, u64)>,
}

impl WorldSpec<'_> {
    /// Where every worker leaves its final checkpoint and its record: the
    /// phase's checkpoint directory, or the run's scratch root for a
    /// classic world.
    pub(crate) fn dir(&self) -> &Path {
        self.ckpt.as_ref().map_or(&self.run.out, |ck| &ck.dir)
    }
}

/// Start worker `rank` of `w` at mesh epoch `epoch` — the one place a
/// worker process is created.  A rank listed in `kills` aborts after its
/// kill step.
fn spawn_rank(
    w: &WorldSpec,
    rank: usize,
    epoch: u64,
    kills: &[(usize, u64)],
) -> Result<Child, ParentError> {
    let mut cmd = Command::new(&w.run.exe);
    cmd.env("AGCM_RANK", rank.to_string())
        .env("AGCM_WORLD_SIZE", w.pgrid.size().to_string())
        .env("AGCM_ENDPOINT", w.endpoint.to_string())
        .env("AGCM_EPOCH", epoch.to_string())
        .env("AGCM_RUN_ALG", w.run.alg.to_string())
        .env("AGCM_RUN_STEPS", w.steps.to_string())
        .env("AGCM_RUN_PY", w.pgrid.py().to_string())
        .env("AGCM_RUN_PZ", w.pgrid.pz().to_string())
        .env("AGCM_RUN_OUT", &w.run.out)
        .stdin(Stdio::null());
    match &w.ckpt {
        Some(ck) => cmd
            .env("AGCM_CKPT_DIR", &ck.dir)
            .env("AGCM_CKPT_INTERVAL", ck.interval.to_string())
            .env("AGCM_CKPT_KEEP", ck.keep.to_string()),
        None => cmd.env_remove("AGCM_CKPT_DIR"),
    };
    if w.run.trace.is_some() {
        cmd.env("AGCM_RUN_TRACE", "1");
    }
    if let Some((spec, seed)) = w.fault {
        cmd.env("AGCM_FAULT_SPEC", spec)
            .env("AGCM_FAULT_SEED", seed.to_string());
    }
    if let Some(&(_, ks)) = kills.iter().find(|&&(kr, _)| kr == rank) {
        cmd.env("AGCM_KILL_STEP", ks.to_string());
    }
    cmd.spawn()
        .map_err(|e| ParentError::Other(format!("spawning rank {rank}: {e}")))
}

/// Launch one world and drive its [`Supervisor`] to a verdict, performing
/// each action it returns; on failure every child still running is killed.
pub(crate) fn supervise_world(
    w: &WorldSpec,
    kills: &[(usize, u64)],
    budget: Option<&mut u32>,
) -> Result<SuperviseReport, ParentError> {
    if let Some(ck) = &w.ckpt {
        fs::create_dir_all(&ck.dir).map_err(|e| format!("{}: {e}", ck.dir.display()))?;
    }
    let mut children: Vec<Option<Child>> = Vec::with_capacity(w.pgrid.size());
    let sup = Supervisor::new(w.pgrid.size(), budget, w.run.timeout);
    let result = (|| {
        for rank in 0..w.pgrid.size() {
            children.push(Some(spawn_rank(w, rank, 0, kills)?));
        }
        drive(w, &mut children, sup)
    })();
    if result.is_err() {
        for c in children.iter_mut().flatten() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
    result
}

/// The poll loop: every pass feeds the clock, each child that exited (a
/// failed one after its newest durable step, the repair's baseline), and
/// the durable progress of every rank under repair.
fn drive(
    w: &WorldSpec,
    children: &mut [Option<Child>],
    mut sup: Supervisor,
) -> Result<SuperviseReport, ParentError> {
    let durable = |rank| {
        let step = latest_checkpoint_step(&w.ckpt.as_ref()?.dir, rank).ok()??;
        Some(Event::Durable { rank, step })
    };
    let started = Instant::now();
    loop {
        let mut events = vec![Event::Tick {
            elapsed: started.elapsed(),
        }];
        for (rank, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            let status = match child.try_wait() {
                Ok(None) => continue,
                Ok(Some(status)) => status,
                Err(e) => return Err(format!("waiting for rank {rank}: {e}").into()),
            };
            *slot = None;
            if !status.success() {
                events.extend(durable(rank));
            }
            events.push(Event::Exited {
                rank,
                success: status.success(),
                status: status.to_string(),
            });
        }
        events.extend(sup.repairing().into_iter().filter_map(durable));
        for event in events {
            let died = match &event {
                Event::Exited { status, .. } => status.clone(),
                _ => String::new(),
            };
            match sup.on(event) {
                None => {}
                Some(Action::Respawn { rank, epoch }) => {
                    obs::Registry::global().counter("resilience.respawns").inc();
                    eprintln!(
                        "agcm-run: rank {rank} died ({died}); respawning from checkpoint at \
                         epoch {epoch} ({} respawn(s) left)",
                        sup.left()
                    );
                    // the kill injection applies to the first incarnation
                    // only — the replacement gets a clean environment
                    children[rank] = Some(spawn_rank(w, rank, epoch, &[])?);
                }
                Some(Action::Fail(e)) => return Err(e),
                Some(Action::Done(report)) => return Ok(report),
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------------
// The phase runner
// ---------------------------------------------------------------------------

/// Run phase `i` of `plan`: hand off from phase `i − 1` (re-decompose its
/// checkpoints onto this world and certify the new schedule before any
/// stepping resumes), supervise the world under the respawn policy
/// `budget` (`None`: classic), and verify what its workers left behind.  `label` names
/// the phase in the lines it prints.
pub(crate) fn run_phase(
    plan: &Plan,
    i: usize,
    run: &Launch,
    endpoint: Endpoint,
    interval: u64,
    budget: Option<&mut u32>,
    label: &str,
) -> Result<SuperviseReport, ParentError> {
    let cfg = run_config();
    let grid = |p: usize| ProcessGrid::yz(p / run.pz, run.pz).map_err(|e| e.to_string());
    let ph = &plan.phases[i];
    let pgrid = grid(ph.p)?;
    if let Some(prev) = i.checked_sub(1) {
        let (from, to) = (plan.phases[prev].p, ph.p);
        let dirs = (plan.ckpt_dir(&run.out, prev), plan.ckpt_dir(&run.out, i));
        let step = redistribute(&dirs.0, &dirs.1, grid(from)?, pgrid, cfg.extents())
            .map_err(|e| format!("{label}: re-decomposing {from}->{to}: {e}"))?;
        // the gate: the re-decomposed schedule must certify (deadlock-free,
        // count-exact, flow-clean) before any stepping resumes
        let cert = certify_yz(&cfg, pgrid).map_err(|e| {
            ParentError::VerificationMismatch(format!("certifying the p={to} schedule: {e}"))
        })?;
        println!(
            "agcm-run: {label}: checkpoints re-decomposed {from}->{to} at step {step}; \
             p={to} schedule certified (alg1: {} exchanges, {} collectives per step)",
            cert.alg1.exchanges, cert.alg1.collectives
        );
    }
    let w = WorldSpec {
        run,
        endpoint,
        pgrid,
        steps: ph.end as usize,
        ckpt: budget.is_some().then(|| Ckpt {
            dir: plan.ckpt_dir(&run.out, i),
            interval,
            keep: plan.keep(i),
        }),
        fault: plan.fault.as_ref(),
    };
    let report = supervise_world(&w, &ph.kills, budget)?;
    verify_world(&w, &cfg, label)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_secs(60);

    fn tick(ms: u64) -> Event {
        Event::Tick {
            elapsed: Duration::from_millis(ms),
        }
    }

    fn exit(rank: usize, success: bool) -> Event {
        let status = if success {
            "exit status: 0"
        } else {
            "signal: 6"
        };
        Event::Exited {
            rank,
            success,
            status: status.into(),
        }
    }

    fn durable(rank: usize, step: u64) -> Event {
        Event::Durable { rank, step }
    }

    /// Feed `events` in order; the actions they produced, `None`s dropped.
    fn feed(sup: &mut Supervisor, events: Vec<Event>) -> Vec<Action> {
        events.into_iter().filter_map(|e| sup.on(e)).collect()
    }

    fn respawned(actions: &[Action]) -> Vec<(usize, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Respawn { rank, epoch } => Some((*rank, *epoch)),
                _ => None,
            })
            .collect()
    }

    fn report(actions: Vec<Action>) -> SuperviseReport {
        match actions.into_iter().last() {
            Some(Action::Done(r)) => r,
            other => panic!("want Done, got {other:?}"),
        }
    }

    /// The shared-budget regression without processes: one budget of 1
    /// lent to two consecutive phases fails the second death with exit 4.
    #[test]
    fn one_budget_spans_phases() {
        let mut budget = 1u32;
        let mut phase1 = Supervisor::new(2, Some(&mut budget), T);
        let acts = feed(&mut phase1, vec![tick(0), exit(0, false), tick(5)]);
        assert_eq!(respawned(&acts), [(0, 1)]);
        feed(&mut phase1, vec![exit(0, true), exit(1, true)]);
        assert_eq!(budget, 0);
        let mut phase2 = Supervisor::new(2, Some(&mut budget), T);
        let acts = feed(&mut phase2, vec![tick(0), exit(1, false)]);
        match &acts[..] {
            [Action::Fail(e @ ParentError::RespawnExhausted(m))] => {
                assert_eq!(e.exit_code(), 4);
                assert!(m.contains("rank 1 died"), "{m}");
            }
            other => panic!("want RespawnExhausted, got {other:?}"),
        }
    }

    /// A repair closes at the first durable step past the victim's
    /// baseline (not at it), or at the replacement's clean exit; downtime
    /// runs from detection to that event.
    #[test]
    fn repair_closes_past_the_baseline_or_at_clean_exit() {
        let mut budget = 2u32;
        let mut sup = Supervisor::new(3, Some(&mut budget), T);
        let acts = feed(
            &mut sup,
            vec![
                tick(10),
                durable(1, 4), // the victim's newest durable step
                exit(1, false),
                tick(20),
                exit(2, false), // never wrote a checkpoint
            ],
        );
        assert_eq!(respawned(&acts), [(1, 1), (2, 2)]);
        assert_eq!(sup.repairing(), [1, 2]);
        feed(&mut sup, vec![tick(30), durable(1, 4), tick(45)]);
        assert_eq!(
            sup.repairing(),
            [1, 2],
            "step 4 is the baseline, not past it"
        );
        feed(&mut sup, vec![durable(1, 5), tick(70), exit(2, true)]);
        assert!(sup.repairing().is_empty());
        let r = report(feed(&mut sup, vec![tick(90), exit(0, true), exit(1, true)]));
        let got: Vec<_> = r
            .incidents
            .iter()
            .map(|x| (x.rank, x.epoch, x.downtime))
            .collect();
        let ms = Duration::from_millis;
        assert_eq!(got, [(1, 1, ms(35)), (2, 2, ms(50))]);
        assert_eq!(r.wall, ms(90));
    }

    /// Classic policy: the first failed exit fails the world with exit 1,
    /// naming the rank, and nothing is respawned.
    #[test]
    fn classic_failure_names_the_rank() {
        let mut sup = Supervisor::new(2, None, T);
        let acts = feed(&mut sup, vec![tick(0), exit(1, false)]);
        match &acts[..] {
            [Action::Fail(e @ ParentError::Other(m))] => {
                assert_eq!(e.exit_code(), 1);
                assert!(m.contains("rank 1"), "{m}");
            }
            other => panic!("want Fail(Other), got {other:?}"),
        }
        assert_eq!(sup.left(), 0);
    }

    #[test]
    fn tick_past_the_timeout_fails() {
        let mut budget = 3u32;
        let mut sup = Supervisor::new(2, Some(&mut budget), Duration::from_secs(1));
        assert!(feed(&mut sup, vec![tick(999), exit(0, true)]).is_empty());
        match &feed(&mut sup, vec![tick(1000)])[..] {
            [Action::Fail(ParentError::Other(m))] => {
                assert!(m.contains("did not finish within"), "{m}");
                assert!(m.contains("1 straggler"), "{m}");
            }
            other => panic!("want a timeout, got {other:?}"),
        }
    }

    /// Clean exits of every rank end in `Done`, incidents in order.
    #[test]
    fn all_clean_exits_are_done_with_incidents_in_order() {
        let mut sup = Supervisor::new(2, None, T);
        let r = report(feed(&mut sup, vec![tick(7), exit(1, true), exit(0, true)]));
        assert!(r.incidents.is_empty());
        assert_eq!(r.wall, Duration::from_millis(7));

        let mut budget = 5u32;
        let mut sup = Supervisor::new(2, Some(&mut budget), T);
        let acts = feed(&mut sup, vec![tick(1), exit(1, false), exit(0, false)]);
        assert_eq!(respawned(&acts), [(1, 1), (0, 2)]);
        let r = report(feed(&mut sup, vec![tick(2), exit(0, true), exit(1, true)]));
        let order: Vec<_> = r.incidents.iter().map(|x| (x.rank, x.epoch)).collect();
        assert_eq!(order, [(1, 1), (0, 2)]);
    }

    fn plan(sizes: &[usize]) -> Plan {
        let phases = sizes
            .iter()
            .map(|&p| Phase {
                p,
                start: 0,
                end: 0,
                kills: Vec::new(),
            })
            .collect();
        Plan {
            phases,
            fault: None,
        }
    }

    /// `keep` reproduces the three rules it replaced: `p + 1` for one
    /// world, `max(p1, p2) + 1` on both sides of a resize, and the soak's
    /// maximum over each phase's neighbours.
    #[test]
    fn keep_is_every_earlier_retention_rule() {
        for p in [1usize, 2, 4, 8] {
            assert_eq!(plan(&[p]).keep(0), p + 1);
        }
        for (p1, p2) in [(4usize, 2usize), (2, 4), (4, 4), (8, 4)] {
            let pl = plan(&[p1, p2]);
            assert_eq!((pl.keep(0), pl.keep(1)), (p1.max(p2) + 1, p1.max(p2) + 1));
        }
        for sizes in [&[8usize, 4, 8][..], &[4, 2], &[2, 4, 2], &[8, 4, 8, 4, 2]] {
            let pl = plan(sizes);
            for i in 0..sizes.len() {
                let soak = sizes
                    .iter()
                    .take(i + 2)
                    .skip(i.saturating_sub(1))
                    .map(|&n| resize_retention(sizes[i], n))
                    .max()
                    .unwrap_or(sizes[i] + 1);
                assert_eq!(pl.keep(i), soak, "{sizes:?} phase {i}");
            }
        }
    }
}
