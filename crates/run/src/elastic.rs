//! The launcher every `agcm-run` and `agcm-soak` world goes through: a
//! [`Plan`] of fixed-size phases, one phase runner ([`run_phase`]: hand-off,
//! supervise, verify), one pure [`Supervisor`] whose decisions its driver
//! ([`supervise_world`]) performs, and the one worker every rank of every
//! world runs ([`run_rank`]).
//!
//! A world is *classic* or *elastic* only by the respawn policy the parent
//! gives its supervisor: a classic world fails on its first non-zero exit,
//! and only its records carry traffic the parent can check against the
//! static schedule.  The workers are the same in both.  Every worker
//! checkpoints to a durable per-rank file (tmp + rename), and in an elastic
//! world a rank's failed exit ends the whole world (crash-only recovery):
//! the parent kills and reaps the rest and starts the next *generation* of
//! the world at the same endpoint, every rank a fresh process.  Each world
//! starts the same way — cold, resized or restarted: its ranks agree on the
//! newest step every one of them holds durable and restore it, so the
//! completed run is still **bitwise identical** to the serial reference.
//!
//! A planned shrink/grow is the next phase of a plan: [`run_phase`]
//! re-decomposes the previous phase's checkpoints onto the new world
//! ([`agcm_core::redistribute`]) and certifies its schedule
//! ([`agcm_verify::certify_yz`]) before stepping resumes.

use crate::{
    alg_kind, new_model, run_config, set_default_ic, verify_world, write_record, ParentError,
    Worker, TRAFFIC,
};
use agcm_comm::telemetry::{self, CLOCK_ROUNDS};
use agcm_comm::{p2p_only_delta, Communicator, Endpoint, ReduceOp, SocketTransport};
use agcm_core::analysis::CaMode;
use agcm_core::{
    checkpoint_path, latest_checkpoint_step, prune_checkpoints, read_checkpoint, redistribute,
    resize_retention, write_checkpoint, Integrator, ModelConfig,
};
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;
use agcm_obs::dist::{OffsetEstimate, Record};
use agcm_verify::{certify_yz, rank_counts, ScheduleGraph};
use std::fs;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Patience for one receive of a world's communication, the start-of-world
/// agreement included.  Generous against a busy CI box, but bounded: a
/// peer that died between two frames leaves no poison, and a rank must not
/// outwait the parent that ends its world.
const STEP_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a world that lost a rank is left running for the other ranks
/// handed a kill to reach theirs: a rank on its way there gets to it in
/// far less, and one blocked on the dead rank never does.
const KILL_GRACE: Duration = Duration::from_secs(1);

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
    /// The kills injected into this phase, in step order: the kills at one
    /// step go to one generation, and each is handed to every generation of
    /// the world until its rank's abort is seen.
    pub kills: Vec<Kill>,
}

/// One kill: rank `rank` dies at its `send`-th send (0-based) in a world
/// restored at step `step`.  Such a world's first [`Kill::agreement_sends`]
/// sends are its start-of-world agreement, and the rest are the exchanges
/// of step `step + 1` and on, a fixed count a step; so `send` below that
/// count lands in the agreement of the generation the kill is handed to
/// (`step` then only orders it), and `agreement_sends` itself is the first
/// send after step `step` completes (`--kill R:S`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    /// The rank that dies.
    pub rank: usize,
    /// The step whose restored world the kill's send counts in.
    pub step: u64,
    /// The send it dies at.
    pub send: u64,
}

impl Kill {
    /// The sends of a `p`-rank world's start-of-world agreement, each rank's:
    /// the ring allreduce's `2(p − 1)`.
    pub(crate) fn agreement_sends(p: usize) -> u64 {
        2 * (p as u64).saturating_sub(1)
    }

    /// Whether the kill lands in a `p`-rank world's agreement.
    pub(crate) fn in_agreement(&self, p: usize) -> bool {
        self.send < Kill::agreement_sends(p)
    }

    /// The index on its rank's fault clock (sends since its world started)
    /// at which the kill fires in a world restored at step `restore`, whose
    /// steps send `per_step[rank]` messages each; `None` when the world
    /// restores past the kill's step.
    pub(crate) fn event(&self, p: usize, per_step: &[u64], restore: u64) -> Option<u64> {
        if self.in_agreement(p) {
            return Some(self.send);
        }
        Some(self.send + self.step.checked_sub(restore)? * per_step[self.rank])
    }
}

/// Each rank's sends a step in the y-split `p`-rank world of `alg`, as every
/// elastic one is: the static schedule's messages, every send of such a
/// step, since it runs no collective.
pub(crate) fn sends_per_step(cfg: &ModelConfig, alg: u32, p: usize) -> Result<Vec<u64>, String> {
    let pgrid = ProcessGrid::yz(p, 1).map_err(|e| e.to_string())?;
    let graph = ScheduleGraph::extract(cfg, alg_kind(alg)?, CaMode::Grouped, pgrid)?;
    Ok(rank_counts(&graph).iter().map(|c| c.send_msgs).collect())
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
    /// world and a step the phase runs, and a world of one rank takes none,
    /// since it sends nothing for a kill to land at.
    pub fn check(&self) -> Result<(), String> {
        for ph in &self.phases {
            for &Kill { rank, step, .. } in &ph.kills {
                let (p, end) = (ph.p, ph.end);
                let why = if rank >= p {
                    format!("rank {rank} is outside the world of {p} ranks of its phase")
                } else if step >= end {
                    format!("no step follows step {step}: the run ends at step {end}")
                } else if p == 1 {
                    "a world of one rank sends nothing for a kill to land at".to_string()
                } else {
                    continue;
                };
                return Err(format!("--kill {rank}:{step} is refused: {why}"));
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

/// Where and how often a world's workers write durable checkpoints, the
/// final one among them, and leave their records: the parent ships it in
/// `AGCM_CKPT_*`.
pub(crate) struct Ckpt {
    /// The phase's checkpoint directory ([`Plan::ckpt_dir`]).
    pub dir: PathBuf,
    /// Steady-state cadence (steps between durable writes).
    pub interval: u64,
    /// Files each rank retains ([`Plan::keep`]).
    pub keep: usize,
}

/// One incarnation of one rank of any world: under tracing the clock
/// handshake, then the start-of-world agreement on the restore step,
/// restore or cold-start, step with durable checkpoints into `w.ckpt.dir` —
/// a fresh world measuring its steady step for the parent — and on
/// completion the final checkpoint (the one the parent assembles the
/// world's state from) and the record.  Any error ends the incarnation
/// (exit 1): a world that loses a rank is ended and restarted whole by the
/// parent, whose respawn policy decides.
pub(crate) fn run_rank(w: &Worker, transport: SocketTransport) -> Result<(), String> {
    let (rank, ck) = (w.rank, &w.ckpt);
    let failed = |what: &str, e: &dyn std::fmt::Display| format!("rank {rank}: {what}: {e}");
    let mut comm = Communicator::on_transport(Rc::new(transport));
    let offset = if w.tracing {
        // the clock handshake rides a split control communicator, so its
        // reserved tags never meet model traffic, and runs before the model
        // is built, outside every measured bracket
        let ctl = comm
            .split(0, rank)
            .map_err(|e| failed("control communicator", &e))?;
        let estimate = if rank == 0 {
            telemetry::clock_serve(&ctl, CLOCK_ROUNDS).map(|()| OffsetEstimate::default())
        } else {
            telemetry::clock_align(&ctl, CLOCK_ROUNDS)
        };
        Some(estimate.map_err(|e| failed("clock handshake", &e))?)
    } else {
        None
    };
    let (mut model, restored) = open_world(w.alg, w.pgrid, &ck.dir, &mut comm)?;

    // recovery burst: in a restarted world every rank checkpoints every
    // step through one skew window past the agreed restore point, so the
    // durable progress overtakes the dead rank's quickly even when the
    // steady-state interval is sparse.  The rule is a pure function of
    // (generation, agreed step), both identical across the world, so the
    // per-rank checkpoint step sets stay aligned and the next agreement's
    // minimum always names a file every rank holds.
    let burst_end = (w.generation > 0).then(|| restored.unwrap_or(0) + w.pgrid.size() as u64);
    // a fresh world measures its steady step — the second, the one the
    // static schedule describes — with the collective event log on only
    // inside that bracket, and times the steady steps after it; checkpoint
    // writes fall outside both.  A socket transport always has wire stats.
    let measure = restored.is_none() && w.generation == 0;
    let wire = || comm.wire_stats().unwrap_or_default();
    let (mut bracket, mut step_ns) = (None, Vec::new());
    while model.steps < w.steps {
        let s = model.steps as u64;
        if s.is_multiple_of(ck.interval) || burst_end.is_some_and(|b| s <= b) {
            durable_checkpoint(&model, ck, rank).map_err(|e| format!("rank {rank}: {e}"))?;
        }
        if measure && s == 1 {
            comm.stats().set_event_logging(true);
            bracket = Some((comm.stats().snapshot(), wire()));
        }
        let t0 = Instant::now();
        model.step(Some(&comm)).map_err(|e| failed("step", &e))?;
        if measure && s > 1 {
            step_ns.push(t0.elapsed().as_nanos() as u64);
        }
        if let Some((s0, w0)) = bracket.take() {
            comm.stats().set_event_logging(false);
            let delta = comm.stats().snapshot().delta(&s0);
            let events = comm.stats().collective_events();
            let (pure, wire) = (p2p_only_delta(&delta, &events), wire().delta(&w0));
            let measured = [
                pure.p2p_sends,
                pure.p2p_send_elems,
                events.len() as u64,
                delta.p2p_sends,
                delta.p2p_send_elems,
                wire.msgs_sent,
                wire.bytes_sent,
            ];
            for (name, v) in TRAFFIC.into_iter().zip(measured) {
                obs::Registry::global().counter(name).add(v);
            }
        }
    }
    if measure {
        step_ns.sort_unstable();
        let p50 = step_ns.get(step_ns.len() / 2).copied().unwrap_or(0);
        obs::Registry::global().counter(TRAFFIC[7]).add(p50);
    }
    model
        .finish(Some(&comm))
        .map_err(|e| failed("finish", &e))?;
    // the completed state must be durable too: the parent assembles the
    // world's state from exactly this step's checkpoints, and a planned
    // resize re-decomposes them
    durable_checkpoint(&model, ck, rank).map_err(|e| format!("rank {rank}: {e}"))?;
    // the record, spans drained into it, named by this incarnation's
    // generation: the parent's verdict reads it, so failing to write it
    // fails the worker
    let trace = offset.map(|offset| {
        obs::disable();
        (offset, obs::drain())
    });
    let metrics = obs::Registry::global().snapshot();
    write_record(&ck.dir, rank, w.generation, &Record { metrics, trace })
        .map_err(|e| failed("record", &e))
}

/// The start of every world — cold, resized or restarted: build this rank's
/// model of `alg` on `pgrid` and agree with every other rank on the newest
/// step EVERY rank holds durable in `dir` (none: the initial condition), so
/// that the continued run is the bitwise continuation of a state that
/// actually existed.  Its spans are stamped step 0, outside the measured
/// step.  The model at the agreed step, and the step when it was restored.
fn open_world(
    alg: u32,
    pgrid: ProcessGrid,
    dir: &Path,
    comm: &mut Communicator,
) -> Result<(Integrator, Option<u64>), String> {
    let rank = comm.rank();
    let failed = |what: &str, e: &dyn std::fmt::Display| format!("rank {rank}: {what}: {e}");
    let mut model = new_model(alg, &run_config(), pgrid, comm).map_err(|e| failed("model", &e))?;
    comm.set_timeout(STEP_TIMEOUT);
    let mine = latest_checkpoint_step(dir, rank).map_err(|e| failed("listing checkpoints", &e))?;
    let mut agreed = [mine.map_or(-1.0, |s| s as f64)];
    comm.allreduce(ReduceOp::Min, &mut agreed)
        .map_err(|e| failed("agreeing on the restore step", &e))?;
    if agreed[0] < 0.0 {
        set_default_ic(&mut model);
        return Ok((model, None));
    }
    let step = agreed[0] as u64;
    let snap = read_checkpoint(&checkpoint_path(dir, rank, step))
        .map_err(|e| failed(&format!("reading checkpoint at step {step}"), &e))?;
    model.restore(&snap);
    Ok((model, Some(step)))
}

/// The step the next world of `p` ranks at `dir` restores: the minimum its
/// workers' start-of-world agreement computes from the same files, 0 when a
/// rank holds none.
fn restore_step(dir: &Path, p: usize) -> Result<u64, String> {
    (0..p).try_fold(u64::MAX, |min, rank| {
        let step =
            latest_checkpoint_step(dir, rank).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(min.min(step.unwrap_or(0)))
    })
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
    /// End the world and start its generation `generation` from the
    /// checkpoint set: `rank`'s failed exit ended it.
    Restart { rank: usize, generation: u64 },
    /// Kill the world and fail the run.
    Fail(ParentError),
    /// Every rank exited cleanly.
    Done(SuperviseReport),
}

/// One repaired failure: which rank died, the generation of the world
/// started after it, and the measured repair time — from death detection
/// until that rank's durable progress in the restarted world passes its
/// last checkpointed step (the world has provably re-achieved what it lost)
/// or it exits cleanly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Incident {
    pub rank: usize,
    pub generation: u64,
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
    /// Restarts left, one counter for every phase of a run; `None` is the
    /// classic policy: the first failed exit fails the world.
    budget: Option<&'a mut u32>,
    timeout: Duration,
    now: Duration,
    /// World size: every generation starts all of it.
    p: usize,
    generation: u64,
    /// Ranks of the current generation that have not exited cleanly yet.
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
            p,
            generation: 0,
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

    /// Restarts left (none under the classic policy).
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
                    self.generation += 1;
                    self.running = self.p;
                    self.open.push(Repair {
                        incident: self.incidents.len(),
                        rank,
                        baseline: self.durable[rank],
                        detected: self.now,
                    });
                    self.incidents.push(Incident {
                        rank,
                        generation: self.generation,
                        downtime: Duration::ZERO,
                    });
                    Action::Restart {
                        rank,
                        generation: self.generation,
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
    /// Scratch root: every phase's checkpoint directory.
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
    /// Where every worker leaves its checkpoints and its records.
    pub ckpt: Ckpt,
    pub fault: Option<&'a (String, u64)>,
}

/// Start generation `generation` of `w` into `children`, every rank a fresh
/// process — the one place a worker process is created.  `crash` is the
/// `crash` rules of the kills handed to this generation; they go ahead of the
/// plan's fault layer (or of the parent's own `AGCM_FAULT_SPEC`), since the
/// first rule that fires wins.
fn spawn_world(
    w: &WorldSpec,
    children: &mut Vec<Option<Child>>,
    generation: u64,
    crash: Vec<String>,
) -> Result<(), ParentError> {
    let layer = match w.fault {
        Some((spec, _)) => Some(spec.clone()),
        None => std::env::var("AGCM_FAULT_SPEC").ok(),
    };
    let spec: Vec<String> = crash.into_iter().chain(layer).collect();
    children.clear();
    for rank in 0..w.pgrid.size() {
        let mut cmd = Command::new(&w.run.exe);
        cmd.env("AGCM_RANK", rank.to_string())
            .env("AGCM_WORLD_SIZE", w.pgrid.size().to_string())
            .env("AGCM_ENDPOINT", w.endpoint.to_string())
            .env("AGCM_EPOCH", generation.to_string())
            .env("AGCM_RUN_ALG", w.run.alg.to_string())
            .env("AGCM_RUN_STEPS", w.steps.to_string())
            .env("AGCM_RUN_PY", w.pgrid.py().to_string())
            .env("AGCM_RUN_PZ", w.pgrid.pz().to_string())
            .env("AGCM_CKPT_DIR", &w.ckpt.dir)
            .env("AGCM_CKPT_INTERVAL", w.ckpt.interval.to_string())
            .env("AGCM_CKPT_KEEP", w.ckpt.keep.to_string())
            .stdin(Stdio::null());
        if w.run.trace.is_some() {
            cmd.env("AGCM_RUN_TRACE", "1");
        }
        if !spec.is_empty() {
            cmd.env("AGCM_FAULT_SPEC", spec.join(";"));
        }
        if let Some((_, seed)) = w.fault {
            cmd.env("AGCM_FAULT_SEED", seed.to_string());
        }
        let spawned = cmd
            .spawn()
            .map_err(|e| format!("spawning rank {rank}: {e}"));
        children.push(Some(spawned?));
    }
    Ok(())
}

/// Whether a worker exited the way a kill makes it: `abort()`.
fn aborted(status: &ExitStatus) -> bool {
    const SIGABRT: i32 = 6;
    status.signal() == Some(SIGABRT)
}

/// Kill and reap every child still running, once the ranks `handed` a kill
/// have had [`KILL_GRACE`] to reach it, so that overlapping failures end
/// one world; the ranks among them that had already aborted on their own.
fn end_world(children: &mut [Option<Child>], handed: &[Kill]) -> Vec<usize> {
    let deadline = Instant::now() + KILL_GRACE;
    for k in handed {
        let running =
            |c: &mut Option<Child>| matches!(c.as_mut().map(Child::try_wait), Some(Ok(None)));
        while Instant::now() < deadline && running(&mut children[k.rank]) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut gone = Vec::new();
    for (rank, slot) in children.iter_mut().enumerate() {
        let Some(mut child) = slot.take() else {
            continue;
        };
        let _ = child.kill();
        if child.wait().is_ok_and(|s| aborted(&s)) {
            gone.push(rank);
        }
    }
    gone
}

/// Launch one world and drive its [`Supervisor`] to a verdict, performing
/// each action it returns; on failure every child still running is killed.
/// `kills` fire in step order, the kills at one step in one generation;
/// `per_step` is each rank's sends a step, which place them.
pub(crate) fn supervise_world(
    w: &WorldSpec,
    kills: &[Kill],
    per_step: &[u64],
    budget: Option<&mut u32>,
) -> Result<SuperviseReport, ParentError> {
    let dir = &w.ckpt.dir;
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut children = Vec::new();
    let sup = Supervisor::new(w.pgrid.size(), budget, w.run.timeout);
    let result = drive(w, &mut children, kills, per_step, sup);
    if result.is_err() {
        end_world(&mut children, &[]);
    }
    result
}

/// Take the kills the next generation is handed out of `pending` (in step
/// order): the first one's step's, one a rank.
fn hand_out(pending: &mut Vec<Kill>) -> Vec<Kill> {
    let (mut handed, step) = (Vec::<Kill>::new(), pending.first().map(|k| k.step));
    pending.retain(|k| {
        let take = Some(k.step) == step && handed.iter().all(|h| h.rank != k.rank);
        if take {
            handed.push(*k);
        }
        !take
    });
    handed
}

/// The `crash` rules of `kills` in the next generation of `w`: each at the
/// send its rank reaches it at in a world restored where that generation
/// restores.
fn crash_rules(w: &WorldSpec, kills: &[Kill], per_step: &[u64]) -> Result<Vec<String>, String> {
    let (p, dir) = (w.pgrid.size(), &w.ckpt.dir);
    let restore = restore_step(dir, p)?;
    let rule = |k: &Kill| match k.event(p, per_step, restore) {
        Some(event) => Ok(format!("crash:rank={},event={event}", k.rank)),
        None => Err(format!("{k:?} lies behind the restore step {restore}")),
    };
    kills.iter().map(rule).collect()
}

/// The poll loop: every pass feeds the clock, each child that exited (a
/// failed one after its newest durable step, the repair's baseline), and
/// the durable progress of every rank under repair.  A restart ends the
/// pass: its other events describe the world it ended.  A handed kill whose
/// rank's abort is not seen goes back first in line.
fn drive(
    w: &WorldSpec,
    children: &mut Vec<Option<Child>>,
    kills: &[Kill],
    per_step: &[u64],
    mut sup: Supervisor,
) -> Result<SuperviseReport, ParentError> {
    let mut pending = kills.to_vec();
    let mut handed = hand_out(&mut pending);
    spawn_world(w, children, 0, crash_rules(w, &handed, per_step)?)?;
    let durable = |rank| {
        let step = latest_checkpoint_step(&w.ckpt.dir, rank).ok()??;
        Some(Event::Durable { rank, step })
    };
    let started = Instant::now();
    loop {
        let mut exits = Vec::new();
        for (rank, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            match child.try_wait() {
                Ok(None) => {}
                Ok(Some(status)) => {
                    *slot = None;
                    exits.push((rank, status));
                }
                Err(e) => return Err(format!("waiting for rank {rank}: {e}").into()),
            }
        }
        // a worker's error exit (1) is most often its report of a peer's
        // death: the deaths it reports go first
        exits.sort_by_key(|(_, status)| status.code() == Some(1));
        let mut events = vec![Event::Tick {
            elapsed: started.elapsed(),
        }];
        let mut gone = Vec::new();
        for (rank, status) in exits {
            if aborted(&status) {
                gone.push(rank);
            }
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
                Some(Action::Restart { rank, generation }) => {
                    eprintln!(
                        "agcm-run: rank {rank} died ({died}); restarting all {} ranks from the \
                         checkpoint set as generation {generation} ({} restart(s) left)",
                        children.len(),
                        sup.left()
                    );
                    gone.extend(end_world(children, &handed));
                    handed.retain(|k| !gone.contains(&k.rank));
                    pending.splice(0..0, handed);
                    handed = hand_out(&mut pending);
                    let crash = crash_rules(w, &handed, per_step)?;
                    spawn_world(w, children, generation, crash)?;
                    break;
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
        ckpt: Ckpt {
            dir: plan.ckpt_dir(&run.out, i),
            interval,
            keep: plan.keep(i),
        },
        fault: plan.fault.as_ref(),
    };
    let classic = budget.is_none();
    let per_step = match ph.kills.is_empty() {
        true => Vec::new(),
        false => sends_per_step(&cfg, run.alg, ph.p)?,
    };
    let report = supervise_world(&w, &ph.kills, &per_step, budget)?;
    verify_world(&w, &cfg, label, classic)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_comm::fault::FaultPlan;
    use agcm_comm::Universe;

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

    fn restarted(actions: &[Action]) -> Vec<(usize, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Restart { rank, generation } => Some((*rank, *generation)),
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
        assert_eq!(restarted(&acts), [(0, 1)]);
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
        assert_eq!(restarted(&acts), [(1, 1), (2, 2)]);
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
            .map(|x| (x.rank, x.generation, x.downtime))
            .collect();
        let ms = Duration::from_millis;
        assert_eq!(got, [(1, 1, ms(35)), (2, 2, ms(50))]);
        assert_eq!(r.wall, ms(90));
    }

    /// A failed exit ends the world: the supervisor restarts every rank,
    /// so the ranks that had already exited cleanly run again and the world
    /// is done only when all `p` of the new generation are.
    #[test]
    fn a_failed_exit_restarts_the_whole_world() {
        let mut budget = 3u32;
        let mut sup = Supervisor::new(3, Some(&mut budget), T);
        let acts = feed(&mut sup, vec![tick(0), exit(0, true), exit(2, true)]);
        assert!(acts.is_empty());
        let acts = feed(&mut sup, vec![exit(1, false)]);
        assert_eq!(restarted(&acts), [(1, 1)]);
        assert!(feed(&mut sup, vec![exit(0, true), exit(2, true)]).is_empty());
        report(feed(&mut sup, vec![exit(1, true)]));
    }

    /// The budget counts restarts: each failed exit spends one, and the
    /// first one past it is exit 4.
    #[test]
    fn the_budget_drops_once_per_restart() {
        let mut budget = 2u32;
        let mut sup = Supervisor::new(4, Some(&mut budget), T);
        let acts = feed(&mut sup, vec![tick(0), exit(3, false)]);
        assert_eq!((restarted(&acts), sup.left()), (vec![(3, 1)], 1));
        let acts = feed(&mut sup, vec![tick(9), exit(0, false)]);
        assert_eq!((restarted(&acts), sup.left()), (vec![(0, 2)], 0));
        match &feed(&mut sup, vec![exit(2, false)])[..] {
            [Action::Fail(e @ ParentError::RespawnExhausted(_))] => assert_eq!(e.exit_code(), 4),
            other => panic!("want RespawnExhausted, got {other:?}"),
        }
        assert_eq!(budget, 0);
    }

    /// Classic policy: the first failed exit fails the world with exit 1,
    /// naming the rank, and nothing is restarted — even after ranks that
    /// exited cleanly.
    #[test]
    fn classic_failure_names_the_rank() {
        let mut sup = Supervisor::new(2, None, T);
        let acts = feed(&mut sup, vec![tick(0), exit(0, true), exit(1, false)]);
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
        assert_eq!(restarted(&acts), [(1, 1), (0, 2)]);
        let r = report(feed(&mut sup, vec![tick(2), exit(0, true), exit(1, true)]));
        let order: Vec<_> = r.incidents.iter().map(|x| (x.rank, x.generation)).collect();
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

    /// A kill's translation to its rank's send index, pinned against the
    /// runtime's fault log: in in-process worlds of both algorithms, cold
    /// and restored, each rank opens the world as a worker does and steps
    /// under a `stall` that fires at every send, so that its log is its
    /// fault clock.  The agreement's sends are the log's first, on
    /// collective tags, and `--kill R:S` lands where step `S` left the
    /// clock.  The parent's restore step is the one the workers agree on.
    #[test]
    fn a_kill_fires_at_the_send_its_translation_names() {
        let (cfg, p, pgrid) = (run_config(), 4, ProcessGrid::yz(4, 1).expect("grid"));
        let plan = FaultPlan::parse(1, "stall:prob=1,ms=0").expect("spec");
        for alg in [1, 2] {
            let dir = std::env::temp_dir().join(format!("agcm_kills_{}_{alg}", std::process::id()));
            let (per_step, a) = (sends_per_step(&cfg, alg, p).expect("plan"), 2 * p - 2);
            let send = a as u64; // `--kill R:S`'s
            fs::create_dir_all(&dir).expect("scratch dir");
            for (restore, steps) in [(0, 2), (2, 4)] {
                assert_eq!(restore_step(&dir, p), Ok(restore));
                let worlds = Universe::run(p, |comm| {
                    comm.install_faults(plan.clone());
                    let (mut model, _) = open_world(alg, pgrid, &dir, comm).expect("open");
                    let mut clocks = vec![comm.fault_log().len() as u64];
                    while model.steps < steps {
                        model.step(Some(comm)).expect("step");
                        clocks.push(comm.fault_log().len() as u64);
                    }
                    // the next world restores here
                    let ckpt = checkpoint_path(&dir, comm.rank(), steps as u64);
                    write_checkpoint(&ckpt, &model.capture()).expect("checkpoint");
                    (clocks, comm.fault_log())
                });
                for (rank, (clocks, log)) in worlds.into_iter().enumerate() {
                    for (i, e) in log.iter().enumerate() {
                        assert_eq!((e.event, e.tag & 0x8000_0000 != 0), (i as u64, i < a));
                    }
                    for (step, clock) in (restore..).zip(clocks) {
                        let kill = Kill { rank, step, send };
                        assert_eq!(kill.event(p, &per_step, restore), Some(clock), "alg{alg}");
                    }
                }
            }
            fs::remove_dir_all(&dir).ok();
        }
    }
}
