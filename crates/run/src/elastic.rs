//! Elastic self-healing worlds: supervised rank respawn, epoch-tagged mesh
//! rewiring, and checkpoint re-decomposition.
//!
//! In elastic mode the parent is a *supervisor*: every worker checkpoints
//! each step to a durable per-rank file (tmp + rename), and when a rank's
//! process dies — detected twice, as a child exit in the parent and as
//! poison on every surviving peer's connection — the parent respawns it
//! from the latest checkpoint while the survivors park in a recovery
//! barrier and rewire the socket mesh to the next epoch.  The epoch word in
//! every frame (and in the reconnect hello) is what makes this safe: stale
//! in-flight frames of the dead generation are dropped on receive, frames
//! from a fast-recovering peer are parked until the local epoch catches up,
//! and the whole world rolls back in lockstep to the newest step every rank
//! holds durable — so the completed run is still **bitwise identical** to
//! the serial reference.
//!
//! Planned shrink/grow rides the same machinery: `--resize P2` runs the
//! first half of the steps at `--ranks`, re-decomposes the checkpointed
//! Y-Z mesh onto `P2` ranks ([`agcm_core::redistribute`]), certifies the
//! re-decomposed schedule ([`agcm_verify::certify_yz`]) before stepping
//! resumes, and finishes at `P2` — both halves verified bitwise.
//!
//! The elastic verifier is bitwise-only: replayed (rolled-back) steps send
//! real frames, so the classic measured-traffic bracket and wire identity
//! do not hold under failure injection and are deliberately out of scope
//! here (the fault-free classic mode keeps certifying them).

use crate::{
    new_model, read_state, req_env, run_config, serial_reference, set_default_ic,
    states_bitwise_equal, write_state, ParentError, RunOpts,
};
use agcm_comm::{
    AllreduceAlgo, CommError, Communicator, Endpoint, ReduceOp, SocketTransport, Transport,
};
use agcm_core::serial::Iteration;
use agcm_core::{
    checkpoint_path, latest_checkpoint_step, prune_checkpoints, read_checkpoint, redistribute,
    resize_retention, write_checkpoint, Integrator, ModelConfig,
};
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;
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
// Worker
// ---------------------------------------------------------------------------

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

/// One rank of a supervised world: integrate with per-step durable
/// checkpoints, and on peer death rewire the mesh to the next epoch and
/// re-enter from the agreed restore point.  Returns only when the run
/// completed (`Ok`) or hit a non-recoverable error (`Err` → exit code 1,
/// at which point the supervisor's respawn budget takes over).
pub(crate) fn elastic_worker(rank: usize) -> Result<(), String> {
    let transport = Rc::new(
        SocketTransport::from_env()
            .expect("elastic_worker requires AGCM_RANK")
            .map_err(|e| format!("socket transport: {e}"))?,
    );

    let alg: u32 = req_env("AGCM_RUN_ALG")?;
    let total: usize = req_env("AGCM_RUN_STEPS")?;
    let py: usize = req_env("AGCM_RUN_PY")?;
    let pz: usize = req_env("AGCM_RUN_PZ")?;
    let out = PathBuf::from(req_env::<String>("AGCM_RUN_OUT")?);
    let ckpt_dir = PathBuf::from(req_env::<String>("AGCM_CKPT_DIR")?);
    let interval: u64 = agcm_comm::parse_env_or("AGCM_CKPT_INTERVAL", 1);
    let keep: usize = agcm_comm::parse_env_or("AGCM_CKPT_KEEP", 0);
    let kill_step: Option<u64> =
        agcm_comm::parse_env("AGCM_KILL_STEP").map_err(|e| e.to_string())?;
    let cfg = run_config();
    let pgrid = ProcessGrid::yz(py, pz).map_err(|e| e.to_string())?;

    let mut epoch = transport.epoch();
    // the epoch this incarnation was born into: every metrics snapshot this
    // process ships is tagged with it, so the merge can sum counters across
    // a rank's incarnations instead of last-write-wins mixing pre- and
    // post-crash counts
    let birth = epoch;
    let gauge = obs::Registry::global().gauge("resilience.epoch");
    gauge.set(epoch as f64);
    write_metrics_file(&ckpt_dir, rank, birth);
    loop {
        let end = run_epoch(
            &transport, rank, alg, total, &cfg, pgrid, &ckpt_dir, interval, keep, kill_step, &out,
        );
        match end {
            Ok(()) => {
                write_metrics_file(&ckpt_dir, rank, birth);
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
                write_metrics_file(&ckpt_dir, rank, birth);
            }
            Err(EpochEnd::Fatal(msg)) => return Err(msg),
        }
    }
}

/// File name of one incarnation's durable metrics snapshot inside the
/// checkpoint directory, tagged with the epoch the incarnation was born
/// into (its `AGCM_EPOCH`).  Fixed-width so the names sort.
pub(crate) fn metrics_file_name(rank: usize, birth_epoch: u64) -> String {
    format!("metrics.rank{rank:04}.epoch{birth_epoch:08}.bin")
}

/// Best-effort tmp+rename write of this incarnation's cumulative counters.
/// One file per incarnation (keyed by birth epoch), overwritten as the run
/// progresses: summing the *files* across epochs therefore sums the final
/// counts of each incarnation — exactly what
/// [`agcm_obs::dist::merge_rank_metrics`] does.  Failures are logged, not
/// fatal: telemetry must never take down a healthy worker.
fn write_metrics_file(dir: &Path, rank: usize, birth_epoch: u64) {
    let snap = obs::Registry::global().snapshot();
    let path = dir.join(metrics_file_name(rank, birth_epoch));
    let tmp = path.with_extension("bin.tmp");
    let write =
        fs::write(&tmp, obs::dist::encode_metrics(&snap)).and_then(|()| fs::rename(&tmp, &path));
    if let Err(e) = write {
        eprintln!(
            "agcm-run worker {rank}: writing metrics snapshot {}: {e}",
            path.display()
        );
    }
}

/// Scan a checkpoint directory for the epoch-tagged metrics snapshots of
/// one rank's incarnations, decoded as `(birth_epoch, snapshot)` pairs
/// ready for [`agcm_obs::dist::merge_rank_metrics`].  Unreadable or
/// non-matching files are skipped: the reader runs post-mortem over a
/// directory that crashes may have left half-written.
pub(crate) fn read_rank_metrics(dir: &Path, rank: usize) -> Vec<(u64, obs::MetricsSnapshot)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let prefix = format!("metrics.rank{rank:04}.epoch");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some(digits) = rest.strip_suffix(".bin") else {
            continue;
        };
        let Ok(epoch) = digits.parse::<u64>() else {
            continue;
        };
        let Ok(bytes) = fs::read(entry.path()) else {
            continue;
        };
        if let Ok(snap) = obs::dist::decode_metrics(&bytes) {
            out.push((epoch, snap));
        }
    }
    out.sort_by_key(|(e, _)| *e);
    out
}

/// One incarnation of the integration at the transport's current epoch:
/// recovery barrier (agree on the restore step), restore or cold-start,
/// step with durable checkpoints, and on completion gather + write the
/// state behind a final barrier.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    transport: &Rc<SocketTransport>,
    rank: usize,
    alg: u32,
    total: usize,
    cfg: &ModelConfig,
    pgrid: ProcessGrid,
    ckpt_dir: &Path,
    interval: u64,
    keep: usize,
    kill_step: Option<u64>,
    out: &Path,
) -> Result<(), EpochEnd> {
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
    let mut model = new_model(alg, cfg, pgrid, &mut comm).map_err(fatal)?;

    // the recovery barrier: agree on the newest step EVERY rank holds
    // durable (-1 = none).  A replacement may be behind the survivors —
    // everyone rolls back to the minimum, in lockstep, so the continued
    // run is the bitwise continuation of a state that actually existed.
    comm.set_timeout(RECOVERY_TIMEOUT);
    let mine = latest_checkpoint_step(ckpt_dir, rank)
        .map_err(|e| fatal(format!("listing checkpoints: {e}")))?;
    let mut agreed = [mine.map_or(-1.0, |s| s as f64)];
    comm.allreduce(ReduceOp::Min, &mut agreed, AllreduceAlgo::Ring)
        .map_err(|e| classify(rank, "recovery barrier", e))?;
    let restored = if agreed[0] >= 0.0 {
        let step = agreed[0] as u64;
        let ck = read_checkpoint(&checkpoint_path(ckpt_dir, rank, step))
            .map_err(|e| fatal(format!("reading checkpoint at step {step}: {e}")))?;
        model.restore(&ck);
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
        Some(restored.unwrap_or(0) + pgrid.size() as u64)
    } else {
        None
    };
    while model.steps < total {
        let s = model.steps as u64;
        if s.is_multiple_of(interval) || burst_end.is_some_and(|b| s <= b) {
            durable_checkpoint(&model, ckpt_dir, rank, keep).map_err(fatal)?;
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
    // the completed state must be durable too: a planned resize
    // re-decomposes exactly this step's checkpoints
    durable_checkpoint(&model, ckpt_dir, rank, keep).map_err(fatal)?;

    let gathered = model
        .gather_state(&comm)
        .map_err(|e| classify(rank, "gather", e))?;
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
    comm.allreduce(ReduceOp::Min, &mut one, AllreduceAlgo::Ring)
        .map_err(|e| classify(rank, "completion barrier", e))?;
    if let Some(gs) = gathered {
        write_state(&out.join("state.bin"), &gs).map_err(|e| fatal(format!("state.bin: {e}")))?;
    }
    Ok(())
}

/// Capture + tmp/rename-write this rank's checkpoint, then prune to the
/// retention budget.  The measured wall cost lands in the
/// `resilience.ckpt_write_ns` histogram — the soak harness's checkpoint
/// auto-tuner reads its mean as the per-checkpoint overhead δ.
fn durable_checkpoint(
    model: &Integrator,
    dir: &Path,
    rank: usize,
    keep: usize,
) -> Result<(), String> {
    let t0 = Instant::now();
    let ck = model.capture();
    write_checkpoint(&checkpoint_path(dir, rank, ck.step), &ck)
        .map_err(|e| format!("writing checkpoint at step {}: {e}", ck.step))?;
    prune_checkpoints(dir, rank, keep).map_err(|e| format!("pruning checkpoints: {e}"))?;
    obs::Registry::global()
        .histogram("resilience.ckpt_write_ns")
        .record(t0.elapsed().as_nanos() as u64);
    Ok(())
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// Everything needed to (re)spawn one world's workers.
pub(crate) struct WorldSpec {
    pub exe: PathBuf,
    pub endpoint: Endpoint,
    pub alg: u32,
    pub p: usize,
    /// Process-grid factorization of `p` (py * pz == p).
    pub py: usize,
    pub pz: usize,
    pub steps: usize,
    pub out: PathBuf,
    pub ckpt: PathBuf,
    /// Steady-state checkpoint cadence (steps between durable writes).
    pub interval: u64,
    /// Checkpoint retention: neighbor-lockstep skew lets a distant
    /// survivor run up to p-1 steps past the victim's last durable step
    /// before noticing the death, so keep at least `p + 1` files — and
    /// across a resize, [`resize_retention`] of both world sizes.
    pub keep: usize,
    /// Message-fault injection shipped to every worker: an
    /// `AGCM_FAULT_SPEC` grammar string plus its `AGCM_FAULT_SEED`.
    pub fault: Option<(String, u64)>,
}

pub(crate) fn spawn_rank(
    w: &WorldSpec,
    rank: usize,
    epoch: u64,
    kills: &[(usize, u64)],
) -> Result<Child, ParentError> {
    let mut cmd = Command::new(&w.exe);
    cmd.env("AGCM_RANK", rank.to_string())
        .env("AGCM_WORLD_SIZE", w.p.to_string())
        .env("AGCM_ENDPOINT", w.endpoint.to_string())
        .env("AGCM_EPOCH", epoch.to_string())
        .env("AGCM_SUPERVISED", "1")
        .env("AGCM_RUN_ALG", w.alg.to_string())
        .env("AGCM_RUN_STEPS", w.steps.to_string())
        .env("AGCM_RUN_PY", w.py.to_string())
        .env("AGCM_RUN_PZ", w.pz.to_string())
        .env("AGCM_RUN_OUT", &w.out)
        .env("AGCM_CKPT_DIR", &w.ckpt)
        .env("AGCM_CKPT_INTERVAL", w.interval.to_string())
        .env("AGCM_CKPT_KEEP", w.keep.to_string())
        .stdin(Stdio::null());
    if let Some((spec, seed)) = &w.fault {
        cmd.env("AGCM_FAULT_SPEC", spec)
            .env("AGCM_FAULT_SEED", seed.to_string());
    }
    if let Some(&(_, ks)) = kills.iter().find(|&&(kr, _)| kr == rank) {
        cmd.env("AGCM_KILL_STEP", ks.to_string());
    }
    cmd.spawn()
        .map_err(|e| ParentError::Other(format!("spawning rank {rank}: {e}")))
}

fn kill_world(children: &mut [Option<Child>]) {
    for c in children.iter_mut().flatten() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// One repaired failure: which rank died, the epoch its replacement was
/// spawned into, and the measured repair time — from death detection until
/// the replacement's durable progress passes the victim's last
/// checkpointed step (the world has provably re-achieved what it lost).
pub(crate) struct Incident {
    pub rank: usize,
    pub epoch: u64,
    pub downtime: Duration,
}

/// What one supervised world's run looked like, for soak accounting:
/// total supervised wall time plus every repaired death.
pub(crate) struct SuperviseReport {
    pub wall: Duration,
    pub incidents: Vec<Incident>,
}

/// Launch one supervised world and babysit it to completion: a rank that
/// exits non-zero (or is signalled) is respawned at the next epoch from
/// its durable checkpoints, decrementing the shared `budget` counter — one
/// budget spans every phase of a run (the resize flow and the soak harness
/// pass the same counter to consecutive worlds).
pub(crate) fn supervise_world(
    w: &WorldSpec,
    kills: &[(usize, u64)],
    budget: &mut u32,
    timeout: Duration,
) -> Result<SuperviseReport, ParentError> {
    fs::create_dir_all(&w.ckpt)
        .map_err(|e| ParentError::Other(format!("{}: {e}", w.ckpt.display())))?;
    let mut children: Vec<Option<Child>> = Vec::with_capacity(w.p);
    for rank in 0..w.p {
        children.push(Some(spawn_rank(w, rank, 0, kills)?));
    }
    let respawns = obs::Registry::global().counter("resilience.respawns");
    let mut epoch = 0u64;
    let started = Instant::now();
    let deadline = started + timeout;
    let mut incidents: Vec<Incident> = Vec::new();
    // open repairs: (incident index, victim's last durable step (-1 =
    // none), rank, detection time)
    let mut open: Vec<(usize, i64, usize, Instant)> = Vec::new();
    loop {
        let mut running = 0usize;
        for rank in 0..w.p {
            let Some(child) = children[rank].as_mut() else {
                continue;
            };
            match child.try_wait() {
                Ok(None) => running += 1,
                Ok(Some(st)) if st.success() => children[rank] = None,
                Ok(Some(st)) => {
                    if *budget == 0 {
                        kill_world(&mut children);
                        return Err(ParentError::RespawnExhausted(format!(
                            "rank {rank} died ({st}) after the respawn budget was spent"
                        )));
                    }
                    *budget -= 1;
                    epoch += 1;
                    respawns.inc();
                    let baseline = latest_checkpoint_step(&w.ckpt, rank)
                        .ok()
                        .flatten()
                        .map_or(-1, |s| s as i64);
                    eprintln!(
                        "agcm-run: rank {rank} died ({st}); respawning from checkpoint at \
                         epoch {epoch} ({} respawn(s) left)",
                        *budget
                    );
                    // the kill injection applies to the first incarnation
                    // only — the replacement gets a clean environment
                    children[rank] = Some(spawn_rank(w, rank, epoch, &[])?);
                    open.push((incidents.len(), baseline, rank, Instant::now()));
                    incidents.push(Incident {
                        rank,
                        epoch,
                        downtime: Duration::ZERO,
                    });
                    running += 1;
                }
                Err(e) => {
                    kill_world(&mut children);
                    return Err(ParentError::Other(format!("waiting for rank {rank}: {e}")));
                }
            }
        }
        // close repairs whose replacement has durably overtaken the victim
        // (or already exited successfully)
        open.retain(|&(idx, baseline, rank, t0)| {
            let repaired = children[rank].is_none()
                || matches!(
                    latest_checkpoint_step(&w.ckpt, rank),
                    Ok(Some(s)) if (s as i64) > baseline
                );
            if repaired {
                incidents[idx].downtime = t0.elapsed();
            }
            !repaired
        });
        if running == 0 {
            for &(idx, _, _, t0) in &open {
                incidents[idx].downtime = t0.elapsed();
            }
            return Ok(SuperviseReport {
                wall: started.elapsed(),
                incidents,
            });
        }
        if Instant::now() >= deadline {
            kill_world(&mut children);
            return Err(ParentError::Other(format!(
                "elastic world did not finish within {timeout:?}"
            )));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------------
// Parent-side flows
// ---------------------------------------------------------------------------

/// The elastic entry: every selected algorithm runs supervised; with
/// `--resize` the two-phase re-decomposition flow runs instead.
pub(crate) fn run_elastic(opts: &RunOpts) -> Result<(), ParentError> {
    for &alg in opts.alg.algs() {
        if let Some(p2) = opts.resize {
            run_resize_world(alg, opts, p2)?;
        } else {
            run_elastic_world(alg, opts)?;
        }
    }
    Ok(())
}

pub(crate) fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("agcm-run-{}-{tag}", std::process::id()))
}

fn endpoint_for(opts: &RunOpts) -> Result<Endpoint, ParentError> {
    Ok(match &opts.endpoint {
        Some(s) => Endpoint::parse(s).map_err(ParentError::Other)?,
        None => Endpoint::unique_uds(),
    })
}

fn finish_scratch(
    result: Result<(), ParentError>,
    out: &Path,
    opts: &RunOpts,
) -> Result<(), ParentError> {
    if result.is_ok() && !opts.keep_out {
        let _ = fs::remove_dir_all(out);
    } else if result.is_err() {
        eprintln!("agcm-run: scratch directory kept at {}", out.display());
    }
    result
}

/// Supervised run at a fixed rank count (the kill/respawn flow).
fn run_elastic_world(alg: u32, opts: &RunOpts) -> Result<(), ParentError> {
    let p = opts.ranks;
    let cfg = run_config();
    let out = scratch_dir(&format!("elastic-alg{alg}-p{p}"));
    fs::create_dir_all(&out).map_err(|e| ParentError::Other(format!("{}: {e}", out.display())))?;
    let w = WorldSpec {
        exe: std::env::current_exe().map_err(|e| ParentError::Other(e.to_string()))?,
        endpoint: endpoint_for(opts)?,
        alg,
        p,
        py: p,
        pz: 1,
        steps: opts.steps,
        out: out.clone(),
        ckpt: out.join("ckpt"),
        interval: 1,
        keep: p + 1,
        fault: None,
    };
    let mut budget = opts.respawn_budget();
    let result = supervise_world(&w, &opts.kills, &mut budget, opts.timeout)
        .and_then(|_| verify_elastic(alg, p, &cfg, opts.steps, &out, "elastic"));
    finish_scratch(result, &out, opts)
}

/// Planned shrink/grow: integrate the first half of the steps at `--ranks`,
/// re-decompose the checkpointed mesh onto `p2` ranks, certify the new
/// schedule, and finish there — each phase's gathered state verified
/// bitwise against the serial reference at its step count.
fn run_resize_world(alg: u32, opts: &RunOpts, p2: usize) -> Result<(), ParentError> {
    let p1 = opts.ranks;
    let total = opts.steps;
    let h = total / 2; // the hand-off step (total >= 2, so h >= 1)
    let cfg = run_config();
    let from = ProcessGrid::yz(p1, 1).map_err(|e| ParentError::Other(e.to_string()))?;
    let to = ProcessGrid::yz(p2, 1).map_err(|e| ParentError::Other(e.to_string()))?;
    let out = scratch_dir(&format!("resize-alg{alg}-p{p1}to{p2}"));
    fs::create_dir_all(&out).map_err(|e| ParentError::Other(format!("{}: {e}", out.display())))?;
    let exe = std::env::current_exe().map_err(|e| ParentError::Other(e.to_string()))?;

    // one respawn budget for the WHOLE run: both phases draw from the same
    // counter, so `--max-respawns N` bounds total recoveries, not N per
    // phase (the pre-fix behavior let a resize run consume 2N)
    let mut budget = opts.respawn_budget();
    // retention must cover the larger world's skew window on BOTH sides of
    // the hand-off: phase-2 survivors pruning with the smaller world's
    // p'+1 budget can delete the re-decomposed hand-off step while a
    // straggling replacement still rolls back to it
    let keep = resize_retention(p1, p2);
    // kills before the hand-off step hit phase 1, the rest hit phase 2
    let (kills1, kills2): (Vec<_>, Vec<_>) =
        opts.kills.iter().copied().partition(|&(_, s)| s < h as u64);

    let w1 = WorldSpec {
        exe: exe.clone(),
        endpoint: endpoint_for(opts)?,
        alg,
        p: p1,
        py: p1,
        pz: 1,
        steps: h,
        out: out.clone(),
        ckpt: out.join(format!("ckpt-p{p1}")),
        interval: 1,
        keep,
        fault: None,
    };
    let result = (|| {
        supervise_world(&w1, &kills1, &mut budget, opts.timeout)?;
        verify_elastic(alg, p1, &cfg, h, &out, "resize phase 1")?;

        let w2 = WorldSpec {
            exe,
            // a fresh endpoint: no socket-path reuse between the worlds
            endpoint: Endpoint::unique_uds(),
            alg,
            p: p2,
            py: p2,
            pz: 1,
            steps: total,
            out: out.clone(),
            ckpt: out.join(format!("ckpt-p{p2}")),
            interval: 1,
            keep,
            fault: None,
        };
        let step = redistribute(&w1.ckpt, &w2.ckpt, from, to, cfg.extents())
            .map_err(|e| ParentError::Other(format!("re-decomposing {p1}->{p2}: {e}")))?;
        // the gate: the re-decomposed schedule must certify (deadlock-free,
        // count-exact, flow-clean at p2) before any stepping resumes
        let cert = certify_yz(&cfg, to).map_err(|e| {
            ParentError::VerificationMismatch(format!("certifying the p={p2} schedule: {e}"))
        })?;
        println!(
            "agcm-run: resize {p1}->{p2}: checkpoints re-decomposed at step {step}; \
             p={p2} schedule certified (alg1: {} exchanges, {} collectives per step)",
            cert.alg1.exchanges, cert.alg1.collectives
        );

        supervise_world(&w2, &kills2, &mut budget, opts.timeout)?;
        verify_elastic(alg, p2, &cfg, total, &out, "resize phase 2")
    })();
    finish_scratch(result, &out, opts)
}

/// The elastic verifier: bitwise state equivalence only (replayed steps
/// break the measured-traffic bracket, so the classic count and wire
/// identities stay with the fault-free mode).
pub(crate) fn verify_elastic(
    alg: u32,
    p: usize,
    cfg: &ModelConfig,
    steps: usize,
    out: &Path,
    what: &str,
) -> Result<(), ParentError> {
    let gathered = read_state(&out.join("state.bin"))
        .map_err(|e| ParentError::Other(format!("{what}: reading gathered state: {e}")))?;
    let variant = if alg == 1 {
        Iteration::Exact
    } else {
        Iteration::Approximate
    };
    let serial = serial_reference(cfg, variant, steps).map_err(ParentError::Other)?;
    if !states_bitwise_equal(&gathered, &serial) {
        return Err(ParentError::VerificationMismatch(format!(
            "{what}: alg{alg} p={p} steps={steps}: gathered state differs from the serial \
             reference (max |diff| = {:e})",
            gathered.max_abs_diff(&serial)
        )));
    }
    println!("agcm-run: {what}: alg{alg} p={p} steps={steps}: state bitwise == serial reference");
    Ok(())
}
