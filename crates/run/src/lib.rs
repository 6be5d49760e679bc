//! `agcm-run` — multi-process launcher for the socket-backed runtime.
//!
//! Everywhere else in this repository the simulated-MPI world is a set of
//! *threads* inside one test binary.  This crate runs the same SPMD
//! programs as a set of OS **processes**, one per rank, talking through
//! [`agcm_comm::SocketTransport`] (Unix-domain sockets by default, TCP on
//! request) — the closest this reproduction gets to a real `mpirun`.
//!
//! The binary is its own worker: launched with no `AGCM_RANK` in the
//! environment it acts as the parent, spawning `--ranks` copies of itself
//! with the handshake variables set (`AGCM_RANK`, `AGCM_WORLD_SIZE`,
//! `AGCM_ENDPOINT`); launched *with* `AGCM_RANK` it connects the socket
//! mesh and integrates its block of the model — as an elastic worker
//! (see the `elastic` module) when `AGCM_CKPT_DIR` names its checkpoints.
//!
//! Every world, classic or elastic, is a phase of a [`Plan`] run by one
//! phase runner under one supervisor.  Of a classic world the parent
//! re-derives every cross-transport claim the paper reproduction rests on:
//!
//! 1. **Bitwise equivalence**: rank 0's gathered [`GlobalState`] must match
//!    a serial reference integrated in the parent process bit for bit, for
//!    Algorithm 1 (vs the exact iteration) and Algorithm 2 (vs the
//!    approximate iteration).
//! 2. **Certified counts**: each rank's measured steady-state halo traffic
//!    (collective-internal messages subtracted, exactly as
//!    [`agcm_verify::cross_check`] does over threads) must equal the static
//!    schedule analyzer's per-rank prediction.
//! 3. **Wire identity**: the socket transport's byte counters must satisfy
//!    `bytes == 8·elems + WIRE_OVERHEAD_BYTES·msgs` against the logical
//!    element counts — every message the model believes it sent crossed
//!    the kernel as exactly one checksummed frame, nothing more.

#![forbid(unsafe_code)]
use agcm_comm::telemetry::{self, CLOCK_ROUNDS};
use agcm_comm::{
    p2p_only_delta, Communicator, CostModel, Endpoint, SocketTransport, Universe,
    WIRE_OVERHEAD_BYTES,
};
use agcm_core::analysis::{predict, AlgKind, CaMode, Prediction};
use agcm_core::par::GlobalState;
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::{init, Integrator, ModelConfig};
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;
use agcm_obs::dist::{self, OffsetEstimate};
use agcm_verify::{critpath, rank_counts, ScheduleGraph};
use elastic::{run_phase, Launch, WorldSpec};
use std::fmt::Display;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Magic header of the gathered-state file rank 0 writes.
pub const STATE_MAGIC: &[u8; 8] = b"AGCMGST1";

mod elastic;
pub mod soak;

pub use elastic::{Phase, Plan};

// ---------------------------------------------------------------------------
// Parent failure taxonomy
// ---------------------------------------------------------------------------

/// Why the parent failed — each class maps to its own process exit code so
/// scripts (and the CI chaos job) can tell an exhausted respawn budget from
/// a wrong answer without parsing stderr.
#[derive(Debug)]
pub enum ParentError {
    /// A rank kept dying after the respawn budget was spent (exit 4).
    RespawnExhausted(String),
    /// The world finished but its output failed verification (exit 5).
    VerificationMismatch(String),
    /// Anything else: spawn, I/O, timeout (exit 1).
    Other(String),
}

impl ParentError {
    /// The process exit code this failure class maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            ParentError::RespawnExhausted(_) => 4,
            ParentError::VerificationMismatch(_) => 5,
            ParentError::Other(_) => 1,
        }
    }
}

impl Display for ParentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParentError::RespawnExhausted(m) => write!(f, "respawn budget exhausted: {m}"),
            ParentError::VerificationMismatch(m) => write!(f, "verification mismatch: {m}"),
            ParentError::Other(m) => f.write_str(m),
        }
    }
}

impl From<String> for ParentError {
    fn from(m: String) -> Self {
        ParentError::Other(m)
    }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Which algorithm(s) one `agcm-run` invocation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgSel {
    /// Algorithm 1 (original, exact iteration).
    Alg1,
    /// Algorithm 2 (communication-avoiding, approximate iteration).
    Alg2,
    /// Both, one world after the other.
    Both,
}

impl AlgSel {
    fn algs(self) -> &'static [u32] {
        match self {
            AlgSel::Alg1 => &[1],
            AlgSel::Alg2 => &[2],
            AlgSel::Both => &[1, 2],
        }
    }
}

/// Parsed command line of the parent process.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// World size (one OS process per rank).
    pub ranks: usize,
    /// Ranks along z: the world is the `yz(ranks / pz, pz)` process grid
    /// (default 1, a pure latitude split; 2 gives every rank of a p = 4
    /// world a y, a z and a diagonal link).
    pub pz: usize,
    /// Algorithm selection (default: both).
    pub alg: AlgSel,
    /// Total steps per run; the second step is the measured one.
    pub steps: usize,
    /// Endpoint override (`tcp:host:port` or a UDS base path); default is a
    /// fresh unique UDS base under the temp directory per run.
    pub endpoint: Option<String>,
    /// Kill the world and fail if it has not finished within this budget.
    pub timeout: Duration,
    /// Keep the per-run scratch directory instead of deleting it.
    pub keep_out: bool,
    /// Collect per-rank span streams, merge them on rank 0 into one
    /// clock-aligned Chrome trace, and run the critical-path/cost-model
    /// analysis in the parent.
    pub trace: bool,
    /// Where the merged trace and critical-path artifacts land (default
    /// `target/trace-dist`).
    pub trace_out: Option<PathBuf>,
    /// Elastic mode: supervise the workers and respawn a dead rank from its
    /// latest durable checkpoint up to this many times (`Some(0)` supervises
    /// but never respawns).  `None` = classic fail-fast mode.
    pub max_respawns: Option<u32>,
    /// Planned resize: run the first half of the steps at `--ranks`, then
    /// re-decompose the checkpoints onto this many ranks, re-certify the
    /// new schedule, and finish there.  Implies elastic mode; Algorithm 1
    /// only.
    pub resize: Option<usize>,
    /// Chaos injection `(rank, step)` events (repeatable `--kill`): each
    /// listed worker aborts (as if `kill -9`'d) after completing the given
    /// step of its first incarnation.  Implies elastic mode; under
    /// `--resize`, kills before the hand-off step hit phase 1 and the rest
    /// hit phase 2.
    pub kills: Vec<(usize, u64)>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            ranks: 4,
            pz: 1,
            alg: AlgSel::Both,
            steps: 2,
            endpoint: None,
            timeout: Duration::from_secs(120),
            keep_out: false,
            trace: false,
            trace_out: None,
            max_respawns: None,
            resize: None,
            kills: Vec::new(),
        }
    }
}

impl RunOpts {
    /// Whether this invocation runs under the elastic supervisor.
    pub fn elastic(&self) -> bool {
        self.max_respawns.is_some() || self.resize.is_some() || !self.kills.is_empty()
    }

    /// The respawn policy: `None` in classic mode, else the budget of the
    /// whole run (default 2 when elastic mode was implied by
    /// `--resize`/`--kill` rather than set explicitly).
    pub fn respawn_budget(&self) -> Option<u32> {
        self.elastic().then(|| self.max_respawns.unwrap_or(2))
    }

    /// The phases this invocation runs: one world of `--ranks`, or under
    /// `--resize` the first `steps / 2` there and the rest at P2.  A kill
    /// belongs to the last phase starting at or before its step.
    pub fn plan(&self) -> Plan {
        let (steps, p) = (self.steps as u64, self.ranks);
        let bounds = match self.resize {
            Some(p2) => vec![(p, 0, steps / 2), (p2, steps / 2, steps)],
            None => vec![(p, 0, steps)],
        };
        let mut phases: Vec<Phase> = bounds
            .into_iter()
            .map(|(p, start, end)| Phase {
                p,
                start,
                end,
                kills: Vec::new(),
            })
            .collect();
        for &(rank, step) in &self.kills {
            if let Some(ph) = phases.iter_mut().rev().find(|ph| ph.start <= step) {
                ph.kills.push((rank, step));
            }
        }
        Plan {
            phases,
            fault: None,
        }
    }
}

const USAGE: &str = "agcm-run: run the dynamical core as one OS process per rank over sockets

USAGE:
    agcm-run [--ranks N] [--pz N] [--alg 1|2|both] [--steps N]
             [--endpoint PATH|tcp:HOST:PORT] [--timeout-secs N] [--keep-out]
             [--trace] [--trace-out DIR]
             [--max-respawns N] [--resize P2] [--kill RANK:STEP]...

Launches N copies of this binary (handshake via AGCM_RANK / AGCM_WORLD_SIZE /
AGCM_ENDPOINT) as the yz(N / pz, pz) process grid (--pz defaults to 1, a
latitude split), integrates the test_medium configuration, and verifies the
gathered state bitwise against an in-process serial reference, the measured
per-rank traffic against the static schedule analyzer, and the wire-level
byte counters against the logical element counts.  Exit code 0 only if every
check passes on every rank.  With --steps above 2 it also prints the median
wall time of the steps after the verified one; AGCM_FAULT_SPEC in the
environment reaches every rank, so `AGCM_FAULT_SPEC=lat:us=200` makes every
message arrive 200 us late — the latency dial of a host that has none.

With --trace every rank records spans, aligns its clock against rank 0 and
ships its stream over a control communicator at run end; rank 0 merges them
into one Chrome trace, and the parent validates the JSON, attributes the
measured step's critical path against the static schedule, and sets it
beside the cost model's prediction of the same step, segment by segment
(artifacts under --trace-out, default target/trace-dist).

Any of --max-respawns / --resize / --kill selects ELASTIC mode: workers
checkpoint every step, the parent supervises them, and a dead rank is
respawned from its latest durable checkpoint while the survivors rewire the
socket mesh to a new epoch and roll back in lockstep — the completed run is
still verified bitwise against the serial reference.  --kill RANK:STEP
(repeatable) injects failures (that worker aborts after completing STEP, as
if kill -9'd); --max-respawns N bounds the recovery budget for the WHOLE
run, across every resize phase (default 2).
--resize P2 runs the first half of the steps at --ranks, re-decomposes the
checkpointed mesh onto P2 ranks, re-certifies the P2 schedule, and finishes
there (Algorithm 1 only: CA checkpoints are tied to their decomposition).
Exit codes: 0 all checks passed, 1 runtime failure, 2 usage,
4 respawn budget exhausted, 5 verification mismatch.";

/// Parse the parent's command line (everything after `argv[0]`).
pub fn parse_args(args: &[String]) -> Result<Option<RunOpts>, String> {
    let mut opts = RunOpts::default();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => return Ok(None),
            "--ranks" | "-n" => {
                opts.ranks = parse_num("--ranks", &value("--ranks", &mut it)?)?;
            }
            "--pz" => opts.pz = parse_num("--pz", &value("--pz", &mut it)?)?,
            "--alg" => {
                opts.alg = match value("--alg", &mut it)?.as_str() {
                    "1" => AlgSel::Alg1,
                    "2" => AlgSel::Alg2,
                    "both" => AlgSel::Both,
                    other => return Err(format!("--alg must be 1, 2 or both, got {other:?}")),
                };
            }
            "--steps" => {
                opts.steps = parse_num("--steps", &value("--steps", &mut it)?)?;
            }
            "--endpoint" => opts.endpoint = Some(value("--endpoint", &mut it)?),
            "--timeout-secs" => {
                opts.timeout = Duration::from_secs(parse_num(
                    "--timeout-secs",
                    &value("--timeout-secs", &mut it)?,
                )?);
            }
            "--keep-out" => opts.keep_out = true,
            "--max-respawns" => {
                opts.max_respawns = Some(parse_num(
                    "--max-respawns",
                    &value("--max-respawns", &mut it)?,
                )?);
            }
            "--resize" => {
                opts.resize = Some(parse_num("--resize", &value("--resize", &mut it)?)?);
            }
            "--kill" => {
                let v = value("--kill", &mut it)?;
                let (r, s) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--kill must be RANK:STEP, got {v:?}"))?;
                opts.kills
                    .push((parse_num("--kill rank", r)?, parse_num("--kill step", s)?));
            }
            "--trace" => opts.trace = true,
            "--trace-out" => {
                opts.trace_out = Some(PathBuf::from(value("--trace-out", &mut it)?));
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if opts.ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    if opts.pz == 0 || !opts.ranks.is_multiple_of(opts.pz) {
        return Err(format!(
            "--pz {} must divide --ranks {}",
            opts.pz, opts.ranks
        ));
    }
    if opts.steps < 2 {
        return Err("--steps must be at least 2 (step 2 is the measured one)".into());
    }
    if let Some(p2) = opts.resize {
        if p2 == 0 {
            return Err("--resize must be at least 1 rank".into());
        }
        if opts.alg != AlgSel::Alg1 {
            return Err(
                "--resize requires --alg 1 (CA checkpoints are tied to their decomposition)".into(),
            );
        }
    }
    opts.plan().check()?;
    if opts.elastic() && opts.pz != 1 {
        return Err("--pz is not supported in elastic mode (it re-decomposes along y)".into());
    }
    if opts.elastic() && opts.trace {
        return Err(
            "--trace is not supported in elastic mode (replayed steps break the measured bracket)"
                .into(),
        );
    }
    Ok(Some(opts))
}

pub(crate) fn parse_num<T: FromStr>(flag: &str, s: &str) -> Result<T, String>
where
    T::Err: Display,
{
    s.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The model configuration every `agcm-run` world integrates: the medium
/// test mesh widened to `ny = 24` so Algorithm 2's deep halo fits at
/// `py = 2` (12-row blocks ≥ 3M+2 = 11) and clamps to grouped sweeps at
/// `py = 4` — both regimes are bitwise against the serial reference.
pub fn run_config() -> ModelConfig {
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 24;
    cfg
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// `agcm-run` process entry: worker when `AGCM_RANK` is set, parent
/// otherwise.  Returns the process exit code.
pub fn main_entry() -> u8 {
    entry("agcm-run", USAGE, parse_args, run_parent)
}

/// The process entry of both binaries, each its own worker: a worker when
/// `AGCM_RANK` is set, else the parent — `parse` the command line, `run`
/// it, and map the outcome to the exit code.
fn entry<O>(
    name: &str,
    usage: &str,
    parse: fn(&[String]) -> Result<Option<O>, String>,
    run: fn(&O) -> Result<(), ParentError>,
) -> u8 {
    let failed = |what: &str, e: &dyn Display, code: u8| {
        eprintln!("{name}{what}: {e}");
        code
    };
    match agcm_comm::parse_env::<usize>("AGCM_RANK") {
        Err(e) => failed("", &e, 2),
        Ok(Some(_)) => worker_main().map_or_else(|e| failed(" worker", &e, 1), |()| 0),
        Ok(None) => match parse(&std::env::args().skip(1).collect::<Vec<_>>()) {
            Ok(None) => {
                println!("{usage}");
                0
            }
            Ok(Some(opts)) => {
                run(&opts).map_or_else(|e| failed(": FAILED", &e, e.exit_code()), |()| 0)
            }
            Err(e) => failed("", &format!("{e}\n\n{usage}"), 2),
        },
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

pub(crate) fn req_env<T: FromStr>(name: &str) -> Result<T, String>
where
    T::Err: Display,
{
    match agcm_comm::parse_env::<T>(name) {
        Ok(Some(v)) => Ok(v),
        Ok(None) => Err(format!("{name} must be set for a worker")),
        Err(e) => Err(e.to_string()),
    }
}

/// The algorithm behind `AGCM_RUN_ALG` (1 or 2).
fn alg_kind(alg: u32) -> Result<AlgKind, String> {
    match alg {
        1 => Ok(AlgKind::OriginalYZ),
        2 => Ok(AlgKind::CommAvoiding),
        other => Err(format!("AGCM_RUN_ALG must be 1 or 2, got {other}")),
    }
}

/// This rank's integrator for `AGCM_RUN_ALG` at rest.
pub(crate) fn new_model(
    alg: u32,
    cfg: &ModelConfig,
    pgrid: ProcessGrid,
    comm: &mut Communicator,
) -> Result<Integrator, String> {
    Integrator::parallel(cfg, alg_kind(alg)?, pgrid, comm).map_err(|e| e.to_string())
}

/// The standard initial condition every world in this crate integrates.
pub(crate) fn set_default_ic(model: &mut Integrator) {
    let ic = init::perturbed_rest(model.geom(), 200.0, 1.0, 42);
    model.set_state(&ic);
}

/// What every worker reads from the launcher's environment.
pub(crate) struct Worker {
    pub rank: usize,
    pub alg: u32,
    /// Step count the world integrates to.
    pub steps: usize,
    pub pgrid: ProcessGrid,
    /// The run's scratch root.
    pub out: PathBuf,
    pub cfg: ModelConfig,
}

/// One rank of a launched world: connect the socket mesh and integrate.  A
/// worker told where its checkpoints go (`AGCM_CKPT_DIR`) is elastic: it
/// checkpoints as it steps, survives peer death by rewiring, and rolls back
/// in lockstep.  Any other is classic: it also measures its traffic and, on
/// `AGCM_RUN_TRACE=1`, ships its spans to rank 0.
pub fn worker_main() -> Result<(), String> {
    let rank: usize = req_env("AGCM_RANK")?;
    let tracing = matches!(agcm_comm::parse_env::<u32>("AGCM_RUN_TRACE"), Ok(Some(1)));
    if tracing {
        // before the socket mesh comes up, so this rank's own handshake
        // and reader-thread spans are captured and attributed to it
        obs::set_rank(rank);
        obs::enable();
    }
    let transport = SocketTransport::from_env()
        .ok_or("AGCM_RANK must be set for a worker")?
        .map_err(|e| format!("socket transport: {e}"))?;
    let w = Worker {
        rank,
        alg: req_env("AGCM_RUN_ALG")?,
        steps: req_env("AGCM_RUN_STEPS")?,
        pgrid: ProcessGrid::yz(req_env("AGCM_RUN_PY")?, req_env("AGCM_RUN_PZ")?)
            .map_err(|e| e.to_string())?,
        out: PathBuf::from(req_env::<String>("AGCM_RUN_OUT")?),
        cfg: run_config(),
    };
    let transport = Rc::new(transport);
    match agcm_comm::parse_env::<String>("AGCM_CKPT_DIR").map_err(|e| e.to_string())? {
        Some(dir) => elastic::elastic_worker(&w, &transport, PathBuf::from(dir)),
        None => classic_worker(&w, transport, tracing),
    }
}

/// A classic rank: integrate, gather to rank 0, and drop a per-rank
/// traffic report of the measured step in the scratch directory.
fn classic_worker(w: &Worker, transport: Rc<SocketTransport>, tracing: bool) -> Result<(), String> {
    let (rank, steps, out) = (w.rank, w.steps, &w.out);
    let mut comm = Communicator::on_transport(transport);

    // telemetry rides a dedicated split communicator so its reserved tags
    // never meet model traffic; the clock handshake runs before any model
    // construction, outside every measured bracket
    let ctl = if tracing {
        let ctl = comm
            .split(0, rank)
            .map_err(|e| format!("control communicator: {e}"))?;
        let offset = if rank == 0 {
            telemetry::clock_serve(&ctl, CLOCK_ROUNDS).map_err(|e| format!("clock serve: {e}"))?;
            OffsetEstimate {
                offset_ns: 0,
                rtt_ns: 0,
            }
        } else {
            telemetry::clock_align(&ctl, CLOCK_ROUNDS).map_err(|e| format!("clock align: {e}"))?
        };
        Some((ctl, offset))
    } else {
        None
    };

    // the event log is needed to subtract collective-internal p2p, exactly
    // as the thread-backed verifier cross-check does
    comm.stats().set_event_logging(true);

    let mut model = new_model(w.alg, &w.cfg, w.pgrid, &mut comm)?;
    set_default_ic(&mut model);
    let step = |model: &mut Integrator| model.step(Some(&comm)).map_err(|e| e.to_string());

    // step 1: warm-up (fills the C cache, leaves a smoothing pending);
    // step 2: the steady-state step the static analyzer predicts
    step(&mut model)?;
    // live progress snapshots only ever run OUTSIDE the s0→delta bracket
    // below, so the verified traffic and wire identities stay exact
    if let Some((ctl, _)) = &ctl {
        if rank != 0 {
            telemetry::send_live_snapshot(ctl, 1, obs::pending_events() as u64)
                .map_err(|e| format!("live snapshot: {e}"))?;
        }
    }
    let s0 = comm.stats().snapshot();
    let e0 = comm.stats().collective_events().len();
    let w0 = comm
        .wire_stats()
        .ok_or("socket transport must expose wire stats")?;
    step(&mut model)?;
    let delta = comm.stats().snapshot().delta(&s0);
    let events = comm.stats().collective_events()[e0..].to_vec();
    let wire = comm
        .wire_stats()
        .ok_or("socket transport must expose wire stats")?
        .delta(&w0);
    let pure = p2p_only_delta(&delta, &events);
    // wall time of the steady steps (tracing off: no snapshot between them)
    let mut step_ns: Vec<u64> = Vec::with_capacity(steps.saturating_sub(2));
    for s in 2..steps {
        let t = Instant::now();
        step(&mut model)?;
        step_ns.push(t.elapsed().as_nanos() as u64);
        if let Some((ctl, _)) = &ctl {
            if rank != 0 {
                telemetry::send_live_snapshot(ctl, (s + 1) as u64, obs::pending_events() as u64)
                    .map_err(|e| format!("live snapshot: {e}"))?;
            }
        }
    }
    model.finish(Some(&comm)).map_err(|e| e.to_string())?;

    step_ns.sort_unstable();
    let traffic = RankTraffic {
        pure_msgs: pure.p2p_sends,
        pure_elems: pure.p2p_send_elems,
        collectives: events.len() as u64,
        raw_sends: delta.p2p_sends,
        raw_send_elems: delta.p2p_send_elems,
        wire_msgs: wire.msgs_sent,
        wire_bytes: wire.bytes_sent,
        step_ns_p50: step_ns.get(step_ns.len() / 2).copied().unwrap_or(0),
    };

    let gathered = model.gather_state(&comm).map_err(|e| e.to_string())?;
    if let Some(gs) = gathered {
        write_state(&out.join("state.bin"), &gs).map_err(|e| format!("state.bin: {e}"))?;
    }
    traffic
        .write(&out.join(format!("stats.rank{rank}.txt")))
        .map_err(|e| format!("stats.rank{rank}.txt: {e}"))?;
    if let Some((ctl, offset)) = &ctl {
        finish_trace(ctl, offset, rank, steps, out)?;
    }
    Ok(())
}

/// End-of-run telemetry: every rank drains its tracer and ships its span
/// stream + metrics snapshot; rank 0 merges all streams onto its own
/// clock and writes the trace artifacts into the scratch directory for
/// the parent to validate and analyze.
fn finish_trace(
    ctl: &Communicator,
    offset: &OffsetEstimate,
    rank: usize,
    steps: usize,
    out: &Path,
) -> Result<(), String> {
    obs::disable();
    let events = obs::drain();
    let metrics = obs::Registry::global().snapshot();
    if rank != 0 {
        // classic traced mode never rewires: every snapshot is epoch 0
        return telemetry::ship_telemetry(ctl, offset, 0, &events, &metrics)
            .map_err(|e| format!("shipping telemetry: {e}"));
    }

    // drain the buffered live snapshots (one per peer per unmeasured step)
    let live_per_rank = 1 + steps.saturating_sub(2);
    let mut lines = Vec::new();
    for src in 1..ctl.size() {
        for _ in 0..live_per_rank {
            let (step, pending) = telemetry::recv_live_snapshot(ctl, src)
                .map_err(|e| format!("live snapshot from rank {src}: {e}"))?;
            lines.push(format!("live rank={src} step={step} events={pending}"));
        }
    }

    let wait_line = |rank: usize, m: &obs::MetricsSnapshot| {
        m.histograms.get("comm.recv_wait_ns").map(|h| {
            format!(
                "recv_wait rank={rank} count={} p50={} p95={} p99={} max={}",
                h.count, h.p50, h.p95, h.p99, h.max
            )
        })
    };
    lines.push(format!(
        "offset rank=0 offset_ns=0 rtt_ns=0 events={}",
        events.len()
    ));
    lines.extend(wait_line(0, &metrics));
    let mut streams = vec![(0i64, events)];
    for src in 1..ctl.size() {
        let t = telemetry::collect_telemetry(ctl, src)
            .map_err(|e| format!("telemetry from rank {src}: {e}"))?;
        lines.push(format!(
            "offset rank={src} offset_ns={} rtt_ns={} events={}",
            t.offset_ns,
            t.rtt_ns,
            t.events.len()
        ));
        lines.extend(wait_line(src, &t.metrics));
        streams.push((t.offset_ns, t.events));
    }

    let merged = dist::merge_events(&streams);
    fs::write(out.join("trace.json"), obs::chrome_trace_json(&merged))
        .map_err(|e| format!("trace.json: {e}"))?;
    fs::write(out.join("events.bin"), dist::encode_events(&merged))
        .map_err(|e| format!("events.bin: {e}"))?;
    fs::write(out.join("telemetry.txt"), lines.join("\n") + "\n")
        .map_err(|e| format!("telemetry.txt: {e}"))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent
// ---------------------------------------------------------------------------

/// Run every selected algorithm's plan; `Err` carries the first failed
/// check, classified for the exit code (respawn exhaustion, verification
/// mismatch, or anything else).
pub fn run_parent(opts: &RunOpts) -> Result<(), ParentError> {
    let plan = opts.plan();
    let trace = opts.trace.then(|| {
        opts.trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from("target/trace-dist"))
    });
    for &alg in opts.alg.algs() {
        let run = Launch::new(
            alg,
            opts.pz,
            &format!("alg{alg}"),
            opts.timeout,
            trace.clone(),
        )?;
        // one respawn budget for the whole run: every phase draws from it
        let mut budget = opts.respawn_budget();
        let result = (0..plan.phases.len()).try_for_each(|i| {
            let endpoint = match (&opts.endpoint, i) {
                (Some(s), 0) => Endpoint::parse(s)?,
                // a fresh endpoint per later phase: no socket-path reuse
                _ => Endpoint::unique_uds(),
            };
            let label = match (opts.resize, &budget) {
                (Some(_), _) => format!("resize phase {}", i + 1),
                (None, Some(_)) => "elastic".to_string(),
                (None, None) => "classic".to_string(),
            };
            run_phase(&plan, i, &run, endpoint, 1, budget.as_mut(), &label).map(drop)
        });
        run.finish(result, opts.keep_out)?;
    }
    Ok(())
}

/// The checks a finished world ends with.  Its gathered state must be
/// bitwise the in-process reference: the serial model — or, under a z
/// split, whose allgather re-associates `C`'s column sums so that no
/// z-split world is bitwise the serial one, the same world on threads over
/// the mpsc transport.  A classic world then adds the measured traffic
/// against the static schedule, the wire identity and, under `--trace`,
/// the trace analysis; an elastic world's replayed (rolled-back) steps send
/// real frames, so those hold only in a classic one.
pub(crate) fn verify_world(
    w: &WorldSpec,
    cfg: &ModelConfig,
    label: &str,
) -> Result<(), ParentError> {
    let (alg, pgrid, steps, out) = (w.run.alg, w.pgrid, w.steps, &w.run.out);
    let p = pgrid.size();
    let mismatch = ParentError::VerificationMismatch;
    let head = format!("{label}: alg{alg} p={p} steps={steps}");
    let gathered = read_state(&out.join("state.bin"))
        .map_err(|e| mismatch(format!("{head}: reading gathered state: {e}")))?;
    let (reference, what) = if pgrid.pz() == 1 {
        let variant = if alg == 1 {
            Iteration::Exact
        } else {
            Iteration::Approximate
        };
        (serial_reference(cfg, variant, steps)?, "serial reference")
    } else {
        (
            threaded_reference(alg, cfg, pgrid, steps)?,
            "in-process world",
        )
    };
    if !states_bitwise_equal(&gathered, &reference) {
        return Err(mismatch(format!(
            "{head}: gathered state differs from the {what} (max |diff| = {:e})",
            gathered.max_abs_diff(&reference)
        )));
    }
    if w.ckpt.is_some() {
        println!("agcm-run: {head}: state bitwise == {what}");
        return Ok(());
    }

    // measured traffic == static schedule prediction, rank by rank
    let graph = ScheduleGraph::extract(cfg, alg_kind(alg)?, CaMode::Grouped, pgrid)?;
    let mut wire_bytes_total = 0u64;
    let mut step_ns = 0u64; // the slowest rank's median steady step
    for (rank, pred) in rank_counts(&graph).iter().enumerate() {
        let t = RankTraffic::read(&out.join(format!("stats.rank{rank}.txt")))
            .map_err(|e| mismatch(format!("stats.rank{rank}.txt: {e}")))?;
        if t.pure_msgs != pred.send_msgs
            || t.pure_elems != pred.send_elems
            || t.collectives != pred.collectives
        {
            return Err(mismatch(format!(
                "alg{alg} rank {rank}: measured ({} msgs, {} elems, {} colls) != \
                 static schedule ({}, {}, {})",
                t.pure_msgs,
                t.pure_elems,
                t.collectives,
                pred.send_msgs,
                pred.send_elems,
                pred.collectives
            )));
        }
        // wire identity: every logical message crossed the kernel as
        // exactly one frame of 8·elems payload + fixed overhead
        let expect_bytes = expected_wire_bytes(t.raw_sends, t.raw_send_elems);
        if t.wire_msgs != t.raw_sends || t.wire_bytes != expect_bytes {
            return Err(mismatch(format!(
                "alg{alg} rank {rank}: wire counters ({} frames, {} bytes) != \
                 logical stats ({} msgs, 8·{} + {WIRE_OVERHEAD_BYTES}·{} = {} bytes)",
                t.wire_msgs, t.wire_bytes, t.raw_sends, t.raw_send_elems, t.raw_sends, expect_bytes
            )));
        }
        wire_bytes_total += t.wire_bytes;
        step_ns = step_ns.max(t.step_ns_p50);
    }
    println!(
        "agcm-run: {head}: state bitwise == {what}, measured traffic == static schedule on \
         all {p} ranks, wire identity holds ({wire_bytes_total} bytes in the measured step)"
    );
    if step_ns > 0 {
        println!(
            "agcm-run: alg{alg} p={p}: median steady step {:.3} ms ({:.1} steps/s), built for {}",
            step_ns as f64 * 1e-6,
            1e9 / step_ns as f64,
            obs::build_isa()
        );
    }
    match &w.run.trace {
        Some(dir) => analyze_world_trace(alg, pgrid, cfg, dir, out).map_err(mismatch),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Distributed trace analysis (parent side of --trace)
// ---------------------------------------------------------------------------

/// The step index the critical-path analysis targets: the models stamp
/// spans with their pre-increment step counter, so the warm-up records
/// step 0 and the measured steady-state step — the one the static
/// schedule describes — records step 1.
pub const MEASURED_STEP: u64 = 1;

/// A finite `f64` as a JSON number (non-finite values become `null`).
pub(crate) fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".to_string()
    }
}

/// Validate and analyze the merged trace of one finished world:
///
/// 1. the merged Chrome trace must be RFC 8259-valid JSON with at least
///    one span per rank and one `Op` span per operator phase per rank in
///    the measured step;
/// 2. joined against the static [`ScheduleGraph`], the measured step must
///    attribute cleanly (exchange-wait and collective span counts equal
///    the schedule's, per rank) and name its critical path;
/// 3. the cost model's prediction of the same step under
///    [`CostModel::BENCH_HOST`] is set beside the measured critical path,
///    segment by segment.
///
/// Artifacts (`trace_alg{N}.json`, `critpath_alg{N}.json`,
/// `telemetry_alg{N}.txt`) land in `trace_out` (`--trace-out`, default
/// `target/trace-dist`).
fn analyze_world_trace(
    alg: u32,
    pgrid: ProcessGrid,
    cfg: &ModelConfig,
    trace_out: &Path,
    out: &Path,
) -> Result<(), String> {
    let p = pgrid.size();
    fs::create_dir_all(trace_out).map_err(|e| format!("{}: {e}", trace_out.display()))?;

    // 1. merged trace: valid JSON, every rank and phase represented
    let trace_src = fs::read_to_string(out.join("trace.json"))
        .map_err(|e| format!("reading merged trace: {e}"))?;
    obs::validate_json(&trace_src).map_err(|e| format!("merged trace is not valid JSON: {e}"))?;
    let blob = fs::read(out.join("events.bin")).map_err(|e| format!("reading events.bin: {e}"))?;
    let merged = dist::decode_events(&blob).map_err(|e| format!("decoding events.bin: {e}"))?;
    // the program is SPMD: any operator phase one rank ran in the measured
    // step, every rank must have run (Alg 1 has no deferred-smoothing S2
    // phase, so the required set is derived from the trace, not hardcoded)
    let ran = |rank: usize, phase: obs::Phase| {
        merged.iter().any(|e| {
            e.rank == rank
                && e.kind == obs::SpanKind::Op
                && e.phase == phase
                && e.step == MEASURED_STEP
        })
    };
    for rank in 0..p {
        if !merged.iter().any(|e| e.rank == rank) {
            return Err(format!(
                "alg{alg}: merged trace has no track for rank {rank}"
            ));
        }
        for phase in obs::Phase::OPERATORS {
            if !ran(rank, phase) && (0..p).any(|r| ran(r, phase)) {
                return Err(format!(
                    "alg{alg} rank {rank}: no phase-{} op span in the measured step \
                     (other ranks ran it)",
                    phase.label()
                ));
            }
        }
    }
    if !(0..p).any(|r| ran(r, obs::Phase::A)) {
        return Err(format!(
            "alg{alg}: no adaptation op spans at all in the measured step"
        ));
    }

    // 2. critical path of the measured step against the static schedule
    let kind = alg_kind(alg)?;
    let graph = ScheduleGraph::extract(cfg, kind, CaMode::Grouped, pgrid)?;
    let measured: Vec<obs::Event> = merged
        .iter()
        .filter(|e| e.step == MEASURED_STEP)
        .cloned()
        .collect();
    let rep = critpath::analyze(&measured, &graph);
    if !rep.is_consistent() {
        return Err(format!(
            "alg{alg}: merged trace inconsistent with the static schedule: {}",
            rep.errors.join("; ")
        ));
    }
    let step = rep
        .steps
        .first()
        .ok_or_else(|| format!("alg{alg}: no complete measured step in the merged trace"))?;

    // 3. what the cost model says the same step costs, by the segments
    // the measured critical path is split into
    let predicted = predict(cfg, kind, pgrid, CaMode::Grouped, &CostModel::BENCH_HOST)
        .map_err(|e| format!("alg{alg}: predicting the traced step: {e}"))?;
    let segments = segments(&predicted, step);

    fs::copy(
        out.join("trace.json"),
        trace_out.join(format!("trace_alg{alg}.json")),
    )
    .map_err(|e| format!("copying trace: {e}"))?;
    let _ = fs::copy(
        out.join("telemetry.txt"),
        trace_out.join(format!("telemetry_alg{alg}.txt")),
    );
    let report = critpath_report_json(alg, p, step, &predicted, &segments);
    obs::validate_json(&report).map_err(|e| format!("critical-path report JSON invalid: {e}"))?;
    fs::write(trace_out.join(format!("critpath_alg{alg}.json")), &report)
        .map_err(|e| format!("critpath_alg{alg}.json: {e}"))?;

    let block = step
        .blocking
        .first()
        .map(|a| format!("{} ({})", a.op_label, a.name))
        .unwrap_or_else(|| "none".to_string());
    let table: Vec<String> = segments
        .iter()
        .map(|(name, want, got)| format!("{name} {:.1}/{:.1}", want * 1e6, got * 1e6))
        .collect();
    println!(
        "agcm-run: alg{alg} trace: {} events, {p} tracks merged; step {}: makespan {:.1} µs \
         (predicted {:.1} µs under {}), critical rank {} (predicted {}), longest block: {block}; \
         predicted/measured µs: {}",
        merged.len(),
        step.step,
        step.makespan_ns as f64 / 1e3,
        predicted.makespan_s * 1e6,
        CostModel::BENCH_HOST.name,
        step.critical_rank,
        predicted.critical_rank,
        table.join(", "),
    );
    Ok(())
}

/// `(segment, predicted seconds, measured seconds)`: the predicted critical
/// path beside the measured critical rank's spans.
fn segments(
    predicted: &Prediction,
    measured: &critpath::StepCriticalPath,
) -> [(&'static str, f64, f64); 4] {
    let (want, got) = (&predicted.path, &measured.breakdown);
    [
        ("compute", want.compute_s, got.compute_ns as f64 * 1e-9),
        ("pack", want.pack_s, got.pack_ns as f64 * 1e-9),
        ("wire-wait", want.wait_s, got.wire_wait_ns as f64 * 1e-9),
        (
            "collective",
            want.collective_s,
            got.collective_ns as f64 * 1e-9,
        ),
    ]
}

/// Hand-rolled (std-only) JSON critical-path report of one world: the
/// measured step, its longest blocking spans, and the prediction beside it.
fn critpath_report_json(
    alg: u32,
    p: usize,
    step: &critpath::StepCriticalPath,
    predicted: &Prediction,
    segments: &[(&'static str, f64, f64)],
) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 2,\n");
    s.push_str(&format!("  \"alg\": {alg},\n  \"ranks\": {p},\n"));
    s.push_str(&format!("  \"build_isa\": \"{}\",\n", obs::build_isa()));
    let b = &step.breakdown;
    let blocking: Vec<String> = step
        .blocking
        .iter()
        .take(5)
        .map(|a| {
            format!(
                "      {{\"rank\": {}, \"op\": {}, \"label\": \"{}\", \"name\": \"{}\", \
                 \"dur_ns\": {}, \"bytes\": {}}}",
                a.rank, a.op, a.op_label, a.name, a.dur_ns, a.bytes
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"critical_path\": {{\"step\": {}, \"makespan_ns\": {}, \"critical_rank\": {}, \
         \"critical_wall_ns\": {}, \"compute_ns\": {}, \"pack_ns\": {}, \"wire_wait_ns\": {}, \
         \"collective_ns\": {},\n    \"blocking\": [\n{}\n    ]}},\n",
        step.step,
        step.makespan_ns,
        step.critical_rank,
        step.critical_wall_ns,
        b.compute_ns,
        b.pack_ns,
        b.wire_wait_ns,
        b.collective_ns,
        blocking.join(",\n"),
    ));
    let rows: Vec<String> = segments
        .iter()
        .map(|(name, want, got)| {
            format!(
                "    {{\"segment\": \"{name}\", \"predicted_s\": {}, \"measured_s\": {}}}",
                jnum(*want),
                jnum(*got)
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"predicted\": {{\"model\": \"{}\", \"makespan_s\": {}, \"critical_rank\": {}}},\n  \
         \"segments\": [\n{}\n  ]\n",
        CostModel::BENCH_HOST.name,
        jnum(predicted.makespan_s),
        predicted.critical_rank,
        rows.join(",\n"),
    ));
    s.push_str("}\n");
    s
}

pub(crate) fn serial_reference(
    cfg: &ModelConfig,
    variant: Iteration,
    steps: usize,
) -> Result<GlobalState, String> {
    let mut m = SerialModel::new(cfg, variant).map_err(|e| e.to_string())?;
    let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
    m.set_state(&ic);
    m.run(steps);
    Ok(GlobalState::from_serial(&m.state, m.geom()))
}

/// The world's own integration run in-process: one thread per rank over the
/// mpsc transport, gathered on rank 0.
fn threaded_reference(
    alg: u32,
    cfg: &ModelConfig,
    pgrid: ProcessGrid,
    steps: usize,
) -> Result<GlobalState, String> {
    let gathered = Universe::run(pgrid.size(), |comm| {
        let mut model = new_model(alg, cfg, pgrid, comm)?;
        set_default_ic(&mut model);
        for _ in 0..steps {
            model.step(Some(comm)).map_err(|e| e.to_string())?;
        }
        model.finish(Some(comm)).map_err(|e| e.to_string())?;
        model.gather_state(comm).map_err(|e| e.to_string())
    });
    let root = gathered
        .into_iter()
        .next()
        .ok_or("the in-process world has no rank 0")?;
    root?.ok_or_else(|| "rank 0 gathered no state".into())
}

/// Bit-pattern equality of every field (stricter than `max_abs_diff == 0`,
/// which cannot tell `-0.0` from `0.0`).
pub fn states_bitwise_equal(a: &GlobalState, b: &GlobalState) -> bool {
    let bits = |xs: &[f64], ys: &[f64]| {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    a.extents == b.extents
        && bits(&a.u, &b.u)
        && bits(&a.v, &b.v)
        && bits(&a.phi, &b.phi)
        && bits(&a.psa, &b.psa)
}

// ---------------------------------------------------------------------------
// On-disk exchange formats (state + per-rank traffic)
// ---------------------------------------------------------------------------

/// One rank's traffic report for the measured (second) step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankTraffic {
    /// Halo messages sent (collective-internal p2p subtracted).
    pub pure_msgs: u64,
    /// Halo `f64` elements sent.
    pub pure_elems: u64,
    /// Collective calls entered.
    pub collectives: u64,
    /// All p2p messages sent, collective-internal included.
    pub raw_sends: u64,
    /// All `f64` elements sent, collective-internal included.
    pub raw_send_elems: u64,
    /// Frames the transport wrote.
    pub wire_msgs: u64,
    /// Bytes the transport wrote (headers + payloads + checksums).
    pub wire_bytes: u64,
    /// Median wall time, in ns, of the steps after the measured one (0
    /// when `--steps` leaves none).
    pub step_ns_p50: u64,
}

impl RankTraffic {
    /// Serialize as `key=value` lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let body = format!(
            "pure_msgs={}\npure_elems={}\ncollectives={}\nraw_sends={}\n\
             raw_send_elems={}\nwire_msgs={}\nwire_bytes={}\nstep_ns_p50={}\n",
            self.pure_msgs,
            self.pure_elems,
            self.collectives,
            self.raw_sends,
            self.raw_send_elems,
            self.wire_msgs,
            self.wire_bytes,
            self.step_ns_p50
        );
        fs::write(path, body)
    }

    /// Parse a file written by [`RankTraffic::write`].
    pub fn read(path: &Path) -> io::Result<RankTraffic> {
        let body = fs::read_to_string(path)?;
        let mut t = RankTraffic::default();
        for line in body.lines() {
            let Some((k, v)) = line.split_once('=') else {
                return Err(bad(format!("malformed line {line:?}")));
            };
            let v: u64 = v.parse().map_err(|e| bad(format!("{k}: {e}")))?;
            match k {
                "pure_msgs" => t.pure_msgs = v,
                "pure_elems" => t.pure_elems = v,
                "collectives" => t.collectives = v,
                "raw_sends" => t.raw_sends = v,
                "raw_send_elems" => t.raw_send_elems = v,
                "wire_msgs" => t.wire_msgs = v,
                "wire_bytes" => t.wire_bytes = v,
                "step_ns_p50" => t.step_ns_p50 = v,
                other => return Err(bad(format!("unknown key {other:?}"))),
            }
        }
        Ok(t)
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write a gathered state with exact bit patterns (little-endian `f64`
/// bits), so the parent's comparison is genuinely bitwise.
pub fn write_state(path: &Path, gs: &GlobalState) -> io::Result<()> {
    let mut w = io::BufWriter::new(fs::File::create(path)?);
    w.write_all(STATE_MAGIC)?;
    let (nx, ny, nz) = gs.extents;
    for d in [nx as u64, ny as u64, nz as u64] {
        w.write_all(&d.to_le_bytes())?;
    }
    for arr in [&gs.u, &gs.v, &gs.phi, &gs.psa] {
        w.write_all(&(arr.len() as u64).to_le_bytes())?;
        for v in arr.iter() {
            w.write_all(&v.to_bits().to_le_bytes())?;
        }
    }
    w.flush()
}

/// Read a state written by [`write_state`].
pub fn read_state(path: &Path) -> io::Result<GlobalState> {
    let mut r = io::BufReader::new(fs::File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != STATE_MAGIC {
        return Err(bad(format!("bad magic {magic:02x?}")));
    }
    let nx = r_u64(&mut r)? as usize;
    let ny = r_u64(&mut r)? as usize;
    let nz = r_u64(&mut r)? as usize;
    let mut arrs = [const { Vec::new() }; 4];
    for arr in arrs.iter_mut() {
        *arr = r_vec(&mut r)?;
    }
    let [u, v, phi, psa] = arrs;
    Ok(GlobalState {
        extents: (nx, ny, nz),
        u,
        v,
        phi,
        psa,
    })
}

fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn r_vec(r: &mut impl Read) -> io::Result<Vec<f64>> {
    let n = r_u64(r)?;
    if n > 1 << 32 {
        return Err(bad(format!("absurd array length {n}")));
    }
    let mut out = Vec::with_capacity(n as usize);
    let mut b = [0u8; 8];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        out.push(f64::from_bits(u64::from_le_bytes(b)));
    }
    Ok(out)
}

/// The wire-stats identity the parent asserts, exported for reuse in
/// tests: expected bytes for `msgs` frames carrying `elems` total `f64`s.
pub fn expected_wire_bytes(msgs: u64, elems: u64) -> u64 {
    8 * elems + WIRE_OVERHEAD_BYTES * msgs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_defaults_and_flags() {
        let o = parse_args(&[]).unwrap().unwrap();
        assert_eq!((o.ranks, o.pz), (4, 1));
        assert_eq!(o.alg, AlgSel::Both);
        let args = |line: &str| line.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--ranks 2 --pz 2 --alg 1 --steps 3 --keep-out"));
        let o = o.unwrap().unwrap();
        assert_eq!(
            (o.ranks, o.pz, o.alg, o.steps, o.keep_out),
            (2, 2, AlgSel::Alg1, 3, true)
        );
        assert!(parse_args(&args("--ranks 4 --pz 3")).is_err());
        assert!(parse_args(&args("--pz 2 --kill 1:1")).is_err());
        assert!(parse_args(&["--ranks".into(), "0".into()]).is_err());
        assert!(parse_args(&["--steps".into(), "1".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert!(parse_args(&["--help".into()]).unwrap().is_none());
    }

    #[test]
    fn state_file_round_trips_bit_patterns() {
        let gs = GlobalState {
            extents: (2, 1, 1),
            u: vec![1.5, -0.0],
            v: vec![f64::from_bits(0x7FF0_0000_0000_0001), 0.0],
            phi: vec![std::f64::consts::PI],
            psa: vec![-3.25, 4.0],
        };
        let path = std::env::temp_dir().join(format!("agcm_run_state_{}.bin", std::process::id()));
        write_state(&path, &gs).unwrap();
        let back = read_state(&path).unwrap();
        fs::remove_file(&path).ok();
        assert!(states_bitwise_equal(&back, &gs));
        // -0.0 vs 0.0 must be caught by the bitwise comparison
        let mut flipped = gs.clone();
        flipped.u[1] = 0.0;
        assert!(!states_bitwise_equal(&back, &flipped));
    }

    #[test]
    fn traffic_file_round_trips() {
        let t = RankTraffic {
            pure_msgs: 4,
            pure_elems: 1000,
            collectives: 7,
            raw_sends: 16,
            raw_send_elems: 1200,
            wire_msgs: 16,
            wire_bytes: expected_wire_bytes(16, 1200),
            step_ns_p50: 1_875_000,
        };
        let path = std::env::temp_dir().join(format!("agcm_run_stats_{}.txt", std::process::id()));
        t.write(&path).unwrap();
        let back = RankTraffic::read(&path).unwrap();
        fs::remove_file(&path).ok();
        assert_eq!(back, t);
    }
}
