//! `agcm-run` — multi-process launcher for the socket-backed runtime.
//!
//! Everywhere else in this repository the simulated-MPI world is a set of
//! *threads* inside one test binary.  This crate runs the same SPMD
//! programs as a set of OS **processes**, one per rank, talking through
//! [`agcm_comm::SocketTransport`] (Unix-domain sockets) — the closest this
//! reproduction gets to a real `mpirun`.
//!
//! The binary is its own worker: launched with no `AGCM_RANK` in the
//! environment it acts as the parent, spawning `--ranks` copies of itself
//! with the handshake variables set (`AGCM_RANK`, `AGCM_WORLD_SIZE`,
//! `AGCM_ENDPOINT`); launched *with* `AGCM_RANK` it connects the socket
//! mesh and integrates its block of the model in the one worker every rank
//! of every world runs (see the `elastic` module).
//!
//! Every world is a phase of a [`Plan`] run by one phase runner under one
//! supervisor; it is classic or elastic only by the respawn policy the
//! parent gives that supervisor.  Of a classic world the parent re-derives
//! every cross-transport claim the paper reproduction rests on:
//!
//! 1. **Bitwise equivalence**: the [`GlobalState`] the parent assembles
//!    from every rank's final checkpoint must match a serial reference
//!    integrated in the parent process bit for bit, for Algorithm 1 (vs the
//!    exact iteration) and Algorithm 2 (vs the approximate iteration).
//! 2. **Certified counts**: each rank's measured steady-state halo traffic
//!    (collective-internal messages subtracted, exactly as
//!    [`agcm_verify::cross_check`] does over threads) must equal the static
//!    schedule analyzer's per-rank prediction.
//! 3. **Wire identity**: the socket transport's byte counters must satisfy
//!    `bytes == 8·elems + WIRE_OVERHEAD_BYTES·msgs` against the logical
//!    element counts — every message the model believes it sent crossed
//!    the kernel as exactly one checksummed frame, nothing more.
//!
//! Each rank reports one way: when its world ends it leaves its final
//! checkpoint and one record ([`agcm_obs::dist::Record`]: its metrics, the
//! measured step's traffic among them, and under `--trace` its clock
//! offset and span stream) in its world's directory, and the parent reads
//! them there.

#![forbid(unsafe_code)]
use agcm_comm::fault::FaultPlan;
use agcm_comm::{
    Communicator, CostModel, Endpoint, SocketTransport, Universe, WIRE_OVERHEAD_BYTES,
};
use agcm_core::analysis::{predict, AlgKind, CaMode, Prediction};
use agcm_core::par::GlobalState;
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::{assemble, init, Integrator, ModelConfig};
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;
use agcm_obs::dist::{self, Record};
use agcm_verify::{critpath, rank_counts, ScheduleGraph};
use elastic::{run_phase, Ckpt, Kill, Launch, WorldSpec};
use std::fmt::Display;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

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
enum AlgSel {
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
struct RunOpts {
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
    /// Endpoint override (a UDS base path); default is a fresh unique UDS
    /// base under the temp directory per run.
    pub endpoint: Option<Endpoint>,
    /// Kill the world and fail if it has not finished within this budget.
    pub timeout: Duration,
    /// Keep the per-run scratch directory instead of deleting it.
    pub keep_out: bool,
    /// Record per-rank span streams, merge them in the parent into one
    /// clock-aligned Chrome trace, and run the critical-path/cost-model
    /// analysis there.
    pub trace: bool,
    /// Where the merged trace and critical-path artifacts land (default
    /// `target/trace-dist`).
    pub trace_out: Option<PathBuf>,
    /// Elastic mode: supervise the workers and, when a rank dies, restart
    /// the whole world from its checkpoint set up to this many times
    /// (`Some(0)` supervises but never restarts).  `None` = classic
    /// fail-fast mode.
    pub max_respawns: Option<u32>,
    /// Planned resize: run the first half of the steps at `--ranks`, then
    /// re-decompose the checkpoints onto this many ranks, re-certify the
    /// new schedule, and finish there.  Implies elastic mode; Algorithm 1
    /// only.
    pub resize: Option<usize>,
    /// Chaos injection `(rank, step)` events (repeatable `--kill`): each
    /// listed worker aborts (as if `kill -9`'d) at its first send after
    /// completing the step.  Implies elastic mode; under `--resize`, kills
    /// before the hand-off step hit phase 1 and the rest hit phase 2.
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
    fn respawn_budget(&self) -> Option<u32> {
        self.elastic().then(|| self.max_respawns.unwrap_or(2))
    }

    /// The phases this invocation runs: one world of `--ranks`, or under
    /// `--resize` the first `steps / 2` there and the rest at P2.  A kill
    /// belongs to the last phase starting at or before its step, and a
    /// phase's kills fire in step order.
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
                let send = Kill::agreement_sends(ph.p);
                ph.kills.push(Kill { rank, step, send });
            }
        }
        for ph in &mut phases {
            ph.kills.sort_by_key(|k| k.step);
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
             [--endpoint PATH] [--timeout-secs N] [--keep-out]
             [--trace] [--trace-out DIR]
             [--max-respawns N] [--resize P2] [--kill RANK:STEP]...

Launches N copies of this binary (handshake via AGCM_RANK / AGCM_WORLD_SIZE /
AGCM_ENDPOINT) as the yz(N / pz, pz) process grid (--pz defaults to 1, a
latitude split), integrates the test_medium configuration, and verifies the
state assembled from the ranks' final checkpoints bitwise against an
in-process serial reference, the measured
per-rank traffic against the static schedule analyzer, and the wire-level
byte counters against the logical element counts.  Exit code 0 only if every
check passes on every rank.  With --steps above 2 it also prints the median
wall time of the steps after the verified one; AGCM_FAULT_SPEC in the
environment reaches every rank, so `AGCM_FAULT_SPEC=lat:us=200` makes every
message arrive 200 us late — the latency dial of a host that has none.

With --trace every rank records spans, aligns its clock against rank 0 and
leaves its stream in its record at run end; the parent merges them into one
Chrome trace, validates the JSON, attributes the measured step's critical
path against the static schedule, and sets it beside the cost model's
prediction of the same step, segment by segment (artifacts under
--trace-out, default target/trace-dist).

Every worker checkpoints every step.  Any of --max-respawns / --resize /
--kill selects ELASTIC mode: a dead rank ends its world, and every rank is
restarted as a fresh process from the newest step all of them hold
durable — the completed run is still verified bitwise against the serial
reference.  --kill RANK:STEP (repeatable) injects failures: that worker
aborts, as if kill -9'd, at its first send after completing STEP, through
an AGCM_FAULT_SPEC crash rule; the kills fire one world at a time, in step
order.  --max-respawns N bounds the number of restarts for the WHOLE run,
across every resize phase (default 2).  A tcp: endpoint is refused.
--resize P2 runs the first half of the steps at --ranks, re-decomposes the
checkpointed mesh onto P2 ranks, re-certifies the P2 schedule, and finishes
there (Algorithm 1 only: CA checkpoints are tied to their decomposition).
Exit codes: 0 all checks passed, 1 runtime failure, 2 usage (a malformed
AGCM_FAULT_SPEC/_SEED, AGCM_COMM_TIMEOUT_MS or AGCM_THREADS among them),
4 respawn budget exhausted, 5 verification mismatch.";

/// Parse the parent's command line (everything after `argv[0]`).
fn parse_args(args: &[String]) -> Result<Option<RunOpts>, String> {
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
            "--endpoint" => {
                opts.endpoint = Some(Endpoint::parse(&value("--endpoint", &mut it)?)?);
            }
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
    match (agcm_comm::parse_env::<usize>("AGCM_RANK"), runtime_env()) {
        (Err(e), _) => failed("", &e, 2),
        (Ok(Some(_)), Err(e)) => failed(" worker", &e, 1),
        (Ok(None), Err(e)) => failed("", &e, 2),
        (Ok(Some(_)), Ok(())) => worker_main().map_or_else(|e| failed(" worker", &e, 1), |()| 0),
        (Ok(None), Ok(())) => match parse(&std::env::args().skip(1).collect::<Vec<_>>()) {
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

/// The runtime variables every process reads (the fault plan, the comm
/// timeout, the pool size), parsed before anything else: a malformed one is
/// an error naming it — exit 2 in the parent, before any spawn; exit 1 in a
/// worker, before the mesh connects — not a panic mid-world.
fn runtime_env() -> Result<(), Box<dyn std::error::Error>> {
    FaultPlan::try_from_env()?;
    agcm_comm::timeout_from_env()?;
    agcm_core::pool::workers_from_env()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// A worker variable, `None` when unset; a malformed one is an error
/// naming it.
fn opt_env<T: FromStr>(name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    agcm_comm::parse_env(name).map_err(|e| e.to_string())
}

fn req_env<T: FromStr>(name: &str) -> Result<T, String>
where
    T::Err: Display,
{
    opt_env(name)?.ok_or_else(|| format!("{name} must be set for a worker"))
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
    /// Where its checkpoints and records go, and how often.
    pub ckpt: Ckpt,
    /// `AGCM_EPOCH`: which generation of its world this incarnation
    /// belongs to (0 until the first restart).  It names the record and
    /// decides the measured bracket and the recovery burst.
    pub generation: u64,
    /// `AGCM_RUN_TRACE=1`: record spans and align the clock onto rank 0's.
    pub tracing: bool,
}

/// One rank of a launched world: connect the socket mesh and run the one
/// worker (`run_rank`).  What the world's records can prove is the
/// parent's to decide, by the respawn policy it supervises the world under.
fn worker_main() -> Result<(), String> {
    // every launcher variable is parsed before the socket mesh connects: a
    // malformed one is an error naming it (exit 1), never a panic mid-world
    let rank: usize = req_env("AGCM_RANK")?;
    let w = Worker {
        rank,
        alg: req_env("AGCM_RUN_ALG")?,
        steps: req_env("AGCM_RUN_STEPS")?,
        pgrid: ProcessGrid::yz(req_env("AGCM_RUN_PY")?, req_env("AGCM_RUN_PZ")?)
            .map_err(|e| e.to_string())?,
        ckpt: Ckpt {
            dir: req_env("AGCM_CKPT_DIR")?,
            interval: req_env("AGCM_CKPT_INTERVAL")?,
            keep: req_env("AGCM_CKPT_KEEP")?,
        },
        generation: opt_env("AGCM_EPOCH")?.unwrap_or(0),
        tracing: opt_env::<u32>("AGCM_RUN_TRACE")? == Some(1),
    };
    if w.tracing {
        // before the socket mesh comes up, so this rank's own handshake
        // and reader-thread spans are captured and attributed to it
        obs::set_rank(rank);
        obs::enable();
    }
    let transport = SocketTransport::from_env()
        .ok_or("AGCM_RANK must be set for a worker")?
        .map_err(|e| format!("socket transport: {e}"))?;
    elastic::run_rank(&w, transport)
}

/// The measured step's traffic, as the counters the record of a fresh
/// world's rank carries: halo messages and elements sent
/// (collective-internal p2p subtracted), collective calls entered, all p2p
/// messages and elements sent, the frames and bytes the transport wrote,
/// and the median wall time in ns of the steps after the measured one (0
/// when `--steps` leaves none).
pub(crate) const TRAFFIC: [&str; 8] = [
    "run.measured.pure_msgs",
    "run.measured.pure_elems",
    "run.measured.collectives",
    "run.measured.raw_sends",
    "run.measured.raw_send_elems",
    "run.measured.wire_msgs",
    "run.measured.wire_bytes",
    "run.measured.step_ns_p50",
];

// ---------------------------------------------------------------------------
// Records: what each rank leaves in its world's directory
// ---------------------------------------------------------------------------

/// File name of one incarnation's record in its world's directory, tagged
/// with the generation of the world it ran in (its `AGCM_EPOCH`; always 0
/// in a world that restarts nothing).  Fixed-width so the names sort.
pub(crate) fn record_file_name(rank: usize, generation: u64) -> String {
    format!("record.rank{rank:04}.epoch{generation:08}.bin")
}

/// Write (or overwrite) one incarnation's record in `dir`, tmp + rename: a
/// reader sees the previous record or this one, never a torn file.
pub(crate) fn write_record(
    dir: &Path,
    rank: usize,
    generation: u64,
    rec: &Record,
) -> io::Result<()> {
    let path = dir.join(record_file_name(rank, generation));
    let tmp = path.with_extension("bin.tmp");
    fs::write(&tmp, dist::encode_record(rec)).and_then(|()| fs::rename(&tmp, &path))
}

/// Read one record; a missing or undecodable file is an error naming it.
pub(crate) fn read_record(path: &Path) -> Result<Record, String> {
    let bytes = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    dist::decode_record(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every record `rank`'s incarnations left in `dir`, as `(generation,
/// record)` by ascending generation — one file per incarnation, so summing them
/// ([`agcm_obs::dist::merge_rank_metrics`]) sums each incarnation's final
/// counts.  A `.tmp` a killed writer left behind is not a record; any other
/// unreadable one is an error naming it.
pub(crate) fn read_records(dir: &Path, rank: usize) -> Result<Vec<(u64, Record)>, String> {
    let prefix = format!("record.rank{rank:04}.epoch");
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let generation = name
            .strip_prefix(&prefix)
            .and_then(|r| r.strip_suffix(".bin"));
        if let Some(generation) = generation.and_then(|g| g.parse().ok()) {
            out.push((generation, read_record(&path)?));
        }
    }
    out.sort_by_key(|(e, _)| *e);
    Ok(out)
}

/// The measured step's traffic a record carries ([`TRAFFIC`]'s order), or
/// `None` when a counter is missing.
fn measured_traffic(rec: &Record) -> Option<[u64; 8]> {
    let mut out = [0; 8];
    for (v, name) in out.iter_mut().zip(TRAFFIC) {
        *v = *rec.metrics.counters.get(name)?;
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Parent
// ---------------------------------------------------------------------------

/// Run every selected algorithm's plan; `Err` carries the first failed
/// check, classified for the exit code (respawn exhaustion, verification
/// mismatch, or anything else).
fn run_parent(opts: &RunOpts) -> Result<(), ParentError> {
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
                (Some(ep), 0) => ep.clone(),
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

/// The checks a finished world ends with.  The state assembled from every
/// rank's final checkpoint must be bitwise the in-process reference: the
/// serial model — or, under a z split, whose allgather re-associates `C`'s
/// column sums so that no z-split world is bitwise the serial one, the same
/// world on threads over the mpsc transport.  A `classic` world — no
/// respawn policy — then adds the measured traffic its ranks' records
/// carry against the static schedule, the wire identity and, under
/// `--trace`, the trace analysis; an elastic world's replayed (rolled-back)
/// steps send real frames, so those hold only in a classic one.
pub(crate) fn verify_world(
    w: &WorldSpec,
    cfg: &ModelConfig,
    label: &str,
    classic: bool,
) -> Result<(), ParentError> {
    let (alg, pgrid, steps, dir) = (w.run.alg, w.pgrid, w.steps, &w.ckpt.dir);
    let p = pgrid.size();
    let mismatch = ParentError::VerificationMismatch;
    let head = format!("{label}: alg{alg} p={p} steps={steps}");
    // a missing or corrupt rank file is a failed run (exit 1), not a wrong
    // answer (exit 5)
    let failed = |e: String| ParentError::Other(format!("{head}: {e}"));
    let assembled = assemble(dir, pgrid, cfg.extents(), steps as u64)
        .map_err(|e| failed(format!("assembling the final state: {e}")))?;
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
    if !states_bitwise_equal(&assembled, &reference) {
        return Err(mismatch(format!(
            "{head}: assembled state differs from the {what} (max |diff| = {:e})",
            assembled.max_abs_diff(&reference)
        )));
    }
    if !classic {
        println!("agcm-run: {head}: state bitwise == {what}");
        return Ok(());
    }

    // measured traffic == static schedule prediction, rank by rank
    let records = (0..p)
        .map(|rank| read_record(&dir.join(record_file_name(rank, 0))))
        .collect::<Result<Vec<_>, _>>()
        .map_err(failed)?;
    let graph = ScheduleGraph::extract(cfg, alg_kind(alg)?, CaMode::Grouped, pgrid)?;
    let mut wire_bytes_total = 0u64;
    let mut step_ns = 0u64; // the slowest rank's median steady step
    for (rank, (pred, rec)) in rank_counts(&graph).iter().zip(&records).enumerate() {
        let [pure_msgs, pure_elems, collectives, raw_sends, raw_send_elems, wire_msgs, wire_bytes, step_ns_p50] =
            measured_traffic(rec).ok_or_else(|| {
                failed(format!("rank {rank}'s record carries no measured traffic"))
            })?;
        if pure_msgs != pred.send_msgs
            || pure_elems != pred.send_elems
            || collectives != pred.collectives
        {
            return Err(mismatch(format!(
                "alg{alg} rank {rank}: measured ({pure_msgs} msgs, {pure_elems} elems, \
                 {collectives} colls) != static schedule ({}, {}, {})",
                pred.send_msgs, pred.send_elems, pred.collectives
            )));
        }
        // wire identity: every logical message crossed the kernel as
        // exactly one frame of 8·elems payload + fixed overhead
        let expect_bytes = 8 * raw_send_elems + WIRE_OVERHEAD_BYTES * raw_sends;
        if wire_msgs != raw_sends || wire_bytes != expect_bytes {
            return Err(mismatch(format!(
                "alg{alg} rank {rank}: wire counters ({wire_msgs} frames, {wire_bytes} bytes) != \
                 logical stats ({raw_sends} msgs, 8·{raw_send_elems} + \
                 {WIRE_OVERHEAD_BYTES}·{raw_sends} = {expect_bytes} bytes)"
            )));
        }
        wire_bytes_total += wire_bytes;
        step_ns = step_ns.max(step_ns_p50);
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
        Some(trace_out) => {
            analyze_world_trace(alg, pgrid, cfg, trace_out, records).map_err(mismatch)
        }
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
const MEASURED_STEP: u64 = 1;

/// A finite `f64` as a JSON number (non-finite values become `null`).
pub(crate) fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".to_string()
    }
}

/// Merge the span streams of one finished world's records onto rank 0's
/// clock, then validate and analyze the merged trace:
///
/// 1. the merged Chrome trace must be RFC 8259-valid JSON;
/// 2. joined against the static [`ScheduleGraph`] by
///    [`critpath::analyze`], the measured step must be complete on every
///    rank, consistent with the schedule, and name its critical path;
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
    records: Vec<Record>,
) -> Result<(), String> {
    let p = pgrid.size();
    fs::create_dir_all(trace_out).map_err(|e| format!("{}: {e}", trace_out.display()))?;

    // 1. merged trace: valid JSON
    let mut telemetry = Vec::new();
    let mut streams = Vec::with_capacity(p);
    for (rank, rec) in records.into_iter().enumerate() {
        let (offset, events) = rec
            .trace
            .ok_or_else(|| format!("alg{alg} rank {rank}: its record carries no spans"))?;
        telemetry.push(format!(
            "offset rank={rank} offset_ns={} rtt_ns={} events={}",
            offset.offset_ns,
            offset.rtt_ns,
            events.len()
        ));
        if let Some(h) = rec.metrics.histograms.get("comm.recv_wait_ns") {
            telemetry.push(format!(
                "recv_wait rank={rank} count={} p50={} p95={} p99={} max={}",
                h.count, h.p50, h.p95, h.p99, h.max
            ));
        }
        streams.push((offset.offset_ns, events));
    }
    let merged = dist::merge_events(&streams);
    let trace_src = obs::chrome_trace_json(&merged);
    obs::validate_json(&trace_src).map_err(|e| format!("merged trace is not valid JSON: {e}"))?;

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

    let artifact = |name: String, body: &str| {
        fs::write(trace_out.join(&name), body).map_err(|e| format!("{name}: {e}"))
    };
    artifact(format!("trace_alg{alg}.json"), &trace_src)?;
    artifact(
        format!("telemetry_alg{alg}.txt"),
        &(telemetry.join("\n") + "\n"),
    )?;
    let report = critpath_report_json(alg, p, step, &predicted, &segments);
    obs::validate_json(&report).map_err(|e| format!("critical-path report JSON invalid: {e}"))?;
    artifact(format!("critpath_alg{alg}.json"), &report)?;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_comparison_sees_sign_of_zero_and_nan_payload() {
        let gs = GlobalState {
            extents: (2, 1, 1),
            u: vec![1.5, -0.0],
            v: vec![f64::from_bits(0x7FF0_0000_0000_0001), 0.0],
            phi: vec![std::f64::consts::PI, 2.0],
            psa: vec![-3.25, 4.0],
        };
        assert!(states_bitwise_equal(&gs, &gs.clone()));
        let mut zero = gs.clone();
        zero.u[1] = 0.0;
        assert!(!states_bitwise_equal(&gs, &zero));
        let mut nan = gs.clone();
        nan.v[0] = f64::from_bits(0x7FF0_0000_0000_0002);
        assert!(!states_bitwise_equal(&gs, &nan));
    }

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

    /// A rank's records round-trip through its world's directory: one per
    /// incarnation, by ascending generation, the measured traffic among
    /// their counters.  A `.tmp` is not a record, another rank's file is
    /// not this rank's, and a corrupt record is an error naming the file.
    #[test]
    fn record_files_round_trip() {
        let dir = std::env::temp_dir().join(format!("agcm_run_records_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let with = |traffic: [u64; 8]| {
            let mut rec = Record::default();
            for (name, v) in TRAFFIC.into_iter().zip(traffic) {
                rec.metrics.counters.insert(name.to_string(), v);
            }
            rec
        };
        write_record(&dir, 3, 2, &with([2; 8])).unwrap();
        write_record(&dir, 3, 0, &with([0; 8])).unwrap();
        write_record(&dir, 1, 0, &with([9; 8])).unwrap();
        fs::write(dir.join("record.rank0003.epoch00000005.bin.tmp"), b"torn").unwrap();
        let recs = read_records(&dir, 3).unwrap();
        let got: Vec<_> = recs
            .iter()
            .map(|(epoch, r)| (*epoch, measured_traffic(r)))
            .collect();
        assert_eq!(got, [(0, Some([0; 8])), (2, Some([2; 8]))]);
        assert_eq!(measured_traffic(&Record::default()), None);

        let bad = dir.join(record_file_name(3, 7));
        fs::write(&bad, b"AGCMREC1 but not one").unwrap();
        let err = read_records(&dir, 3).unwrap_err();
        assert!(err.contains(&bad.display().to_string()), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    /// The parent decodes records it did not write: a seeded mutation of a
    /// record with spans — truncated, bit-flipped or extended — decodes or
    /// is refused, and never panics or aborts on an allocation.
    #[test]
    fn mutated_records_never_panic() {
        use agcm_comm::fault::splitmix64;
        let span = |name, kind, phase, t0| obs::Event {
            rank: 1,
            step: 1,
            kind,
            phase,
            name,
            t0_ns: t0,
            t1_ns: t0 + 40,
            seq: t0,
            bytes: 4096,
            value: 0.0,
        };
        let mut rec = Record::default();
        for (name, v) in TRAFFIC.into_iter().zip(1..) {
            rec.metrics.counters.insert(name.to_string(), v);
        }
        let h = obs::HistogramSummary {
            count: 2,
            sum: 9,
            mean: 4.5,
            p50: 2,
            p95: 7,
            p99: 7,
            max: 7,
        };
        rec.metrics.histograms.insert("comm.recv_wait_ns".into(), h);
        let events = vec![
            span("adaptation.local", obs::SpanKind::Op, obs::Phase::A, 10),
            span(
                "halo.wait",
                obs::SpanKind::ExchangeWait,
                obs::Phase::Other,
                60,
            ),
            span("allreduce", obs::SpanKind::Collective, obs::Phase::C, 90),
        ];
        let offset = dist::OffsetEstimate {
            offset_ns: -5,
            rtt_ns: 9,
        };
        rec.trace = Some((offset, events));
        let good = dist::encode_record(&rec);
        assert!(dist::decode_record(&good).is_ok());
        for seed in 0..4000u64 {
            let mut x = splitmix64(seed);
            let mut next = || {
                x = splitmix64(x);
                x
            };
            let mut bytes = good.clone();
            for _ in 0..1 + next() % 3 {
                let n = bytes.len() as u64;
                match next() % 3 {
                    0 => bytes.truncate((next() % (n + 1)) as usize),
                    1 if n > 0 => bytes[(next() % n) as usize] ^= 1 << (next() % 8),
                    _ => bytes.extend((0..next() % 16).map(|_| next() as u8)),
                }
            }
            let _ = dist::decode_record(&bytes);
        }
    }
}
