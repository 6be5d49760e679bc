//! One workload run, inside the workload's own process: set-up
//! repetitions, warm-up, the timed window, the output checks and — with
//! tracing — the traced window and the layer probes.

use crate::fingerprints::{fingerprint, Key, Table};
use crate::json::{self, Json};
use crate::model::{initial_condition, launch, Model};
use crate::probes;
use crate::report::run_values;
use crate::stats::{best_case, median, quantile_sorted, tail_permille};
use crate::trace::{self, LayerTrace};
use crate::workloads::{metric_def, Alg, Counts, Transport, Workload, PER_LAYER};
use crate::{host, paths};
use agcm_comm::transport::{WireStats, WIRE_OVERHEAD_BYTES};
use agcm_comm::{p2p_only_delta, Communicator, StatsSnapshot};
use agcm_core::analysis::{AlgKind, CaMode};
use agcm_core::par::alg1::GlobalState;
use agcm_core::pool;
use agcm_core::serial::SerialModel;
use agcm_core::ModelConfig;
use agcm_mesh::Decomposition;
use agcm_obs as obs;
use agcm_verify::{rank_counts, ScheduleGraph};
use std::time::Instant;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// A named output check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct RunResult {
    /// `(name, value)`; `None` = the layer does not exist on this workload.
    pub metrics: Vec<(&'static str, Option<f64>)>,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    pub steps_attempted: u64,
    pub steps_failed: u64,
}

impl RunResult {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, Some(value)));
    }

    fn absent(&mut self, name: &'static str) {
        self.metrics.push((name, None));
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn attempted(&self) -> u64 {
        self.steps_attempted + self.checks.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.steps_failed + self.checks.iter().filter(|c| !c.ok).count() as u64
    }
}

/// Durations of one set-up on one rank, seconds since the launch began.
#[derive(Debug, Clone, Copy, Default)]
struct Setup {
    world_s: f64,
    grid_s: f64,
    model_new_s: f64,
    ic_s: f64,
    total_s: f64,
}

/// What a rank saw between the barriers of the timed window.
struct Traffic {
    stats: StatsSnapshot,
    /// `stats` without the point-to-point messages collectives are built of.
    pure: StatsSnapshot,
    collectives: u64,
    wire: Option<WireStats>,
    exchanges: u64,
}

#[derive(Default)]
struct Measured {
    steps_attempted: u64,
    error: Option<String>,
    window: Option<(Instant, Instant)>,
    step_s: Vec<f64>,
    traffic: Option<Traffic>,
    peak_rss_mib: Option<f64>,
    /// Rank 0: fingerprint of the gathered final state and whether it is
    /// finite.
    final_state: Option<(u64, bool)>,
    traced_step_s: Vec<f64>,
    events: Vec<obs::Event>,
    ckpt: Option<probes::CkptProbe>,
}

struct RankOut {
    setup: Setup,
    measured: Option<Measured>,
}

fn set_up(
    w: &Workload,
    cfg: &ModelConfig,
    seed: u64,
    launched: Instant,
    comm: Option<&mut Communicator>,
) -> Result<(Setup, Model), String> {
    let since = |t: Instant| t.elapsed().as_secs_f64();
    let mut s = Setup {
        world_s: since(launched),
        ..Setup::default()
    };
    let t = Instant::now();
    let grid = cfg.grid().map_err(|e| e.to_string())?;
    Decomposition::new(cfg.extents(), w.process_grid()).map_err(|e| e.to_string())?;
    drop(grid);
    s.grid_s = since(t);
    let t = Instant::now();
    let mut model = Model::new(w, cfg, comm)?;
    s.model_new_s = since(t);
    let t = Instant::now();
    model.set_seeded_state(seed);
    s.ic_s = since(t);
    s.total_s = since(launched);
    Ok((s, model))
}

fn barrier(comm: Option<&Communicator>) -> Result<(), String> {
    comm.map_or(Ok(()), |c| c.barrier().map_err(|e| e.to_string()))
}

/// One measured segment on one rank: warm-up and timed window; on the
/// `last` segment also the final-state fingerprint and (traced) the traced
/// window and the checkpoint probe.
fn measure(
    args: &RunArgs,
    counts: Counts,
    last: bool,
    model: &mut Model,
    comm: Option<&Communicator>,
) -> Measured {
    let mut m = Measured::default();
    if let Err(e) = measure_inner(args, counts, last, model, comm, &mut m) {
        m.error = Some(e);
    }
    m
}

fn measure_inner(
    args: &RunArgs,
    counts: Counts,
    last: bool,
    model: &mut Model,
    comm: Option<&Communicator>,
    m: &mut Measured,
) -> Result<(), String> {
    let rank0 = comm.is_none_or(|c| c.rank() == 0);
    if let Some(c) = comm {
        // the per-collective log is what separates halo messages from the
        // point-to-point messages collectives are built of
        c.stats().set_event_logging(true);
    }
    let step = |model: &mut Model, m: &mut Measured| {
        m.steps_attempted += 1;
        model.step(comm)
    };
    for _ in 0..counts.warm {
        step(model, m)?;
    }

    // ---- timed window: tracing off, barrier to barrier -------------------
    barrier(comm)?;
    let before = comm.map(|c| {
        (
            c.stats().snapshot(),
            c.stats().collective_events().len(),
            c.wire_stats(),
        )
    });
    let exchanges0 = model.exchange_count();
    let t0 = Instant::now();
    m.step_s.reserve_exact(counts.timed);
    for _ in 0..counts.timed {
        let t = Instant::now();
        step(model, m)?;
        m.step_s.push(t.elapsed().as_secs_f64());
    }
    m.window = Some((t0, Instant::now()));
    if let (Some(c), Some((s0, e0, w0))) = (comm, before) {
        let stats = c.stats().snapshot().delta(&s0);
        let events = &c.stats().collective_events()[e0..];
        m.traffic = Some(Traffic {
            stats,
            pure: p2p_only_delta(&stats, events),
            collectives: events.len() as u64,
            wire: c.wire_stats().zip(w0).map(|(w1, w0)| w1.delta(&w0)),
            exchanges: model.exchange_count() - exchanges0,
        });
    }
    barrier(comm)?;
    if rank0 {
        m.peak_rss_mib = host::peak_rss_mib();
    }
    if !last {
        // an earlier segment: only its timed steps are wanted
        return Ok(());
    }

    // ---- everything below is outside every end-to-end number -------------
    model.finish(comm)?;
    if let Some(gs) = model.gather(comm)? {
        m.final_state = Some(fingerprint(&gs));
    }
    if !args.trace {
        return Ok(());
    }

    // ---- traced window on the same model instance ------------------------
    if args.workload.alg == Alg::Alg2 {
        // `finish` applied the deferred smoothing; one untraced step puts
        // the model back into its steady state (smoothing pending)
        step(model, m)?;
    }
    barrier(comm)?;
    if rank0 {
        obs::reset();
        obs::enable();
    }
    barrier(comm)?;
    for _ in 0..counts.traced {
        let t = Instant::now();
        step(model, m)?;
        m.traced_step_s.push(t.elapsed().as_secs_f64());
    }
    barrier(comm)?;
    if rank0 {
        obs::disable();
        m.events = obs::drain();
        m.ckpt = Some(probes::checkpoint(&model.capture())?);
    }
    Ok(())
}

/// The static schedule's per-rank, per-step traffic for a workload.
fn predicted_traffic(
    w: &Workload,
    cfg: &ModelConfig,
) -> Result<Vec<agcm_verify::RankCounts>, String> {
    let alg = match w.alg {
        Alg::Alg2 => AlgKind::CommAvoiding,
        _ => AlgKind::OriginalYZ,
    };
    let graph = ScheduleGraph::extract(cfg, alg, CaMode::Grouped, w.process_grid())?;
    Ok(rank_counts(&graph))
}

/// Run the workload for `steps` steps in a fresh world and gather the state.
pub fn parallel_state(
    w: &Workload,
    cfg: &ModelConfig,
    seed: u64,
    steps: usize,
) -> Result<GlobalState, String> {
    let outs = launch(w, |mut comm| -> Result<Option<GlobalState>, String> {
        let mut model = Model::new(w, cfg, comm.as_deref_mut())?;
        model.set_seeded_state(seed);
        let comm = comm.as_deref();
        for _ in 0..steps {
            model.step(comm)?;
        }
        model.finish(comm)?;
        model.gather(comm)
    })?;
    outs.into_iter()
        .next()
        .ok_or("world without ranks")??
        .ok_or_else(|| "rank 0 gathered no state".to_string())
}

/// The serial reference after `steps` steps.  A serial workload is checked
/// against the other worker count: the pool must not change a single bit.
fn serial_state(
    w: &Workload,
    cfg: &ModelConfig,
    seed: u64,
    steps: usize,
) -> Result<GlobalState, String> {
    let workers = match (w.alg, w.threads) {
        (Alg::Serial, 1) => 2,
        _ => 1,
    };
    pool::with_workers(workers, || {
        let mut m = SerialModel::new(cfg, w.alg.iteration()).map_err(|e| e.to_string())?;
        let ic = initial_condition(m.geom(), seed);
        m.set_state(&ic);
        m.run(steps);
        Ok(GlobalState::from_serial(&m.state, m.geom()))
    })
}

/// A z-split re-associates the column sums of `C` (block sums, then their
/// sum), so it equals the serial reference to rounding, not bitwise (the
/// repository's own equivalence test allows 1e-8 there).  Measured after
/// two mid-mesh steps: 3e-14 against a field magnitude of 150.
const Z_SPLIT_REL_TOL: f64 = 1e-10;

/// Compare the first `k` steps of this seed against the serial reference
/// computed here: bitwise, or to rounding under a z-split.
fn short_reference_check(
    w: &Workload,
    cfg: &ModelConfig,
    seed: u64,
    k: usize,
) -> Result<(bool, String), String> {
    // the two sides side by side: the reference needs one core, and on
    // the paper mesh it is the longer half of the check
    let (got, want) = std::thread::scope(|scope| {
        let reference = scope.spawn(|| serial_state(w, cfg, seed, k));
        let got = parallel_state(w, cfg, seed, k);
        let want = reference
            .join()
            .unwrap_or_else(|_| Err("the serial reference panicked".to_string()));
        (got, want)
    });
    let (got, want) = (got?, want?);
    let (got_hash, want_hash) = (fingerprint(&got).0, fingerprint(&want).0);
    Ok(if w.bitwise_serial() {
        (
            got_hash == want_hash,
            format!(
                "first {k} steps against the serial reference computed in this run: \
                 0x{got_hash:016x} vs 0x{want_hash:016x} (bitwise)"
            ),
        )
    } else {
        let diff = got.max_abs_diff(&want);
        let tol = Z_SPLIT_REL_TOL * want.max_abs().max(1.0);
        (
            diff <= tol,
            format!(
                "first {k} steps against the serial reference computed in this run: \
                 max |diff| {diff:e} <= {tol:e} (a z-split re-associates the C sums)"
            ),
        )
    })
}

/// `host.triad_gbps` of this workload in the committed `baseline.json`.
fn recorded_triad(w: &Workload) -> Option<f64> {
    let src = std::fs::read_to_string(paths::bench_dir().join("baseline.json")).ok()?;
    let doc = json::parse(&src).ok()?;
    let entry = doc
        .get("workloads")?
        .as_arr()
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(w.name))?;
    run_values(entry, "host.triad_gbps")
        .into_iter()
        .flatten()
        .next()
}

/// All set-ups of a run and what its measured segments saw.
struct Segments {
    setups: Vec<Setup>,
    /// Per measured segment, per rank.
    measured: Vec<Vec<Measured>>,
}

/// The set-up repetitions; the last `counts.segments` of them are measured.
fn run_segments(args: &RunArgs, cfg: &ModelConfig, counts: Counts) -> Result<Segments, String> {
    let w = args.workload;
    let mut out = Segments {
        setups: Vec::with_capacity(counts.setup_reps),
        measured: Vec::with_capacity(counts.segments),
    };
    for rep in 0..counts.setup_reps {
        let measured = rep + counts.segments >= counts.setup_reps;
        let last = rep + 1 == counts.setup_reps;
        let launched = Instant::now();
        let outs = launch(w, |mut comm| -> Result<RankOut, String> {
            let (setup, mut model) = set_up(w, cfg, args.seed, launched, comm.as_deref_mut())?;
            let measured =
                measured.then(|| measure(args, counts, last, &mut model, comm.as_deref()));
            Ok(RankOut { setup, measured })
        })?;
        let outs = outs.into_iter().collect::<Result<Vec<RankOut>, String>>()?;
        // a set-up is complete when its slowest rank is
        let max = |f: fn(&Setup) -> f64| outs.iter().map(|o| f(&o.setup)).fold(0.0, f64::max);
        out.setups.push(Setup {
            world_s: max(|s| s.world_s),
            grid_s: max(|s| s.grid_s),
            model_new_s: max(|s| s.model_new_s),
            ic_s: max(|s| s.ic_s),
            total_s: max(|s| s.total_s),
        });
        if measured {
            out.measured
                .push(outs.into_iter().filter_map(|o| o.measured).collect());
        }
    }
    Ok(out)
}

/// Step times of the timed windows of a run.
struct Timing {
    /// Summed wall of the segments' timed windows (earliest rank start to
    /// latest rank end of each).
    wall_s: f64,
    /// Per-step makespans (the slowest rank's duration of that step) of
    /// every segment, ascending.
    makespans: Vec<f64>,
    /// Best-case step of the best segment.
    step_s: f64,
}

impl Timing {
    fn of(measured: &[Vec<Measured>], counts: Counts) -> Result<Timing, String> {
        let mut t = Timing {
            wall_s: 0.0,
            makespans: Vec::with_capacity(measured.len() * counts.timed),
            step_s: f64::INFINITY,
        };
        for ranks in measured {
            let start = ranks.iter().filter_map(|m| m.window).map(|w| w.0).min();
            let end = ranks.iter().filter_map(|m| m.window).map(|w| w.1).max();
            let (Some(start), Some(end)) = (start, end) else {
                return Err("no rank completed the timed window".into());
            };
            t.wall_s += end.duration_since(start).as_secs_f64();
            let mut steps: Vec<f64> = (0..counts.timed)
                .map(|i| ranks.iter().map(|m| m.step_s[i]).fold(0.0, f64::max))
                .collect();
            steps.sort_by(f64::total_cmp);
            // contention on the shared host only ever slows a step, so the
            // rate is taken from the best-case step of the best segment,
            // not from the windows' wall
            t.step_s = t.step_s.min(best_case(&steps));
            t.makespans.extend(steps);
        }
        t.makespans.sort_by(f64::total_cmp);
        Ok(t)
    }
}

/// The output checks on the last segment's ranks.
fn output_checks(
    res: &mut RunResult,
    args: &RunArgs,
    cfg: &ModelConfig,
    counts: Counts,
    ranks: &[Measured],
) -> Result<(), String> {
    let w = args.workload;
    let (hash, finite) = ranks[0]
        .final_state
        .ok_or("rank 0 gathered no final state")?;
    res.check("final_state_finite", finite, format!("fnv1a 0x{hash:016x}"));
    let steps = counts.warm + counts.timed;
    let key = Key::new(w.mesh, w.reference_label(), steps, args.seed);
    let table = Table::load(&paths::bench_dir().join("fingerprints.json"))?;
    let blessed = table.get(&key);
    if let Some(want) = blessed {
        res.check(
            "fingerprint",
            hash == want,
            format!("final state 0x{hash:016x}, blessed 0x{want:016x} ({key:?})"),
        );
    }
    if blessed.is_none() || !w.bitwise_serial() {
        // without a committed fingerprint a full-length serial reference
        // would cost more than the run, so the ≡ serial invariant is
        // checked on this seed's first steps; a z-split workload's blessed
        // fingerprint is its own, so it takes this check as well
        let k = w.verify_steps.min(steps);
        let (ok, detail) = short_reference_check(w, cfg, args.seed, k)?;
        res.check("short_reference", ok, detail);
    }
    if w.ranks() == 1 {
        return Ok(());
    }
    let predicted = predicted_traffic(w, cfg)?;
    let n = counts.timed as u64;
    let (mut counts_ok, mut wire_ok) = (true, true);
    let mut detail = String::new();
    for (rank, (m, want)) in ranks.iter().zip(&predicted).enumerate() {
        let t = m.traffic.as_ref().ok_or("rank without traffic counters")?;
        let got = (t.pure.p2p_sends, t.pure.p2p_send_elems, t.collectives);
        let exp = (
            n * want.send_msgs,
            n * want.send_elems,
            n * want.collectives,
        );
        if got != exp {
            counts_ok = false;
            detail.push_str(&format!(
                "rank {rank}: measured (msgs, elems, collectives) {got:?} != schedule {exp:?}; "
            ));
        }
        if let Some(wire) = &t.wire {
            let bytes = 8 * t.stats.p2p_send_elems + WIRE_OVERHEAD_BYTES * t.stats.p2p_sends;
            if wire.msgs_sent != t.stats.p2p_sends || wire.bytes_sent != bytes {
                wire_ok = false;
                detail.push_str(&format!(
                    "rank {rank}: wire ({} frames, {} B) != 8·elems + {WIRE_OVERHEAD_BYTES}·msgs \
                     = ({}, {bytes} B); ",
                    wire.msgs_sent, wire.bytes_sent, t.stats.p2p_sends
                ));
            }
        }
    }
    res.check("traffic_counts", counts_ok, detail.clone());
    if w.transport == Transport::Uds {
        res.check("wire_identity", wire_ok, detail);
    }
    Ok(())
}

/// The registered (static) spelling of a ledger name assembled at run time.
fn ledger_name(name: &str) -> &'static str {
    metric_def(name)
        .unwrap_or_else(|| panic!("'{name}' is not in the PER_LAYER table"))
        .name
}

/// The per-layer ledger: set-up rows, probes, the traced window's figures.
fn ledger(
    res: &mut RunResult,
    args: &RunArgs,
    cfg: &ModelConfig,
    counts: Counts,
    setups: &[Setup],
    timing: &Timing,
    ranks: &mut [Measured],
) -> Result<(), String> {
    let w = args.workload;
    let (wall_s, step_s, makespans) = (timing.wall_s, timing.step_s, &timing.makespans);
    let med = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<f64>>());
    res.put("setup.grid_s", med(|s| s.grid_s));
    res.put("setup.model_new_s", med(|s| s.model_new_s));
    res.put("setup.ic_s", med(|s| s.ic_s));
    res.put("setup.world_s", med(|s| s.world_s));

    let lanes = w.ranks() * w.threads;
    for k in probes::kernels(w, cfg, args.seed)? {
        res.put(k.ns_name, k.ns_per_point);
        if let Some((name, gbps)) = k.gbps {
            res.put(name, gbps);
        }
        if let Some((name, speedup)) = k.pool_speedup {
            res.put(name, speedup);
        }
    }
    let triad = host::triad(lanes);
    res.put("host.triad_gbps", triad.gbps);
    res.notes.push(format!(
        "host: nproc={} caches={:?}; triad on {lanes} thread(s): 3 arrays of {} MiB \
         (reported LLC {} MiB)",
        host::nproc(),
        host::caches(),
        triad.array_bytes >> 20,
        triad.llc_bytes >> 20,
    ));
    if let Some(recorded) = recorded_triad(w) {
        if (triad.gbps / recorded - 1.0).abs() > 0.15 {
            res.notes.push(format!(
                "host_noisy: triad {:.1} GB/s is more than 15 % off the {recorded:.1} GB/s \
                 recorded in baseline.json",
                triad.gbps
            ));
        }
    }

    let events = std::mem::take(&mut ranks[0].events);
    let lt: LayerTrace = trace::analyse(&events, counts.traced, w.ranks(), w.threads);
    for phase in obs::Phase::OPERATORS {
        let label = phase.label();
        let fig = lt.ops.get(label).copied().unwrap_or_default();
        let name = |what: &str| ledger_name(&format!("core.dycore.{label}.{what}"));
        res.put(name("s_per_step"), fig.s_per_step);
        res.put(name("calls_per_step"), fig.calls_per_step);
        res.put(name("imbalance"), fig.imbalance);
    }
    let mean_step_s = makespans.iter().sum::<f64>() / makespans.len() as f64;
    res.put("step.s_best", step_s);
    res.put("step.s_p50", median(makespans));
    res.put("step.window_steps_per_s", makespans.len() as f64 / wall_s);
    res.put("step.contention_frac", 1.0 - step_s / mean_step_s);
    res.put("step.self_s_per_step", lt.self_s_per_step);
    res.put("step.closure_residual_frac", lt.closure_residual_frac);
    if lt.closure_residual_frac > 0.10 {
        res.notes.push(format!(
            "ledger not closed: {:.1} % of the traced step is in no operator, exchange or \
             collective span",
            100.0 * lt.closure_residual_frac
        ));
    }
    res.put("step.rank_imbalance", lt.rank_imbalance);
    match tail_permille(makespans.len()) {
        Some(permille) => {
            res.put("step.tail_s", quantile_sorted(makespans, permille));
            res.put("step.tail_pct", permille as f64 / 10.0);
        }
        None => {
            res.absent("step.tail_s");
            res.absent("step.tail_pct");
        }
    }
    res.put("step.samples", makespans.len() as f64);
    let points = (cfg.nx * cfg.ny * cfg.nz) as f64;
    res.put(
        "step.core_ns_per_point",
        step_s * 1e9 * lanes as f64 / points,
    );
    match probes::serial_anchor(w, cfg, args.seed, step_s)? {
        Some(anchor_s) => res.put(
            "step.parallel_efficiency",
            anchor_s / (lanes as f64 * step_s),
        ),
        None => res.absent("step.parallel_efficiency"),
    }
    // the traced window's own makespans, by the benchmark's clock
    let mut traced: Vec<f64> = (0..counts.traced)
        .map(|i| ranks.iter().map(|m| m.traced_step_s[i]).fold(0.0, f64::max))
        .collect();
    traced.sort_by(f64::total_cmp);
    let traced_s = best_case(&traced);
    res.put("step.traced_step_s_best", traced_s);

    match ranks[0].traffic.as_ref() {
        Some(t) => {
            let per_step = |x: u64| x as f64 / counts.timed as f64;
            res.put("core.exchange.exchanges_per_step", per_step(t.exchanges));
            res.put("core.exchange.msgs_per_step", per_step(t.pure.p2p_sends));
            res.put(
                "core.exchange.bytes_per_step",
                per_step(8 * t.pure.p2p_send_elems),
            );
            res.put("core.exchange.post_s_per_step", lt.post_s_per_step);
            res.put("core.exchange.wait_s_per_step", lt.wait_s_per_step);
            res.put("core.exchange.wait_s_p50", lt.wait_s_p50);
            res.put("core.exchange.overlap_efficiency", lt.overlap_efficiency);
            let comm = probes::comm_layers(w, cfg)?;
            res.put("core.exchange.probe.post_s_p50", comm.exchange_post_s);
            res.put("core.exchange.probe.finish_s_p50", comm.exchange_finish_s);
            for (name, half_rtt) in probes::PINGPONG_NAMES.iter().zip(&comm.half_rtt_s) {
                res.put(name, *half_rtt);
            }
            res.put("comm.alpha_s", comm.alpha_s);
            res.put("comm.beta_s_per_byte", comm.beta_s_per_byte);
            res.put("comm.fit_rel_rmse", comm.fit_rel_rmse);
            match &t.wire {
                Some(wire) => {
                    res.put("comm.wire.bytes_per_step", per_step(wire.bytes_sent));
                    res.put(
                        "comm.wire.overhead_frac",
                        (WIRE_OVERHEAD_BYTES * wire.msgs_sent) as f64
                            / wire.bytes_sent.max(1) as f64,
                    );
                }
                None => {
                    res.absent("comm.wire.bytes_per_step");
                    res.absent("comm.wire.overhead_frac");
                }
            }
            res.put("comm.collective.calls_per_step", per_step(t.collectives));
            res.put(
                "comm.collective.bytes_per_step",
                per_step(t.stats.collective_bytes()),
            );
            res.put("comm.collective.s_per_step", lt.collective_s_per_step);
            res.put("comm.collective.probe.allgather_s_p50", comm.allgather_s);
            res.put("comm.collective.probe.barrier_s_p50", comm.barrier_s);
        }
        None => {
            // one rank: no exchange, transport or collective layer
            for def in PER_LAYER
                .iter()
                .filter(|d| d.name.starts_with("core.exchange.") || d.name.starts_with("comm."))
            {
                res.absent(def.name);
            }
        }
    }
    res.put("core.pool.worker_busy_frac", lt.worker_busy_frac);

    let ckpt = ranks[0]
        .ckpt
        .as_ref()
        .ok_or("rank 0 ran no checkpoint probe")?;
    res.put("core.resilience.ckpt_bytes", ckpt.bytes as f64);
    res.put("core.resilience.ckpt_write_s_p50", ckpt.write_s);
    res.put("core.resilience.ckpt_read_s_p50", ckpt.read_s);
    res.put(
        "core.resilience.ckpt_write_mbps",
        ckpt.bytes as f64 / ckpt.write_s / 1e6,
    );

    res.put("obs.overhead_frac", traced_s / step_s - 1.0);
    res.put("obs.events_per_step", lt.events_per_step);
    res.notes.push(format!(
        "traced window: {} steps, critical rank {}, {} events",
        lt.steps,
        lt.critical_rank,
        events.len()
    ));
    Ok(())
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let w = args.workload;
    let cfg = w.mesh.config();
    let counts = w.counts_for(args.seconds, args.smoke);
    let mut res = RunResult::default();
    if pool::workers() != w.threads {
        return Err(format!(
            "{} needs AGCM_THREADS={} in this process, found {}",
            w.name,
            w.threads,
            pool::workers()
        ));
    }
    let Segments {
        setups,
        mut measured,
    } = run_segments(args, &cfg, counts)?;

    for ranks in &measured {
        res.steps_attempted += ranks.iter().map(|m| m.steps_attempted).max().unwrap_or(0);
        for (rank, m) in ranks.iter().enumerate() {
            if let Some(e) = &m.error {
                res.steps_failed = 1;
                res.notes.push(format!("rank {rank}: {e}"));
            }
        }
    }
    if res.steps_failed > 0 {
        // no complete window: nothing to report but the failure
        return Ok(res);
    }

    // ---- end-to-end metrics ------------------------------------------------
    let timing = Timing::of(&measured, counts)?;
    res.put("steps_per_s", 1.0 / timing.step_s);
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    res.put("setup_s", median(&setup_s));
    // the high-water mark after the FIRST measured segment: later segments
    // leave freed models behind in the allocator's per-thread arenas, which
    // says nothing about the program
    let first = measured.first().and_then(|ranks| ranks.first());
    match first.and_then(|m| m.peak_rss_mib) {
        Some(mib) => res.put("peak_rss_mb", mib),
        None => return Err("VmHWM is not readable on this host".into()),
    }
    res.notes.push(format!(
        "counts: setup_reps={} segments={} warm={} timed={} traced={}; timed windows \
         {:.3} s, best-case step of {} samples; simulated {:.0} s per wall s",
        counts.setup_reps,
        counts.segments,
        counts.warm,
        counts.timed,
        if args.trace { counts.traced } else { 0 },
        timing.wall_s,
        timing.makespans.len(),
        cfg.dt2 / timing.step_s,
    ));

    let mut ranks = measured.pop().ok_or("no measured segment")?;
    output_checks(&mut res, args, &cfg, counts, &ranks)?;
    if args.trace {
        ledger(&mut res, args, &cfg, counts, &setups, &timing, &mut ranks)?;
    }
    Ok(res)
}
