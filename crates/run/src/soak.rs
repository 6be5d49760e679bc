//! `agcm-soak` — long-horizon chaos burn-in for the elastic runtime.
//!
//! A soak run integrates one Algorithm-1 world for thousands of steps under
//! a deterministic, seeded **chaos schedule**: random `kill -9` events,
//! repeated planned shrink/grow resize cycles, and benign (delay-only)
//! message-fault injection — all derived from a single seed
//! (`--seed` / `AGCM_SOAK_SEED`), so any soak failure replays byte-for-byte
//! from its seed.  Every phase boundary re-decomposes the checkpointed mesh
//! ([`agcm_core::redistribute`]) and re-certifies the next world's schedule
//! before stepping resumes, and the completed run must still be **bitwise
//! identical** to the serial reference.
//!
//! Along the way the harness measures what the chaos costs:
//!
//! * **MTTR** per repaired death — from the supervisor detecting the exit
//!   until the victim rank's durable progress in the restarted world passes
//!   its last checkpointed step (see the supervisor's `SuperviseReport`) —
//!   reported as interpolated percentiles;
//! * **availability** — `1 − Σ downtime / Σ (phase wall · ranks)`, i.e.
//!   the fraction of rank-time the world was fully repaired;
//! * a **checkpoint-cadence auto-tuner**: the Young/Daly interval
//!   `k ≈ √(2·δ·MTBF) / T_step` with δ measured from the workers'
//!   `resilience.ckpt_write_ns` histogram, MTBF from the observed kill
//!   rate, and `T_step` the measured mean step of the most recent phase
//!   that ran at the next phase's rank count (else of the phase just
//!   finished).  The tuned interval is applied to the *next* phase and
//!   recorded per phase with the `T_step` it came from.
//!
//! The verdict plus all of the above lands in a schema-validated
//! `BENCH_soak.json`.

use crate::elastic::{run_phase, Incident, Launch};
use crate::{jnum, parse_num, read_records, run_config, ParentError, Phase, Plan};
use agcm_comm::{splitmix64, Endpoint};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Default soak seed (shared with the fault layer's default, so a bare
/// `agcm-soak` and a bare `AGCM_FAULT_SPEC` run replay the same schedule).
const DEFAULT_SOAK_SEED: u64 = 24473;

/// The benign background fault layer every soak worker runs under: delays
/// reorder frame delivery without touching payloads, so the run stays
/// bitwise while the queues soak under pressure (drop/corrupt faults would
/// surface as fatal worker errors and burn the respawn budget on non-kill
/// events, which the accounting must not mix).
const SOAK_FAULT_SPEC: &str = "delay:prob=0.05,k=3";

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Parsed `agcm-soak` command line.
#[derive(Debug, Clone)]
struct SoakOpts {
    /// Initial world size (phase 0 rank count).
    pub ranks: usize,
    /// Total steps to integrate across all phases.
    pub steps: u64,
    /// The chaos seed: every kill placement, resize direction and fault
    /// decision derives from it.
    pub seed: u64,
    /// Number of kill -9 events to inject.
    pub kills: usize,
    /// Number of resize (shrink/grow) cycles.
    pub resizes: usize,
    /// Respawn budget shared across ALL phases.
    pub max_respawns: u32,
    /// Where the benchmark report lands.
    pub bench_out: PathBuf,
    /// Per-phase supervision timeout.
    pub timeout: Duration,
    /// Keep the scratch directory on success.
    pub keep_out: bool,
    /// Print the deterministic chaos plan and exit without running.
    pub plan_only: bool,
}

impl Default for SoakOpts {
    fn default() -> Self {
        SoakOpts {
            ranks: 8,
            steps: 2000,
            seed: DEFAULT_SOAK_SEED,
            kills: 5,
            resizes: 2,
            max_respawns: 7,
            bench_out: PathBuf::from("BENCH_soak.json"),
            timeout: Duration::from_secs(900),
            keep_out: false,
            plan_only: false,
        }
    }
}

const USAGE: &str = "agcm-soak: long-horizon chaos burn-in for the elastic agcm-run runtime

USAGE:
    agcm-soak [--ranks P] [--steps N] [--seed S] [--kills K] [--resizes R]
              [--max-respawns N] [--bench-out PATH] [--timeout-secs N]
              [--keep-out] [--plan-only]

Runs one Algorithm-1 world for N steps under a seeded chaos schedule: K
random kill -9 events, R planned shrink/grow resize cycles (checkpoints
re-decomposed and the new schedule re-certified at every hand-off), and
benign delay-only message faults — all deterministic functions of the seed
(--seed, or AGCM_SOAK_SEED; default 24473), so a soak replays byte-for-byte.
The restart budget (--max-respawns, default kills + 2) spans the whole run:
a dead rank ends its world, which restarts from its checkpoint set.

The completed run must be bitwise identical to the serial reference.  MTTR
percentiles, availability, and the auto-tuned checkpoint cadence (Young/Daly
against the measured mean step) land in --bench-out
(default BENCH_soak.json), validated before writing.  --plan-only prints
the chaos plan without running it.

Exit codes: 0 soak passed, 1 runtime failure, 2 usage,
4 respawn budget exhausted, 5 verification mismatch.";

/// Parse the soak command line (everything after `argv[0]`).
fn parse_soak_args(args: &[String]) -> Result<Option<SoakOpts>, String> {
    let mut opts = SoakOpts::default();
    let mut seed_set = false;
    let mut budget_set = false;
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => return Ok(None),
            "--ranks" | "-n" => opts.ranks = parse_num("--ranks", &value("--ranks", &mut it)?)?,
            "--steps" => opts.steps = parse_num("--steps", &value("--steps", &mut it)?)?,
            "--seed" => {
                opts.seed = parse_num("--seed", &value("--seed", &mut it)?)?;
                seed_set = true;
            }
            "--kills" => opts.kills = parse_num("--kills", &value("--kills", &mut it)?)?,
            "--resizes" => opts.resizes = parse_num("--resizes", &value("--resizes", &mut it)?)?,
            "--max-respawns" => {
                opts.max_respawns =
                    parse_num("--max-respawns", &value("--max-respawns", &mut it)?)?;
                budget_set = true;
            }
            "--bench-out" => opts.bench_out = PathBuf::from(value("--bench-out", &mut it)?),
            "--timeout-secs" => {
                opts.timeout = Duration::from_secs(parse_num(
                    "--timeout-secs",
                    &value("--timeout-secs", &mut it)?,
                )?);
            }
            "--keep-out" => opts.keep_out = true,
            "--plan-only" => opts.plan_only = true,
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if !seed_set {
        if let Some(s) = agcm_comm::parse_env::<u64>("AGCM_SOAK_SEED").map_err(|e| e.to_string())? {
            opts.seed = s;
        }
    }
    if !budget_set {
        // default: every scheduled kill plus slack for straggler deaths
        opts.max_respawns = opts.kills as u32 + 2;
    }
    if opts.ranks < 2 {
        return Err("--ranks must be at least 2 (a soak exercises a mesh)".into());
    }
    if opts.steps < 4 {
        return Err("--steps must be at least 4".into());
    }
    Ok(Some(opts))
}

// ---------------------------------------------------------------------------
// The deterministic chaos plan
// ---------------------------------------------------------------------------

/// splitmix64 sequence over the plan seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Whether a world of `p` ranks can run the Y-decomposed Algorithm-1 mesh
/// (even row blocks keep the redistribute/certify path exact).
fn feasible(p: usize, cfg: &ModelConfig) -> bool {
    p >= 2 && cfg.ny.is_multiple_of(p) && ProcessGrid::yz(p, 1).is_ok()
}

/// Expand a seed + options into the deterministic chaos schedule: the
/// plan's phases (`resizes + 1` of them) and the background fault layer.
/// Printing it (`--plan-only`) is a pure function of the options, which is
/// what the replay test pins.
fn build_plan(opts: &SoakOpts, cfg: &ModelConfig) -> Result<Plan, String> {
    if !feasible(opts.ranks, cfg) {
        return Err(format!(
            "--ranks {} cannot decompose the ny={} test mesh evenly",
            opts.ranks, cfg.ny
        ));
    }
    let mut rng = Rng(opts.seed ^ 0x50AC_0000_0000_0001);
    // world sizes: alternate shrink/grow from the initial size, keeping
    // every world feasible (8 -> 4 -> 8 -> ..., or grow first when the
    // halved world would be degenerate)
    let mut sizes = vec![opts.ranks];
    let mut cur = opts.ranks;
    for _ in 0..opts.resizes {
        let shrink = cur.is_multiple_of(2) && feasible(cur / 2, cfg);
        let grow = feasible(cur * 2, cfg);
        let next = match (shrink, grow) {
            // prefer returning toward the initial size, else shrink first
            (true, true) if cur < opts.ranks => cur * 2,
            (true, _) => cur / 2,
            (false, true) => cur * 2,
            (false, false) => {
                return Err(format!(
                    "no feasible resize from p={cur} on the ny={} mesh",
                    cfg.ny
                ))
            }
        };
        sizes.push(next);
        cur = next;
    }
    let nphases = sizes.len() as u64;
    let mut phases: Vec<Phase> = Vec::with_capacity(sizes.len());
    for (i, &p) in sizes.iter().enumerate() {
        let start = opts.steps * i as u64 / nphases;
        let end = opts.steps * (i as u64 + 1) / nphases;
        if end - start < 4 {
            return Err(format!(
                "--steps {} spreads too thin over {nphases} phases (phase {i} gets {} steps)",
                opts.steps,
                end - start
            ));
        }
        phases.push(Phase {
            p,
            start,
            end,
            kills: Vec::new(),
        });
    }
    // place the kills: round-robin over phases, each kill at a random rank
    // and a random step inside the phase, spaced at least p+2 steps from
    // every other kill in the same phase (the neighbor-lockstep skew bounds
    // how far the world runs before a death ends it, so the spacing keeps
    // each kill its own restart and its own incident) and one kill per rank
    // per phase (a worker reads one kill step)
    for k in 0..opts.kills {
        let phase = &mut phases[k % sizes.len()];
        let gap = (phase.p + 2) as u64;
        let lo = phase.start + 1;
        let hi = phase.end.saturating_sub(2);
        let mut placed = false;
        for _attempt in 0..200 {
            if hi <= lo {
                break;
            }
            let step = lo + rng.below(hi - lo);
            let rank = rng.below(phase.p as u64) as usize;
            let spaced = phase
                .kills
                .iter()
                .all(|&(r, s)| r != rank && s.abs_diff(step) >= gap);
            if spaced {
                phase.kills.push((rank, step));
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(format!(
                "cannot place {} kills into the plan (phase [{}, {}) at p={} is too short \
                 for {}-step spacing); raise --steps or lower --kills",
                opts.kills, phase.start, phase.end, phase.p, gap
            ));
        }
    }
    for phase in &mut phases {
        phase.kills.sort_by_key(|&(_, s)| s);
    }
    let plan = Plan {
        phases,
        fault: Some((
            SOAK_FAULT_SPEC.to_string(),
            splitmix64(opts.seed ^ 0xFA17_FA17),
        )),
    };
    plan.check()?;
    Ok(plan)
}

/// The background fault layer a soak plan ships: spec and seed.
fn fault_of(plan: &Plan) -> (&str, u64) {
    plan.fault
        .as_ref()
        .map_or(("", 0), |(spec, seed)| (spec.as_str(), *seed))
}

/// FNV-1a 64 over the printed plan — the replay fingerprint recorded in
/// `BENCH_soak.json`.
fn plan_hash(seed: u64, plan: &Plan) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in render_plan(seed, plan).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The canonical listing of the plan `seed` expanded to (what `--plan-only`
/// prints; byte-stable for a given seed + options).
fn render_plan(seed: u64, plan: &Plan) -> String {
    let (spec, fault_seed) = fault_of(plan);
    let mut s = format!(
        "agcm-soak: plan seed={seed} fault_seed={fault_seed} fault=\"{spec}\" phases={}\n",
        plan.phases.len()
    );
    for (i, ph) in plan.phases.iter().enumerate() {
        s.push_str(&format!(
            "agcm-soak: phase {i}: p={} steps [{}, {})\n",
            ph.p, ph.start, ph.end
        ));
        for &(rank, step) in &ph.kills {
            s.push_str(&format!(
                "agcm-soak: phase {i}: kill rank {rank} after step {step}\n"
            ));
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// What one finished phase contributed to the report.
struct PhaseOutcome<'a> {
    ph: &'a Phase,
    keep: usize,
    interval: u64,
    /// The mean step `interval` was tuned from (`None`: phase 0's fixed
    /// densest cadence).
    t_step_s: Option<f64>,
    wall: Duration,
    /// The repaired deaths; one restart each.
    incidents: Vec<Incident>,
}

impl PhaseOutcome<'_> {
    fn mean_step_s(&self) -> f64 {
        self.wall.as_secs_f64() / (self.ph.end - self.ph.start).max(1) as f64
    }
}

/// Merge the records of every incarnation of every rank in one phase's
/// checkpoint directory: per rank across its generations, then across
/// ranks by the same rule ([`obs::dist::merge_rank_metrics`], keyed by
/// rank) — counters and histogram mass sum, gauges keep the last rank's
/// value (they are per-rank quantities, meaningless to sum).
fn merge_world_metrics(dir: &Path, p: usize) -> Result<obs::MetricsSnapshot, String> {
    let mut per_rank = Vec::with_capacity(p);
    for rank in 0..p {
        let snaps: Vec<_> = (read_records(dir, rank)?.into_iter())
            .map(|(generation, rec)| (generation, rec.metrics))
            .collect();
        per_rank.push((rank as u64, obs::dist::merge_rank_metrics(&snaps)));
    }
    Ok(obs::dist::merge_rank_metrics(&per_rank))
}

/// Young/Daly: `k ≈ √(2·δ·MTBF) / T_step`, clamped to a sane cadence (at
/// least 1; never sparser than a quarter of the shortest phase, so every
/// phase still writes several durable points).
fn tune_interval(delta_s: f64, mtbf_s: f64, t_step_s: f64, phase_steps: u64) -> u64 {
    let hi = (phase_steps / 4).clamp(1, 32);
    if !(delta_s > 0.0 && mtbf_s > 0.0 && mtbf_s.is_finite() && t_step_s > 0.0) {
        return 1;
    }
    let k = ((2.0 * delta_s * mtbf_s).sqrt() / t_step_s)
        .round()
        .max(1.0);
    (k as u64).clamp(1, hi)
}

/// Run the whole soak: expand the plan, run every phase through the phase
/// runner with a single shared respawn budget, and write the validated
/// benchmark report.
fn run_soak(opts: &SoakOpts) -> Result<(), ParentError> {
    let plan = build_plan(opts, &run_config()).map_err(ParentError::Other)?;
    print!("{}", render_plan(opts.seed, &plan));
    if opts.plan_only {
        println!(
            "agcm-soak: plan hash 0x{:016x}",
            plan_hash(opts.seed, &plan)
        );
        return Ok(());
    }

    let run = Launch::new(1, 1, &format!("soak-seed{}", opts.seed), opts.timeout, None)?;
    let mut budget = opts.max_respawns;
    let mut interval = 1u64; // phase 0 runs the densest cadence
    let mut tuned_from = None;
    let mut outcomes: Vec<PhaseOutcome> = Vec::new();
    let (mut delta_sum, mut delta_count) = (0u64, 0u64); // ckpt_write_ns mass
    let mut delta_s = 0.0; // its mean, in seconds
    let min_phase_steps = plan
        .phases
        .iter()
        .map(|ph| ph.end - ph.start)
        .min()
        .unwrap_or(1);
    let t_soak = Instant::now();

    let result: Result<(), ParentError> = (|| {
        for (i, ph) in plan.phases.iter().enumerate() {
            println!(
                "agcm-soak: phase {i}: p={} steps [{}, {}) ckpt interval {} keep {} \
                 ({} kill(s) scheduled, budget {})",
                ph.p,
                ph.start,
                ph.end,
                interval,
                plan.keep(i),
                ph.kills.len(),
                budget
            );
            let report = run_phase(
                &plan,
                i,
                &run,
                Endpoint::unique_uds(),
                interval,
                Some(&mut budget),
                &format!("soak phase {i}"),
            )?;

            let merged = merge_world_metrics(&plan.ckpt_dir(&run.out, i), ph.p)?;
            if let Some(h) = merged.histograms.get("resilience.ckpt_write_ns") {
                delta_sum += h.sum;
                delta_count += h.count;
                delta_s = delta_sum as f64 / delta_count.max(1) as f64 * 1e-9;
            }
            let mttr_hist = obs::Registry::global().histogram("soak.mttr_ns");
            for inc in &report.incidents {
                mttr_hist.record(inc.downtime.as_nanos() as u64);
            }

            let repairs = report.incidents.len();
            outcomes.push(PhaseOutcome {
                ph,
                keep: plan.keep(i),
                interval,
                t_step_s: tuned_from,
                wall: report.wall,
                incidents: report.incidents,
            });
            // tune the NEXT phase's cadence from everything measured so far
            let kills_so_far = total(&outcomes, |o| o.ph.kills.len());
            let mtbf_s = if kills_so_far > 0 {
                t_soak.elapsed().as_secs_f64() / kills_so_far as f64
            } else {
                f64::INFINITY
            };
            // the step the next phase will take: the latest one measured at
            // its rank count, else the one just measured
            let next_p = plan.phases.get(i + 1).map_or(ph.p, |next| next.p);
            let at_next_p = outcomes.iter().rev().find(|o| o.ph.p == next_p);
            let t_step = at_next_p
                .or(outcomes.last())
                .map_or(0.0, |o| o.mean_step_s());
            interval = tune_interval(delta_s, mtbf_s, t_step, min_phase_steps);
            tuned_from = Some(t_step);
            println!(
                "agcm-soak: phase {i}: wall {:.2}s, {} repair(s); \
                 tuner: delta={:.3}ms mtbf={:.1}s T_step={:.3}ms -> interval {interval} for next phase",
                report.wall.as_secs_f64(),
                repairs,
                delta_s * 1e3,
                if mtbf_s.is_finite() { mtbf_s } else { -1.0 },
                t_step * 1e3,
            );
        }
        Ok(())
    })();

    let result = run.finish(result, opts.keep_out);
    if result.is_err() {
        // the error itself is reported by the caller with the exit code
        eprintln!("agcm-soak: replay with --seed {}", opts.seed);
    }
    result?;

    let report = bench_report(opts, &plan, &outcomes, delta_s);
    obs::validate_json(&report).map_err(|e| {
        ParentError::Other(format!("BENCH_soak.json failed RFC 8259 validation: {e}"))
    })?;
    fs::write(&opts.bench_out, &report)
        .map_err(|e| ParentError::Other(format!("{}: {e}", opts.bench_out.display())))?;

    println!(
        "agcm-soak: PASS: {} steps survived {} kill(s) ({} restart(s)) and {} resize(s), \
         bitwise == serial reference; report -> {}",
        opts.steps,
        total(&outcomes, |o| o.ph.kills.len()),
        total(&outcomes, |o| o.incidents.len()),
        plan.phases.len() - 1,
        opts.bench_out.display()
    );
    Ok(())
}

/// `f` summed over every phase.
fn total(outcomes: &[PhaseOutcome], f: impl Fn(&PhaseOutcome) -> usize) -> usize {
    outcomes.iter().map(f).sum()
}

/// Render the validated `BENCH_soak.json` document.
fn bench_report(opts: &SoakOpts, plan: &Plan, outcomes: &[PhaseOutcome], delta_s: f64) -> String {
    let mttr = obs::Registry::global().histogram("soak.mttr_ns");
    let q = |x: f64| mttr.quantile(x) as f64 * 1e-6; // ns -> ms
    let total_rank_s: f64 = outcomes
        .iter()
        .map(|o| o.wall.as_secs_f64() * o.ph.p as f64)
        .sum();
    let down_s: f64 = outcomes
        .iter()
        .flat_map(|o| o.incidents.iter())
        .map(|x| x.downtime.as_secs_f64())
        .sum();
    let availability = if total_rank_s > 0.0 {
        1.0 - (down_s / total_rank_s)
    } else {
        1.0
    };
    let n_incidents = total(outcomes, |o| o.incidents.len());

    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str("  \"label\": \"agcm-soak\",\n");
    s.push_str(&format!("  \"build_isa\": \"{}\",\n", obs::build_isa()));
    s.push_str("  \"alg\": 1,\n");
    s.push_str(&format!("  \"seed\": {},\n", opts.seed));
    s.push_str(&format!(
        "  \"plan_hash\": \"0x{:016x}\",\n",
        plan_hash(opts.seed, plan)
    ));
    let (spec, fault_seed) = fault_of(plan);
    s.push_str(&format!(
        "  \"fault_spec\": \"{spec}\",\n  \"fault_seed\": {fault_seed},\n"
    ));
    s.push_str(&format!(
        "  \"ranks_initial\": {},\n  \"steps\": {},\n  \"steps_survived\": {},\n",
        opts.ranks, opts.steps, opts.steps
    ));
    // a restart rewires no mesh: the `rewires` keys stay for the schema and
    // read 0; `respawns` counts restarts and an incident's `epoch` is the
    // generation of the world started after it
    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "    {{\"p\": {}, \"start\": {}, \"end\": {}, \"ckpt_interval\": {}, \
                 \"ckpt_keep\": {}, \"wall_s\": {}, \"kills\": {}, \"respawns\": {}, \
                 \"rewires\": 0}}",
                o.ph.p,
                o.ph.start,
                o.ph.end,
                o.interval,
                o.keep,
                jnum(o.wall.as_secs_f64()),
                o.ph.kills.len(),
                o.incidents.len(),
            )
        })
        .collect();
    s.push_str(&format!("  \"phases\": [\n{}\n  ],\n", rows.join(",\n")));
    s.push_str(&format!(
        "  \"kills_injected\": {},\n  \"resizes_completed\": {},\n  \"respawns_total\": {},\n  \
         \"rewires_total\": 0,\n",
        total(outcomes, |o| o.ph.kills.len()),
        outcomes.len().saturating_sub(1),
        n_incidents,
    ));
    if n_incidents > 0 {
        s.push_str(&format!(
            "  \"mttr_ms\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \
             \"p99\": {}, \"max\": {}}},\n",
            n_incidents,
            jnum(mttr.mean() * 1e-6),
            jnum(q(0.5)),
            jnum(q(0.95)),
            jnum(q(0.99)),
            jnum(mttr.max() as f64 * 1e-6),
        ));
    } else {
        s.push_str("  \"mttr_ms\": null,\n");
    }
    s.push_str(&format!("  \"availability\": {},\n", jnum(availability)));
    let incident_rows: Vec<String> = outcomes
        .iter()
        .enumerate()
        .flat_map(|(i, o)| {
            o.incidents.iter().map(move |x| {
                format!(
                    "    {{\"phase\": {i}, \"rank\": {}, \"epoch\": {}, \
                     \"downtime_ms\": {}}}",
                    x.rank,
                    x.generation,
                    jnum(x.downtime.as_secs_f64() * 1e3)
                )
            })
        })
        .collect();
    s.push_str(&format!(
        "  \"incidents\": [\n{}\n  ],\n",
        incident_rows.join(",\n")
    ));
    let per_phase =
        |f: &dyn Fn(&PhaseOutcome) -> String| outcomes.iter().map(f).collect::<Vec<_>>().join(", ");
    s.push_str(&format!(
        "  \"tuning\": {{\"ckpt_write_s_mean\": {}, \"t_step_s\": [{}], \"intervals\": [{}]}},\n",
        jnum(delta_s),
        per_phase(&|o| o.t_step_s.map_or("null".to_string(), jnum)),
        per_phase(&|o| o.interval.to_string()),
    ));
    s.push_str("  \"bitwise_identical_to_serial\": true\n");
    s.push_str("}\n");
    s
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// `agcm-soak` process entry: a worker when `AGCM_RANK` is set
/// (the supervisor spawns the soak binary itself as its workers), the soak
/// driver otherwise.  Returns the process exit code.
pub fn soak_main() -> u8 {
    crate::entry("agcm-soak", USAGE, parse_soak_args, run_soak)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(ranks: usize, steps: u64, seed: u64, kills: usize, resizes: usize) -> SoakOpts {
        SoakOpts {
            ranks,
            steps,
            seed,
            kills,
            resizes,
            ..SoakOpts::default()
        }
    }

    #[test]
    fn plan_is_deterministic_and_well_formed() {
        let cfg = run_config();
        for seed in [1u64, 7, 24473, 0xDEAD_BEEF] {
            let o = opts(8, 2000, seed, 5, 2);
            let a = build_plan(&o, &cfg).expect("plan");
            let b = build_plan(&o, &cfg).expect("plan");
            assert_eq!(
                render_plan(seed, &a),
                render_plan(seed, &b),
                "seed {seed}: replay"
            );
            assert_eq!(plan_hash(seed, &a), plan_hash(seed, &b));
            assert_eq!(a.check(), Ok(()));

            assert_eq!(a.phases.len(), 3);
            assert_eq!(a.phases[0].p, 8);
            assert_eq!(a.phases[1].p, 4, "alternating resize shrinks first");
            assert_eq!(a.phases[2].p, 8);
            assert_eq!(a.phases[0].start, 0);
            assert_eq!(a.phases.last().expect("phases").end, 2000);
            let kills: usize = a.phases.iter().map(|p| p.kills.len()).sum();
            assert_eq!(kills, 5);
            for ph in &a.phases {
                let gap = (ph.p + 2) as u64;
                for (i, &(r1, s1)) in ph.kills.iter().enumerate() {
                    assert!(r1 < ph.p, "kill rank inside the world");
                    assert!(s1 > ph.start && s1 < ph.end, "kill inside the phase");
                    for &(r2, s2) in &ph.kills[i + 1..] {
                        assert_ne!(r1, r2, "one kill per rank per phase");
                        assert!(s1.abs_diff(s2) >= gap, "kills serialized by p+2 spacing");
                    }
                }
            }
        }
        // different seeds place different chaos
        let a = build_plan(&opts(8, 2000, 1, 5, 2), &cfg).expect("plan");
        let b = build_plan(&opts(8, 2000, 2, 5, 2), &cfg).expect("plan");
        assert_ne!(render_plan(1, &a), render_plan(2, &b));
    }

    #[test]
    fn plan_rejects_infeasible_shapes() {
        let cfg = run_config(); // ny = 24
        assert!(
            build_plan(&opts(5, 2000, 1, 0, 0), &cfg).is_err(),
            "5 does not divide 24"
        );
        assert!(
            build_plan(&opts(8, 8, 1, 0, 2), &cfg).is_err(),
            "phases get < 4 steps"
        );
        // too many kills for the spacing window
        assert!(build_plan(&opts(8, 40, 1, 12, 0), &cfg).is_err());
        // grow-only world at the shrink floor
        let p = build_plan(&opts(2, 2000, 3, 0, 2), &cfg).expect("plan");
        assert_eq!(p.phases[1].p, 4, "p=2 cannot shrink, must grow");
    }

    #[test]
    fn interval_tuner_clamps_sanely() {
        // no failures observed -> densest cadence
        assert_eq!(tune_interval(1e-3, f64::INFINITY, 1e-3, 600), 1);
        assert_eq!(tune_interval(0.0, 10.0, 1e-3, 600), 1);
        // Young/Daly: sqrt(2 * 1ms * 10s) / 1ms ~ 141 -> clamped to 32
        assert_eq!(tune_interval(1e-3, 10.0, 1e-3, 600), 32);
        // short phases bound the cadence at a quarter phase
        assert_eq!(tune_interval(1e-3, 10.0, 1e-3, 20), 5);
        // sqrt(2 * 1ms * 0.1s) / 5ms ~ 2.8 -> 3
        assert_eq!(tune_interval(1e-3, 0.1, 5e-3, 600), 3);
    }

    #[test]
    fn soak_args_parse_and_validate() {
        let parse = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_soak_args(&v)
        };
        let o = parse(&[]).expect("defaults").expect("opts");
        assert_eq!((o.ranks, o.steps, o.kills, o.resizes), (8, 2000, 5, 2));
        assert_eq!(o.max_respawns, 7, "default budget = kills + 2");
        let o = parse(&[
            "--ranks",
            "4",
            "--steps",
            "300",
            "--seed",
            "9",
            "--kills",
            "2",
            "--resizes",
            "1",
            "--plan-only",
        ])
        .expect("parse")
        .expect("opts");
        assert_eq!(
            (o.ranks, o.steps, o.seed, o.kills, o.resizes),
            (4, 300, 9, 2, 1)
        );
        assert!(o.plan_only);
        assert_eq!(o.max_respawns, 4);
        assert!(parse(&["--help"]).expect("help").is_none());
        assert!(parse(&["--ranks", "1"]).is_err());
        assert!(parse(&["--steps", "2"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
