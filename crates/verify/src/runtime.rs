//! Analysis 4 — runtime cross-check.
//!
//! At small rank counts the analyzer's statically derived per-rank counts
//! must equal the traffic [`agcm_comm`]'s statistics measure from a *real*
//! thread-backed run of the same configuration.  This pins the static
//! model to the executing system: if an integrator ever gains or loses a
//! message, the cross-check fails even though the purely static analyses
//! (which share the schedule metadata) would remain self-consistent.

use crate::counts::{rank_counts, RankCounts};
use crate::graph::ScheduleGraph;
use agcm_comm::{p2p_only_delta, FaultPlan, Universe};
use agcm_core::analysis::AlgKind;
use agcm_core::par::StepOp;
use agcm_core::{init, Integrator, ModelConfig};
use agcm_mesh::ProcessGrid;

/// Per-rank traffic measured from one executed steady-state step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeasuredTraffic {
    /// Halo messages sent (collective-internal p2p subtracted).
    pub msgs: u64,
    /// Halo `f64` elements sent.
    pub elems: u64,
    /// Collective calls.
    pub collectives: u64,
}

/// Run `alg` on `pgrid` for real (threads) with a deterministic fault plan
/// installed, measure the second step — steady state: warm `C` cache,
/// pending smoothing — and return per-rank halo traffic with
/// collective-internal messages subtracted.  The certified counts must be
/// *invariant* under the faults a plan can inject: a delay reorders
/// messages and a stall pauses a rank, but each message is still sent and
/// received exactly once.  `Err` names a malformed or refused `spec`, a
/// model that does not build, or a step that failed.
pub fn measure_step_under_faults(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
    seed: u64,
    spec: &str,
) -> Result<Vec<MeasuredTraffic>, String> {
    let plan = agcm_comm::FaultPlan::parse(seed, spec)?;
    Ok(measure_step_inner(cfg, alg, pgrid, Some(plan))?.0)
}

/// The per-rank traffic of the measured step and the program it walked.
fn measure_step_inner(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
    fault: Option<FaultPlan>,
) -> Result<(Vec<MeasuredTraffic>, Vec<StepOp>), String> {
    let cfg = cfg.clone();
    let ranks = Universe::run(pgrid.size(), move |comm| {
        if let Some(plan) = &fault {
            comm.install_faults(plan.clone());
        }
        // the per-event log (needed to subtract collective-internal p2p)
        // is opt-in since it grows unboundedly on long runs
        comm.stats().set_event_logging(true);
        let mut m = Integrator::parallel(&cfg, alg, pgrid, comm).map_err(|e| e.to_string())?;
        let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
        m.set_state(&ic);
        m.step(Some(comm)).map_err(|e| e.to_string())?; // warm-up: fills caches, leaves a smoothing pending
        let s0 = comm.stats().snapshot();
        let e0 = comm.stats().collective_events().len();
        m.step(Some(comm)).map_err(|e| e.to_string())?;
        let delta = comm.stats().snapshot().delta(&s0);
        let events = comm.stats().collective_events()[e0..].to_vec();
        let pure = p2p_only_delta(&delta, &events);
        let traffic = MeasuredTraffic {
            msgs: pure.p2p_sends,
            elems: pure.p2p_send_elems,
            collectives: events.len() as u64,
        };
        Ok::<_, String>((traffic, m.program().to_vec()))
    });
    let (traffic, mut programs): (Vec<_>, Vec<_>) = ranks
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    // SPMD: every rank walked the same program
    Ok((traffic, programs.swap_remove(0)))
}

/// Compare the schedule graph against an executed run, rank by rank.
/// Returns the mismatches (empty = exact agreement).
pub fn cross_check(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
) -> Result<Vec<RankCounts>, String> {
    let (meas, program) = measure_step_inner(cfg, alg, pgrid, None)?;
    // the graph of the program that ran, not of a regenerated twin
    let g = ScheduleGraph::of_program(cfg, pgrid, &program)?;
    let stat = rank_counts(&g);
    let mut errors = Vec::new();
    for (rank, (s, m)) in stat.iter().zip(&meas).enumerate() {
        if s.send_msgs != m.msgs || s.send_elems != m.elems || s.collectives != m.collectives {
            errors.push(format!(
                "rank {rank}: static ({} msgs, {} elems, {} colls) != measured ({}, {}, {})",
                s.send_msgs, s.send_elems, s.collectives, m.msgs, m.elems, m.collectives
            ));
        }
    }
    if errors.is_empty() {
        Ok(stat)
    } else {
        Err(errors.join("\n"))
    }
}
