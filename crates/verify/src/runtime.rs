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
use agcm_comm::{p2p_only_delta, Universe};
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

/// Run `alg` on `pgrid` for real (threads), measure the second step —
/// steady state: warm `C` cache, pending smoothing — and return per-rank
/// halo traffic with collective-internal messages subtracted.
pub fn measure_step(cfg: &ModelConfig, alg: AlgKind, pgrid: ProcessGrid) -> Vec<MeasuredTraffic> {
    measure_step_inner(cfg, alg, pgrid, None).0
}

/// Like [`measure_step`] but with a deterministic fault plan installed and
/// framed, retrying exchanges.  The certified counts must be *invariant*
/// under delivery faults: the stats count logical payloads (checksum
/// frames excluded), redundant duplicate deliveries are never counted,
/// drops/corruptions are recovered receiver-side without reposting sends,
/// and stalls/delays only move messages in time.
pub fn measure_step_under_faults(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
    seed: u64,
    spec: &str,
) -> Vec<MeasuredTraffic> {
    measure_step_inner(cfg, alg, pgrid, Some((seed, spec.to_string()))).0
}

/// The per-rank traffic of the measured step and the program it walked.
fn measure_step_inner(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
    fault: Option<(u64, String)>,
) -> (Vec<MeasuredTraffic>, Vec<StepOp>) {
    let cfg = cfg.clone();
    let mut ranks = Universe::run(pgrid.size(), move |comm| {
        if let Some((seed, spec)) = &fault {
            comm.install_faults(agcm_comm::FaultPlan::parse(*seed, spec).expect("valid spec"));
            comm.set_timeout(std::time::Duration::from_millis(500));
        }
        // the per-event log (needed to subtract collective-internal p2p)
        // is opt-in since it grows unboundedly on long runs
        comm.stats().set_event_logging(true);
        let mut m = Integrator::parallel(&cfg, alg, pgrid, comm).expect("valid model");
        if fault.is_some() {
            // framed + retrying exchanges recover drops/corruption
            m.set_framed(true);
            m.set_retry(agcm_core::par::RetryPolicy::default());
        }
        let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
        m.set_state(&ic);
        m.step(Some(comm)).expect("step"); // warm-up: fills caches, leaves a smoothing pending
        let s0 = comm.stats().snapshot();
        let e0 = comm.stats().collective_events().len();
        m.step(Some(comm)).expect("step");
        let delta = comm.stats().snapshot().delta(&s0);
        let events = comm.stats().collective_events()[e0..].to_vec();
        let pure = p2p_only_delta(&delta, &events);
        let traffic = MeasuredTraffic {
            msgs: pure.p2p_sends,
            elems: pure.p2p_send_elems,
            collectives: events.len() as u64,
        };
        // SPMD: every rank walks the same program; rank 0 reports it
        (traffic, (comm.rank() == 0).then(|| m.program().to_vec()))
    });
    let program = ranks[0].1.take().expect("rank 0 reports the program");
    (ranks.into_iter().map(|(t, _)| t).collect(), program)
}

/// Compare the schedule graph against an executed run, rank by rank.
/// Returns the mismatches (empty = exact agreement).
pub fn cross_check(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
) -> Result<Vec<RankCounts>, String> {
    let (meas, program) = measure_step_inner(cfg, alg, pgrid, None);
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
