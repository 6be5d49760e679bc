//! Analysis 5 — the trace check: a span stream joined to its schedule.
//!
//! Given a clock-aligned span stream — the merged trace of a multi-process
//! run (`agcm_obs::dist::merge_events`) or the in-process one
//! [`crate::trace::trace_cross_check`] records — and the [`ScheduleGraph`]
//! of the program that ran, this module is the one place that decides
//! whether the trace is consistent with the step program, and answers the
//! question per-process tracing cannot: *which rank's which operation made
//! the step take as long as it did*.
//!
//! Every `(step, rank)` with a `Step` span is checked:
//!
//! * its `ExchangeWait` spans number the schedule's exchanges and its
//!   phase-`C` `Collective` spans its z-allgathers — zero spans included,
//!   so a rank whose waits all went missing is loud;
//! * it ran an operator (`Op`) span, and every operator phase any rank ran
//!   in that step (the program is SPMD: Algorithm 1 has no `S2`, so the
//!   set comes from the trace, not a table).
//!
//! A stream in which no step has a `Step` span on every rank is
//! inconsistent too: it checks nothing.
//!
//! The join is order-based: within one (rank, step) the `i`-th
//! `ExchangeWait` span is the `i`-th `Exchange` op of the schedule, and
//! the `i`-th phase-`C` `Collective` span is the `i`-th `ZAllgather` op —
//! SPMD programs issue their communication in program order, and the span
//! sequence numbers preserve it.  Deviations are reported as errors, not
//! papered over.
//!
//! Per step the analyzer finds the **critical rank** — the one whose step
//! span ends last on the aligned clock — and attributes its wall time to
//! compute (`Op`), pack (`ExchangePost`), wire wait (`ExchangeWait`) and
//! collective segments — the segments `core::analysis::predict` splits its
//! predicted critical path into, so predicted and measured set side by
//! side — naming the longest blocking spans as (rank, op, event) entries
//! joined back to schedule ops.

use crate::graph::ScheduleGraph;
use agcm_core::par::schedule::StepOp;
use agcm_obs::{Event, Phase, SpanKind};
use std::collections::BTreeMap;

/// One span attributed to a schedule op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAttribution {
    /// Rank the span ran on.
    pub rank: usize,
    /// Index into [`ScheduleGraph::ops`] (`u32::MAX` when the span has no
    /// schedule counterpart).
    pub op: u32,
    /// Human-readable op label (`"exchange:state"`, `"z-allgather"`, …).
    pub op_label: String,
    /// Span site name (`"halo.wait"`, `"allgather"`, …).
    pub name: &'static str,
    /// Aligned start time (ns).
    pub t0_ns: u64,
    /// Span duration (ns).
    pub dur_ns: u64,
    /// Payload bytes the span moved.
    pub bytes: u64,
}

/// Where one step's critical-rank wall time went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentBreakdown {
    /// Operator (`Op`) span time (ns).
    pub compute_ns: u64,
    /// Halo pack/post time (ns).
    pub pack_ns: u64,
    /// Exchange wait (wire) time (ns).
    pub wire_wait_ns: u64,
    /// Collective time (ns).
    pub collective_ns: u64,
}

/// Critical path of one time step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepCriticalPath {
    /// Time step.
    pub step: u64,
    /// Wall time from the earliest rank's step start to the latest rank's
    /// step end on the aligned clock (ns).
    pub makespan_ns: u64,
    /// The rank whose step span ended last.
    pub critical_rank: usize,
    /// The critical rank's own step wall time (ns).
    pub critical_wall_ns: u64,
    /// Segment attribution on the critical rank.
    pub breakdown: SegmentBreakdown,
    /// Blocking chain: the critical rank's wait/collective spans, longest
    /// first, joined to schedule ops.
    pub blocking: Vec<SpanAttribution>,
}

/// The full critical-path analysis of a merged trace.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathReport {
    /// Per-step critical paths, ascending by step.
    pub steps: Vec<StepCriticalPath>,
    /// Spans successfully joined to schedule ops.
    pub joined: usize,
    /// Every failed check: span counts off the schedule, an operator phase
    /// missing on a rank, no complete step.
    pub errors: Vec<String>,
}

impl CriticalPathReport {
    /// Whether the trace passed every check (`errors` is empty).
    pub fn is_consistent(&self) -> bool {
        self.errors.is_empty()
    }
}

fn op_label(op: &StepOp) -> String {
    match op {
        StepOp::Exchange(ex) => format!("exchange:{}", ex.label),
        StepOp::ZAllgather => "z-allgather".to_string(),
        StepOp::FilterTranspose => "filter-transpose".to_string(),
        StepOp::Compute(_) => "compute".to_string(),
    }
}

/// Analyze the span stream `events` against `graph`.
///
/// `events` may span several steps; each is analyzed independently.
/// Steps without a `Step` span on every rank (warm-up partials) get no
/// critical path; a stream without any complete step is inconsistent.
/// The stream must already be clock-aligned
/// ([`agcm_obs::dist::merge_events`]) — attribution compares timestamps
/// across ranks.
pub fn analyze(events: &[Event], graph: &ScheduleGraph) -> CriticalPathReport {
    let mut rep = CriticalPathReport::default();

    // schedule-side join targets
    let exchange_ops: Vec<u32> = graph
        .ops
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, StepOp::Exchange(_)))
        .map(|(i, _)| i as u32)
        .collect();
    let zallgather_ops: Vec<u32> = graph
        .ops
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, StepOp::ZAllgather))
        .map(|(i, _)| i as u32)
        .collect();

    // bucket spans per (step, rank)
    type Key = (u64, usize);
    let mut steps: BTreeMap<u64, ()> = BTreeMap::new();
    let mut step_spans: BTreeMap<Key, (u64, u64)> = BTreeMap::new(); // t0, t1
    let mut waits: BTreeMap<Key, Vec<&Event>> = BTreeMap::new();
    let mut colls_c: BTreeMap<Key, Vec<&Event>> = BTreeMap::new();
    let mut agg: BTreeMap<Key, SegmentBreakdown> = BTreeMap::new();
    let mut phases: BTreeMap<Key, Vec<Phase>> = BTreeMap::new();
    for e in events {
        let key = (e.step, e.rank);
        match e.kind {
            SpanKind::Step => {
                steps.insert(e.step, ());
                let s = step_spans.entry(key).or_insert((e.t0_ns, e.t1_ns));
                s.0 = s.0.min(e.t0_ns);
                s.1 = s.1.max(e.t1_ns);
            }
            SpanKind::Op => {
                agg.entry(key).or_default().compute_ns += e.dur_ns();
                let ran = phases.entry(key).or_default();
                if !ran.contains(&e.phase) {
                    ran.push(e.phase);
                }
            }
            SpanKind::ExchangePost => agg.entry(key).or_default().pack_ns += e.dur_ns(),
            SpanKind::ExchangeWait => {
                agg.entry(key).or_default().wire_wait_ns += e.dur_ns();
                waits.entry(key).or_default().push(e);
            }
            SpanKind::Collective => {
                agg.entry(key).or_default().collective_ns += e.dur_ns();
                if e.phase == Phase::C {
                    colls_c.entry(key).or_default().push(e);
                }
            }
            _ => {}
        }
    }
    for v in waits.values_mut().chain(colls_c.values_mut()) {
        v.sort_by_key(|e| e.seq);
    }

    // check and join every (step, rank) that ran a step
    let mut joins: BTreeMap<Key, Vec<SpanAttribution>> = BTreeMap::new();
    for &(step, rank) in step_spans.keys() {
        let key = (step, rank);
        let joined = joins.entry(key).or_default();
        for (spans, targets, what, scheduled) in [
            (&waits, &exchange_ops, "exchange-wait", "exchanges"),
            (&colls_c, &zallgather_ops, "C-collective", "z-allgathers"),
        ] {
            let spans = spans.get(&key).map_or(&[][..], Vec::as_slice);
            if spans.len() != targets.len() {
                rep.errors.push(format!(
                    "step {step} rank {rank}: {} {what} spans vs {} scheduled {scheduled}",
                    spans.len(),
                    targets.len()
                ));
            }
            for (i, e) in spans.iter().enumerate() {
                let op = targets.get(i).copied().unwrap_or(u32::MAX);
                let op_label = graph
                    .ops
                    .get(op as usize)
                    .map_or_else(|| "unmatched".to_string(), op_label);
                if op != u32::MAX {
                    rep.joined += 1;
                }
                joined.push(SpanAttribution {
                    rank,
                    op,
                    op_label,
                    name: e.name,
                    t0_ns: e.t0_ns,
                    dur_ns: e.dur_ns(),
                    bytes: e.bytes,
                });
            }
        }
        // SPMD: any operator phase one rank ran in this step, every rank ran
        let ran = phases.get(&key).map_or(&[][..], Vec::as_slice);
        if ran.is_empty() {
            rep.errors
                .push(format!("step {step} rank {rank}: no operator spans"));
        }
        let step_ran = phases.range((step, 0)..=(step, usize::MAX));
        for phase in Phase::OPERATORS {
            if !ran.contains(&phase) && step_ran.clone().any(|(_, r)| r.contains(&phase)) {
                rep.errors.push(format!(
                    "step {step} rank {rank}: no phase-{} op span (other ranks ran it)",
                    phase.label()
                ));
            }
        }
    }

    // per-step critical path
    for (&step, ()) in &steps {
        let on_step: Vec<(usize, (u64, u64))> = step_spans
            .range((step, 0)..=(step, usize::MAX))
            .map(|(&(_, rank), &span)| (rank, span))
            .collect();
        if on_step.len() < graph.p {
            continue; // partial step (warm-up boundary): skip
        }
        let t_start = on_step.iter().map(|(_, (t0, _))| *t0).min().unwrap_or(0);
        let (critical_rank, (c_t0, c_t1)) = on_step
            .iter()
            .max_by_key(|(_, (_, t1))| *t1)
            .copied()
            .unwrap_or((0, (0, 0)));
        let mut blocking = joins.remove(&(step, critical_rank)).unwrap_or_default();
        blocking.sort_by_key(|a| std::cmp::Reverse(a.dur_ns));
        rep.steps.push(StepCriticalPath {
            step,
            makespan_ns: c_t1.saturating_sub(t_start),
            critical_rank,
            critical_wall_ns: c_t1.saturating_sub(c_t0),
            breakdown: agg.get(&(step, critical_rank)).copied().unwrap_or_default(),
            blocking,
        });
    }
    if rep.steps.is_empty() {
        // an empty or partial trace checks nothing: it is not consistent
        rep.errors
            .push("no step has a Step span on every rank".to_string());
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_core::analysis::{AlgKind, CaMode};
    use agcm_core::ModelConfig;
    use agcm_mesh::ProcessGrid;

    #[allow(clippy::too_many_arguments)]
    fn ev(
        rank: usize,
        step: u64,
        kind: SpanKind,
        phase: Phase,
        name: &'static str,
        t0: u64,
        t1: u64,
        seq: u64,
    ) -> Event {
        Event {
            rank,
            step,
            kind,
            phase,
            name,
            t0_ns: t0,
            t1_ns: t1,
            seq,
            bytes: 0,
            value: 0.0,
        }
    }

    fn graph() -> ScheduleGraph {
        let cfg = ModelConfig::test_small();
        ScheduleGraph::extract(
            &cfg,
            AlgKind::CommAvoiding,
            CaMode::Grouped,
            ProcessGrid::new(1, 2, 1).expect("grid"),
        )
        .expect("graph")
    }

    /// Algorithm 1 on a two-way z split: every step runs z-allgathers.
    fn z_split_graph() -> ScheduleGraph {
        let cfg = ModelConfig::test_small();
        ScheduleGraph::extract(
            &cfg,
            AlgKind::OriginalYZ,
            CaMode::Grouped,
            ProcessGrid::yz(1, 2).expect("grid"),
        )
        .expect("graph")
    }

    /// Step 1 of `rank`: a step span, one op span per phase of `phases`,
    /// `waits` exchange waits and `colls` phase-`C` collectives.
    fn rank_step(rank: usize, phases: &[Phase], waits: usize, colls: usize) -> Vec<Event> {
        let mut out = vec![ev(
            rank,
            1,
            SpanKind::Step,
            Phase::Other,
            "step",
            0,
            1_000,
            0,
        )];
        let spans = (phases.iter().map(|&p| (SpanKind::Op, p, "op")))
            .chain((0..waits).map(|_| (SpanKind::ExchangeWait, Phase::Other, "halo.wait")))
            .chain((0..colls).map(|_| (SpanKind::Collective, Phase::C, "allgather")));
        for (i, (kind, phase, name)) in spans.enumerate() {
            let t = 10 * (i as u64 + 1);
            out.push(ev(rank, 1, kind, phase, name, t, t + 5, i as u64 + 1));
        }
        out
    }

    #[test]
    fn a_rank_without_exchange_wait_spans_is_inconsistent() {
        let g = graph();
        let n_ex = g.exchange_ops() as usize;
        assert!(n_ex > 0);
        let mut events = rank_step(0, &[Phase::A], n_ex, 0);
        // rank 1 ran its step and its operators, but no wait was traced
        events.extend(rank_step(1, &[Phase::A], 0, 0));
        let rep = analyze(&events, &g);
        assert!(!rep.is_consistent());
        assert_eq!(
            rep.errors,
            [format!(
                "step 1 rank 1: 0 exchange-wait spans vs {n_ex} scheduled exchanges"
            )]
        );
    }

    #[test]
    fn a_rank_without_c_collective_spans_is_inconsistent() {
        let g = z_split_graph();
        let (n_ex, n_zag) = (g.exchange_ops() as usize, g.collective_ops() as usize);
        assert!(n_zag > 0);
        let whole = |rank| rank_step(rank, &[Phase::A, Phase::C], n_ex, n_zag);
        let consistent: Vec<Event> = whole(0).into_iter().chain(whole(1)).collect();
        let rep = analyze(&consistent, &g);
        assert!(rep.is_consistent(), "errors: {:?}", rep.errors);
        assert_eq!(rep.joined, 2 * (n_ex + n_zag));

        let mut events = whole(0);
        events.extend(rank_step(1, &[Phase::A, Phase::C], n_ex, 0));
        let rep = analyze(&events, &g);
        assert_eq!(
            rep.errors,
            [format!(
                "step 1 rank 1: 0 C-collective spans vs {n_zag} scheduled z-allgathers"
            )]
        );
    }

    #[test]
    fn a_rank_missing_an_operator_phase_others_ran_is_inconsistent() {
        let g = graph();
        let n_ex = g.exchange_ops() as usize;
        let mut events = rank_step(0, &[Phase::A, Phase::L], n_ex, 0);
        events.extend(rank_step(1, &[Phase::A, Phase::L], n_ex, 0));
        assert!(analyze(&events, &g).is_consistent());
        // rank 1 skips the advection rank 0 ran
        events.retain(|e| !(e.rank == 1 && e.phase == Phase::L));
        let rep = analyze(&events, &g);
        assert_eq!(
            rep.errors,
            ["step 1 rank 1: no phase-L op span (other ranks ran it)"]
        );
    }

    #[test]
    fn synthetic_trace_attributes_critical_rank() {
        let g = graph();
        let n_ex = g.exchange_ops() as usize;
        let mut events = Vec::new();
        let mut seq = 0;
        for rank in 0..2usize {
            // rank 1 is slower: its step span ends later
            let stretch = 1 + rank as u64;
            events.push(ev(
                rank,
                1,
                SpanKind::Step,
                Phase::Other,
                "alg2.step",
                0,
                1_000 * stretch,
                seq,
            ));
            seq += 1;
            let mut t = 10;
            for _ in 0..n_ex {
                events.push(ev(
                    rank,
                    1,
                    SpanKind::ExchangePost,
                    Phase::Other,
                    "halo.post",
                    t,
                    t + 5,
                    seq,
                ));
                seq += 1;
                events.push(ev(
                    rank,
                    1,
                    SpanKind::ExchangeWait,
                    Phase::Other,
                    "halo.wait",
                    t + 5,
                    t + 5 + 40 * stretch,
                    seq,
                ));
                seq += 1;
                t += 100;
            }
            events.push(ev(
                rank,
                1,
                SpanKind::Op,
                Phase::A,
                "adaptation.local",
                500,
                700,
                seq,
            ));
            seq += 1;
        }
        let rep = analyze(&events, &g);
        assert!(rep.is_consistent(), "errors: {:?}", rep.errors);
        assert_eq!(rep.joined, 2 * n_ex);
        assert_eq!(rep.steps.len(), 1);
        let s = &rep.steps[0];
        assert_eq!(s.critical_rank, 1);
        assert_eq!(s.makespan_ns, 2_000);
        assert_eq!(s.breakdown.compute_ns, 200);
        assert_eq!(s.breakdown.pack_ns, 5 * n_ex as u64);
        assert_eq!(s.breakdown.wire_wait_ns, 80 * n_ex as u64);
        // blocking chain: longest waits first, joined to exchange ops
        assert!(!s.blocking.is_empty());
        assert!(s.blocking[0].op_label.starts_with("exchange:"));
        assert!(s.blocking.windows(2).all(|w| w[0].dur_ns >= w[1].dur_ns));
    }

    #[test]
    fn count_mismatch_is_a_join_error() {
        let g = graph();
        // a single wait span cannot cover the schedule's exchanges
        let events = vec![
            ev(0, 1, SpanKind::Step, Phase::Other, "alg2.step", 0, 100, 0),
            ev(1, 1, SpanKind::Step, Phase::Other, "alg2.step", 0, 110, 1),
            ev(
                0,
                1,
                SpanKind::ExchangeWait,
                Phase::Other,
                "halo.wait",
                10,
                20,
                2,
            ),
        ];
        let rep = analyze(&events, &g);
        assert!(!rep.is_consistent());
        assert!(rep.errors[0].contains("exchange-wait spans"));
    }

    #[test]
    fn partial_steps_are_skipped() {
        let g = graph();
        // only rank 0 has a step span at step 0: no critical path for it
        let events = vec![ev(
            0,
            0,
            SpanKind::Step,
            Phase::Other,
            "alg2.step",
            0,
            100,
            0,
        )];
        let rep = analyze(&events, &g);
        assert!(rep.steps.is_empty());
        assert!(!analyze(&[], &g).is_consistent());
    }
}
