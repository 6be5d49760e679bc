//! The traced window: from a drained `agcm_obs` event stream to per-step
//! layer figures on the critical rank.

use crate::stats::median;
use agcm_obs::{Event, Phase, SpanKind, TraceReport};
use std::collections::BTreeMap;

/// Self time of every span of ONE thread's properly nested span list:
/// its duration minus the part its direct children cover.  Returns the
/// self times in the order of `spans` after sorting (parents first).
pub fn self_times(spans: &mut [Event]) -> Vec<u64> {
    // parents before children: earlier start, then later end; a span's
    // sequence number is taken when it ends, so of two spans with equal
    // bounds the outer one has the larger
    spans.sort_by_key(|e| {
        (
            e.t0_ns,
            std::cmp::Reverse(e.t1_ns),
            std::cmp::Reverse(e.seq),
        )
    });
    let mut child_ns = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in spans.iter().enumerate() {
        while stack.last().is_some_and(|&top| spans[top].t1_ns < e.t1_ns) {
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += e.dur_ns();
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(e, c)| e.dur_ns().saturating_sub(*c))
        .collect()
}

/// Per-step figures of one operator phase on the critical rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpFigures {
    pub s_per_step: f64,
    pub calls_per_step: f64,
    /// max / avg over ranks of the phase's wall time.
    pub imbalance: f64,
}

/// Everything the traced window yields.
#[derive(Debug, Clone, Default)]
pub struct LayerTrace {
    pub steps: usize,
    pub critical_rank: usize,
    pub ops: BTreeMap<&'static str, OpFigures>,
    /// Median over traced steps of the per-step makespan.
    pub step_s_p50: f64,
    /// Step-loop self time: Step/Iter/OverlapCompute spans minus what the
    /// operator, exchange and collective spans inside them cover.
    pub self_s_per_step: f64,
    pub closure_residual_frac: f64,
    /// max / avg over ranks of the time a rank is not waiting.
    pub rank_imbalance: f64,
    pub exchanges_per_step: f64,
    pub post_s_per_step: f64,
    pub wait_s_per_step: f64,
    pub wait_s_p50: f64,
    pub overlap_efficiency: f64,
    pub collective_s_per_step: f64,
    /// Worker spans ÷ (threads × operator wall); 0 without a pool.
    pub worker_busy_frac: f64,
    pub events_per_step: f64,
}

/// Span kinds recorded on a rank's own thread, nested inside its Step span.
fn on_rank_thread(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::Step
            | SpanKind::Iter
            | SpanKind::Op
            | SpanKind::ExchangePost
            | SpanKind::ExchangeWait
            | SpanKind::OverlapCompute
            | SpanKind::Collective
            | SpanKind::Recovery
    )
}

/// Analyse the events of a traced window of `steps` steps run by `ranks`
/// ranks with `threads` pool workers each.
pub fn analyse(events: &[Event], steps: usize, ranks: usize, threads: usize) -> LayerTrace {
    let per_step = |ns: u64| ns as f64 * 1e-9 / steps as f64;
    let mut out = LayerTrace {
        steps,
        ..LayerTrace::default()
    };

    // the Step spans delimit what belongs to the window on each rank
    let step_spans: Vec<&Event> = events.iter().filter(|e| e.kind == SpanKind::Step).collect();
    let mut wall_ns = vec![0u64; ranks];
    let mut makespan: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &step_spans {
        wall_ns[s.rank] += s.dur_ns();
        let m = makespan.entry(s.step).or_insert(0);
        *m = (*m).max(s.dur_ns());
    }
    if step_spans.is_empty() {
        return out;
    }
    // every event of any thread between the first step's start and the
    // last step's end (the barriers around the window stay outside)
    let from = step_spans.iter().map(|s| s.t0_ns).min().unwrap_or(0);
    let to = step_spans.iter().map(|s| s.t1_ns).max().unwrap_or(0);
    let in_window = events.iter().filter(|e| from <= e.t0_ns && e.t1_ns <= to);
    out.events_per_step = in_window.count() as f64 / steps as f64;
    let makespans: Vec<f64> = makespan.values().map(|&ns| ns as f64 * 1e-9).collect();
    out.step_s_p50 = median(&makespans);
    out.critical_rank = (0..ranks).max_by_key(|&r| wall_ns[r]).unwrap_or(0);

    let mut busy_ns = vec![0u64; ranks];
    for rank in 0..ranks {
        // the window of this rank: first Step start to last Step end
        let mine = step_spans.iter().filter(|s| s.rank == rank);
        let from = mine.clone().map(|s| s.t0_ns).min().unwrap_or(0);
        let to = mine.map(|s| s.t1_ns).max().unwrap_or(0);
        let inside = |e: &&Event| {
            e.rank == rank && on_rank_thread(e.kind) && from <= e.t0_ns && e.t1_ns <= to
        };
        let mut spans: Vec<Event> = events.iter().filter(inside).copied().collect();
        let selfs = self_times(&mut spans);
        let mut loop_self = 0u64;
        let (mut post, mut wait, mut coll, mut exchanges) = (0u64, 0u64, 0u64, 0u64);
        let mut op_ns: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (e, self_ns) in spans.iter().zip(&selfs) {
            match e.kind {
                SpanKind::Step | SpanKind::Iter | SpanKind::OverlapCompute => loop_self += self_ns,
                SpanKind::Op => {
                    let slot = op_ns.entry(e.phase.label()).or_insert((0, 0));
                    slot.0 += e.dur_ns();
                    slot.1 += 1;
                }
                SpanKind::ExchangePost => post += e.dur_ns(),
                SpanKind::ExchangeWait => {
                    wait += e.dur_ns();
                    exchanges += 1;
                }
                SpanKind::Collective => coll += e.dur_ns(),
                _ => {}
            }
        }
        busy_ns[rank] = wall_ns[rank].saturating_sub(wait + coll);
        if rank == out.critical_rank {
            out.self_s_per_step = per_step(loop_self);
            out.closure_residual_frac = loop_self as f64 / wall_ns[rank].max(1) as f64;
            out.post_s_per_step = per_step(post);
            out.wait_s_per_step = per_step(wait);
            out.collective_s_per_step = per_step(coll);
            out.exchanges_per_step = exchanges as f64 / steps as f64;
            for (label, (ns, calls)) in op_ns {
                out.ops.insert(
                    label,
                    OpFigures {
                        s_per_step: per_step(ns),
                        calls_per_step: calls as f64 / steps as f64,
                        imbalance: 0.0,
                    },
                );
            }
        }
    }
    let busy_avg = busy_ns.iter().sum::<u64>() as f64 / ranks as f64;
    out.rank_imbalance = busy_ns.iter().copied().max().unwrap_or(0) as f64 / busy_avg.max(1.0);

    // the program's own aggregate supplies the cross-rank figures
    let report = TraceReport::from_events(events);
    for phase in Phase::OPERATORS {
        let fig = out.ops.entry(phase.label()).or_default();
        fig.imbalance = report
            .imbalance
            .get(phase.label())
            .map_or(0.0, |i| i.imbalance);
    }
    out.wait_s_p50 = report.wait_quantiles.p50_ns as f64 * 1e-9;
    out.overlap_efficiency = report.mean_overlap_efficiency();
    let op_wall: u64 = report.op_wall_ns.values().sum();
    let worker_ns: u64 = events
        .iter()
        .filter(|e| e.kind == SpanKind::Worker)
        .map(Event::dur_ns)
        .sum();
    if op_wall > 0 {
        out.worker_busy_frac = worker_ns as f64 / (threads as f64 * op_wall as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        rank: usize,
        step: u64,
        kind: SpanKind,
        phase: Phase,
        t0: u64,
        t1: u64,
        seq: u64,
    ) -> Event {
        Event {
            rank,
            step,
            kind,
            phase,
            name: "synthetic",
            t0_ns: t0,
            t1_ns: t1,
            seq,
            bytes: 0,
            value: 0.0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100] ⊃ iter [10,90] ⊃ { op A [10,40], op C [40,80] ⊃ coll [50,70] }
        let mut spans = vec![
            ev(0, 0, SpanKind::Collective, Phase::C, 50, 70, 0),
            ev(0, 0, SpanKind::Op, Phase::A, 10, 40, 1),
            ev(0, 0, SpanKind::Op, Phase::C, 40, 80, 2),
            ev(0, 0, SpanKind::Iter, Phase::Other, 10, 90, 3),
            ev(0, 0, SpanKind::Step, Phase::Other, 0, 100, 4),
        ];
        let selfs = self_times(&mut spans);
        let by_kind: Vec<(SpanKind, Phase, u64)> = spans
            .iter()
            .zip(&selfs)
            .map(|(e, s)| (e.kind, e.phase, *s))
            .collect();
        assert_eq!(
            by_kind,
            vec![
                (SpanKind::Step, Phase::Other, 20),
                (SpanKind::Iter, Phase::Other, 10),
                (SpanKind::Op, Phase::A, 30),
                (SpanKind::Op, Phase::C, 20),
                (SpanKind::Collective, Phase::C, 20),
            ]
        );
        // self times partition the outermost span
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn equal_bounds_nest_by_sequence_number() {
        // an overlap span and the op it wraps share both timestamps
        let mut spans = vec![
            ev(0, 0, SpanKind::Op, Phase::S1, 5, 9, 0),
            ev(0, 0, SpanKind::OverlapCompute, Phase::Other, 5, 9, 1),
            ev(0, 0, SpanKind::Step, Phase::Other, 0, 10, 2),
        ];
        let selfs = self_times(&mut spans);
        assert_eq!(spans[1].kind, SpanKind::OverlapCompute);
        assert_eq!(selfs, vec![6, 0, 4]);
    }

    #[test]
    fn analyse_reports_the_critical_rank_per_step() {
        let mut events = Vec::new();
        let mut seq = 0;
        let mut push = |e: Event| {
            events.push(Event { seq, ..e });
            seq += 1;
        };
        for step in 0..2u64 {
            let base = step * 1000;
            // rank 0: 100 ns op + 50 ns wait in a 200 ns step
            push(ev(
                0,
                step,
                SpanKind::Op,
                Phase::A,
                base + 10,
                base + 110,
                0,
            ));
            push(ev(
                0,
                step,
                SpanKind::ExchangePost,
                Phase::Other,
                base + 110,
                base + 120,
                0,
            ));
            push(ev(
                0,
                step,
                SpanKind::ExchangeWait,
                Phase::Other,
                base + 120,
                base + 170,
                0,
            ));
            push(ev(
                0,
                step,
                SpanKind::Step,
                Phase::Other,
                base,
                base + 200,
                0,
            ));
            // rank 1: 180 ns op, 10 ns wait, 220 ns step — the critical one
            push(ev(
                1,
                step,
                SpanKind::Op,
                Phase::A,
                base + 10,
                base + 190,
                0,
            ));
            push(ev(
                1,
                step,
                SpanKind::ExchangeWait,
                Phase::Other,
                base + 190,
                base + 200,
                0,
            ));
            push(ev(
                1,
                step,
                SpanKind::Step,
                Phase::Other,
                base,
                base + 220,
                0,
            ));
        }
        let t = analyse(&events, 2, 2, 1);
        assert_eq!(t.critical_rank, 1);
        assert!((t.step_s_p50 - 220e-9).abs() < 1e-15);
        assert!((t.ops["A"].s_per_step - 180e-9).abs() < 1e-15);
        assert_eq!(t.ops["A"].calls_per_step, 1.0);
        assert_eq!(t.ops["C"], OpFigures::default());
        assert_eq!(t.exchanges_per_step, 1.0);
        assert!((t.wait_s_per_step - 10e-9).abs() < 1e-15);
        assert!((t.self_s_per_step - 30e-9).abs() < 1e-15);
        assert!((t.closure_residual_frac - 30.0 / 220.0).abs() < 1e-12);
        // busy: rank 0 = 150, rank 1 = 210 per step → 210 / 180
        assert!((t.rank_imbalance - 210.0 / 180.0).abs() < 1e-12);
        assert_eq!(t.events_per_step, 7.0);
    }
}
