//! `agcm-verify` — static analysis of the dynamical core's communication
//! schedules.
//!
//! The paper's argument is a statement about *communication structure*:
//! how many halo exchanges and collectives one time step performs, with
//! which tags, volumes and partners (§4.3, §5.3).  This crate extracts
//! that structure **statically** — from the schedule metadata the
//! integrators export ([`agcm_core::par::schedule`]) and the same halo
//! geometry they execute ([`agcm_mesh::ExchangePlan`]) — and proves it
//! well-formed at production scale (p = 1024, 4096, …) without spawning a
//! single thread:
//!
//! 1. **Matching** ([`matching::check_matching`]): every send has exactly
//!    one receive with identical `(source, tag)` and size; no orphans.
//! 2. **Deadlock-freedom** ([`deadlock::check_deadlock`]): virtual
//!    execution of every rank's program under the runtime's eager-send
//!    semantics either completes — a proof — or exhibits the wait-for
//!    cycle, replacing "the 30 s timeout did not fire" as evidence.
//! 3. **Count certification** ([`counts::certify_counts`]): graph counts
//!    equal those of the cost model's walk (`core::analysis::predict`) and
//!    the §5.3 closed forms — 13 → 2 exchanges and the 3M → 2M collective
//!    reduction become machine-checked assertions.
//! 4. **Runtime cross-check** ([`runtime::cross_check`]): at small p the
//!    same counts equal the traffic a real thread-backed run measures.
//! 5. **Trace cross-check** ([`trace::trace_cross_check`]): the span
//!    stream `agcm-obs` records from inside an executing step — one
//!    `ExchangeWait` span per exchange, one phase-`C` `Collective` span
//!    per z-allgather — also equals the schedule, pinning the
//!    *instrumentation* (which the figures' trace exporter consumes) to
//!    the same ground truth.
//!
//! 6. **Critical-path attribution** ([`critpath::analyze`]): a merged,
//!    clock-aligned multi-process trace is joined span-by-span against the
//!    static graph, naming per step the blocking (rank, op, event) chain
//!    and the critical rank's compute / pack / wire-wait / collective
//!    split — the measured side of the cost model's predicted one.
//!
//! [`report::certify_yz`] bundles the static analyses;
//! `cargo run -p agcm-bench --bin figures -- verify` prints the paper-mesh
//! certification table.

#![forbid(unsafe_code)]
pub mod counts;
pub mod critpath;
pub mod dataflow;
pub mod deadlock;
pub mod graph;
pub mod matching;
pub mod report;
pub mod runtime;
pub mod trace;

pub use counts::{certify_counts, rank_counts, CountReport, RankCounts};
pub use critpath::{
    analyze, CriticalPathReport, SegmentBreakdown, SpanAttribution, StepCriticalPath,
};
pub use dataflow::{check_ops, Counterexample, FailureKind, FlowProof};
pub use deadlock::{check_deadlock, DeadlockReport};
pub use graph::{Action, RecvEvent, ScheduleGraph, SendEvent};
pub use matching::{check_matching, MatchReport};
pub use report::{
    certify_one, certify_paper_ranks, certify_yz, paper_yz_grid, AlgCertification, Certification,
    PAPER_RANKS,
};
pub use runtime::{cross_check, measure_step, measure_step_under_faults, MeasuredTraffic};
pub use trace::{
    expected_counts, measure_spans, trace_cross_check, ExpectedSpanCounts, RankSpanCounts,
};
