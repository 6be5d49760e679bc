//! `agcm-obs` — operator-level observability for the dynamical core.
//!
//! The paper's argument is a communication ledger (13→2 halo exchanges,
//! 3M→2M z-collectives per step, computation/communication overlap); this
//! crate makes that ledger *observable* on a running model instead of
//! only statically countable:
//!
//! * **span tracer** ([`span`], [`span_phase`], [`drain`]) — wall-clock +
//!   logical timestamps for every operator application (`A`, `C`, `F`,
//!   `L`, `S1`, `S2`), nonlinear iteration, halo exchange and collective,
//!   tagged with rank, time step, and operator [`Phase`];
//! * **metrics registry** ([`Registry`]) — counters and log-linear
//!   histograms for cumulative aggregates (message latency, checkpoint
//!   write time);
//! * **exporters** ([`chrome_trace_json`], [`TraceReport`]) — a
//!   Chrome-trace/Perfetto timeline and the derived aggregates, including
//!   the per-step **overlap-efficiency profile** (how much exchange wait
//!   is hidden behind inner-region computation in Algorithm 2, §4.3.1).
//!
//! # Cost model
//!
//! Tracing is off by default.  Every instrumentation site, when tracing
//! is disabled, costs one relaxed atomic load ([`enabled`]).  What tracing
//! costs when it is *on* is a row of the benchmark ledger
//! (`obs.overhead_frac` = best traced step ÷ best untraced step − 1, beside
//! `obs.events_per_step`; `benchmark/README.md`): inside the host's noise
//! on the 180×90×30 and 720×360×30 meshes, but 0.25 on
//! `small_alg1_y2_uds`, where a step is under 2 ms — the tracer is
//! not free there (ROADMAP item 2).  The tracer is always compiled in:
//! that load is the only gate.
//!
//! # Usage
//!
//! ```
//! use agcm_obs as obs;
//!
//! let _guard = obs::exclusive(); // tracer state is process-global
//! obs::reset();
//! obs::enable();
//! {
//!     let _s = obs::span_phase(obs::SpanKind::Op, obs::Phase::A, "adaptation");
//!     // ... operator body; nested comm events inherit Phase::A ...
//! }
//! obs::disable();
//! let events = obs::drain();
//! let report = obs::TraceReport::from_events(&events);
//! let timeline = obs::chrome_trace_json(&events);
//! assert!(obs::validate_json(&timeline).is_ok());
//! # let _ = report;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
mod export;
mod metrics;
mod phase;
mod tracer;

pub use export::{
    chrome_trace_json, validate_json, DurQuantiles, PhaseImbalance, StepOverlap, TraceReport,
};
pub use metrics::{Counter, Histogram, HistogramSummary, MetricsSnapshot, Registry};
pub use phase::{current_phase, Phase};
pub use tracer::{
    disable, drain, enable, enabled, exclusive, now_ns, record_span, record_value, reset, set_rank,
    set_step, span, span_phase, Event, Span, SpanKind,
};

/// The instruction set this binary was compiled for — `"x86_64 avx2
/// avx512f"` under the repository's `.cargo/config.toml` on the bench host,
/// `"x86_64 sse2"` for a baseline build, the architecture alone elsewhere.
/// Every reported speed names it: the same source is 1.2× apart between the
/// two (EXPERIMENTS.md "Build for the host ISA"), and never a bit apart.
pub fn build_isa() -> &'static str {
    if !cfg!(target_arch = "x86_64") {
        std::env::consts::ARCH
    } else if cfg!(target_feature = "avx512f") {
        "x86_64 avx2 avx512f"
    } else if cfg!(target_feature = "avx2") {
        "x86_64 avx2"
    } else {
        "x86_64 sse2"
    }
}
