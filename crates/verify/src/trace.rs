//! Analysis 5 — trace cross-check.
//!
//! The span tracer (`agcm-obs`) observes the *executing* integrators from
//! the inside: one `ExchangeWait` span per completed halo exchange, one
//! `Collective` span per collective call (tagged with the operator phase it
//! ran under).  The schedule metadata ([`agcm_core::par::schedule`]) states
//! what one steady-state step *should* perform.  This analysis runs a real
//! thread-backed model for two steps, keeps the second (steady-state) step
//! and compares, per rank:
//!
//! * `ExchangeWait` spans  vs  [`schedule::exchange_count`] — the paper's
//!   `3M + 4` (Algorithm 1) and `2` (Algorithm 2) exchanges per step,
//! * `Collective` spans tagged [`agcm_obs::Phase::C`]  vs  the schedule's
//!   `ZAllgather` count — the §4.2.2 `3M → 2M` vertical-collective cut.
//!
//! Where [`crate::runtime`] pins the static model to the runtime's *byte
//! counters*, this pins it to the *trace stream* — the same stream the
//! Chrome-trace exporter and overlap profile consume — so a span that goes
//! missing (or double-fires) in the instrumentation is caught here.

use agcm_comm::Universe;
use agcm_core::analysis::{AlgKind, CaMode};
use agcm_core::par::schedule::{self, StepOp};
use agcm_core::{init, Integrator, ModelConfig};
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;

/// Span counts of one rank over one steady-state step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankSpanCounts {
    /// Rank id.
    pub rank: usize,
    /// `ExchangeWait` spans — one per completed halo exchange.
    pub exchange_waits: u64,
    /// `Collective` spans tagged with operator phase `C` (z-allgathers).
    pub c_collectives: u64,
    /// Operator (`Op`) spans of any phase.
    pub op_spans: u64,
    /// What the program this rank executed says a step performs.
    pub program: ExpectedSpanCounts,
}

/// Expected per-rank counts derived from a step program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpectedSpanCounts {
    /// [`schedule::exchange_count`] of the steady-state step.
    pub exchanges: u64,
    /// `ZAllgather` entries of the schedule (0 when `p_z = 1`).
    pub z_allgathers: u64,
}

fn counts_of(ops: &[StepOp]) -> ExpectedSpanCounts {
    ExpectedSpanCounts {
        exchanges: schedule::exchange_count(ops),
        z_allgathers: ops
            .iter()
            .filter(|o| matches!(o, StepOp::ZAllgather))
            .count() as u64,
    }
}

/// Static expectation for `alg` on `pgrid` (steady state, grouped CA mode —
/// the mode the executable runs), from a freshly generated program.
pub fn expected_counts(cfg: &ModelConfig, alg: AlgKind, pgrid: ProcessGrid) -> ExpectedSpanCounts {
    counts_of(&match alg {
        AlgKind::CommAvoiding => schedule::alg2_step(cfg, &pgrid, CaMode::Grouped),
        _ => schedule::alg1_step(cfg, &pgrid),
    })
}

/// Run `alg` for real under the tracer and return per-rank span counts of
/// the **second** step (steady state: warm `C` cache, pending smoothing).
///
/// Takes the process-global tracer exclusively for the duration (see
/// [`agcm_obs::exclusive`]); prior buffered events are discarded.  Returns
/// an empty vector when the tracer is compiled out (feature `trace` off).
fn measure_spans(cfg: &ModelConfig, alg: AlgKind, pgrid: ProcessGrid) -> Vec<RankSpanCounts> {
    let _guard = obs::exclusive();
    obs::reset();
    obs::enable();
    if !obs::enabled() {
        return Vec::new(); // tracer compiled out
    }
    let p = pgrid.size();
    let cfg = cfg.clone();
    let programs = Universe::run(p, move |comm| {
        let mut m = Integrator::parallel(&cfg, alg, pgrid, comm).expect("valid model");
        let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
        m.set_state(&ic);
        m.step(Some(comm)).expect("step"); // warm-up: fills caches, leaves a smoothing pending
        m.step(Some(comm)).expect("step"); // the measured steady-state step (step index 1)
        counts_of(m.program())
    });
    obs::disable();
    let events = obs::drain();
    let mut counts: Vec<RankSpanCounts> = (programs.into_iter().enumerate())
        .map(|(rank, program)| RankSpanCounts {
            rank,
            program,
            ..Default::default()
        })
        .collect();
    for e in events.iter().filter(|e| e.step == 1) {
        let c = &mut counts[e.rank];
        match e.kind {
            obs::SpanKind::ExchangeWait => c.exchange_waits += 1,
            obs::SpanKind::Collective if e.phase == obs::Phase::C => c.c_collectives += 1,
            obs::SpanKind::Op => c.op_spans += 1,
            _ => {}
        }
    }
    counts
}

/// Compare the trace stream of an executed steady-state step against the
/// program the integrator walked, rank by rank.  `Ok` carries the measured counts;
/// `Err` lists every rank that deviated.  Vacuously `Ok` (empty) when the
/// tracer is compiled out.
pub fn trace_cross_check(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
) -> Result<Vec<RankSpanCounts>, String> {
    let meas = measure_spans(cfg, alg, pgrid);
    let mut errors = Vec::new();
    for c in &meas {
        let want = c.program;
        if c.exchange_waits != want.exchanges || c.c_collectives != want.z_allgathers {
            errors.push(format!(
                "rank {}: schedule says {} exchanges, {} z-collectives; \
                 trace shows {} exchange-wait spans, {} C-collective spans",
                c.rank, want.exchanges, want.z_allgathers, c.exchange_waits, c.c_collectives
            ));
        }
        if c.op_spans == 0 {
            errors.push(format!("rank {}: no operator spans recorded", c.rank));
        }
    }
    if errors.is_empty() {
        Ok(meas)
    } else {
        Err(errors.join("\n"))
    }
}
