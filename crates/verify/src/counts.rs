//! Analysis 3 — count certification.
//!
//! The analyzer's per-rank message/volume/collective counts must equal the
//! counts the cost model's walk of the same program passes
//! ([`agcm_core::analysis::predict`]), and the per-step synchronization totals must
//! equal the §5.3 closed forms (`S_YZ = 6M + 4`, `S_CA = 2M + 2`,
//! `S_XY = 9M + 10` per step) — turning the paper's headline claims
//! (13 → 2 stencil exchanges, one third of the vertical collectives
//! removed, `W_YZ / W_CA = 3/2`) into machine-checked assertions.

use crate::graph::ScheduleGraph;
use agcm_comm::CostModel;
use agcm_core::analysis::{self, AlgKind, CaMode};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

/// Per-rank traffic of one step, summed from the event graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankCounts {
    /// Messages sent.
    pub send_msgs: u64,
    /// `f64` elements sent.
    pub send_elems: u64,
    /// Messages received.
    pub recv_msgs: u64,
    /// `f64` elements received.
    pub recv_elems: u64,
    /// Collective calls entered.
    pub collectives: u64,
}

/// Sum the graph's events per rank.
pub fn rank_counts(g: &ScheduleGraph) -> Vec<RankCounts> {
    let mut out = vec![RankCounts::default(); g.p];
    for s in &g.sends {
        let c = &mut out[s.src as usize];
        c.send_msgs += 1;
        c.send_elems += s.elems;
    }
    for r in &g.recvs {
        if r.dropped {
            continue;
        }
        let c = &mut out[r.rank as usize];
        c.recv_msgs += 1;
        c.recv_elems += r.elems;
    }
    for members in &g.groups {
        for &m in members {
            out[m as usize].collectives += 1;
        }
    }
    out
}

/// Outcome of the count certification.
#[derive(Debug, Clone, Default)]
pub struct CountReport {
    /// Halo exchanges per step.
    pub exchanges: u64,
    /// Collective calls per rank per step.
    pub collectives: u64,
    /// Synchronizations per step (exchanges + collectives): the §5.3 `S`.
    pub syncs: u64,
    /// The §5.3 closed-form `S` for this algorithm.
    pub s_closed_form: u64,
    /// Ranks whose counts were checked against the predictor.
    pub ranks_checked: usize,
    /// Failures (capped).
    pub errors: Vec<String>,
}

impl CountReport {
    /// Whether every count matched.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

const MAX_ERRORS: usize = 16;

/// Certify the graph's counts against the §5.3 closed forms and the
/// per-rank counts of `core::analysis::predict`.
pub fn certify_counts(
    cfg: &ModelConfig,
    alg: AlgKind,
    mode: CaMode,
    pgrid: ProcessGrid,
    g: &ScheduleGraph,
) -> CountReport {
    let mut rep = CountReport {
        exchanges: g.exchange_ops(),
        collectives: g.collective_ops(),
        ..CountReport::default()
    };
    rep.syncs = rep.exchanges + rep.collectives;
    fn err(rep: &mut CountReport, msg: String) {
        if rep.errors.len() < MAX_ERRORS {
            rep.errors.push(msg);
        }
    }

    // §5.3 closed form; exact only in the regime the paper states it for
    // (the full-depth CA schedule, however the mode names it).
    let s = match alg {
        AlgKind::OriginalYZ => analysis::s_yz(cfg, 1),
        AlgKind::OriginalXY => analysis::s_xy(cfg, 1),
        AlgKind::CommAvoiding => analysis::s_ca(cfg, 1),
    };
    rep.s_closed_form = s as u64;
    // the closed forms assume the decomposition that motivates them (z
    // collectives under Y-Z, filter transposes under X-Y, full-depth CA)
    let closed_form_applies = match alg {
        AlgKind::OriginalYZ => pgrid.pz() > 1,
        AlgKind::OriginalXY => pgrid.px() > 1,
        AlgKind::CommAvoiding => {
            pgrid.pz() > 1 && mode.groups(cfg, &pgrid) == CaMode::PaperIdeal.groups(cfg, &pgrid)
        }
    };
    if closed_form_applies && rep.syncs != rep.s_closed_form {
        let msg = format!(
            "sync count {} != §5.3 closed form {} ({:?})",
            rep.syncs, rep.s_closed_form, alg
        );
        err(&mut rep, msg);
    }

    // per-rank counts vs the cost model's walk (its constants move no count)
    let predicted = match analysis::predict(cfg, alg, pgrid, mode, &CostModel::BENCH_HOST) {
        Ok(p) => p,
        Err(e) => {
            err(&mut rep, format!("the predictor refuses the schedule: {e}"));
            return rep;
        }
    };
    let counts = rank_counts(g);
    let mut total_sends = 0u64;
    let mut total_recvs = 0u64;
    for (rank, (c, want)) in counts.iter().zip(&predicted.ranks).enumerate() {
        total_sends += c.send_msgs;
        total_recvs += c.recv_msgs;
        if c.send_msgs != c.recv_msgs {
            err(
                &mut rep,
                format!(
                    "rank {rank}: {} sends but {} recvs — asymmetric schedule",
                    c.send_msgs, c.recv_msgs
                ),
            );
        }
        if c.send_msgs != want.msgs || c.send_elems != want.elems {
            err(
                &mut rep,
                format!(
                    "rank {rank}: schedule graph ({} msgs, {} elems) != predictor ({}, {})",
                    c.send_msgs, c.send_elems, want.msgs, want.elems
                ),
            );
        }
        if c.collectives != want.collectives {
            err(
                &mut rep,
                format!(
                    "rank {rank}: {} collective calls != predictor {}",
                    c.collectives, want.collectives
                ),
            );
        }
    }
    if total_sends != total_recvs {
        err(
            &mut rep,
            format!("global send count {total_sends} != recv count {total_recvs}"),
        );
    }
    rep.ranks_checked = counts.len();
    rep
}
