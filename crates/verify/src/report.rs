//! The full static certification: all three schedules of one rank count,
//! all analyses, plus the paper's headline claims as assertions.

use crate::counts::certify_counts;
use crate::dataflow;
use crate::deadlock::check_deadlock;
use crate::graph::ScheduleGraph;
use crate::matching::check_matching;
use agcm_core::analysis::{self, AlgKind, CaMode};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

/// Certification of one algorithm's schedule on one grid.
#[derive(Debug, Clone)]
pub struct AlgCertification {
    /// The algorithm.
    pub alg: AlgKind,
    /// Halo exchanges per step.
    pub exchanges: u64,
    /// Collective calls per rank per step.
    pub collectives: u64,
    /// Send events in the step (all ranks).
    pub sends: usize,
    /// Actions virtually executed by the deadlock proof.
    pub actions: usize,
    /// Read requirements discharged by the dataflow proof
    /// ([`dataflow::check`]); `None` when the schedule is not executable
    /// on this grid (the paper's idealized accounting on a clamped grid)
    /// and only its counts are certified.
    pub dataflow_reads: Option<u64>,
    /// Smallest halo slack the dataflow proof observed (`Some(0)`: some
    /// exchange depth is consumed exactly).
    pub dataflow_margin: Option<u64>,
}

/// Certification of the Y-Z schedules at one rank count.
#[derive(Debug, Clone)]
pub struct Certification {
    /// Ranks.
    pub p: usize,
    /// Algorithm 1 under Y-Z (the 13-exchange schedule).
    pub alg1: AlgCertification,
    /// Algorithm 2 under the paper's idealized full-depth accounting
    /// (the 2-exchange schedule).
    pub ca_ideal: AlgCertification,
    /// Algorithm 2 as it executes on this grid (`CaMode::Grouped`).
    pub ca_grouped: AlgCertification,
}

/// Statically certify the schedule of `alg` on `pgrid` (Algorithm 2's on the
/// sweep groups `mode` names): matching, deadlock-freedom, counts against
/// the predictor and, where the schedule is executable, the halo-coverage
/// proof.
pub fn certify_one(
    cfg: &ModelConfig,
    alg: AlgKind,
    mode: CaMode,
    pgrid: ProcessGrid,
) -> Result<AlgCertification, String> {
    let label = format!("{alg:?}/{mode:?} p={}", pgrid.size());
    let g = ScheduleGraph::extract(cfg, alg, mode, pgrid)?;
    let m = check_matching(&g);
    if !m.is_ok() {
        return Err(format!(
            "{label}: matching failed ({} orphan sends, {} orphan recvs, {} size mismatches): {}",
            m.orphan_sends,
            m.orphan_recvs,
            m.size_mismatches,
            m.errors.first().cloned().unwrap_or_default()
        ));
    }
    let d = check_deadlock(&g);
    let actions = match d {
        crate::deadlock::DeadlockReport::Free { actions } => actions,
        crate::deadlock::DeadlockReport::Stuck { ref detail, .. } => {
            return Err(format!("{label}: deadlock: {detail}"));
        }
    };
    let c = certify_counts(cfg, alg, mode, pgrid, &g);
    if !c.is_ok() {
        return Err(format!(
            "{label}: count certification failed: {}",
            c.errors.join("; ")
        ));
    }
    // halo-coverage proof for every executable schedule: Algorithm 2's
    // sweep groups must be a rung of the feasible ladder (the paper's full
    // depth is one only where the blocks hold it)
    let executable = alg != AlgKind::CommAvoiding
        || analysis::ca_ladder(cfg, &pgrid).contains(&mode.groups(cfg, &pgrid));
    let (dataflow_reads, dataflow_margin) = if executable {
        let proof = dataflow::check(cfg, alg, mode, &pgrid)
            .map_err(|ce| format!("{label}: dataflow counterexample: {ce}"))?;
        (Some(proof.reads_checked), proof.min_margin)
    } else {
        (None, None)
    };
    Ok(AlgCertification {
        alg,
        exchanges: c.exchanges,
        collectives: c.collectives,
        sends: g.sends.len(),
        actions,
        dataflow_reads,
        dataflow_margin,
    })
}

/// Statically certify the Y-Z schedules of both algorithms on `pgrid`:
/// fully matched, deadlock-free, counts equal to the predictor and the
/// §5.3 closed forms — including the paper's 13 → 2 exchange-frequency
/// claim and the one-third vertical-collective reduction
/// (`W_YZ / W_CA = 3M / 2M`).
pub fn certify_yz(cfg: &ModelConfig, pgrid: ProcessGrid) -> Result<Certification, String> {
    if pgrid.px() != 1 {
        return Err("certify_yz needs a Y-Z grid".into());
    }
    let p = pgrid.size();
    let alg1 = certify_one(cfg, AlgKind::OriginalYZ, CaMode::Grouped, pgrid)?;
    let ca_ideal = certify_one(cfg, AlgKind::CommAvoiding, CaMode::PaperIdeal, pgrid)?;
    let ca_grouped = certify_one(cfg, AlgKind::CommAvoiding, CaMode::Grouped, pgrid)?;

    let m = cfg.m_iters as u64;
    if alg1.exchanges != 3 * m + 4 {
        return Err(format!(
            "Algorithm 1 has {} exchanges per step, expected 3M+4 = {}",
            alg1.exchanges,
            3 * m + 4
        ));
    }
    if ca_ideal.exchanges != 2 {
        return Err(format!(
            "idealized CA schedule has {} exchanges per step, expected the paper's 2",
            ca_ideal.exchanges
        ));
    }
    // one third of the vertical collectives removed: 3M -> 2M per step,
    // the exact ratio of the §5.3 W_YZ / W_CA closed forms
    if pgrid.pz() > 1 {
        if 2 * alg1.collectives != 3 * ca_ideal.collectives {
            return Err(format!(
                "collective reduction is {} -> {}, expected 3M -> 2M",
                alg1.collectives, ca_ideal.collectives
            ));
        }
        let (py, pz) = (pgrid.py(), pgrid.pz());
        let w_ratio = analysis::w_yz(cfg, py, pz, 1) / analysis::w_ca(cfg, py, pz, 1);
        let c_ratio = alg1.collectives as f64 / ca_ideal.collectives as f64;
        if (w_ratio - c_ratio).abs() > 1e-12 {
            return Err(format!(
                "W_YZ/W_CA = {w_ratio} but the analyzer's collective ratio is {c_ratio}"
            ));
        }
    }
    Ok(Certification {
        p,
        alg1,
        ca_ideal,
        ca_grouped,
    })
}

/// The paper's evaluation rank counts.
pub const PAPER_RANKS: [usize; 4] = [128, 256, 512, 1024];

/// The Y-Z process grid used at a paper rank count (8 z-ranks as in §5.1,
/// falling back to 2 at tiny p) — mirrors `agcm_bench::yz_grid`.
pub fn paper_yz_grid(p: usize) -> ProcessGrid {
    let pz = 8.min(p / 16).max(2);
    ProcessGrid::yz(p / pz, pz).expect("valid Y-Z grid")
}

/// Certify the paper mesh at every paper rank count.
pub fn certify_paper_ranks() -> Result<Vec<Certification>, String> {
    let cfg = ModelConfig::paper_50km();
    PAPER_RANKS
        .iter()
        .map(|&p| certify_yz(&cfg, paper_yz_grid(p)))
        .collect()
}
