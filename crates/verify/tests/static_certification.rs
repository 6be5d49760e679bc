//! The headline certification: at every paper rank count the Y-Z schedules
//! of both algorithms are fully matched, deadlock-free, and their counts
//! equal the §5.3 closed forms — all statically, no threads spawned.

use agcm_core::analysis::{AlgKind, CaMode};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;
use agcm_verify::{
    certify_yz, check_deadlock, check_matching, paper_yz_grid, ScheduleGraph, PAPER_RANKS,
};

#[test]
fn paper_mesh_certifies_at_every_paper_rank_count() {
    let cfg = ModelConfig::paper_50km();
    let m = cfg.m_iters as u64;
    for &p in &PAPER_RANKS {
        let cert = certify_yz(&cfg, paper_yz_grid(p).unwrap()).unwrap_or_else(|e| {
            panic!("certification failed at p = {p}: {e}");
        });
        assert_eq!(cert.p, p);
        // the paper's 13 -> 2 exchange-frequency claim, machine-checked
        assert_eq!(cert.alg1.exchanges, 3 * m + 4, "p = {p}");
        assert_eq!(cert.alg1.exchanges, 13, "paper mesh has M = 3");
        assert_eq!(cert.ca_ideal.exchanges, 2, "p = {p}");
        // one third of the vertical collectives removed: 3M -> 2M
        assert_eq!(cert.alg1.collectives, 3 * m, "p = {p}");
        assert_eq!(cert.ca_ideal.collectives, 2 * m, "p = {p}");
        // the executable (clamped-group) schedule is also certified; at
        // paper scale blocks are thin, so it degrades toward Algorithm 1's
        // frequency but never exceeds it
        assert!(
            cert.ca_grouped.exchanges <= cert.alg1.exchanges + 1,
            "p = {p}"
        );
    }
}

#[test]
fn certification_rejects_xy_grids() {
    let cfg = ModelConfig::test_medium();
    let g = ProcessGrid::xy(2, 2).unwrap();
    assert!(certify_yz(&cfg, g).is_err());
}

#[test]
fn xy_schedule_is_matched_and_deadlock_free() {
    let cfg = ModelConfig::test_medium();
    let g = ProcessGrid::xy(2, 2).unwrap();
    let graph = ScheduleGraph::extract(&cfg, AlgKind::OriginalXY, CaMode::Grouped, g).unwrap();
    assert!(check_matching(&graph).is_ok());
    assert!(check_deadlock(&graph).is_free());
    // X-Y pays 2 transposes around every filtered sub-update: 2(3M+3)
    let m = cfg.m_iters as u64;
    assert_eq!(graph.collective_ops(), 2 * (3 * m + 3));
    assert_eq!(graph.exchange_ops(), 3 * m + 4);
}

#[test]
fn deadlock_analysis_scales_to_4096_ranks() {
    // ISSUE requirement: the deadlock analysis must work for any p up to
    // 4096 — statically, in one pass, without spawning threads.
    let cfg = ModelConfig::paper_50km();
    let pgrid = ProcessGrid::yz(256, 16).unwrap();
    assert_eq!(pgrid.size(), 4096);
    for (alg, mode) in [
        (AlgKind::OriginalYZ, CaMode::Grouped),
        (AlgKind::CommAvoiding, CaMode::PaperIdeal),
    ] {
        let g = ScheduleGraph::extract(&cfg, alg, mode, pgrid).unwrap();
        let m = check_matching(&g);
        assert!(m.is_ok(), "{alg:?} at p=4096: {:?}", m.errors.first());
        let d = check_deadlock(&g);
        assert!(d.is_free(), "{alg:?} at p=4096: {d:?}");
    }
}

#[test]
fn serial_schedule_is_empty() {
    let cfg = ModelConfig::test_small();
    let g = ScheduleGraph::extract(
        &cfg,
        AlgKind::CommAvoiding,
        CaMode::Grouped,
        ProcessGrid::serial(),
    )
    .unwrap();
    assert!(g.sends.is_empty());
    assert!(g.groups.is_empty());
    assert!(check_matching(&g).is_ok());
    assert!(check_deadlock(&g).is_free());
}
