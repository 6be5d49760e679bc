//! The trace stream of an executing step equals the static schedule, as
//! the one trace check (`critpath::analyze`) decides it.

use agcm_core::analysis::AlgKind;
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

/// Run `alg` at `yz(2, 2)` and return the spans the check joined, after
/// asserting it found the steady step complete and consistent.
fn joined_at_p4(cfg: &ModelConfig, alg: AlgKind) -> usize {
    let pg = ProcessGrid::yz(2, 2).unwrap();
    let rep = agcm_verify::trace_cross_check(cfg, alg, pg).expect("the model runs");
    assert!(rep.is_consistent(), "{alg:?}: {:?}", rep.errors);
    assert_eq!(rep.steps.len(), 1, "{alg:?}: one complete steady step");
    assert_eq!(rep.steps[0].step, 1);
    rep.joined
}

#[test]
fn alg1_trace_matches_schedule_at_p4() {
    let cfg = ModelConfig::test_medium();
    let m = cfg.m_iters;
    // the paper's 3M + 4 = 13 exchanges and 3M z-collectives at p_z = 2,
    // one wait / C-collective span each on each of the 4 ranks
    assert_eq!(3 * m + 4, 13);
    assert_eq!(
        joined_at_p4(&cfg, AlgKind::OriginalYZ),
        4 * ((3 * m + 4) + 3 * m)
    );
}

#[test]
fn alg2_trace_matches_schedule_at_p4() {
    let mut cfg = ModelConfig::test_medium();
    cfg.m_iters = 1; // deep halo fits the 2x2 blocks
    let m = cfg.m_iters;
    // the paper's 13 -> 2 exchanges and 3M -> 2M vertical collectives
    assert_eq!(joined_at_p4(&cfg, AlgKind::CommAvoiding), 4 * (2 + 2 * m));
}
