//! Validation of the cost predictor against the executing runtime.
//!
//! The figures of the paper are regenerated from [`agcm_core::analysis`]'s
//! walk of the step program at 128–1024 ranks.  These tests pin the walk to
//! reality: at small rank counts, the per-rank message, element and
//! collective counts it passes must equal the statistics the
//! message-passing runtime actually measured, exactly.  (What it makes of
//! them in seconds is held to measured runs in `holdout_validation.rs`.)

use agcm_comm::{CostModel, Universe};
use agcm_core::analysis::{active_flags, ca_ladder, predict, AlgKind, CaMode};
use agcm_core::init;
use agcm_core::par::{Alg1Model, CaModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

/// Measured per-step halo traffic (no collective's rounds) and collective
/// call count, per rank.
fn measure<FMK>(p: usize, cfg: &ModelConfig, mk: FMK) -> Vec<(u64, u64, u64)>
where
    FMK: Fn(&ModelConfig, &mut agcm_comm::Communicator) -> Box<dyn FnMut(&agcm_comm::Communicator)>
        + Sync,
{
    let cfg = cfg.clone();
    Universe::run(p, move |comm| {
        let mut stepper = mk(&cfg, comm);
        stepper(comm); // warm-up step (bootstraps CA cache)
        let s0 = comm.stats().snapshot();
        stepper(comm);
        let d = comm.stats().snapshot().delta(&s0);
        (d.halo_sends, d.halo_send_elems, d.collective_calls)
    })
}

fn flags(cfg: &ModelConfig) -> Vec<bool> {
    // reproduce analysis::active_flags via the public filter
    let grid = cfg.grid().unwrap();
    let lats: Vec<f64> = (0..grid.ny()).map(|j| grid.latitude(j)).collect();
    let filter = agcm_fft::FourierFilter::new(grid.nx(), &lats, cfg.filter_cutoff_deg.to_radians());
    (0..grid.ny()).map(|j| filter.is_active(j)).collect()
}

/// Hold the walk's per-rank counts of `alg` on `pgrid` (Algorithm 2 on
/// `mode`) to the measured ones, message for message.
fn counts_match(
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
    mode: CaMode,
    measured: &[(u64, u64, u64)],
) {
    // the machine's constants move no count
    let predicted = predict(cfg, alg, pgrid, mode, &CostModel::tianhe2()).unwrap();
    assert_eq!(predicted.ranks.len(), measured.len());
    for (rank, (want, &(msgs, elems, colls))) in predicted.ranks.iter().zip(measured).enumerate() {
        assert_eq!(want.msgs, msgs, "{mode:?} rank {rank}: messages");
        assert_eq!(want.elems, elems, "{mode:?} rank {rank}: elements");
        assert_eq!(want.collectives, colls, "{mode:?} rank {rank}: collectives");
    }
}

#[test]
fn alg1_yz_counts_match_runtime() {
    let cfg = ModelConfig::test_medium();
    let pgrid = ProcessGrid::yz(2, 2).unwrap();
    let measured = measure(4, &cfg, |cfg, comm| {
        let mut m = Alg1Model::new(cfg, ProcessGrid::yz(2, 2).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
        m.set_state(&ic);
        Box::new(move |c: &agcm_comm::Communicator| m.step(c).unwrap())
    });
    counts_match(&cfg, AlgKind::OriginalYZ, pgrid, CaMode::Grouped, &measured);
}

#[test]
fn alg1_xy_counts_match_runtime() {
    let cfg = ModelConfig::test_medium();
    let pgrid = ProcessGrid::xy(2, 2).unwrap();
    let measured = measure(4, &cfg, |cfg, comm| {
        let mut m = Alg1Model::new(cfg, ProcessGrid::xy(2, 2).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
        m.set_state(&ic);
        Box::new(move |c: &agcm_comm::Communicator| m.step(c).unwrap())
    });
    counts_match(&cfg, AlgKind::OriginalXY, pgrid, CaMode::Grouped, &measured);
}

/// Run Algorithm 2 on `groups` (`None`: the rung `CaModel::new` picks) and
/// hold the predictor, costing the same groups, to the measured traffic
/// message for message.
fn alg2_counts_match(cfg: &ModelConfig, pgrid: ProcessGrid, groups: Option<(usize, bool, usize)>) {
    let measured = measure(pgrid.size(), cfg, |cfg, comm| {
        let mut m = match groups {
            Some(groups) => CaModel::with_groups(cfg, pgrid, comm, groups),
            None => CaModel::new(cfg, pgrid, comm),
        }
        .unwrap();
        let ic = init::perturbed_rest(m.geom(), 100.0, 1.0, 3);
        m.set_state(&ic);
        Box::new(move |c: &agcm_comm::Communicator| m.step(c).unwrap())
    });
    assert_eq!(
        flags(cfg),
        active_flags(cfg).unwrap(),
        "the predictor's own row flags"
    );
    let mode = groups.map_or(CaMode::Grouped, |(g, fuse, ga)| CaMode::Groups(g, fuse, ga));
    counts_match(cfg, AlgKind::CommAvoiding, pgrid, mode, &measured);
}

#[test]
fn alg2_counts_match_runtime_on_every_rung() {
    // M = 3 on 5-row blocks: the ladder is g = 1 and g = 3, both fused
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 20;
    let pgrid = ProcessGrid::yz(4, 1).unwrap();
    assert_eq!(ca_ladder(&cfg, &pgrid), [(1, true, 3), (3, true, 3)]);
    for rung in ca_ladder(&cfg, &pgrid) {
        alg2_counts_match(&cfg, pgrid, Some(rung));
    }
    // and on whichever of them the model picks for itself
    alg2_counts_match(&cfg, pgrid, None);
}

#[test]
fn alg2_counts_match_runtime_degenerate_group() {
    // 2-row blocks: g = 1 (per-sweep exchanges), the smoothing unfused
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 16;
    let pgrid = ProcessGrid::yz(8, 1).unwrap();
    alg2_counts_match(&cfg, pgrid, Some((1, false, 2)));
}

#[test]
fn alg2_counts_match_runtime_full_depth() {
    // blocks that hold the full 3M-deep halo (M = 1): the paper's
    // 2-exchange form, under a z-split so the collectives count too
    let mut cfg = ModelConfig::test_medium();
    cfg.m_iters = 1;
    let pgrid = ProcessGrid::yz(2, 2).unwrap();
    alg2_counts_match(&cfg, pgrid, Some((3, true, 3)));
    alg2_counts_match(&cfg, pgrid, None);
}
