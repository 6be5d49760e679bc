//! Error paths and robustness of the model constructors and runtime.

use agcm_comm::Universe;
use agcm_core::analysis::ca_ladder;
use agcm_core::error::ModelError;
use agcm_core::init;
use agcm_core::par::{Alg1Model, CaModel};
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

#[test]
fn ca_rejects_x_decomposition() {
    let cfg = ModelConfig::test_medium();
    let results = Universe::run(2, move |comm| {
        match CaModel::new(&cfg, ProcessGrid::xy(2, 1).unwrap(), comm) {
            Err(ModelError::Config(msg)) => msg.contains("Y-Z"),
            _ => false,
        }
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn models_reject_wrong_communicator_size() {
    let cfg = ModelConfig::test_medium();
    let results = Universe::run(2, move |comm| {
        let a = Alg1Model::new(&cfg, ProcessGrid::yz(4, 1).unwrap(), comm);
        let c = CaModel::new(&cfg, ProcessGrid::yz(4, 1).unwrap(), comm);
        matches!(a, Err(ModelError::Config(_))) && matches!(c, Err(ModelError::Config(_)))
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn alg1_rejects_oversubscribed_blocks() {
    // per-sweep halo of depth 1 needs at least 1-row blocks; oversplit the
    // mesh itself so Decomposition::new fails
    let mut cfg = ModelConfig::test_small(); // ny = 10
    cfg.ny = 10;
    let results = Universe::run(16, move |comm| {
        Alg1Model::new(&cfg, ProcessGrid::yz(16, 1).unwrap(), comm).is_err()
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn ca_adapts_group_size_instead_of_failing() {
    // blocks of 2 rows: no grouped halo fits, but construction must succeed
    // on the ladder's one degenerate rung — and refuse, with a typed error,
    // the groups that do not fit or do not align with the iteration
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 16;
    let pgrid = ProcessGrid::yz(8, 1).unwrap();
    assert_eq!(ca_ladder(&cfg, &pgrid), [(1, false, 2)]);
    let results = Universe::run(8, move |comm| {
        let m = CaModel::new(&cfg, pgrid, comm).unwrap();
        for bad in [(3, true, 3), (9, true, 3), (2, false, 2), (1, false, 4)] {
            let refused = CaModel::with_groups(&cfg, pgrid, comm, bad);
            assert!(matches!(refused, Err(ModelError::Config(_))), "{bad:?}");
        }
        (m.groups.0, m.groups.1, m.exchanges_per_step())
    });
    for (g, fuse, freq) in results {
        assert_eq!(g, 1);
        assert!(!fuse, "2-row blocks cannot take the +2 smoothing margin");
        // 3M + ceil(3/ga) + 1 separate smoothing
        assert_eq!(freq, 9 + 2 + 1);
    }
}

#[test]
fn ca_runs_a_rung_of_the_ladder_whatever_the_blocks() {
    let cfg = ModelConfig::test_medium(); // 24 x 16 x 8
    for (py, pz) in [(1, 1), (2, 1), (4, 1), (2, 2), (1, 2)] {
        let pgrid = ProcessGrid::yz(py, pz).unwrap();
        let ladder = ca_ladder(&cfg, &pgrid);
        let cfg = cfg.clone();
        let groups = Universe::run(py * pz, move |comm| {
            let m = CaModel::new(&cfg, pgrid, comm).unwrap();
            m.groups
        });
        assert!(groups.iter().all(|g| g == &groups[0]), "ranks agree");
        assert!(
            ladder.contains(&groups[0]),
            "{:?} not in {ladder:?}",
            groups[0]
        );
    }
}

#[test]
fn serial_model_rejects_invalid_grid() {
    let mut cfg = ModelConfig::test_small();
    cfg.nx = 2; // below the minimum
    assert!(SerialModel::new(&cfg, Iteration::Exact).is_err());
}

#[test]
fn long_unforced_run_stays_finite() {
    // 30 steps of gravity-wave sloshing through filter + smoothing: no NaN,
    // no blow-up
    let mut m = SerialModel::new(&ModelConfig::test_small(), Iteration::Exact).unwrap();
    let ic = init::perturbed_rest(m.geom(), 300.0, 2.0, 17);
    m.set_state(&ic);
    m.run(30);
    assert!(!m.state.has_nan());
    assert!(m.state.psa.max_abs() < 3000.0, "pressure anomaly exploded");
    assert!(m.state.u.max_abs() < 100.0, "winds exploded");
}

#[test]
fn long_forced_run_stays_finite() {
    let mut cfg = ModelConfig::test_small();
    cfg.held_suarez = true;
    let mut m = SerialModel::new(&cfg, Iteration::Approximate).unwrap();
    m.run(30);
    assert!(!m.state.has_nan());
    assert!(m.state.u.max_abs() < 200.0);
}

#[test]
fn parallel_run_with_uneven_blocks() {
    // 3-way split of 16 rows: blocks of 6/5/5 — uneven partitions must work
    let cfg = ModelConfig::test_medium();
    let cfg2 = cfg.clone();
    let results = Universe::run(3, move |comm| {
        let mut m = Alg1Model::new(&cfg2, ProcessGrid::yz(3, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 150.0, 1.0, 4);
        m.set_state(&ic);
        m.run(comm, 2).unwrap();
        m.gather_state(comm).unwrap()
    });
    let gathered = results[0].as_ref().unwrap();
    // against the serial reference
    let mut s = SerialModel::new(&cfg, Iteration::Exact).unwrap();
    let ic = init::perturbed_rest(s.geom(), 150.0, 1.0, 4);
    s.set_state(&ic);
    s.run(2);
    let serial = agcm_core::par::GlobalState::from_serial(&s.state, s.geom());
    assert_eq!(
        gathered.max_abs_diff(&serial),
        0.0,
        "uneven split must be exact"
    );
}

#[test]
fn six_rank_mixed_decomposition() {
    // 3 x 2 (y, z) grid with uneven y blocks AND a z split
    let cfg = ModelConfig::test_medium();
    let cfg2 = cfg.clone();
    let results = Universe::run(6, move |comm| {
        let mut m = Alg1Model::new(&cfg2, ProcessGrid::yz(3, 2).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 150.0, 1.0, 4);
        m.set_state(&ic);
        m.run(comm, 2).unwrap();
        m.gather_state(comm).unwrap()
    });
    let gathered = results[0].as_ref().unwrap();
    let mut s = SerialModel::new(&cfg, Iteration::Exact).unwrap();
    let ic = init::perturbed_rest(s.geom(), 150.0, 1.0, 4);
    s.set_state(&ic);
    s.run(2);
    let serial = agcm_core::par::GlobalState::from_serial(&s.state, s.geom());
    assert!(
        gathered.max_abs_diff(&serial) < 1e-8,
        "mixed decomposition diverged: {}",
        gathered.max_abs_diff(&serial)
    );
}
