//! Correctness of the parallel algorithms against the serial reference.
//!
//! * Algorithm 1 under any decomposition must reproduce the serial *exact*
//!   integrator.
//! * Algorithm 2 (communication-avoiding) must reproduce the serial
//!   *approximate* integrator — the CA algorithm changes the numerics only
//!   through the approximate nonlinear iteration (Eq. 13); deep halos,
//!   fused smoothing, overlap and redundant halo sweeps must not change a
//!   single owned value.
//!
//! Splits along y keep floating-point summation orders identical, so those
//! comparisons use a tiny tolerance; splits along z re-associate the
//! column sums of the operator `C` (block-wise instead of level-by-level),
//! so those use a small-but-nonzero tolerance.

use agcm_comm::Universe;
use agcm_core::init;
use agcm_core::par::{gather_state_impl, Alg1Model, CaModel, GlobalState};
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

const STEPS: usize = 2;

fn serial_reference(cfg: &ModelConfig, variant: Iteration) -> GlobalState {
    let mut m = SerialModel::new(cfg, variant).unwrap();
    let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
    m.set_state(&ic);
    m.run(STEPS);
    GlobalState::from_serial(&m.state, m.geom())
}

fn run_alg1(cfg: &ModelConfig, pgrid: ProcessGrid) -> GlobalState {
    let cfg = cfg.clone();
    let mut results = Universe::run(pgrid.size(), move |comm| {
        let mut m = Alg1Model::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        m.gather_state(comm).unwrap()
    });
    results.remove(0).expect("rank 0 gathers")
}

fn run_alg2(cfg: &ModelConfig, pgrid: ProcessGrid) -> GlobalState {
    let cfg = cfg.clone();
    let mut results = Universe::run(pgrid.size(), move |comm| {
        let mut m = CaModel::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        m.gather_state(comm).unwrap()
    });
    results.remove(0).expect("rank 0 gathers")
}

fn assert_close(a: &GlobalState, b: &GlobalState, tol: f64, what: &str) {
    let d = a.max_abs_diff(b);
    assert!(d <= tol, "{what}: max |diff| = {d:e} > {tol:e}");
}

#[test]
fn alg1_y_split_matches_serial_bitwise() {
    let cfg = ModelConfig::test_medium();
    let serial = serial_reference(&cfg, Iteration::Exact);
    let par = run_alg1(&cfg, ProcessGrid::yz(2, 1).unwrap());
    // pure y split: identical summation order everywhere
    assert_close(&par, &serial, 0.0, "alg1 (py=2)");
    let par4 = run_alg1(&cfg, ProcessGrid::yz(4, 1).unwrap());
    assert_close(&par4, &serial, 0.0, "alg1 (py=4)");
}

#[test]
fn alg1_z_split_matches_serial() {
    let cfg = ModelConfig::test_medium();
    let serial = serial_reference(&cfg, Iteration::Exact);
    // z splits re-associate the C sums: tolerance scaled to field magnitude
    let par = run_alg1(&cfg, ProcessGrid::yz(1, 2).unwrap());
    assert_close(&par, &serial, 1e-8, "alg1 (pz=2)");
    let par22 = run_alg1(&cfg, ProcessGrid::yz(2, 2).unwrap());
    assert_close(&par22, &serial, 1e-8, "alg1 (py=2, pz=2)");
}

#[test]
fn alg1_x_split_matches_serial_bitwise() {
    let cfg = ModelConfig::test_medium();
    let serial = serial_reference(&cfg, Iteration::Exact);
    // X-Y decomposition: distributed Fourier filtering, exchanged x halos
    let par = run_alg1(&cfg, ProcessGrid::xy(2, 1).unwrap());
    assert_close(&par, &serial, 0.0, "alg1 (px=2)");
    let par22 = run_alg1(&cfg, ProcessGrid::xy(2, 2).unwrap());
    assert_close(&par22, &serial, 0.0, "alg1 (px=2, py=2)");
}

#[test]
fn alg2_matches_serial_approximate_y_split() {
    // M = 3 (the paper's setting): deep halo of 11 rows needs ny_local ≥ 11
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 24; // 24/2 = 12 ≥ 3M+2 = 11
    let serial = serial_reference(&cfg, Iteration::Approximate);
    let par = run_alg2(&cfg, ProcessGrid::yz(2, 1).unwrap());
    assert_close(&par, &serial, 0.0, "alg2 (py=2, M=3)");
}

#[test]
fn alg2_matches_serial_approximate_yz_split() {
    // M = 1 keeps the deep halo (y=5, z=3) inside the 6x4 blocks of the
    // largest grid below
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 24;
    cfg.m_iters = 1;
    let serial = serial_reference(&cfg, Iteration::Approximate);
    let par = run_alg2(&cfg, ProcessGrid::yz(2, 2).unwrap());
    assert_close(&par, &serial, 1e-8, "alg2 (py=2, pz=2, M=1)");
    let par41 = run_alg2(&cfg, ProcessGrid::yz(4, 2).unwrap());
    assert_close(&par41, &serial, 1e-8, "alg2 (py=4, pz=2, M=1)");
}

#[test]
fn alg2_grouped_sweeps_match_serial() {
    // blocks too small for the full 3M(+2)-deep halo: the CA model clamps
    // to iteration-aligned sweep groups (g = 3 here) and must still
    // reproduce the serial approximate integrator bit for bit
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 20; // py = 4 -> 5-row blocks: g = 3 fused (3 + 2 = 5 <= 5)
    let serial = serial_reference(&cfg, Iteration::Approximate);
    let par = run_alg2(&cfg, ProcessGrid::yz(4, 1).unwrap());
    assert_close(&par, &serial, 0.0, "alg2 grouped (py=4, g=3)");
}

#[test]
fn alg2_degenerate_group_matches_serial() {
    // 2-row blocks: even g = 3 cannot fit — the schedule degenerates to
    // per-sweep exchanges (g = 1) yet still matches the serial reference
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 16; // py = 8 -> 2-row blocks
    let serial = serial_reference(&cfg, Iteration::Approximate);
    let par = run_alg2(&cfg, ProcessGrid::yz(8, 1).unwrap());
    assert_close(&par, &serial, 0.0, "alg2 degenerate (py=8, g=1)");
}

#[test]
fn alg2_with_held_suarez_matches_serial() {
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 24;
    cfg.held_suarez = true;
    let serial = serial_reference(&cfg, Iteration::Approximate);
    let par = run_alg2(&cfg, ProcessGrid::yz(2, 1).unwrap());
    assert_close(&par, &serial, 0.0, "alg2 + H-S");
}

#[test]
fn alg1_and_alg2_agree_to_iteration_accuracy() {
    // the two *algorithms* differ only by the approximate iteration: their
    // results must be close (O(Δt³) per step) but NOT identical
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 24;
    let a1 = run_alg1(&cfg, ProcessGrid::yz(2, 1).unwrap());
    let a2 = run_alg2(&cfg, ProcessGrid::yz(2, 1).unwrap());
    let d = a1.max_abs_diff(&a2);
    assert!(d > 0.0, "approximate iteration must differ from exact");
    // relative to the solution scale
    let scale = a1.phi.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1.0);
    assert!(
        d / scale < 0.05,
        "algorithms diverged: {d} vs scale {scale}"
    );
}

#[test]
fn gather_reconstructs_decomposed_state() {
    // sanity for the comparison harness itself
    let cfg = ModelConfig::test_medium();
    let results = Universe::run(4, move |comm| {
        let cfg = ModelConfig::test_medium();
        let grid = std::sync::Arc::new(cfg.grid().unwrap());
        let d =
            agcm_mesh::Decomposition::new(cfg.extents(), ProcessGrid::yz(2, 2).unwrap()).unwrap();
        let geom = agcm_core::LocalGeometry::new(
            &cfg,
            grid,
            &d,
            comm.rank(),
            agcm_mesh::HaloWidths::uniform(1),
        );
        let st = init::perturbed_rest(&geom, 100.0, 2.0, 5);
        gather_state_impl(&st, &geom, comm).unwrap()
    });
    let gathered = results[0].as_ref().unwrap();
    // compare against the serial construction
    let grid = std::sync::Arc::new(cfg.grid().unwrap());
    let d = agcm_mesh::Decomposition::new(cfg.extents(), ProcessGrid::serial()).unwrap();
    let geom = agcm_core::LocalGeometry::new(&cfg, grid, &d, 0, agcm_mesh::HaloWidths::uniform(1));
    let st = init::perturbed_rest(&geom, 100.0, 2.0, 5);
    let serial = GlobalState::from_serial(&st, &geom);
    assert_eq!(gathered.max_abs_diff(&serial), 0.0);
}
