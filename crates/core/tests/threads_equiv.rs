//! Worker-pool determinism: a full `dycore_step` must be bitwise identical
//! at every `AGCM_THREADS` setting, for the serial integrator and both
//! parallel algorithms, with the Held–Suarez forcing off and on.  The pool
//! splits every phase — `C`, the sweeps, the filter, the forcing, the
//! smoothing — into disjoint latitude bands, so no floating-point sum is
//! re-associated (the column sums of `C` run along z, inside a band) —
//! thread count can only change *when* a point is computed, never *what*
//! is computed.

use agcm_comm::Universe;
use agcm_core::init;
use agcm_core::par::{Alg1Model, CaModel, GlobalState};
use agcm_core::pool;
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

const STEPS: usize = 2;
const THREADS: [usize; 3] = [1, 2, 4];

/// The test mesh without and with the Held–Suarez forcing.
fn configs() -> [ModelConfig; 2] {
    let plain = ModelConfig::test_medium();
    let forced = ModelConfig {
        held_suarez: true,
        ..plain.clone()
    };
    [plain, forced]
}

fn serial_at(cfg: &ModelConfig, variant: Iteration, nt: usize) -> GlobalState {
    pool::with_workers(nt, || {
        let mut m = SerialModel::new(cfg, variant).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        m.run(STEPS);
        GlobalState::from_serial(&m.state, m.geom())
    })
}

fn alg1_at(cfg: &ModelConfig, pgrid: ProcessGrid, nt: usize) -> GlobalState {
    let cfg = cfg.clone();
    // the override is thread-local: set it inside each rank's thread
    let mut results = Universe::run(pgrid.size(), move |comm| {
        pool::with_workers(nt, || {
            let mut m = Alg1Model::new(&cfg, pgrid, comm).unwrap();
            let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
            m.set_state(&ic);
            m.run(comm, STEPS).unwrap();
            m.gather_state(comm).unwrap()
        })
    });
    results.remove(0).expect("rank 0 gathers")
}

fn alg2_at(cfg: &ModelConfig, pgrid: ProcessGrid, nt: usize) -> GlobalState {
    let cfg = cfg.clone();
    let mut results = Universe::run(pgrid.size(), move |comm| {
        pool::with_workers(nt, || {
            let mut m = CaModel::new(&cfg, pgrid, comm).unwrap();
            let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
            m.set_state(&ic);
            m.run(comm, STEPS).unwrap();
            m.gather_state(comm).unwrap()
        })
    });
    results.remove(0).expect("rank 0 gathers")
}

fn assert_bitwise(a: &GlobalState, b: &GlobalState, what: &str) {
    assert_eq!(a.extents, b.extents);
    let eq = |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits());
    assert!(eq(&a.u, &b.u), "{what}: u differs");
    assert!(eq(&a.v, &b.v), "{what}: v differs");
    assert!(eq(&a.phi, &b.phi), "{what}: phi differs");
    assert!(eq(&a.psa, &b.psa), "{what}: psa differs");
}

#[test]
fn serial_step_is_thread_count_invariant() {
    for (cfg, variant) in configs()
        .iter()
        .zip([Iteration::Approximate, Iteration::Exact])
    {
        let want = serial_at(cfg, variant, 1);
        assert!(want.max_abs() > 0.0, "test must exercise nonzero dynamics");
        for nt in THREADS {
            let got = serial_at(cfg, variant, nt);
            let what = format!("serial {variant:?} at {nt} workers");
            assert_bitwise(&got, &want, &what);
        }
    }
}

#[test]
fn alg1_step_is_thread_count_invariant() {
    // a y-split, and a z-split whose `C` brackets the allgather with a
    // block-sum phase and a walk phase
    let grids = [(2, 1), (1, 2)].map(|(py, pz)| ProcessGrid::yz(py, pz).unwrap());
    for (cfg, pgrid) in configs().iter().zip(grids) {
        let want = alg1_at(cfg, pgrid, 1);
        for nt in THREADS {
            let got = alg1_at(cfg, pgrid, nt);
            assert_bitwise(&got, &want, &format!("alg1 {pgrid:?} at {nt} workers"));
        }
    }
}

#[test]
fn ca_step_is_thread_count_invariant() {
    let pgrid = ProcessGrid::yz(2, 1).unwrap();
    for cfg in configs() {
        let want = alg2_at(&cfg, pgrid, 1);
        for nt in THREADS {
            let got = alg2_at(&cfg, pgrid, nt);
            let what = format!("alg2 (H-S {}) at {nt} workers", cfg.held_suarez);
            assert_bitwise(&got, &want, &what);
        }
    }
}
