//! Step-loop fingerprints: FNV-1a over the bit patterns of the gathered
//! state after [`STEPS`] steps of every integrator on `test_small`.
//!
//! The hashes were generated at the commit *before* the step loops started
//! rotating buffers instead of copying them (PR 14), so they pin the
//! rotation, the aliased sub-update base, the directly emitted midpoint and
//! the sparse tendency state to the copying loops bit for bit — including
//! the X-Y decomposition (distributed filter), which no benchmark workload
//! covers.  Run with `AGCM_PRINT_FINGERPRINTS=1 -- --nocapture` to print
//! the table instead of asserting it (after a deliberate arithmetic change).
//!
//! The second half checks that a checkpoint restored into a *fresh* model
//! continues bitwise like the uninterrupted run: with rotating buffers the
//! model's scratch states hold different stale data after a restore than
//! mid-run, and none of it may be read.  Algorithm 2's checkpoint, with a
//! smoothing pending, takes the trip through the on-disk format.

use agcm_comm::Universe;
use agcm_core::init;
use agcm_core::par::{Alg1Model, CaModel, GlobalState};
use agcm_core::resilience::{read_checkpoint, write_checkpoint};
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

const STEPS: usize = 3;
const SEED: u64 = 42;

fn fnv1a(gs: &GlobalState) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for field in [&gs.u, &gs.v, &gs.phi, &gs.psa] {
        for v in field.iter() {
            assert!(v.is_finite(), "non-finite state");
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn config(held_suarez: bool) -> ModelConfig {
    ModelConfig {
        held_suarez,
        ..ModelConfig::test_small()
    }
}

fn serial(cfg: &ModelConfig, variant: Iteration, steps: usize) -> GlobalState {
    let mut m = SerialModel::new(cfg, variant).unwrap();
    let ic = init::perturbed_rest(m.geom(), 150.0, 1.0, SEED);
    m.set_state(&ic);
    m.run(steps);
    GlobalState::from_serial(&m.state, m.geom())
}

fn alg1(cfg: &ModelConfig, pgrid: ProcessGrid, steps: usize) -> GlobalState {
    let cfg = cfg.clone();
    let mut out = Universe::run(pgrid.size(), move |comm| {
        let mut m = Alg1Model::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 150.0, 1.0, SEED);
        m.set_state(&ic);
        m.run(comm, steps).unwrap();
        m.gather_state(comm).unwrap()
    });
    out.remove(0).expect("rank 0 gathers")
}

fn alg2(cfg: &ModelConfig, pgrid: ProcessGrid, steps: usize) -> GlobalState {
    let cfg = cfg.clone();
    let mut out = Universe::run(pgrid.size(), move |comm| {
        let mut m = CaModel::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 150.0, 1.0, SEED);
        m.set_state(&ic);
        m.run(comm, steps).unwrap();
        m.gather_state(comm).unwrap()
    });
    out.remove(0).expect("rank 0 gathers")
}

#[test]
fn step_loops_hash_to_the_parent_commits_fingerprints() {
    let dry = config(false);
    let hs = config(true);
    let yz = |py, pz| ProcessGrid::yz(py, pz).unwrap();
    let xy = |px, py| ProcessGrid::xy(px, py).unwrap();
    let table: [(&str, GlobalState, u64); 8] = [
        (
            "serial exact",
            serial(&dry, Iteration::Exact, STEPS),
            0x26a3_1582_2d09_8ef1,
        ),
        (
            "serial approximate",
            serial(&dry, Iteration::Approximate, STEPS),
            0xdbb8_0c69_7d6a_5a8e,
        ),
        (
            "serial exact + held-suarez",
            serial(&hs, Iteration::Exact, STEPS),
            0x4e2a_b8ca_d414_2dd0,
        ),
        (
            "alg1 yz(2,1)",
            alg1(&dry, yz(2, 1), STEPS),
            0x26a3_1582_2d09_8ef1,
        ),
        (
            "alg1 yz(1,2)",
            alg1(&dry, yz(1, 2), STEPS),
            0x0941_5c51_2a5a_6df1,
        ),
        (
            "alg1 xy(2,1)",
            alg1(&dry, xy(2, 1), STEPS),
            0x26a3_1582_2d09_8ef1,
        ),
        (
            "alg2 yz(2,1)",
            alg2(&dry, yz(2, 1), STEPS),
            0xdbb8_0c69_7d6a_5a8e,
        ),
        (
            "alg2 yz(2,1) + held-suarez",
            alg2(&hs, yz(2, 1), STEPS),
            0x8072_ecd7_26e7_d0ac,
        ),
    ];
    let print = std::env::var_os("AGCM_PRINT_FINGERPRINTS").is_some();
    for (what, gs, want) in &table {
        assert!(gs.max_abs() > 0.0, "{what}: the run must move the state");
        let got = fnv1a(gs);
        if print {
            println!("{what}: {got:#018x}");
        } else {
            assert_eq!(got, *want, "{what}: got {got:#018x}");
        }
    }
    // without a z split (whose allgather re-associates the column sums)
    // every parallel run is its serial reference, bitwise
    assert_eq!(table[3].2, table[0].2);
    assert_eq!(table[5].2, table[0].2);
    assert_eq!(table[6].2, table[1].2);
}

fn assert_bitwise(a: &GlobalState, b: &GlobalState, what: &str) {
    assert_eq!(fnv1a(a), fnv1a(b), "{what}");
}

#[test]
fn serial_restore_into_a_fresh_model_continues_bitwise() {
    for variant in [Iteration::Exact, Iteration::Approximate] {
        let cfg = config(true);
        let want = serial(&cfg, variant, 4);
        let mut first = SerialModel::new(&cfg, variant).unwrap();
        let ic = init::perturbed_rest(first.geom(), 150.0, 1.0, SEED);
        first.set_state(&ic);
        first.run(2);
        let ck = first.capture();
        let mut second = SerialModel::new(&cfg, variant).unwrap();
        second.restore(&ck);
        assert_eq!(second.steps, 2);
        second.run(2);
        let got = GlobalState::from_serial(&second.state, second.geom());
        assert_bitwise(&got, &want, &format!("serial {variant:?}"));
    }
}

#[test]
fn alg1_restore_into_a_fresh_model_continues_bitwise() {
    let cfg = config(true);
    for pgrid in [
        ProcessGrid::yz(2, 1).unwrap(),
        ProcessGrid::xy(2, 1).unwrap(),
    ] {
        let want = alg1(&cfg, pgrid, 4);
        let cfg = cfg.clone();
        let mut out = Universe::run(pgrid.size(), move |comm| {
            let mut first = Alg1Model::new(&cfg, pgrid, comm).unwrap();
            let ic = init::perturbed_rest(first.geom(), 150.0, 1.0, SEED);
            first.set_state(&ic);
            first.run(comm, 2).unwrap();
            let ck = first.capture();
            let mut second = Alg1Model::new(&cfg, pgrid, comm).unwrap();
            second.restore(&ck);
            second.run(comm, 2).unwrap();
            second.gather_state(comm).unwrap()
        });
        let got = out.remove(0).expect("rank 0 gathers");
        assert_bitwise(&got, &want, &format!("alg1 {:?}", pgrid.dims()));
    }
}

#[test]
fn alg2_restore_into_a_fresh_model_continues_bitwise() {
    let cfg = config(true);
    let pgrid = ProcessGrid::yz(2, 1).unwrap();
    let want = alg2(&cfg, pgrid, 4);
    let mut out = Universe::run(pgrid.size(), move |comm| {
        let mut first = CaModel::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(first.geom(), 150.0, 1.0, SEED);
        first.set_state(&ic);
        // no `finish`: the checkpoint carries the deferred smoothing
        for _ in 0..2 {
            first.step(comm).unwrap();
        }
        let ck = first.capture();
        assert!(ck.pending_smooth);
        // through the on-disk format: the pending smoothing must survive it
        let path = std::env::temp_dir().join(format!(
            "agcm_fingerprint_alg2_{}_rank{}.agcmckpt",
            std::process::id(),
            comm.rank()
        ));
        write_checkpoint(&path, &ck).unwrap();
        let back = read_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, ck, "disk round-trip must be bitwise");
        let mut second = CaModel::new(&cfg, pgrid, comm).unwrap();
        second.restore(&back);
        second.run(comm, 2).unwrap();
        second.gather_state(comm).unwrap()
    });
    let got = out.remove(0).expect("rank 0 gathers");
    assert_bitwise(&got, &want, "alg2 yz(2,1)");
}
