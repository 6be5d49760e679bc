//! Every rung of Algorithm 2's sweep-group ladder is the same integration.
//!
//! [`agcm_core::analysis::ca_group_size`] picks a rung by cost, so the depth
//! of the halo — and with it the exchange schedule, the redundant sweep
//! regions and the per-side halo allocation — is a performance decision
//! only if no rung moves a bit of the result.  On the benchmark's small mesh
//! (24×24×8, `M = 3`, Held–Suarez forcing on) every rung of every ladder,
//! run through the explicit-groups constructor, must equal the serial
//! approximate iteration after [`STEPS`] steps and the closing smoothing:
//! bitwise under a y-split, to the z-split tolerance of `equivalence.rs`
//! where the allgather re-associates the column sums.  The ladders cover
//! `g = 1` with per-sweep refreshes, fused and unfused smoothing, and the
//! paper's full depth `g = 3M`.
//!
//! A checkpoint is rung-agnostic too: written by a model on one rung, it
//! restores into a model on another (whose halos are sized differently) and
//! continues bitwise.

use agcm_comm::Universe;
use agcm_core::analysis::ca_ladder;
use agcm_core::init;
use agcm_core::par::{CaModel, GlobalState};
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

const STEPS: usize = 6;
const SEED: u64 = 42;

fn config() -> ModelConfig {
    ModelConfig {
        ny: 24,
        held_suarez: true,
        ..ModelConfig::test_medium()
    }
}

fn serial(cfg: &ModelConfig) -> GlobalState {
    let mut m = SerialModel::new(cfg, Iteration::Approximate).unwrap();
    let ic = init::perturbed_rest(m.geom(), 150.0, 1.0, SEED);
    m.set_state(&ic);
    m.run(STEPS);
    GlobalState::from_serial(&m.state, m.geom())
}

type Groups = (usize, bool, usize);

/// `STEPS` steps + `finish` on `first`; with `then`, the first two steps
/// run on `first`, whose checkpoint a fresh model on `then` continues from.
fn alg2(cfg: &ModelConfig, pgrid: ProcessGrid, first: Groups, then: Option<Groups>) -> GlobalState {
    let cfg = cfg.clone();
    let mut out = Universe::run(pgrid.size(), move |comm| {
        let mut m = CaModel::with_groups(&cfg, pgrid, comm, first).unwrap();
        assert_eq!(m.groups, first);
        let ic = init::perturbed_rest(m.geom(), 150.0, 1.0, SEED);
        m.set_state(&ic);
        let Some(then) = then else {
            m.run(comm, STEPS).unwrap();
            return m.gather_state(comm).unwrap();
        };
        // no `finish`: the checkpoint carries the deferred smoothing and
        // the cached C outputs
        for _ in 0..2 {
            m.step(comm).unwrap();
        }
        let ck = m.capture();
        assert!(ck.pending_smooth && ck.c_cached);
        let mut second = CaModel::with_groups(&cfg, pgrid, comm, then).unwrap();
        assert_ne!(
            second.state.halo(),
            ck.state.halo(),
            "halos follow the rung"
        );
        second.restore(&ck);
        second.run(comm, STEPS - 2).unwrap();
        second.gather_state(comm).unwrap()
    });
    out.remove(0).expect("rank 0 gathers")
}

#[test]
fn every_rung_is_bitwise_the_serial_approximate_iteration() {
    let cfg = config();
    let want = serial(&cfg);
    assert!(want.max_abs() > 0.0, "the run must move the state");
    let mut rungs = 0;
    for py in [2, 4] {
        let pgrid = ProcessGrid::yz(py, 1).unwrap();
        for groups in ca_ladder(&cfg, &pgrid) {
            let got = alg2(&cfg, pgrid, groups, None);
            assert_eq!(got.max_abs_diff(&want), 0.0, "yz({py},1) {groups:?}");
            rungs += 1;
        }
    }
    // yz(2,1): g = 1, 3, 6, 9 fused; yz(4,1): g = 1, 3 fused, g = 6 unfused
    assert_eq!(rungs, 7);
    let unfused = (6, false, 3);
    assert!(ca_ladder(&cfg, &ProcessGrid::yz(4, 1).unwrap()).contains(&unfused));
}

#[test]
fn every_rung_agrees_with_serial_under_a_z_split() {
    let cfg = config();
    let want = serial(&cfg);
    let pgrid = ProcessGrid::yz(2, 2).unwrap();
    let ladder = ca_ladder(&cfg, &pgrid);
    assert_eq!(ladder, [(1, true, 3), (3, true, 3)], "4-level blocks");
    for groups in ladder {
        let got = alg2(&cfg, pgrid, groups, None);
        let d = got.max_abs_diff(&want);
        assert!(d <= 1e-8, "yz(2,2) {groups:?}: max |diff| = {d:e}");
    }
}

#[test]
fn a_checkpoint_continues_bitwise_across_a_rung_change() {
    let cfg = config();
    let want = serial(&cfg);
    let pgrid = ProcessGrid::yz(2, 1).unwrap();
    // deep to shallow, shallow to deep, and onto per-sweep exchanges
    for (first, then) in [
        ((9, true, 3), (3, true, 3)),
        ((3, true, 3), (9, true, 3)),
        ((6, true, 3), (1, true, 3)),
    ] {
        let got = alg2(&cfg, pgrid, first, Some(then));
        assert_eq!(got.max_abs_diff(&want), 0.0, "{first:?} -> {then:?}");
    }
}
