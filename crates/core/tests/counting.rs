//! Communication counting — the paper's structural claims, asserted
//! literally:
//!
//! * §4.3.1: the communication-avoiding algorithm reduces the stencil
//!   communication *frequency* from `3M + 4 = 13` (original, `M = 3`) to
//!   `2` per time step,
//! * §4.2.2: the approximate nonlinear iteration executes the summation
//!   operator `C` twice instead of three times per iteration — one third of
//!   the collective traffic removed,
//! * §4.2.1: under the Y-Z decomposition the Fourier filtering involves no
//!   communication at all, while the X-Y baseline pays two transposes per
//!   filter application.

use agcm_comm::{CollectiveKind, StatsSnapshot, Universe};
use agcm_core::init;
use agcm_core::par::{Alg1Model, CaModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;

fn cfg_for_ca() -> ModelConfig {
    let mut cfg = ModelConfig::test_medium(); // 24 x 16 x 8
    cfg.m_iters = 1; // deep halo y=5, z=3 fits 8x4 blocks
    cfg
}

#[test]
fn alg1_exchange_frequency_is_3m_plus_4() {
    for m in [1usize, 2, 3] {
        let mut cfg = ModelConfig::test_medium();
        cfg.m_iters = m;
        let counts = Universe::run(4, move |comm| {
            let mut model = Alg1Model::new(&cfg, ProcessGrid::yz(2, 2).unwrap(), comm).unwrap();
            let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
            model.set_state(&ic);
            let before = model.exchange_count();
            model.step(comm).unwrap();
            let per_step = model.exchange_count() - before;
            model.step(comm).unwrap();
            (per_step, model.exchange_count())
        });
        for (per_step, total) in counts {
            assert_eq!(
                per_step as usize,
                3 * m + 4,
                "Algorithm 1 must exchange 3M+4 times per step (M={m})"
            );
            assert_eq!(total as usize, 2 * (3 * m + 4));
        }
    }
}

/// The paper's sweep groups: all `3M` adaptation sweeps on one exchange,
/// the smoothing fused into it, the 3 advection sweeps on the other.
fn full_depth(cfg: &ModelConfig) -> (usize, bool, usize) {
    (3 * cfg.m_iters, true, 3)
}

#[test]
fn alg2_exchange_frequency_is_2() {
    let cfg = cfg_for_ca();
    let counts = Universe::run(4, move |comm| {
        let pgrid = ProcessGrid::yz(2, 2).unwrap();
        let mut model = CaModel::with_groups(&cfg, pgrid, comm, full_depth(&cfg)).unwrap();
        assert_eq!(model.exchanges_per_step(), 2);
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        for _ in 0..3 {
            model.step(comm).unwrap();
        }
        let steady = model.exchange_count();
        model.finish(comm).unwrap();
        (steady, model.exchange_count())
    });
    for (steady, with_finish) in counts {
        assert_eq!(steady, 3 * 2, "Algorithm 2: exactly 2 exchanges per step");
        assert_eq!(with_finish, 3 * 2 + 1, "plus one final smoothing exchange");
    }
}

/// Count z-axis collective events (the operator `C`) per step.
fn collective_deltas<F>(p: usize, f: F) -> Vec<(u64, u64)>
where
    F: Fn(&mut agcm_comm::Communicator) -> (StatsSnapshot, StatsSnapshot, StatsSnapshot) + Sync,
{
    Universe::run(p, |comm| {
        let (s0, s1, s2) = f(comm);
        (
            s1.delta(&s0).collective_calls,
            s2.delta(&s1).collective_calls,
        )
    })
}

#[test]
fn alg1_runs_3m_collectives_per_step() {
    let mut cfg = ModelConfig::test_medium();
    cfg.m_iters = 3;
    let deltas = collective_deltas(2, |comm| {
        let mut model = Alg1Model::new(&cfg, ProcessGrid::yz(1, 2).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        let s0 = comm.stats().snapshot();
        model.step(comm).unwrap();
        let s1 = comm.stats().snapshot();
        model.step(comm).unwrap();
        (s0, s1, comm.stats().snapshot())
    });
    for (step1, step2) in deltas {
        // one allgather per C application, 3 per nonlinear iteration
        assert_eq!(step1, 9, "original algorithm: 3M = 9 collectives");
        assert_eq!(step2, 9);
    }
}

#[test]
fn alg2_runs_2m_collectives_per_step() {
    let cfg = cfg_for_ca(); // M = 1
    let deltas = collective_deltas(2, |comm| {
        let mut model = CaModel::new(&cfg, ProcessGrid::yz(1, 2).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        let s0 = comm.stats().snapshot();
        model.step(comm).unwrap(); // bootstrap step: cache empty → 3 C's
        let s1 = comm.stats().snapshot();
        model.step(comm).unwrap(); // steady state: 2M = 2
        (s0, s1, comm.stats().snapshot())
    });
    for (boot, steady) in deltas {
        assert_eq!(
            boot, 3,
            "first step bootstraps the cache: 3 collectives (M=1)"
        );
        assert_eq!(
            steady, 2,
            "steady state: 2 collectives per iteration — one third saved"
        );
    }
}

#[test]
fn collective_volume_reduced_by_about_one_third() {
    // compare the collective element volume of the two algorithms at M = 3
    // (CA deep z-halos of 3M = 9 need blocks of ≥ 9 levels under pz = 2)
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 24;
    cfg.nz = 20;
    cfg.m_iters = 3;
    let cfg1 = cfg.clone();
    let vol1 = Universe::run(2, move |comm| {
        let mut model = Alg1Model::new(&cfg1, ProcessGrid::yz(1, 2).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        model.step(comm).unwrap(); // warm
        let s0 = comm.stats().snapshot();
        model.step(comm).unwrap();
        comm.stats().snapshot().delta(&s0).collective_elems
    })[0];
    let cfg2 = cfg.clone();
    let vol2 = Universe::run(2, move |comm| {
        let mut model = CaModel::new(&cfg2, ProcessGrid::yz(1, 2).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        model.step(comm).unwrap(); // warm (bootstrap)
        let s0 = comm.stats().snapshot();
        model.step(comm).unwrap();
        comm.stats().snapshot().delta(&s0).collective_elems
    })[0];
    let ratio = vol2 as f64 / vol1 as f64;
    // CA halo sweeps widen the columns slightly, so the saving lands near
    // (not exactly at) the paper's "about 30%"
    assert!(
        (0.55..0.85).contains(&ratio),
        "CA collective volume ratio {ratio} not ≈ 2/3"
    );
}

#[test]
fn yz_filter_is_communication_free_xy_pays_transposes() {
    let cfg = ModelConfig::test_medium();
    // Y-Z: no alltoall events at all
    let cfg_yz = cfg.clone();
    let yz_alltoalls = Universe::run(2, move |comm| {
        comm.stats().set_event_logging(true); // per-kind counts need the log
        let mut model = Alg1Model::new(&cfg_yz, ProcessGrid::yz(2, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        model.step(comm).unwrap();
        comm.stats().count_collectives(CollectiveKind::Alltoall)
    });
    assert!(yz_alltoalls.iter().all(|&n| n == 0));
    // X-Y: two transposes per filter application, (3M + 3) applications
    let m = cfg.m_iters;
    let cfg_xy = cfg.clone();
    let xy_alltoalls = Universe::run(2, move |comm| {
        comm.stats().set_event_logging(true);
        let mut model = Alg1Model::new(&cfg_xy, ProcessGrid::xy(2, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        model.step(comm).unwrap();
        comm.stats().count_collectives(CollectiveKind::Alltoall)
    });
    for n in xy_alltoalls {
        assert_eq!(
            n,
            2 * (3 * m + 3),
            "X-Y pays 2 transposes x (3M+3) filter applications"
        );
    }
}

#[test]
fn alg2_message_count_per_exchange() {
    // one message per neighbour link per exchange, whatever the bundle's
    // length: an interior rank of a 2-D decomposition has 8 neighbours, so
    // the paper's 2 exchanges are 8 + 8 sends (it pays "about 20 MPI_Isend
    // and MPI_Recv operations" a communication, one per field per link —
    // 44 + 34 here before the fields of a link shared a frame)
    let cfg = cfg_for_ca();
    let counts = Universe::run(9, move |comm| {
        let mut cfg = cfg.clone();
        cfg.ny = 33; // 3 x 3 process grid: blocks of 11/11/11 in y... 33/3=11 ≥ 5
        cfg.nz = 9; // 3 blocks of 3 ≥ 3
        let pgrid = ProcessGrid::yz(3, 3).unwrap();
        let mut model = CaModel::with_groups(&cfg, pgrid, comm, full_depth(&cfg)).unwrap();
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        let s0 = comm.stats().snapshot();
        model.step(comm).unwrap();
        let d = comm.stats().snapshot().delta(&s0);
        (d.p2p_sends, d.collective_calls)
    });
    // rank 4 is the centre of the 3x3 (y,z) grid.  The collective-internal
    // p2p of `colls` allgathers on p_z = 3 (ring: 2 messages per rank per
    // call) is subtracted.
    let (sends, colls) = counts[4];
    assert_eq!(sends - colls * 2, 8 + 8, "messages per step on 8 links");

    // Algorithm 1, literally: 13 exchanges to one neighbour are 13 sends
    let cfg = ModelConfig::test_medium(); // M = 3
    let sends = Universe::run(2, move |comm| {
        let mut model = Alg1Model::new(&cfg, ProcessGrid::yz(2, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(model.geom(), 100.0, 0.0, 1);
        model.set_state(&ic);
        model.step(comm).unwrap();
        comm.stats().snapshot().p2p_sends
    });
    assert_eq!(sends, [13, 13], "3M + 4 exchanges, one message each");
}
