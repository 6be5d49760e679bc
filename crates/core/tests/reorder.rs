//! Delivery-order robustness (ISSUE 3 satellite): the deep-halo exchanges
//! of Algorithm 1 and Algorithm 2 must produce bit-identical owned values
//! under *adversarial* message delivery — here, deterministic `delay`
//! faults that hold messages back and release them out of order.
//!
//! Tag matching (not arrival order) defines which payload lands in which
//! halo, so any reordering the fault layer produces must be invisible in
//! the state.  The seeds below are swept in CI's `chaos` job; set
//! `AGCM_FAULT_SEED` to probe a specific schedule.

use agcm_comm::{FaultPlan, Universe};
use agcm_core::init;
use agcm_core::par::{Alg1Model, CaModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;
use std::time::Duration;

const STEPS: usize = 2;
const DEFAULT_SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0xC0FFEE];

/// Seeds to sweep: the fixed trio, or the override from `AGCM_FAULT_SEED`.
fn seeds() -> Vec<u64> {
    match std::env::var("AGCM_FAULT_SEED") {
        Ok(s) => vec![s.trim().parse().expect("AGCM_FAULT_SEED must be u64")],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

/// Hold ~1/3 of user messages back by two fault-clock events: enough to
/// interleave the split sends of a deep exchange without starving anyone.
const DELAY_SPEC: &str = "delay:user=1,prob=0.35,k=2";

fn ca_cfg() -> ModelConfig {
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 24; // 24/2 = 12 rows/rank ≥ the 3M+2 = 11-row deep halo
    cfg
}

fn run_alg2(cfg: &ModelConfig, fault: Option<(u64, &str)>) -> agcm_core::par::GlobalState {
    let cfg = cfg.clone();
    let fault = fault.map(|(s, spec)| (s, spec.to_string()));
    let mut results = Universe::run(2, move |comm| {
        if let Some((seed, spec)) = &fault {
            comm.install_faults(FaultPlan::parse(*seed, spec).unwrap());
        }
        comm.set_timeout(Duration::from_secs(20));
        let pgrid = ProcessGrid::yz(2, 1).unwrap();
        let mut m = CaModel::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        m.gather_state(comm).unwrap()
    });
    results.remove(0).expect("rank 0 gathers")
}

fn run_alg1(cfg: &ModelConfig, fault: Option<(u64, &str)>) -> agcm_core::par::GlobalState {
    let cfg = cfg.clone();
    let fault = fault.map(|(s, spec)| (s, spec.to_string()));
    let mut results = Universe::run(2, move |comm| {
        if let Some((seed, spec)) = &fault {
            comm.install_faults(FaultPlan::parse(*seed, spec).unwrap());
        }
        comm.set_timeout(Duration::from_secs(20));
        let pgrid = ProcessGrid::yz(2, 1).unwrap();
        let mut m = Alg1Model::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        m.gather_state(comm).unwrap()
    });
    results.remove(0).expect("rank 0 gathers")
}

#[test]
fn alg2_bitwise_under_adversarial_delivery_order() {
    let cfg = ca_cfg();
    let clean = run_alg2(&cfg, None);
    for seed in seeds() {
        let delayed = run_alg2(&cfg, Some((seed, DELAY_SPEC)));
        let d = clean.max_abs_diff(&delayed);
        assert_eq!(
            d, 0.0,
            "alg2 diverged under delayed delivery (seed {seed:#x}): max |diff| = {d:e}"
        );
    }
}

#[test]
fn alg1_bitwise_under_adversarial_delivery_order() {
    let cfg = ModelConfig::test_medium();
    let clean = run_alg1(&cfg, None);
    for seed in seeds() {
        let delayed = run_alg1(&cfg, Some((seed, DELAY_SPEC)));
        let d = clean.max_abs_diff(&delayed);
        assert_eq!(
            d, 0.0,
            "alg1 diverged under delayed delivery (seed {seed:#x}): max |diff| = {d:e}"
        );
    }
}

#[test]
fn delay_schedule_actually_fires() {
    // guard against a vacuous pass: at least one seed must hold back at
    // least one message in the alg2 run
    let cfg = ca_cfg();
    let cfg2 = cfg.clone();
    let fired: u64 = Universe::run(2, move |comm| {
        comm.install_faults(FaultPlan::parse(DEFAULT_SEEDS[0], DELAY_SPEC).unwrap());
        comm.set_timeout(Duration::from_secs(20));
        let pgrid = ProcessGrid::yz(2, 1).unwrap();
        let mut m = CaModel::new(&cfg2, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        comm.stats().fault_snapshot().delayed
    })
    .into_iter()
    .sum();
    assert!(fired > 0, "a 35% delay plan over a 2-step run must fire");
}
