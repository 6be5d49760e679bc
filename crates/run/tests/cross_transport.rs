//! Cross-transport equivalence (ISSUE 5): the byte-stream socket transport
//! must be *indistinguishable* from the in-memory channel transport at the
//! level everything above the [`agcm_comm::Transport`] trait can observe —
//! integrator results bitwise, fault schedules byte-for-byte.
//!
//! These tests run the same worlds twice, once per transport, inside one
//! test process (threads over `Universe::run` vs threads over
//! `Universe::run_sockets`); the final test drives the `agcm-run` binary so
//! the *multi-process* path — env handshake, mesh dial-in, gathered-state
//! files — is exercised end to end.

#![cfg(unix)]

use agcm_comm::{Endpoint, FaultPlan, Universe};
use agcm_core::init;
use agcm_core::par::{Alg1Model, CaModel, GlobalState};
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;
use std::time::Duration;

const STEPS: usize = 2;
const SEED: u64 = 24473;

/// The launcher's configuration: `test_medium` with `ny = 24` (deep halo
/// fits at py = 2; grouped clamp engages at py = 4).
fn cfg() -> ModelConfig {
    agcm_run::run_config()
}

fn serial_reference(cfg: &ModelConfig, variant: Iteration) -> GlobalState {
    let mut m = SerialModel::new(cfg, variant).unwrap();
    let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
    m.set_state(&ic);
    m.run(STEPS);
    GlobalState::from_serial(&m.state, m.geom())
}

/// Which world harness to run a program under: in-memory channels or a
/// Unix-domain socket mesh.
#[derive(Clone, Copy)]
enum Via {
    Mpsc,
    Uds,
}

fn run_world<T, F>(via: Via, p: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut agcm_comm::Communicator) -> T + Sync,
{
    match via {
        Via::Mpsc => Universe::run(p, f),
        Via::Uds => Universe::run_sockets(p, &Endpoint::unique_uds(), f),
    }
}

fn run_alg1(via: Via, p: usize) -> GlobalState {
    let cfg = cfg();
    let mut results = run_world(via, p, move |comm| {
        let mut m = Alg1Model::new(&cfg, ProcessGrid::yz(p, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        m.gather_state(comm).unwrap()
    });
    results.remove(0).expect("rank 0 gathers")
}

fn run_alg2(via: Via, p: usize) -> GlobalState {
    let cfg = cfg();
    let mut results = run_world(via, p, move |comm| {
        let mut m = CaModel::new(&cfg, ProcessGrid::yz(p, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        m.gather_state(comm).unwrap()
    });
    results.remove(0).expect("rank 0 gathers")
}

#[test]
fn alg1_bitwise_identical_across_transports() {
    let gold = serial_reference(&cfg(), Iteration::Exact);
    for p in [2usize, 4] {
        let mpsc = run_alg1(Via::Mpsc, p);
        let uds = run_alg1(Via::Uds, p);
        assert!(
            agcm_run::states_bitwise_equal(&mpsc, &uds),
            "alg1 p={p}: transports disagree (max |diff| = {:e})",
            mpsc.max_abs_diff(&uds)
        );
        assert!(
            agcm_run::states_bitwise_equal(&uds, &gold),
            "alg1 p={p}: socket run differs from serial"
        );
    }
}

#[test]
fn alg2_bitwise_identical_across_transports() {
    let gold = serial_reference(&cfg(), Iteration::Approximate);
    for p in [2usize, 4] {
        let mpsc = run_alg2(Via::Mpsc, p);
        let uds = run_alg2(Via::Uds, p);
        assert!(
            agcm_run::states_bitwise_equal(&mpsc, &uds),
            "alg2 p={p}: transports disagree (max |diff| = {:e})",
            mpsc.max_abs_diff(&uds)
        );
        assert!(
            agcm_run::states_bitwise_equal(&uds, &gold),
            "alg2 p={p}: socket run differs from serial"
        );
    }
}

/// One chaos world: CA at p = 2 under the given fault plan; returns the
/// per-rank fault logs (the replay contract's observable) and the gathered
/// state.
fn run_chaos(via: Via, spec: &str) -> (Vec<String>, GlobalState) {
    let cfg = cfg();
    let spec = spec.to_string();
    let results = run_world(via, 2, move |comm| {
        comm.install_faults(FaultPlan::parse(SEED, &spec).unwrap());
        comm.set_timeout(Duration::from_secs(20));
        let mut m = CaModel::new(&cfg, ProcessGrid::yz(2, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        let log: Vec<String> = comm.fault_log().iter().map(|e| e.to_string()).collect();
        (log.join("\n"), m.gather_state(comm).unwrap())
    });
    let mut logs = Vec::new();
    let mut global = None;
    for (log, g) in results {
        logs.push(log);
        if let Some(g) = g {
            global = Some(g);
        }
    }
    (logs, global.expect("rank 0 gathers"))
}

/// The chaos seed replayed over the socket transport must fire the
/// *identical* fault event stream as over channels — the fault clock
/// counts sends, which no transport may add, drop or reorder — and both
/// runs must end bitwise equal to the fault-free state.
#[test]
fn chaos_seed_fires_identical_fault_schedule_on_both_transports() {
    let specs = [
        // reordering: a delayed halo released two events later
        "delay:rank=0,user=1,nth=2,k=2",
        // a slow rank, then a seeded mix of held halos (a link's fields
        // share one message, so there are few of them to hit)
        "stall:rank=1,user=1,nth=1,ms=5;delay:user=1,prob=0.3,k=3",
        // no user filter: collective tags are held too
        "delay:prob=0.1,k=2",
    ];
    let clean = run_alg2(Via::Mpsc, 2);
    for spec in specs {
        let (log_mpsc, state_mpsc) = run_chaos(Via::Mpsc, spec);
        let (log_uds, state_uds) = run_chaos(Via::Uds, spec);
        assert_eq!(
            log_mpsc, log_uds,
            "fault schedules diverged across transports for {spec:?}"
        );
        assert!(
            log_mpsc.iter().any(|l| !l.is_empty()),
            "plan must fire for {spec:?}"
        );
        assert!(
            agcm_run::states_bitwise_equal(&state_mpsc, &state_uds),
            "states diverged across transports for {spec:?}"
        );
        assert!(
            agcm_run::states_bitwise_equal(&state_uds, &clean),
            "socket run not bitwise vs fault-free for {spec:?} \
             (max |diff| = {:e})",
            state_uds.max_abs_diff(&clean)
        );
    }
}

/// End-to-end: the real `agcm-run` binary launches one OS process per rank,
/// and its own verification (bitwise state, schedule counts, wire identity)
/// passes for both algorithms.
#[test]
fn launcher_binary_runs_multiprocess_world() {
    let exe = env!("CARGO_BIN_EXE_agcm-run");
    let out = std::process::Command::new(exe)
        .args(["--ranks", "2", "--alg", "both", "--timeout-secs", "120"])
        .env_remove("AGCM_RANK") // never inherit worker role from the test env
        .output()
        .expect("spawn agcm-run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "agcm-run failed ({}):\n{stdout}\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("alg1 p=2"),
        "missing alg1 report:\n{stdout}"
    );
    assert!(
        stdout.contains("alg2 p=2"),
        "missing alg2 report:\n{stdout}"
    );
}
