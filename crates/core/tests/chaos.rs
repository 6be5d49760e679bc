//! Chaos acceptance tests (ISSUE 3): with a fixed `AGCM_FAULT_SEED`, a
//! run that drops one halo message and bit-corrupts one payload must
//! complete via retry (framed exchanges) or rollback (resilient runner),
//! ending bitwise equal — or equal within the degraded-mode tolerance —
//! to the fault-free run; and an identical re-run must reproduce the
//! fault schedule byte-for-byte.

use agcm_comm::{FaultPlan, FaultSnapshot, Universe};
use agcm_core::init;
use agcm_core::par::{CaModel, RetryPolicy};
use agcm_core::resilience::{ResilienceConfig, ResilienceError, ResilientRunner};
use agcm_core::ModelConfig;
use agcm_mesh::ProcessGrid;
use std::time::Duration;

const STEPS: usize = 2;
const SEED: u64 = 24473;

fn seed() -> u64 {
    std::env::var("AGCM_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(SEED)
}

fn ca_cfg() -> ModelConfig {
    let mut cfg = ModelConfig::test_medium();
    cfg.ny = 24;
    cfg
}

struct ChaosRun {
    global: agcm_core::par::GlobalState,
    faults: FaultSnapshot,
    log_bytes: String,
}

/// Run CA at p = 2 with framed + retrying exchanges and an optional
/// fault plan; gather the global state on rank 0 plus per-run fault
/// accounting (summed over ranks, logs concatenated rank-major).
fn run_framed_ca(cfg: &ModelConfig, plan: Option<(u64, &str)>) -> ChaosRun {
    let cfg = cfg.clone();
    let plan = plan.map(|(s, spec)| (s, spec.to_string()));
    let results = Universe::run(2, move |comm| {
        if let Some((s, spec)) = &plan {
            comm.install_faults(FaultPlan::parse(*s, spec).unwrap());
        }
        comm.set_timeout(Duration::from_millis(500));
        let pgrid = ProcessGrid::yz(2, 1).unwrap();
        let mut m = CaModel::new(&cfg, pgrid, comm).unwrap();
        m.set_framed(true);
        m.set_retry(RetryPolicy {
            max_attempts: 4,
            backoff: Duration::from_millis(1),
        });
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        m.run(comm, STEPS).unwrap();
        let log: Vec<String> = comm.fault_log().iter().map(|e| e.to_string()).collect();
        (
            m.gather_state(comm).unwrap(),
            comm.stats().fault_snapshot(),
            log.join("\n"),
        )
    });
    let mut faults = FaultSnapshot::default();
    let mut log_bytes = String::new();
    let mut global = None;
    for (g, f, l) in results {
        faults.dropped += f.dropped;
        faults.corrupted += f.corrupted;
        faults.duplicated += f.duplicated;
        faults.delayed += f.delayed;
        faults.stalled += f.stalled;
        faults.crashed += f.crashed;
        faults.retries += f.retries;
        log_bytes.push_str(&l);
        log_bytes.push('\n');
        if let Some(g) = g {
            global = Some(g);
        }
    }
    ChaosRun {
        global: global.expect("rank 0 gathers"),
        faults,
        log_bytes,
    }
}

/// Acceptance: one dropped halo message + one corrupted payload, framed
/// exchanges + bounded retry → the run completes and the final state is
/// **bitwise** equal to the fault-free run; the snapshot counts exactly
/// the injected faults.
#[test]
fn framed_retry_recovers_drop_and_corruption_bitwise() {
    let cfg = ca_cfg();
    let clean = run_framed_ca(&cfg, None);
    assert_eq!(clean.faults.total(), 0);

    let spec = "drop:rank=0,user=1,nth=1;corrupt:rank=1,user=1,nth=1,bit=17";
    let faulty = run_framed_ca(&cfg, Some((seed(), spec)));
    let d = clean.global.max_abs_diff(&faulty.global);
    assert_eq!(d, 0.0, "retry recovery must be bitwise: max |diff| = {d:e}");
    assert_eq!(faulty.faults.dropped, 1, "exactly the one injected drop");
    assert_eq!(
        faulty.faults.corrupted, 1,
        "exactly the one injected corruption"
    );
    assert_eq!(
        faulty.faults.duplicated + faulty.faults.stalled + faulty.faults.crashed,
        0
    );
    // the drop times out once and the corruption is rejected once: both
    // recoveries go through the retry path
    assert!(
        faulty.faults.retries >= 2,
        "expected ≥2 retries, got {}",
        faulty.faults.retries
    );
}

/// Acceptance: an identical re-run (same seed, same spec) reproduces the
/// fault schedule byte-for-byte.
#[test]
fn identical_rerun_replays_schedule_byte_for_byte() {
    let cfg = ca_cfg();
    let spec = "drop:rank=0,user=1,nth=1;corrupt:rank=1,user=1,nth=2,bit=23;dup:user=1,prob=0.05";
    let a = run_framed_ca(&cfg, Some((seed(), spec)));
    let b = run_framed_ca(&cfg, Some((seed(), spec)));
    assert!(!a.log_bytes.trim().is_empty(), "the plan must fire");
    assert_eq!(
        a.log_bytes, b.log_bytes,
        "fault schedule must replay byte-for-byte"
    );
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.global.max_abs_diff(&b.global), 0.0);
}

/// Silent corruption (no framing) slips past the exchange layer, blows
/// up the state, and the resilient runner rolls back to the last
/// checkpoint, re-runs the window degraded, and completes within the
/// degraded-mode tolerance of the fault-free run.
#[test]
fn rollback_recovers_silent_corruption_within_degraded_tolerance() {
    let cfg = ca_cfg();
    let clean = run_framed_ca(&cfg, None);

    // bit 62 (exponent MSB) turns any halo value into ~1e300: the blow-up
    // guard's max|ξ| consensus trips at the end of the corrupted step
    let spec = "corrupt:rank=1,user=1,nth=3,bit=62";
    let cfg2 = cfg.clone();
    let results = Universe::run(2, move |comm| {
        comm.install_faults(FaultPlan::parse(seed(), spec).unwrap());
        comm.set_timeout(Duration::from_secs(2));
        let pgrid = ProcessGrid::yz(2, 1).unwrap();
        // the plan is written against the paper's full-depth groups: rank
        // 1's third message is the 11-row φ halo of the deep exchange, and
        // the element the seed picks in it is one whose exponent MSB is
        // clear (on a value ≥ 2 the flip shrinks it instead)
        let mut m = CaModel::with_groups(&cfg2, pgrid, comm, (9, true, 3)).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        let mut runner = ResilientRunner::new(
            comm,
            ResilienceConfig {
                checkpoint_interval: 1,
                ring_capacity: 2,
                max_rollbacks: 4,
                max_abs_limit: 1e6,
                checkpoint_dir: None,
                disk_keep: 0,
            },
        )
        .unwrap();
        let report = runner.run(&mut m, comm, STEPS as u64).unwrap();
        let snap = comm.stats().fault_snapshot();
        (m.gather_state(comm).unwrap(), report, snap)
    });
    let corrupted: u64 = results.iter().map(|(_, _, s)| s.corrupted).sum();
    assert_eq!(corrupted, 1, "exactly the one injected corruption");
    let (global, report, _) = results.into_iter().next().unwrap();
    let global = global.expect("rank 0 gathers");
    assert!(report.rollbacks >= 1, "the blow-up must trigger a rollback");
    assert!(
        report.degraded_steps >= 1,
        "the re-run window runs degraded"
    );
    assert_eq!(report.steps, STEPS as u64);

    // degraded re-runs use exact C instead of the Eq. 13 reuse: equal to
    // the fault-free run within the degraded-mode tolerance, not bitwise
    let d = global.max_abs_diff(&clean.global);
    let scale = clean.global.max_abs().max(1.0);
    assert!(
        d > 0.0,
        "degraded window must actually differ (exact vs Eq. 13)"
    );
    assert!(
        d / scale < 0.05,
        "degraded recovery drifted too far: {d:e} vs scale {scale:e}"
    );
}

/// When recovery cannot succeed the runner surfaces the typed
/// `RollbackExhausted` on every rank instead of hanging or panicking.
#[test]
fn exhausted_rollbacks_surface_typed_error_on_all_ranks() {
    let cfg = ca_cfg();
    let errs = Universe::run(2, move |comm| {
        comm.set_timeout(Duration::from_secs(10));
        let pgrid = ProcessGrid::yz(2, 1).unwrap();
        let mut m = CaModel::new(&cfg, pgrid, comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        let mut runner = ResilientRunner::new(
            comm,
            ResilienceConfig {
                checkpoint_interval: 1,
                ring_capacity: 2,
                max_rollbacks: 2,
                // an impossible bound: every attempt "blows up"
                max_abs_limit: 1e-12,
                checkpoint_dir: None,
                disk_keep: 0,
            },
        )
        .unwrap();
        runner.run(&mut m, comm, STEPS as u64).unwrap_err()
    });
    for (rank, err) in errs.into_iter().enumerate() {
        match err {
            ResilienceError::RollbackExhausted { rollbacks, .. } => {
                assert!(rollbacks <= 2, "rank {rank}: budget respected")
            }
            other => panic!("rank {rank}: expected RollbackExhausted, got {other}"),
        }
    }
}

/// Degraded mode is one flag every program honours, and clearing it
/// returns the run to the iteration it was built with: a serial
/// approximate run that was degraded for one step stays bitwise equal to
/// the CA run that was (the rollback driver degrades at the failed step and
/// clears once past it).  A serial model that turned itself exact for good
/// would part ways with Algorithm 2 on the first step after the clear.
#[test]
fn a_cleared_degradation_returns_serial_and_ca_to_the_same_iteration() {
    use agcm_core::par::GlobalState;
    use agcm_core::serial::{Iteration, SerialModel};
    const K: usize = 2;
    let cfg = ca_cfg();

    let mut s = SerialModel::new(&cfg, Iteration::Approximate).unwrap();
    let ic = init::perturbed_rest(s.geom(), 200.0, 1.0, 42);
    s.set_state(&ic);
    s.run(K);
    let exact_from_here = {
        // what the degraded step must NOT collapse the rest of the run to
        let mut e = SerialModel::new(&cfg, Iteration::Exact).unwrap();
        e.restore(&s.capture());
        e.run(4);
        GlobalState::from_serial(&e.state, e.geom())
    };
    s.set_degraded(true);
    s.step();
    s.set_degraded(false);
    s.run(3);
    let serial = GlobalState::from_serial(&s.state, s.geom());
    assert!(serial.max_abs_diff(&exact_from_here) > 0.0);

    let ca = Universe::run(2, move |comm| {
        let mut m = CaModel::new(&cfg, ProcessGrid::yz(2, 1).unwrap(), comm).unwrap();
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, 42);
        m.set_state(&ic);
        for step in 0..K + 4 {
            m.set_degraded(step == K);
            m.step(comm).unwrap();
        }
        m.finish(comm).unwrap();
        m.gather_state(comm).unwrap()
    })
    .remove(0)
    .expect("rank 0 gathers");
    assert_eq!(ca.max_abs_diff(&serial), 0.0, "through step k + 3");
}
