//! Chaos acceptance tests: with a fixed `AGCM_FAULT_SEED`, a run that
//! drops one halo message and bit-corrupts one payload must complete via
//! retry (framed exchanges), ending bitwise equal to the fault-free run; and
//! an identical re-run must reproduce the fault schedule byte-for-byte.

use agcm_comm::{FaultPlan, FaultSnapshot, Universe};
use agcm_core::init;
use agcm_core::par::{CaModel, RetryPolicy};
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
