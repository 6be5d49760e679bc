//! A classic (unsupervised) world fails fast: the first worker that exits
//! non-zero fails the run at once, naming the rank, instead of leaving the
//! survivors to wait out their communication timeout for a peer that is
//! gone.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn classic_world_fails_as_soon_as_a_rank_dies() {
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_agcm-run"))
        .args(["--ranks", "2", "--alg", "1", "--steps", "4"])
        .args(["--timeout-secs", "120"])
        // rank 1 fail-stops at its third user-tag message; rank 0 would
        // wait 60 s for the next one
        .env("AGCM_FAULT_SPEC", "crash:rank=1,user=1,nth=3")
        .env("AGCM_COMM_TIMEOUT_MS", "60000")
        .env_remove("AGCM_RANK") // never inherit worker role from the test env
        .output()
        .expect("spawn agcm-run");
    let wall = t0.elapsed();
    let se = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "want exit 1:\n{se}");
    assert!(se.contains("rank 1"), "the dead rank must be named:\n{se}");
    assert!(
        wall < Duration::from_secs(20),
        "took {wall:?}: the parent waited for the survivor's timeout\n{se}"
    );
}
