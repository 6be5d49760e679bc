//! A classic (unsupervised) world fails fast: the first worker that exits
//! non-zero fails the run at once, naming the rank, instead of leaving the
//! survivors to wait out their receive timeout for a peer that is gone — a
//! peer that closed its sockets between two frames leaves no poison, and a
//! world without a respawn policy is never restarted.  A fault spec or an
//! endpoint the runtime refuses never starts a world at all.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn classic_world_fails_as_soon_as_a_rank_dies() {
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_agcm-run"))
        .args(["--ranks", "2", "--alg", "1", "--steps", "4"])
        .args(["--timeout-secs", "120"])
        // rank 1 fail-stops at its third user-tag message; rank 0 would
        // wait out its receive timeout for a peer that never comes back
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

/// A lossy-link fault kind is a named refusal: the parent's check of the
/// runtime variables exits 2 naming the variable and why, before any rank
/// is spawned — never a silent no-op, never a panicking worker.
#[test]
fn a_drop_fault_spec_exits_2_naming_the_refusal() {
    let out = Command::new(env!("CARGO_BIN_EXE_agcm-run"))
        .args(["--ranks", "2", "--alg", "1", "--steps", "2"])
        .env("AGCM_FAULT_SPEC", "drop:nth=1")
        .env_remove("AGCM_RANK")
        .output()
        .expect("spawn agcm-run");
    let se = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "want exit 2:\n{se}");
    assert!(
        se.contains("AGCM_FAULT_SPEC"),
        "the variable must be named:\n{se}"
    );
    assert!(
        se.contains("'drop' is refused"),
        "the refusal must say why:\n{se}"
    );
    assert!(!se.contains("panicked") && !se.contains("rank 0"), "{se}");
}

/// A TCP endpoint is a named refusal: the one socket transport is the
/// Unix-domain socket, and the parent says so with exit 2 before any rank
/// is spawned.
#[test]
fn a_tcp_endpoint_exits_2_naming_the_refusal() {
    let out = Command::new(env!("CARGO_BIN_EXE_agcm-run"))
        .args(["--ranks", "2", "--endpoint", "tcp:127.0.0.1:47000"])
        .env_remove("AGCM_RANK")
        .output()
        .expect("spawn agcm-run");
    let se = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "want exit 2:\n{se}");
    assert!(
        se.contains("tcp endpoint 'tcp:127.0.0.1:47000' is refused")
            && se.contains("one socket transport"),
        "the refusal must say why:\n{se}"
    );
}
