//! Soak acceptance (ISSUE 10): the seeded chaos plan replays byte-for-byte,
//! usage errors exit 2, and a short in-process burn-in (kills + a resize
//! under delay faults) completes bitwise identical to serial and publishes
//! a schema-valid `BENCH_soak.json`.

use std::process::{Command, Output};

fn soak(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_agcm-soak"))
        .args(args)
        .env_remove("AGCM_RANK") // never inherit worker role from the test env
        .env_remove("AGCM_SOAK_SEED")
        .output()
        .expect("spawn agcm-soak")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The whole chaos schedule is a pure function of the seed: two
/// `--plan-only` runs print identical bytes (kill placements pinned), and a
/// different seed prints a different schedule.
#[test]
fn plan_replays_byte_for_byte_from_seed() {
    let args = [
        "--ranks",
        "4",
        "--steps",
        "40",
        "--seed",
        "7",
        "--kills",
        "2",
        "--resizes",
        "1",
        "--plan-only",
    ];
    let a = soak(&args);
    let b = soak(&args);
    assert!(a.status.success(), "{}", stderr(&a));
    assert_eq!(a.stdout, b.stdout, "plan must replay byte-for-byte");
    let so = stdout(&a);
    assert!(
        so.contains("plan seed=7 fault_seed=8159255084470697051"),
        "{so}"
    );
    assert!(so.contains("phase 0: kill rank 3 after step 17"), "{so}");
    assert!(so.contains("phase 1: kill rank 0 after step 22"), "{so}");
    assert!(so.contains("agcm-soak: plan hash 0x"), "{so}");

    let c = soak(&[
        "--ranks",
        "4",
        "--steps",
        "40",
        "--seed",
        "8",
        "--kills",
        "2",
        "--resizes",
        "1",
        "--plan-only",
    ]);
    assert!(c.status.success(), "{}", stderr(&c));
    assert_ne!(a.stdout, c.stdout, "different seed, different chaos");
}

/// Usage errors exit 2; an infeasible world (5 does not divide ny=24) is a
/// plan error surfaced before anything spawns.
#[test]
fn soak_usage_errors_exit_2() {
    let out = soak(&["--ranks", "1"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--ranks must be at least 2"),
        "{}",
        stderr(&out)
    );

    let out = soak(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unknown argument"),
        "{}",
        stderr(&out)
    );

    let out = soak(&["--ranks", "5", "--plan-only"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot decompose the ny=24 test mesh"),
        "{}",
        stderr(&out)
    );
}

/// Satellite 4 smoke: p=4 for 300 steps with 2 kills and 1 resize from a
/// fixed seed, under the delay fault layer — must complete bitwise and
/// write a schema-valid report.  Ignored in debug profiles (the CI
/// `soak-smoke` job runs it in release via `--include-ignored`).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: ~300 supervised debug steps are slow"
)]
fn short_soak_completes_bitwise_and_reports() {
    let bench = std::env::temp_dir().join(format!("agcm-soak-smoke-{}.json", std::process::id()));
    let bench_s = bench.to_str().expect("utf-8 temp path");
    let out = soak(&[
        "--ranks",
        "4",
        "--steps",
        "300",
        "--seed",
        "7",
        "--kills",
        "2",
        "--resizes",
        "1",
        "--timeout-secs",
        "300",
        "--bench-out",
        bench_s,
    ]);
    let (so, se) = (stdout(&out), stderr(&out));
    assert!(
        out.status.success(),
        "soak smoke failed ({}):\n{so}\n{se}",
        out.status
    );
    assert!(
        so.contains("PASS: 300 steps survived 2 kill(s)"),
        "missing PASS verdict:\n{so}\n{se}"
    );
    assert!(
        so.contains("state bitwise == serial reference"),
        "missing per-phase bitwise verdicts:\n{so}"
    );
    assert_eq!(
        se.matches("respawning from checkpoint").count(),
        2,
        "both planned kills must fire:\n{se}"
    );

    let report = std::fs::read_to_string(&bench).expect("BENCH_soak.json written");
    std::fs::remove_file(&bench).ok();
    agcm_obs::validate_json(&report).expect("report is valid JSON");
    for needle in [
        "\"label\": \"agcm-soak\"",
        "\"build_isa\": \"",
        "\"seed\": 7",
        "\"steps_survived\": 300",
        "\"kills_injected\": 2",
        "\"resizes_completed\": 1",
        "\"bitwise_identical_to_serial\": true",
    ] {
        assert!(
            report.contains(needle),
            "report missing {needle}:\n{report}"
        );
    }
}
