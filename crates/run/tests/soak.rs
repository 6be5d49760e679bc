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
/// `--plan-only` runs print identical bytes (kill placements — rank, step
/// and send — pinned), and a different seed prints a different schedule.
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
    let kills = [
        "phase 0: kill rank 2 at send 12 of a world restored at step 10, in step 11",
        "phase 1: kill rank 0 at send 13 of a world restored at step 21, in step 22",
    ];
    for kill in kills {
        assert!(so.contains(kill), "{so}");
    }
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

/// Seed 152's two kills, pinned by its plan, land where no `--kill` can:
/// rank 1 dies at send 21 of the world restored at step 3 — 15 sends into
/// step 4's halo exchange — and its replacement at send 5 of the restarted
/// world (generation 1), the last of its start-of-world agreement (a
/// collective tag).  Both fire, one restart each, and the run completes
/// bitwise.
#[test]
fn a_seeded_soak_kills_mid_exchange_then_inside_the_restarted_agreement() {
    let args = [
        "--ranks", "4", "--steps", "10", "--seed", "152", "--kills", "2",
    ];
    let bench = std::env::temp_dir().join(format!("agcm-soak-152-{}.json", std::process::id()));
    let bench_s = bench.to_str().expect("utf-8 temp path");
    let out = soak(&[&args[..], &["--resizes", "0", "--bench-out", bench_s]].concat());
    std::fs::remove_file(&bench).ok();
    let (so, se) = (stdout(&out), stderr(&out));
    assert!(out.status.success(), "{}:\n{so}\n{se}", out.status);
    for kill in [
        "kill rank 1 at send 21 of a world restored at step 3, in step 4",
        "kill rank 1 at send 5 of generation 1's start-of-world agreement",
        "PASS: 10 steps survived 2 kill(s) (2 restart(s))",
    ] {
        assert!(so.contains(kill), "{so}");
    }
    // 21 + 3 steps of rank 1's 26 sends: its send 99 since the cold start
    let exchange = "injected fault: crash at world rank 1 (send 99, tag 0x";
    let agreement = "injected fault: crash at world rank 1 (send 5, tag 0x";
    let at = |line: &str| {
        se.find(line)
            .unwrap_or_else(|| panic!("no `{line}`:\n{se}"))
    };
    let collective = |line: &str| {
        let hex = se[at(line) + line.len()..].split(')').next().expect("tag");
        u32::from_str_radix(hex, 16).expect("hex tag") & 0x8000_0000 != 0
    };
    assert!(at(exchange) < at(agreement), "{se}");
    assert!(!collective(exchange) && collective(agreement), "{se}");
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
        se.matches("restarting all").count(),
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
