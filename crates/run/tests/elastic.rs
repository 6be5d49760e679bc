//! Elastic acceptance: a kill — a `crash` fault that aborts its rank at a
//! send, as `kill -9` would — ending the world and the supervisor
//! restarting it from the checkpoint set, planned shrink/grow with
//! checkpoint re-decomposition — each completed run bitwise identical to
//! the serial reference — plus the distinct exit codes for a spent restart
//! budget and for usage errors.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    run_env(args, &[])
}

fn run_env(args: &[&str], vars: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_agcm-run"))
        .args(args)
        .args(["--timeout-secs", "180"])
        .envs(vars.iter().copied())
        .env_remove("AGCM_RANK") // never inherit worker role from the test env
        .output()
        .expect("spawn agcm-run")
}

/// A malformed runtime variable each, beside a valid `AGCM_FAULT_SPEC` (a
/// seed is read only under a spec).
const BAD_RUNTIME_VARS: [(&str, &str); 4] = [
    ("AGCM_FAULT_SPEC", "bogus"),
    ("AGCM_FAULT_SEED", "x"),
    ("AGCM_COMM_TIMEOUT_MS", "10s"),
    ("AGCM_THREADS", "8x"),
];

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A kill (abort) of one rank mid-run at p=4: the supervisor ends the world
/// and restarts all four ranks from the checkpoint set, and the completed
/// run is bitwise identical to serial.
#[test]
fn killed_rank_respawns_and_completes_bitwise() {
    let out = run(&[
        "--ranks",
        "4",
        "--alg",
        "1",
        "--steps",
        "4",
        "--kill",
        "1:1",
        "--max-respawns",
        "2",
    ]);
    let (so, se) = (stdout(&out), stderr(&out));
    assert!(
        out.status.success(),
        "elastic run failed ({}):\n{so}\n{se}",
        out.status
    );
    assert!(
        so.contains("elastic: alg1 p=4 steps=4: state bitwise == serial reference"),
        "missing bitwise verdict:\n{so}\n{se}"
    );
    assert!(
        se.contains("restarting all 4 ranks from the checkpoint set as generation 1"),
        "no restart logged:\n{se}"
    );
}

/// The same chaos flow exercises Algorithm 2's grouped state (cached C,
/// pending smoothing) through capture/restore.
#[test]
fn killed_rank_respawns_alg2_bitwise() {
    let out = run(&[
        "--ranks",
        "4",
        "--alg",
        "2",
        "--steps",
        "4",
        "--kill",
        "2:1",
        "--max-respawns",
        "2",
    ]);
    let (so, se) = (stdout(&out), stderr(&out));
    assert!(
        out.status.success(),
        "elastic alg2 run failed ({}):\n{so}\n{se}",
        out.status
    );
    assert!(
        so.contains("elastic: alg2 p=4 steps=4: state bitwise == serial reference"),
        "missing bitwise verdict:\n{so}\n{se}"
    );
    assert!(
        se.contains("restarting all 4 ranks from the checkpoint set as generation 1"),
        "no restart logged:\n{se}"
    );
}

/// Two ranks killed at the same step — overlapping failures — die in one
/// world: both `crash` rules go to the same generation, each on its own
/// rank, so the world ends once for both and the run costs one restart
/// per algorithm, then completes bitwise.
#[test]
fn two_ranks_killed_at_one_step_complete_bitwise() {
    let out = run(&[
        "--ranks", "4", "--steps", "12", "--alg", "both", "--kill", "1:3", "--kill", "2:3",
    ]);
    let (so, se) = (stdout(&out), stderr(&out));
    assert!(
        out.status.success(),
        "simultaneous kills failed ({}):\n{so}\n{se}",
        out.status
    );
    for alg in [1, 2] {
        let verdict = format!("elastic: alg{alg} p=4 steps=12: state bitwise == serial reference");
        assert!(so.contains(&verdict), "{so}\n{se}");
    }
    for rank in [1, 2] {
        let crashes = se.matches(&format!("crash at world rank {rank} (")).count();
        assert_eq!(crashes, 2, "one crash of rank {rank} per algorithm:\n{se}");
    }
    let restarts = se.matches("as generation 1 (1 restart(s) left)").count();
    assert_eq!(restarts, 2, "one restart per algorithm:\n{se}");
    assert!(!se.contains("as generation 2"), "{se}");
}

/// Two kills in one phase, at different steps, both fire: the first ends
/// the world, and the restarted world is handed the kill that has not
/// fired yet — also when it is the same rank's, so that an incarnation
/// that was itself respawned is killed again.
#[test]
fn a_pending_kill_fires_in_the_restarted_world() {
    for second in ["2:6", "1:6"] {
        let out = run(&[
            "--ranks", "4", "--alg", "1", "--steps", "10", "--kill", "1:2", "--kill", second,
        ]);
        let (so, se) = (stdout(&out), stderr(&out));
        assert!(
            out.status.success(),
            "two kills failed ({}):\n{so}\n{se}",
            out.status
        );
        assert!(
            so.contains("elastic: alg1 p=4 steps=10: state bitwise == serial reference"),
            "{so}\n{se}"
        );
        // one crash line per kill, and one restart per kill: the budget of
        // two is spent exactly
        let crashes = |rank: usize| se.matches(&format!("crash at world rank {rank} (")).count();
        let want = if second == "1:6" { [2, 0] } else { [1, 1] };
        assert_eq!([crashes(1), crashes(2)], want, "{se}");
        assert!(se.contains("as generation 1 (1 restart(s) left)"), "{se}");
        assert!(se.contains("as generation 2 (0 restart(s) left)"), "{se}");
    }
}

/// Planned shrink: half the run at p=4, checkpoints re-decomposed onto
/// p=2 (schedule certified first), finish at p=2 — both phases bitwise.
#[test]
fn shrink_4_to_2_completes_bitwise() {
    let out = run(&[
        "--ranks", "4", "--alg", "1", "--steps", "4", "--resize", "2",
    ]);
    let (so, se) = (stdout(&out), stderr(&out));
    assert!(
        out.status.success(),
        "shrink failed ({}):\n{so}\n{se}",
        out.status
    );
    assert!(
        so.contains("resize phase 1: alg1 p=4 steps=2: state bitwise"),
        "{so}"
    );
    assert!(so.contains("p=2 schedule certified"), "{so}");
    assert!(
        so.contains("resize phase 2: alg1 p=2 steps=4: state bitwise"),
        "{so}"
    );
}

/// Planned grow: p=2 then p=4.
#[test]
fn grow_2_to_4_completes_bitwise() {
    let out = run(&[
        "--ranks", "2", "--alg", "1", "--steps", "4", "--resize", "4",
    ]);
    let (so, se) = (stdout(&out), stderr(&out));
    assert!(
        out.status.success(),
        "grow failed ({}):\n{so}\n{se}",
        out.status
    );
    assert!(so.contains("p=4 schedule certified"), "{so}");
    assert!(
        so.contains("resize phase 2: alg1 p=4 steps=4: state bitwise"),
        "{so}"
    );
}

/// With no respawn budget, a killed rank drains the world and the parent
/// exits with the dedicated code 4 (distinct from verification's 5 and the
/// generic 1).
#[test]
fn exhausted_budget_exits_4() {
    let out = run(&[
        "--ranks",
        "2",
        "--alg",
        "1",
        "--steps",
        "3",
        "--kill",
        "1:1",
        "--max-respawns",
        "0",
    ]);
    let se = stderr(&out);
    assert_eq!(out.status.code(), Some(4), "want exit 4:\n{se}");
    assert!(se.contains("respawn budget exhausted"), "{se}");
}

/// Regression (ISSUE 10): the respawn budget spans the WHOLE run.  Before
/// the fix each resize phase was handed a fresh `opts.respawn_budget()`, so
/// a run with `--max-respawns 1` silently absorbed one kill per phase (2×
/// the requested budget) instead of exiting 4 on the second death.
#[test]
fn resize_budget_spans_phases_exits_4() {
    let out = run(&[
        "--ranks",
        "4",
        "--alg",
        "1",
        "--steps",
        "6",
        "--resize",
        "2",
        "--kill",
        "0:1",
        "--kill",
        "1:4",
        "--max-respawns",
        "1",
    ]);
    let se = stderr(&out);
    assert_eq!(
        out.status.code(),
        Some(4),
        "budget of 1 must not survive two kills across phases:\n{}\n{se}",
        stdout(&out)
    );
    assert!(se.contains("respawn budget exhausted"), "{se}");
}

/// Companion: the same two-kill resize run passes once the shared budget
/// actually covers both deaths — and both phases stay bitwise.
#[test]
fn resize_budget_of_2_covers_both_phases_bitwise() {
    let out = run(&[
        "--ranks",
        "4",
        "--alg",
        "1",
        "--steps",
        "6",
        "--resize",
        "2",
        "--kill",
        "0:1",
        "--kill",
        "1:4",
        "--max-respawns",
        "2",
    ]);
    let (so, se) = (stdout(&out), stderr(&out));
    assert!(
        out.status.success(),
        "two kills within budget 2 failed ({}):\n{so}\n{se}",
        out.status
    );
    assert!(
        so.contains("resize phase 1: alg1 p=4 steps=3: state bitwise"),
        "{so}"
    );
    assert!(
        so.contains("resize phase 2: alg1 p=2 steps=6: state bitwise"),
        "{so}"
    );
    assert_eq!(
        se.matches("died").count(),
        2,
        "expected exactly two injected deaths:\n{se}"
    );
}

/// Regression (ISSUE 10): checkpoint retention across a shrink is derived
/// from max(p, p') + 1, so a post-shrink kill can still roll back to the
/// hand-off files the old keep = p'+1 rule would have pruned.
#[test]
fn shrink_then_kill_rolls_back_and_completes_bitwise() {
    let out = run(&[
        "--ranks",
        "4",
        "--alg",
        "1",
        "--steps",
        "8",
        "--resize",
        "2",
        "--kill",
        "1:6",
        "--max-respawns",
        "1",
    ]);
    let (so, se) = (stdout(&out), stderr(&out));
    assert!(
        out.status.success(),
        "post-shrink kill failed ({}):\n{so}\n{se}",
        out.status
    );
    assert!(
        so.contains("resize phase 2: alg1 p=2 steps=8: state bitwise"),
        "{so}"
    );
    assert!(
        se.contains("restarting all 2 ranks from the checkpoint set"),
        "kill must actually have fired in phase 2:\n{se}"
    );
}

/// Usage errors stay on exit code 2: a resize requires Algorithm 1
/// (checkpointed CA approximation state is tied to its decomposition), and
/// `--kill` must parse as RANK:STEP and land at a send of the run.
#[test]
fn elastic_usage_errors_exit_2() {
    let out = run(&["--ranks", "4", "--steps", "4", "--resize", "2"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--resize requires --alg 1"),
        "{}",
        stderr(&out)
    );

    let out = run(&["--ranks", "4", "--alg", "1", "--kill", "nope"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--kill must be RANK:STEP"),
        "{}",
        stderr(&out)
    );

    // a kill landing in the post-resize phase must fit the shrunken world
    let out = run(&[
        "--ranks", "4", "--alg", "1", "--steps", "6", "--resize", "2", "--kill", "3:5",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("outside the world of 2 ranks"),
        "{}",
        stderr(&out)
    );

    // a kill must land in a step the run takes, at a send: a world of one
    // rank sends nothing
    for (args, why) in [
        (
            &["--ranks", "4", "--steps", "6", "--kill", "1:6"][..],
            "no step follows step 6: the run ends at step 6",
        ),
        (
            &["--ranks", "1", "--kill", "0:1"][..],
            "a world of one rank sends nothing",
        ),
    ] {
        let out = run(&[args, &["--alg", "1"]].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(why), "{args:?}: {}", stderr(&out));
    }

    // a malformed runtime variable is refused by the parent before any
    // spawn, not read as a dying rank and respawned until the budget is
    // spent
    for (var, bad) in BAD_RUNTIME_VARS {
        let vars = [("AGCM_FAULT_SPEC", "lat:us=1"), (var, bad)];
        let out = run_env(
            &["--ranks", "2", "--alg", "1", "--max-respawns", "2"],
            &vars,
        );
        let se = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{var}={bad}:\n{se}");
        assert!(se.contains(var) && !se.contains("panicked"), "{se}");
    }
}

/// A malformed launcher or runtime variable is a typed error naming it,
/// before the socket mesh connects: the worker exits 1, it does not panic.
#[test]
fn malformed_worker_variable_exits_1_naming_it() {
    let dir = std::env::temp_dir().join(format!("agcm_bad_env_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (var, bad) in [
        ("AGCM_CKPT_INTERVAL", "x"),
        ("AGCM_ENDPOINT", "tcp:127.0.0.1:47000"),
    ]
    .into_iter()
    .chain(BAD_RUNTIME_VARS)
    {
        let out = Command::new(env!("CARGO_BIN_EXE_agcm-run"))
            .env("AGCM_RANK", "0")
            .env("AGCM_WORLD_SIZE", "1")
            .env("AGCM_ENDPOINT", dir.join("ep"))
            .env("AGCM_RUN_ALG", "1")
            .env("AGCM_RUN_STEPS", "2")
            .env("AGCM_RUN_PY", "1")
            .env("AGCM_RUN_PZ", "1")
            .env("AGCM_CKPT_DIR", &dir)
            .env("AGCM_CKPT_INTERVAL", "1")
            .env("AGCM_CKPT_KEEP", "2")
            .env("AGCM_FAULT_SPEC", "lat:us=1")
            .env(var, bad)
            .output()
            .expect("spawn agcm-run worker");
        let se = stderr(&out);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{var}={bad}: want exit 1:\n{se}"
        );
        assert!(se.contains(var), "{se}");
        assert!(!se.contains("panicked"), "{se}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
