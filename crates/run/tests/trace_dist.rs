//! End-to-end distributed-trace validation: drive the `agcm-run` binary
//! with `--trace` so four OS processes ship their span streams to the
//! parent, then check the merged artifacts with the in-tree RFC 8259
//! validator — one timeline track per rank, and a critical-path report
//! that sets the cost model's prediction beside each measured segment.
//! Whether the trace is consistent with the step program — every rank's
//! wait and collective spans, every operator phase on every rank — is the
//! launcher's verdict (`verify::critpath::analyze`): it exits non-zero
//! otherwise, which this test surfaces.

#![cfg(unix)]

use agcm_obs as obs;

#[test]
fn traced_multiprocess_run_produces_valid_merged_artifacts() {
    let exe = env!("CARGO_BIN_EXE_agcm-run");
    let dir = std::env::temp_dir().join(format!("agcm_trace_e2e_{}", std::process::id()));
    let out = std::process::Command::new(exe)
        .args([
            "--ranks",
            "4",
            "--alg",
            "both",
            "--trace",
            "--trace-out",
            dir.to_str().expect("utf-8 temp dir"),
            "--timeout-secs",
            "240",
        ])
        .env_remove("AGCM_RANK") // never inherit worker role from the test env
        .output()
        .expect("spawn agcm-run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "agcm-run --trace failed ({}):\n{stdout}\n{stderr}",
        out.status
    );
    // the parent prints one analysis line per algorithm after the
    // critical-path join and the prediction of the same step both succeed
    for alg in [1, 2] {
        assert!(
            stdout.contains(&format!("alg{alg} trace:")),
            "missing alg{alg} trace analysis:\n{stdout}"
        );
    }

    for alg in [1u32, 2] {
        let trace = std::fs::read_to_string(dir.join(format!("trace_alg{alg}.json")))
            .expect("merged trace exists");
        obs::validate_json(&trace).expect("merged trace is RFC 8259-valid");
        for rank in 0..4 {
            assert!(
                trace.contains(&format!("\"tid\":{rank}")),
                "alg{alg}: merged trace has no track for rank {rank}"
            );
        }

        let report = std::fs::read_to_string(dir.join(format!("critpath_alg{alg}.json")))
            .expect("critical-path report exists");
        obs::validate_json(&report).expect("critical-path report is RFC 8259-valid");
        for key in [
            "\"build_isa\"",
            "\"critical_path\"",
            "\"predicted_s\"",
            "\"measured_s\"",
        ] {
            assert!(report.contains(key), "alg{alg}: report missing {key}");
        }
        for segment in ["compute", "pack", "wire-wait", "collective"] {
            let row = format!("\"segment\": \"{segment}\"");
            assert!(report.contains(&row), "alg{alg}: no {segment} segment");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
