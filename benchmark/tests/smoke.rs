//! End to end: `agcm-e2e run --only small_alg1_y2_uds --smoke` (20 timed
//! steps) through the real binary, child process and result file.

use agcm_e2e::json::{self, Json};
use agcm_e2e::workloads::{Kind, END_TO_END, PER_LAYER};
use std::process::Command;

#[test]
fn smoke_run_checks_fingerprint_and_count_identities() {
    let out = agcm_e2e::paths::unique_name("smoke-test").unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_agcm-e2e"))
        .args(["run", "--only", "small_alg1_y2_uds", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "exit {:?}\n{stdout}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );

    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::remove_file(&out).unwrap();
    let workloads = doc.get("workloads").unwrap().as_arr();
    assert_eq!(workloads.len(), 1);
    assert_eq!(
        workloads[0].get("name").and_then(Json::as_str),
        Some("small_alg1_y2_uds")
    );
    let run = &workloads[0].get("runs").unwrap().as_arr()[0];
    assert_eq!(run.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
    // 2 warm + 20 timed + 3 traced steps, and the four checks below
    assert_eq!(run.get("attempted").and_then(Json::as_f64), Some(29.0));

    // the default seed is blessed at the smoke step count: the final state
    // is compared with the committed serial fingerprint, and the measured
    // traffic with the static schedule and the wire identity
    let checks: Vec<(&str, bool)> = run
        .get("checks")
        .unwrap()
        .as_arr()
        .iter()
        .map(|c| {
            (
                c.get("name").and_then(Json::as_str).unwrap(),
                c.get("ok") == Some(&Json::Bool(true)),
            )
        })
        .collect();
    assert_eq!(
        checks,
        [
            ("final_state_finite", true),
            ("fingerprint", true),
            ("traffic_counts", true),
            ("wire_identity", true)
        ]
    );

    // every declared metric is in the file, and nothing else
    let metrics = run.get("metrics").unwrap();
    let declared: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    let emitted: Vec<&str> = match metrics {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("metrics is not an object"),
    };
    assert_eq!(emitted, declared);
    let value = |name: &str| {
        metrics
            .get(name)
            .unwrap()
            .get("value")
            .and_then(Json::as_f64)
    };
    for m in &END_TO_END {
        assert!(value(m.name).unwrap() > 0.0, "{} must never be 0", m.name);
    }
    // Algorithm 1 at M = 3: 3M + 4 exchanges, no collective under a y-split
    assert_eq!(value("core.exchange.exchanges_per_step"), Some(13.0));
    assert_eq!(value("comm.collective.calls_per_step"), Some(0.0));
    assert_eq!(value("core.dycore.S2.calls_per_step"), Some(0.0));
    assert_eq!(value("step.samples"), Some(20.0));
    assert_eq!(
        value("step.tail_s"),
        None,
        "no tail percentile from 20 samples"
    );
    for m in PER_LAYER.iter().filter(|m| m.kind == Kind::Count) {
        let v = value(m.name).unwrap_or_else(|| panic!("count {} is absent", m.name));
        assert_eq!(v.fract(), 0.0, "count {} = {v} is not whole", m.name);
    }
    // every line the parent printed for a metric reads `workload metric value unit`
    let metric_lines = stdout
        .lines()
        .filter(|l| l.split(' ').nth(1).is_some_and(|n| declared.contains(&n)))
        .count();
    assert_eq!(metric_lines, declared.len());
}
