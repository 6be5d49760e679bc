//! The parent side: spawn one child process per workload run, relay what
//! it measured as `workload metric value unit` lines, and write the JSON
//! result line or file.

use crate::json::Json;
use crate::runner::{self, RunArgs};
use crate::workloads::{
    self, MetricDef, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use crate::{paths, Args};
use std::io::Write as _;
use std::process::{Command, Stdio};

/// What one child run reported.
#[derive(Debug, Default)]
pub struct ChildReport {
    /// `None` = the layer does not exist on this workload.
    metrics: Vec<(String, Option<f64>)>,
    /// `(ok, name, detail)`.
    checks: Vec<(bool, String, String)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl ChildReport {
    fn metric(&self, name: &str) -> Option<Option<f64>> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

// ---- child side: run, then speak the line protocol on stdout ---------------

fn common(args: &mut Args) -> Result<(&'static Workload, u64, u64), String> {
    let name = args.value("--workload")?.ok_or("--workload is required")?;
    let workload = workloads::find(&name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; known: {}", known.join(", "))
    })?;
    let seed = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: u64 = args.parsed("--seconds")?.unwrap_or(RUN_SECONDS);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok((workload, seed, seconds))
}

fn trace_flag(args: &mut Args) -> Result<bool, String> {
    match args.value("--trace")?.as_deref() {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("--trace {other}: expected 0 or 1")),
    }
}

pub fn child(mut args: Args) -> Result<bool, String> {
    let (workload, seed, seconds) = common(&mut args)?;
    let run = RunArgs {
        workload,
        seed,
        seconds,
        trace: trace_flag(&mut args)?,
        smoke: args.flag("--smoke"),
    };
    args.finish(0)?;
    let res = runner::run(&run)?;
    let mut out = std::io::stdout().lock();
    let mut line = |s: String| writeln!(out, "{s}").map_err(|e| e.to_string());
    for (name, value) in &res.metrics {
        match value {
            Some(v) => line(format!("M {name} {v}"))?,
            None => line(format!("M {name} na"))?,
        }
    }
    for c in &res.checks {
        let detail = c.detail.replace('\n', " ");
        line(format!(
            "CHECK {} {} {detail}",
            if c.ok { "ok" } else { "FAIL" },
            c.name
        ))?;
    }
    for n in &res.notes {
        line(format!("NOTE {}", n.replace('\n', " ")))?;
    }
    line(format!("STEPS {} {}", res.attempted(), res.failed()))?;
    Ok(true)
}

// ---- parent side -------------------------------------------------------------

fn parse_child_output(stdout: &str) -> Result<ChildReport, String> {
    let mut rep = ChildReport::default();
    let mut closed = false;
    for line in stdout.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "M" => {
                let (name, value) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("bad line '{line}'"))?;
                let value = match value {
                    "na" => None,
                    v => Some(v.parse::<f64>().map_err(|e| format!("'{line}': {e}"))?),
                };
                if workloads::metric_def(name).is_none() {
                    return Err(format!(
                        "the child reported '{name}', which BENCHMARK.json does not declare"
                    ));
                }
                rep.metrics.push((name.to_string(), value));
            }
            "CHECK" => {
                let mut it = rest.splitn(3, ' ');
                let ok = it.next() == Some("ok");
                let name = it.next().unwrap_or("").to_string();
                rep.checks
                    .push((ok, name, it.next().unwrap_or("").to_string()));
            }
            "NOTE" => rep.notes.push(rest.to_string()),
            "STEPS" => {
                let mut it = rest.split(' ').map(str::parse::<u64>);
                match (it.next(), it.next()) {
                    (Some(Ok(a)), Some(Ok(f))) => (rep.attempted, rep.failed) = (a, f),
                    _ => return Err(format!("bad line '{line}'")),
                }
                closed = true;
            }
            _ => {}
        }
    }
    if !closed {
        return Err("the child ended without a STEPS line".into());
    }
    Ok(rep)
}

/// Run one workload once in a child process with the workload's
/// `AGCM_THREADS`; the child's stderr passes through.
fn spawn_child(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("AGCM_THREADS", w.threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning the child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "the child for {} ended with {}",
            w.name, out.status
        ));
    }
    parse_child_output(&String::from_utf8_lossy(&out.stdout))
}

fn print_report(w: &Workload, rep: &ChildReport) {
    for (name, value) in &rep.metrics {
        let unit = workloads::metric_def(name).map_or("", |d| d.unit);
        match value {
            Some(v) => println!("{} {name} {v} {unit}", w.name),
            None => println!("{} {name} na {unit}", w.name),
        }
    }
    for (ok, name, detail) in &rep.checks {
        println!(
            "{} check {name} {} {detail}",
            w.name,
            if *ok { "ok" } else { "FAIL" }
        );
    }
    for n in &rep.notes {
        println!("{} note {n}", w.name);
    }
    println!(
        "{} ops attempted {} failed {}",
        w.name, rep.attempted, rep.failed
    );
}

/// The metrics object of the result line: every definition of `defs`, a
/// layer the workload does not have reads 0.
fn metrics_json(rep: &ChildReport, defs: &[MetricDef], with_kind: bool) -> Result<Json, String> {
    let mut pairs = Vec::new();
    for def in defs {
        let value = rep
            .metric(def.name)
            .ok_or_else(|| format!("the run reported no '{}'", def.name))?;
        let mut fields = vec![
            (
                "value",
                if with_kind {
                    value.map_or(Json::Null, Json::num)
                } else {
                    Json::num(value.unwrap_or(0.0))
                },
            ),
            ("unit", Json::str(def.unit)),
        ];
        if with_kind {
            fields.push(("kind", Json::str(def.kind.label())));
        }
        pairs.push((def.name.to_string(), Json::obj(fields)));
    }
    Ok(Json::Obj(pairs))
}

/// Driver entry: one workload, one run, the contract's JSON as last line.
pub fn one(mut args: Args) -> Result<bool, String> {
    let (w, seed, seconds) = common(&mut args)?;
    let trace = trace_flag(&mut args)?;
    args.finish(0)?;
    let rep = spawn_child(w, seed, seconds, trace, false)?;
    print_report(w, &rep);
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let line = Json::obj(vec![
        ("correct", Json::Bool(rep.correct())),
        ("attempted", Json::Num(rep.attempted as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        ("metrics", metrics_json(&rep, defs, false)?),
    ]);
    println!("{}", line.render());
    Ok(true)
}

/// `agcm-e2e run`: every workload (or `--only` one), `--reps` times each,
/// end-to-end and per-layer metrics from the same runs, one result file.
pub fn run_all(mut args: Args) -> Result<bool, String> {
    let seed = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: u64 = args.parsed("--seconds")?.unwrap_or(RUN_SECONDS);
    let reps: usize = args.parsed("--reps")?.unwrap_or(1);
    let only = args.value("--only")?;
    let out_path = match args.value("--out")? {
        Some(p) => p.into(),
        None => paths::out_dir()?.join("result.json"),
    };
    let smoke = args.flag("--smoke");
    args.finish(0)?;
    if !(1..=60).contains(&seconds) || reps == 0 {
        return Err("--seconds must be in 1..=60 and --reps at least 1".into());
    }
    let selected: Vec<&Workload> = match &only {
        Some(name) => {
            vec![workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?]
        }
        None => workloads::WORKLOADS.iter().collect(),
    };

    let all: Vec<MetricDef> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    let mut all_ok = true;
    let mut entries = Vec::new();
    for w in selected {
        let mut runs = Vec::new();
        for _ in 0..reps {
            let rep = spawn_child(w, seed, seconds, true, smoke)?;
            print_report(w, &rep);
            all_ok &= rep.correct();
            let metrics = match metrics_json(&rep, &all, true) {
                Ok(m) => m,
                // only a run whose steps failed may stop before it measured
                Err(_) if !rep.correct() => Json::Obj(Vec::new()),
                Err(e) => return Err(e),
            };
            let checks = rep
                .checks
                .iter()
                .map(|(ok, name, detail)| {
                    Json::obj(vec![
                        ("name", Json::str(name)),
                        ("ok", Json::Bool(*ok)),
                        ("detail", Json::str(detail)),
                    ])
                })
                .collect();
            runs.push(Json::obj(vec![
                ("correct", Json::Bool(rep.correct())),
                ("attempted", Json::Num(rep.attempted as f64)),
                ("failed", Json::Num(rep.failed as f64)),
                ("metrics", metrics),
                ("checks", Json::Arr(checks)),
                (
                    "notes",
                    Json::Arr(rep.notes.iter().map(|n| Json::str(n)).collect()),
                ),
            ]));
        }
        entries.push(Json::obj(vec![
            ("name", Json::str(w.name)),
            ("runs", Json::Arr(runs)),
        ]));
    }
    let doc = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("seed", Json::Str(seed.to_string())),
        ("seconds", Json::Num(seconds as f64)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::Arr(entries)),
    ]);
    std::fs::write(&out_path, doc.pretty()).map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("wrote {}", out_path.display());
    if !all_ok {
        eprintln!("agcm-e2e: at least one check or step failed");
    }
    Ok(all_ok)
}

/// Values of one metric over the runs of a workload entry of a result
/// file; `None` entries are layers the workload does not have.
pub fn run_values(entry: &Json, metric: &str) -> Vec<Option<f64>> {
    entry
        .get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric))
        .map(|m| m.get("value").and_then(Json::as_f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_protocol_round_trips() {
        let text = "M steps_per_s 3.25\nM comm.alpha_s na\nCHECK ok fingerprint final 0x1\n\
                    CHECK FAIL traffic_counts rank 1: off\nNOTE counts: warm=2\nSTEPS 30 1\n";
        let rep = parse_child_output(text).unwrap();
        assert_eq!(rep.metric("steps_per_s"), Some(Some(3.25)));
        assert_eq!(rep.metric("comm.alpha_s"), Some(None));
        assert_eq!(rep.metric("missing"), None);
        assert_eq!(rep.checks.len(), 2);
        assert!(rep.checks[0].0 && !rep.checks[1].0);
        assert_eq!(rep.checks[1].2, "rank 1: off");
        assert_eq!((rep.attempted, rep.failed), (30, 1));
        assert!(!rep.correct());
        assert!(
            parse_child_output("M steps_per_s 1\n").is_err(),
            "no STEPS line"
        );
    }
}
