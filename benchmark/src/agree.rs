//! `agcm-e2e agree A.json B.json`: do two result files of the same commit
//! (or of a parent and a change) agree within the bounds `BENCHMARK.json`
//! fixes?

use crate::json::{self, Json};
use crate::report::run_values;
use crate::stats::{iqr_over_median, median};
use crate::workloads::{Kind, END_TO_END, PER_LAYER};
use crate::{paths, Args};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound, or a count
    /// differs.
    Worse,
    /// The run-to-run spread is wider than the bound: no verdict possible.
    Unresolved,
    /// A layer measurement: shown, never judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// Judge one end-to-end metric: `a` and `b` are the values of the two
/// sets, `bound` the share of A's median B may be worse by.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    if iqr_over_median(a).max(iqr_over_median(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&src).map_err(|e| format!("{path}: {e}"))
}

/// `name → bound` of the end-to-end metrics in `BENCHMARK.json`.
fn bounds(benchmark_json: &Path) -> Result<BTreeMap<String, f64>, String> {
    let doc = load(&benchmark_json.to_string_lossy())?;
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
        if let (Some(name), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) {
            out.insert(name.to_string(), bound);
        }
    }
    Ok(out)
}

fn workload_entries(doc: &Json) -> BTreeMap<&str, &Json> {
    doc.get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?, w)))
        .collect()
}

pub fn main(args: Args) -> Result<bool, String> {
    let files = args.finish(2)?;
    let (a, b) = (load(&files[0])?, load(&files[1])?);
    let bounds = bounds(&paths::repo_root().join("BENCHMARK.json"))?;
    let (wa, wb) = (workload_entries(&a), workload_entries(&b));
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    println!("workload metric A B verdict");
    for (name, ea) in &wa {
        let Some(eb) = wb.get(name) else {
            println!("{name} - - - missing-in-B");
            *tally.entry("worse").or_default() += 1;
            continue;
        };
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let (va, vb) = (run_values(ea, def.name), run_values(eb, def.name));
            let present = |v: &[Option<f64>]| v.iter().flatten().copied().collect::<Vec<f64>>();
            let (pa, pb) = (present(&va), present(&vb));
            let show = |p: &[f64]| {
                if p.is_empty() {
                    "na".to_string()
                } else {
                    median(p).to_string()
                }
            };
            let verdict = match def.kind {
                Kind::EndToEnd if pa.is_empty() || pb.is_empty() => Verdict::Worse,
                Kind::EndToEnd => {
                    let bound = *bounds
                        .get(def.name)
                        .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
                    judge(&pa, &pb, def.better == "lower", bound)
                }
                // a count must repeat bit-for-bit, in every run of both sets
                Kind::Count => {
                    let first = va.first().copied().flatten();
                    if va.iter().chain(&vb).all(|v| *v == first) {
                        Verdict::Ok
                    } else {
                        Verdict::Worse
                    }
                }
                Kind::Measured => Verdict::Info,
            };
            *tally.entry(verdict.label()).or_default() += 1;
            println!(
                "{name} {} {} {} {}",
                def.name,
                show(&pa),
                show(&pb),
                verdict.label()
            );
        }
    }
    let count = |k: &str| tally.get(k).copied().unwrap_or(0);
    println!(
        "agree: {} ok, {} worse, {} unresolved, {} info",
        count("ok"),
        count("worse"),
        count("unresolved"),
        count("info")
    );
    Ok(count("worse") == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        // 3 % slower on a lower-is-better metric, bound 5 %: ok; 8 %: worse
        assert_eq!(
            judge(&a, &[10.3, 10.3, 10.3, 10.3], true, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[10.8, 10.8, 10.8, 10.8], true, 0.05),
            Verdict::Worse
        );
        // the same numbers on a higher-is-better metric: a gain
        assert_eq!(
            judge(&a, &[10.8, 10.8, 10.8, 10.8], false, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[9.0, 9.0, 9.0, 9.0], false, 0.05),
            Verdict::Worse
        );
        // a spread wider than the bound resolves nothing
        assert_eq!(
            judge(&[8.0, 10.0, 12.0, 9.0], &a, true, 0.05),
            Verdict::Unresolved
        );
        // single runs have no spread: only ok or worse
        assert_eq!(judge(&[10.0], &[10.2], true, 0.05), Verdict::Ok);
    }
}
