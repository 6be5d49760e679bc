//! `agcm-e2e` — the repository's benchmark.
//!
//! ```text
//! agcm-e2e --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! agcm-e2e run [--seed N] [--only W] [--seconds S] [--reps K] [--out FILE] [--smoke]
//! agcm-e2e agree A.json B.json
//! agcm-e2e bless [--seed N] [--force]
//! ```
//!
//! Every workload runs in a child process of its own (`agcm-e2e child …`),
//! so `AGCM_THREADS`, peak RSS and allocator state are per workload.

pub mod agree;
pub mod bless;
pub mod fingerprints;
pub mod host;
pub mod json;
pub mod model;
pub mod paths;
pub mod probes;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;

const USAGE: &str = "usage: agcm-e2e --workload W --seed N --seconds S --trace 0|1
       agcm-e2e run [--seed N] [--only W] [--seconds S] [--reps K] [--out FILE] [--smoke]
       agcm-e2e agree A.json B.json
       agcm-e2e bless [--seed N] [--force]";

/// `--flag value` pairs and bare flags of one subcommand.
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    /// The value after `--name`, removed from the list.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        self.rest.remove(i);
        Ok(Some(self.rest.remove(i)))
    }

    pub fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.value(name)? {
            Some(v) => v.parse().map(Some).map_err(|e| format!("{name} {v}: {e}")),
            None => Ok(None),
        }
    }

    pub fn flag(&mut self, name: &str) -> bool {
        match self.rest.iter().position(|a| a == name) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    /// What is left once every option was taken: positional arguments.
    pub fn finish(self, positional: usize) -> Result<Vec<String>, String> {
        if self.rest.len() != positional || self.rest.iter().any(|a| a.starts_with("--")) {
            return Err(format!("unexpected arguments {:?}", self.rest));
        }
        Ok(self.rest)
    }
}

/// Run one command line (without the program name).  `Ok(false)` = the
/// command ran and found a failed check or a `worse` verdict.
pub fn dispatch(mut argv: Vec<String>) -> Result<bool, String> {
    let sub = match argv.first().map(String::as_str) {
        Some("run" | "agree" | "bless" | "child") => argv.remove(0),
        Some(a) if a.starts_with("--") => "one".to_string(),
        _ => return Err(USAGE.to_string()),
    };
    let args = Args { rest: argv };
    match sub.as_str() {
        "one" => report::one(args),
        "run" => report::run_all(args),
        "child" => report::child(args),
        "agree" => agree::main(args),
        "bless" => bless::main(args),
        _ => unreachable!("subcommand matched above"),
    }
}
