//! The `agcm-lint` binary: lint the workspace tree, print the findings and
//! the line budgets; exit 1 on a finding, 2 if the tree cannot be read or
//! lacks a location the guard table names.  Usage: `cargo run -p agcm-lint
//! [-- <workspace-root>]`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let files = agcm_lint::read_tree(root.as_ref()).map_err(|e| e.to_string());
    let (violations, budgets) =
        match files.and_then(|f| Ok((agcm_lint::lint_files(&f)?, agcm_lint::code_lines(&f)))) {
            Ok(checked) => checked,
            Err(e) => {
                eprintln!("agcm-lint: {e}");
                return ExitCode::from(2);
            }
        };
    for v in &violations {
        println!("{v}");
    }
    for (b, n) in budgets {
        println!("agcm-lint: {}: {n} code lines (budget {})", b.name, b.max);
    }
    if !violations.is_empty() {
        eprintln!("agcm-lint: {} violation(s)", violations.len());
        return ExitCode::FAILURE;
    }
    println!("agcm-lint: clean ({})", agcm_lint::rule_keys().join(" / "));
    ExitCode::SUCCESS
}
