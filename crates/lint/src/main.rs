//! The `agcm-lint` binary: lint the workspace tree, print findings, exit
//! non-zero if any.  Usage: `cargo run -p agcm-lint [-- <workspace-root>]`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let violations = match agcm_lint::lint_tree(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("agcm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("agcm-lint: clean (alloc / raw-index / unwrap / fused-access / pub-caller rules)");
        ExitCode::SUCCESS
    } else {
        eprintln!("agcm-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
