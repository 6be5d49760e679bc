//! The `agcm-e2e` binary: see the library documentation for the commands.

use std::process::ExitCode;

fn main() -> ExitCode {
    match agcm_e2e::dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("agcm-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
