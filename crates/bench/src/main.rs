//! `tc-exp`: the one experiment runner. See [`tc_bench::exp`].

use std::process::ExitCode;

use tc_bench::exp::{cli, Failure};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match cli(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(why)) => {
            eprintln!("tc-exp: {why}");
            ExitCode::from(2)
        }
        Err(Failure::Failed(why)) => {
            eprintln!("tc-exp: {why}");
            ExitCode::FAILURE
        }
    }
}
