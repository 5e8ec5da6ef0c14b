//! CLI entry point regenerating every experiment of `EXPERIMENTS.md`.
//!
//! ```text
//! experiments [IDS...] [--quick]
//!
//!   IDS      experiment ids among e1..e8, or `all` (default: all)
//!   --quick  smaller sizes / fewer repetitions (smoke mode)
//! ```

use std::process::ExitCode;

use rwbc_bench::outln;
use rwbc_bench::suite::{run_by_id, ALL_IDS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut ids: Vec<String> = args
        .into_iter()
        .filter(|a| a != "--quick")
        .map(|a| a.to_lowercase())
        .collect();
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        match run_by_id(id, quick) {
            Some(tables) => {
                outln!(
                    "==================== {} ====================",
                    id.to_uppercase()
                );
                for t in tables {
                    outln!("{t}");
                }
            }
            None => {
                eprintln!(
                    "unknown experiment id '{id}'; known: {}",
                    ALL_IDS.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
