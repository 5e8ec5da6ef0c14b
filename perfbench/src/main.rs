//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! rwbc-perfbench --workload <name> [--seed 42] [--seconds 30] [--trace 0|1]
//! ```
//!
//! Prints one `name value unit` line per metric, then, as the last line,
//! the JSON result `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. Exits 2 on a bad argument.

use std::process::ExitCode;

use rwbc_perfbench::{run, scenario, WORKLOADS};

fn usage(why: &str) -> ExitCode {
    eprintln!("error: {why}");
    eprintln!(
        "usage: rwbc-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .map(|v| seconds = v)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let Some(sc) = scenario(&workload, seed) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    let report = run(&sc, seconds, trace);
    for why in &report.failures {
        eprintln!("check failed: {why}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
