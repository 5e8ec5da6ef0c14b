//! Every committed solver artifact still records what its scenario
//! produces: a change that moves a fingerprint must regenerate the
//! artifact (`rwbc-bench --scenario NAME`) instead of leaving a stale
//! one behind.
//!
//! The exact `clean-er-n4096-t*` family is left out, because one of its
//! solves takes tens of seconds. CI's `sketch-smoke` job and perfbench's
//! seed-42 check pin its fingerprint instead.

use std::path::Path;

use congest_sim::trace::json::Json;
use rwbc_bench::perf::{default_matrix, run_scenario};

#[test]
fn committed_fingerprints_match_their_scenarios() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .expect("the repository root is readable")
        .map(|entry| {
            let name = entry.expect("a directory entry").file_name();
            name.into_string().expect("a UTF-8 file name")
        })
        .filter(|name| {
            name.starts_with("BENCH_")
                && name.ends_with(".json")
                && !name.contains("serve-")
                && !name.starts_with("BENCH_clean-er-n4096-t")
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no committed solver artifact found");
    let matrix = default_matrix(1);
    for name in &names {
        let text = std::fs::read_to_string(root.join(name)).expect("a readable artifact");
        let committed = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let scenario = committed
            .get("scenario")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{name}: no scenario name"));
        let sc = matrix
            .iter()
            .find(|sc| sc.name() == scenario)
            .unwrap_or_else(|| panic!("{name}: scenario `{scenario}` is not in the matrix"));
        let fresh = run_scenario(sc, 0, 1).to_json();
        for key in ["rounds", "total_messages", "total_bits", "phase_breakdown"] {
            assert_eq!(
                fresh.get(key),
                committed.get(key),
                "{name}: `{key}` drifted"
            );
        }
    }
}
