//! The benchmark's own tests, on each workload shrunk to a tiny graph.

use congest_sim::trace::json::Json;
use rwbc::distributed::approximate;
use rwbc::Centrality;
use rwbc_bench::perf::Scenario;
use rwbc_perfbench::{check, run, scenario, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json has no `{key}` list"),
    }
}

/// `(name, unit)` of each metric a `BENCHMARK.json` list declares.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    entries(doc, key)
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of each metric in a printed result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let doc = Json::parse(line).expect("result line is JSON");
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{line}"
    );
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, body)| {
                assert!(
                    matches!(body.get("value"), Some(Json::Int(_) | Json::Float(_))),
                    "{name} has no numeric value"
                );
                let unit = body.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect(),
        _ => panic!("result line has no metrics object"),
    }
}

fn tiny(workload: &str) -> Scenario {
    let mut sc = scenario(workload, 42).expect("known workload");
    sc.n = 64;
    sc
}

#[test]
fn workloads_match_benchmark_json() {
    let doc = benchmark_json();
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&tiny(workload), 0.0, trace);
            assert_eq!(report.failures, Vec::<String>::new(), "{workload}");
            assert_eq!(
                printed(&report.to_json()),
                declared(&doc, key),
                "{workload} {key}"
            );
        }
    }
}

#[test]
fn perturbed_centrality_fails_the_check() {
    for workload in WORKLOADS {
        let sc = tiny(workload);
        let (graph, config) = (sc.build_graph(), sc.build_config());
        let solved = approximate(&graph, &config).expect("tiny solve");
        check(&solved, Some(&solved), Some(&solved), None).expect("a solve matches itself");

        let mut values = solved.centrality.as_slice().to_vec();
        values[1] = f64::from_bits(values[1].to_bits() ^ 1);
        let mut perturbed = solved.clone();
        perturbed.centrality = Centrality::from_values(values);
        assert!(
            check(&perturbed, Some(&solved), None, None).is_err(),
            "{workload}"
        );
        assert!(
            check(&perturbed, None, Some(&solved), None).is_err(),
            "{workload}"
        );
    }
}

#[test]
fn a_wrong_fingerprint_fails_the_check() {
    let sc = tiny(WORKLOADS[0]);
    let solved = approximate(&sc.build_graph(), &sc.build_config()).expect("tiny solve");
    let (rounds, messages, bits) = rwbc_perfbench::fingerprint(&solved);
    check(&solved, None, None, Some((rounds, messages, bits))).expect("own fingerprint");
    assert!(check(&solved, None, None, Some((rounds + 1, messages, bits))).is_err());
}

#[test]
fn tail_is_the_highest_value_with_ten_above_it() {
    use rwbc_perfbench::{median, tail};
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&values), 90.0);
    assert_eq!(tail(&values[..10]), 10.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}
