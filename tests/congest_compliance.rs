//! Theorem 4, end to end: the distributed algorithm never violates the
//! CONGEST constraints, across graph families, sizes, parameters, and
//! congestion disciplines — under *strict* enforcement (a violation is a
//! hard error, so these tests fail loudly on any regression).

use rand::rngs::StdRng;
use rand::SeedableRng;

use rwbc_repro::congest::{SimConfig, ViolationPolicy};
use rwbc_repro::graph::generators::{
    barabasi_albert, complete, connected_gnp, cycle, grid_2d, star,
};
use rwbc_repro::rwbc::distributed::{
    approximate, CongestionDiscipline, DistributedConfig, Transport,
};

fn families(seed: u64) -> Vec<rwbc_repro::graph::Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        cycle(20).unwrap(),
        star(15).unwrap(),
        complete(12).unwrap(),
        grid_2d(4, 5).unwrap(),
        barabasi_albert(24, 3, &mut rng).unwrap(),
        connected_gnp(24, 0.3, 100, &mut rng).unwrap(),
    ]
}

#[test]
fn strict_mode_passes_on_every_family_and_discipline() {
    for (i, g) in families(1).into_iter().enumerate() {
        for discipline in [
            CongestionDiscipline::HoldAndResend,
            CongestionDiscipline::Batched,
        ] {
            let cfg = DistributedConfig::builder()
                .walks(8)
                .length(g.node_count())
                .seed(100 + i as u64)
                .discipline(discipline)
                .build()
                .unwrap();
            let run = approximate(&g, &cfg).expect("strict CONGEST run");
            assert!(run.congest_compliant(), "family {i} {discipline:?}");
            assert_eq!(run.walk_stats.violations, 0);
            assert_eq!(run.count_stats.violations, 0);
        }
    }
}

#[test]
fn batched_walks_fit_the_runs_own_budget() {
    // Batches are sized from the run's budget net of the transport's frame
    // header: a narrower coefficient, or the reliable header at the default
    // one, leaves room for fewer tokens than the default raw budget does.
    let mut rng = StdRng::seed_from_u64(5);
    let g = connected_gnp(64, 0.1, 100, &mut rng).unwrap();
    let batched = DistributedConfig::builder()
        .walks(8)
        .length(20)
        .seed(5)
        .discipline(CongestionDiscipline::Batched)
        .build()
        .unwrap();
    let mut narrow = batched.clone();
    narrow.sim = SimConfig::default().with_bandwidth_coeff(4);
    let mut framed = batched;
    framed.transport = Transport::Reliable { checksums: false };
    for (what, cfg) in [("coefficient 4", narrow), ("reliable", framed)] {
        let run = approximate(&g, &cfg).expect(what);
        assert!(run.congest_compliant(), "{what}");
        assert_eq!(run.walk_stats.violations, 0, "{what}");
        assert!(run.walk_stats.max_bits_edge_round <= run.walk_stats.budget_bits);
    }
}

#[test]
fn max_bits_stay_within_budget_with_margin_reported() {
    let g = grid_2d(5, 5).unwrap();
    let cfg = DistributedConfig::builder()
        .walks(16)
        .length(50)
        .seed(3)
        .build()
        .unwrap();
    let run = approximate(&g, &cfg).unwrap();
    let budget = run.walk_stats.budget_bits;
    assert!(run.walk_stats.max_bits_edge_round <= budget);
    assert!(run.count_stats.max_bits_edge_round <= budget);
    // Exactly one message per edge direction per round in both phases.
    assert_eq!(run.walk_stats.max_messages_edge_round, 1);
    assert_eq!(run.count_stats.max_messages_edge_round, 1);
}

#[test]
fn tight_budget_is_handled_by_clamping_fixed_point_bits() {
    // With a minimal bandwidth coefficient the phase-2 fixed-point width
    // must clamp down rather than violate.
    let g = cycle(16).unwrap();
    let mut cfg = DistributedConfig::builder()
        .walks(4)
        .length(16)
        .seed(4)
        .build()
        .unwrap();
    cfg.sim = SimConfig::default().with_bandwidth_coeff(4);
    let run = approximate(&g, &cfg).unwrap();
    assert!(run.fixed_point_bits < 16);
    assert!(run.congest_compliant());
}

#[test]
fn impossible_budget_is_a_clean_error() {
    let g = cycle(16).unwrap();
    let mut cfg = DistributedConfig::builder()
        .walks(64)
        .length(1024)
        .seed(5)
        .build()
        .unwrap();
    cfg.sim = SimConfig::default().with_bandwidth_coeff(1);
    // 1 * ceil(log2 16) = 4 bits: a walk token (id + length) cannot fit.
    let err = approximate(&g, &cfg).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("budget") || msg.contains("bits"),
        "unexpected error: {msg}"
    );
}

#[test]
fn record_mode_measures_what_strict_mode_forbids() {
    // The same overloaded configuration that errors under Strict is
    // measured under Record — used by experiments that quantify overload.
    let g = cycle(16).unwrap();
    let mut cfg = DistributedConfig::builder()
        .walks(64)
        .length(1024)
        .seed(6)
        .build()
        .unwrap();
    cfg.sim = SimConfig::default()
        .with_bandwidth_coeff(1)
        .with_violation_policy(ViolationPolicy::Record);
    match approximate(&g, &cfg) {
        Ok(run) => {
            assert!(
                run.walk_stats.violations > 0 || run.count_stats.violations > 0,
                "record mode should have logged violations"
            );
        }
        // Clamping may still refuse before simulation; also acceptable.
        Err(e) => assert!(e.to_string().contains("budget")),
    }
}

#[test]
fn deterministic_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = connected_gnp(80, 0.1, 200, &mut rng).unwrap();
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let mut cfg = DistributedConfig::builder()
            .walks(4)
            .length(80)
            .seed(8)
            .build()
            .unwrap();
        cfg.sim = SimConfig::default().with_threads(threads);
        runs.push(approximate(&g, &cfg).unwrap());
    }
    assert_eq!(runs[0].centrality, runs[1].centrality);
    assert_eq!(runs[0].walk_stats.total_bits, runs[1].walk_stats.total_bits);
}
