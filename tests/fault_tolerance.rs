//! Fault injection, recovery, and graceful degradation of the full RWBC
//! pipeline: the chaos-engineering counterpart to the clean-model
//! experiments (EXPERIMENTS.md E11).

use rwbc_repro::congest::{FaultPlan, NodeCrash, SimConfig};
use rwbc_repro::graph::generators::fig1_graph;
use rwbc_repro::graph::{Graph, NodeId};
use rwbc_repro::rwbc::accuracy::mean_relative_error;
use rwbc_repro::rwbc::distributed::{approximate, collect_and_solve, DistributedConfig, Transport};
use rwbc_repro::rwbc::exact::newman;
use rwbc_repro::rwbc::monte_carlo::TargetStrategy;

fn fig1_config(seed: u64) -> DistributedConfig {
    DistributedConfig::builder()
        .walks(1200)
        .length(120)
        .seed(seed)
        .target(TargetStrategy::Fixed(0))
        .build()
        .unwrap()
}

/// The acceptance chaos test: Algorithms 1 + 2 over the reliable layer on
/// the Fig. 1 graph with 5% Bernoulli drops must terminate, account for
/// every walk token, and reproduce the fault-free run's headline ranking.
#[test]
fn chaos_reliable_pipeline_recovers_under_five_percent_drops() {
    let (g, labels) = fig1_graph(3).unwrap();

    let mut clean_cfg = fig1_config(11);
    clean_cfg.transport = Transport::Reliable { checksums: false };
    let clean = approximate(&g, &clean_cfg).unwrap();

    let mut chaos_cfg = fig1_config(11);
    chaos_cfg.transport = Transport::Reliable { checksums: false };
    chaos_cfg.sim = SimConfig::default()
        .with_bandwidth_coeff(16)
        .with_faults(FaultPlan::default().with_drop_probability(0.05));
    let chaos = approximate(&g, &chaos_cfg).unwrap();

    // Faults fired, and the delivery layer repaired all of them: every
    // walk token completed (absorbed or truncated), nothing was lost.
    assert!(chaos.walk_stats.dropped > 0, "fault plan never fired");
    assert!(chaos.walk_stats.retransmissions > 0);
    assert_eq!(chaos.degradation.walks_lost, 0, "a walk token was lost");
    assert_eq!(chaos.degradation.count_cells_missing, 0);
    assert!(chaos.degradation.is_clean());

    // The two runs draw different walks (delivery timing perturbs the
    // queues), so compare rankings, not values. Exact RWBC on Fig. 1 has
    // three separated tiers — {A, B} > C > community members (the six
    // members are symmetric, i.e. exactly tied) — so "the top-5 ordering
    // matches" means both runs resolve the same tier order; positions 4+
    // are ties by construction.
    for run in [&clean, &chaos] {
        let bridges_min = run.centrality[labels.a].min(run.centrality[labels.b]);
        let member_max = labels
            .left
            .iter()
            .chain(&labels.right)
            .map(|&m| run.centrality[m])
            .fold(0.0f64, f64::max);
        assert!(
            bridges_min > run.centrality[labels.c],
            "bridge tier must beat C"
        );
        assert!(
            run.centrality[labels.c] > member_max,
            "C must beat every community member: {} vs {}",
            run.centrality[labels.c],
            member_max
        );
    }
    assert_eq!(clean.centrality.top_k(2).len(), 2);
    let floor = 2.0 / g.node_count() as f64;
    assert!(chaos.centrality[labels.c] > 1.1 * floor);

    // Both estimates stay within the accuracy band of the exact answer.
    let exact = newman(&g).unwrap();
    let err = mean_relative_error(&chaos.centrality, &exact);
    assert!(err < 0.25, "chaos-run error {err}");
}

/// Satellite (d): with recovery enabled the estimator stays in the
/// accuracy band at 1% and 5% drops; without recovery the run reports
/// exactly what it lost.
#[test]
fn degradation_band_and_loss_reporting_at_low_drop_rates() {
    let (g, _labels) = fig1_graph(3).unwrap();
    let exact = newman(&g).unwrap();

    for drop_p in [0.01, 0.05] {
        // Recovered path: reliable transport repairs every loss.
        let mut recovered_cfg = fig1_config(21);
        recovered_cfg.transport = Transport::Reliable { checksums: false };
        recovered_cfg.sim = SimConfig::default()
            .with_bandwidth_coeff(16)
            .with_faults(FaultPlan::default().with_drop_probability(drop_p));
        let recovered = approximate(&g, &recovered_cfg).unwrap();
        assert!(recovered.degradation.is_clean(), "drop_p = {drop_p}");
        let err = mean_relative_error(&recovered.centrality, &exact);
        assert!(err < 0.25, "recovered error {err} at drop_p = {drop_p}");

        // Non-recovering path: same faults, raw transport. The estimate
        // may degrade, but the loss must be *reported*, not silent.
        let mut raw_cfg = fig1_config(21);
        raw_cfg.sim =
            SimConfig::default().with_faults(FaultPlan::default().with_drop_probability(drop_p));
        let raw = approximate(&g, &raw_cfg).unwrap();
        assert!(
            raw.degradation.walks_lost > 0 || raw.degradation.count_cells_missing > 0,
            "losses at drop_p = {drop_p} went unreported"
        );
        assert!(!raw.degradation.is_clean());
    }
}

/// Walk-relaunch recovery: at a light drop rate the sub-phase loop wins
/// back most of the lost walks and reports what it relaunched.
#[test]
fn walk_relaunch_recovers_lost_tokens_at_light_loss() {
    let (g, _labels) = fig1_graph(3).unwrap();

    let mut no_retry = fig1_config(31);
    no_retry.sim =
        SimConfig::default().with_faults(FaultPlan::default().with_drop_probability(0.002));
    let baseline = approximate(&g, &no_retry).unwrap();
    assert!(
        baseline.degradation.walks_lost > 0,
        "need some loss to show recovery"
    );
    assert_eq!(baseline.degradation.walk_subphases, 1);

    let mut with_retry = no_retry.clone();
    with_retry.transport = Transport::Raw { walk_retries: 3 };
    let recovered = approximate(&g, &with_retry).unwrap();
    assert!(recovered.degradation.walk_subphases > 1);
    assert!(recovered.degradation.walks_relaunched > 0);
    assert!(
        recovered.degradation.walks_lost < baseline.degradation.walks_lost,
        "relaunching must reduce the loss: {} vs {}",
        recovered.degradation.walks_lost,
        baseline.degradation.walks_lost
    );
}

/// A fault-free run through the new degradation plumbing is exactly the
/// old pipeline: clean report, zero fault counters, identical output for
/// identical config.
#[test]
fn fault_free_runs_report_clean_degradation() {
    let (g, _labels) = fig1_graph(2).unwrap();
    let cfg = fig1_config(41);
    let run = approximate(&g, &cfg).unwrap();
    assert!(run.degradation.is_clean());
    assert_eq!(run.degradation.walk_subphases, 1);
    assert_eq!(run.degradation.walks_relaunched, 0);
    assert_eq!(run.walk_stats.dropped, 0);
    assert_eq!(run.walk_stats.retransmissions, 0);
}

/// Partition-tolerant config for the permanent-failure acceptance tests:
/// small enough to keep CI fast, large enough that one kill is <= 5% of
/// the network (fig1_graph(10) has n = 23).
fn chaos_config(seed: u64, faults: FaultPlan) -> DistributedConfig {
    let mut cfg = DistributedConfig::builder()
        .walks(200)
        .length(60)
        .seed(seed)
        .target(TargetStrategy::Fixed(0))
        .transport(Transport::PartitionTolerant { retries: 3 })
        .build()
        .unwrap();
    cfg.sim = SimConfig::default()
        .with_bandwidth_coeff(16)
        .with_faults(faults);
    cfg
}

/// Exact RWBC on the graph minus one node, mapped back to the original
/// ids (the victim's slot reads 0.0).
fn exact_without(g: &Graph, victim: NodeId) -> Vec<f64> {
    let n = g.node_count();
    let relabel: Vec<Option<NodeId>> = {
        let mut next = 0;
        (0..n)
            .map(|v| {
                if v == victim {
                    None
                } else {
                    next += 1;
                    Some(next - 1)
                }
            })
            .collect()
    };
    let survivor = Graph::from_edges(
        n - 1,
        g.edges()
            .filter_map(|e| Some((relabel[e.u]?, relabel[e.v]?))),
    )
    .unwrap();
    let exact = newman(&survivor).unwrap();
    (0..n)
        .map(|v| relabel[v].map_or(0.0, |w| exact[w]))
        .collect()
}

/// Acceptance: permanently killing <= 5% of the nodes mid-walk must leave
/// a run that completes (no hang, no panic), declares the dead node and
/// every one of its links, fully covers the surviving giant component,
/// and stays within 2x the clean run's approximation error.
#[test]
fn permanent_kill_completes_declares_and_stays_accurate() {
    let (g, labels) = fig1_graph(10).unwrap();
    let n = g.node_count();
    let victim = labels.right[2];

    let clean = approximate(&g, &chaos_config(7, FaultPlan::default())).unwrap();
    assert!(clean.degradation.is_clean());

    let faults = FaultPlan::default().with_node_crash(NodeCrash {
        node: victim,
        crash_round: 40,
        recover_round: None,
    });
    let chaos = approximate(&g, &chaos_config(7, faults)).unwrap();

    // Every dead channel and the dead node itself are declared.
    assert_eq!(chaos.degradation.dead_nodes_detected, vec![victim]);
    assert_eq!(
        chaos.degradation.dead_links_detected.len(),
        g.degree(victim),
        "all of the victim's links must be declared dead"
    );

    // The giant component is everyone else, and recovery finished every
    // one of its walks.
    let giant = chaos
        .degradation
        .components
        .iter()
        .find(|c| c.contains_target)
        .expect("target component");
    assert_eq!(giant.nodes, n - 1);
    assert_eq!(giant.walks_completed, giant.walks_expected);
    assert_eq!(chaos.centrality[victim], 0.0);

    // Accuracy: each run against its own ground truth (the full graph for
    // the clean run, the survivor graph for the chaos run); the chaos-side
    // worst-case error must stay within 2x the clean run's.
    let exact_full = newman(&g).unwrap();
    let exact_surv = exact_without(&g, victim);
    let max_err = |est: &dyn Fn(usize) -> f64, exact: &dyn Fn(usize) -> f64| {
        (0..n)
            .filter(|&v| v != victim)
            .map(|v| (est(v) - exact(v)).abs() / exact(v))
            .fold(0.0f64, f64::max)
    };
    let clean_err = max_err(&|v| clean.centrality[v], &|v| exact_full[v]);
    let chaos_err = max_err(&|v| chaos.centrality[v], &|v| exact_surv[v]);
    assert!(
        chaos_err <= 2.0 * clean_err,
        "chaos error {chaos_err} exceeds 2x clean error {clean_err}"
    );
}

/// Killing bridge node A cuts the left community off from the rest of
/// Fig. 1 (left members have no other outlet). The target sat in that
/// clique, so the run must detect the partition, redraw the target inside
/// the giant component, zero the cut-off side, and report per-component
/// coverage honestly.
#[test]
fn partitioning_kill_redraws_target_and_zeroes_the_lost_side() {
    let (g, labels) = fig1_graph(10).unwrap();
    let faults = FaultPlan::default().with_node_crash(NodeCrash {
        node: labels.a,
        crash_round: 40,
        recover_round: None,
    });
    let run = approximate(&g, &chaos_config(5, faults)).unwrap();

    assert_eq!(run.degradation.dead_nodes_detected, vec![labels.a]);
    // Left clique, the dead bridge itself, and right clique + B + C.
    assert_eq!(run.degradation.components.len(), 3);
    let giant = run
        .degradation
        .components
        .iter()
        .find(|c| c.contains_target)
        .expect("target component");
    assert_eq!(giant.nodes, labels.right.len() + 2);
    assert_eq!(giant.walks_completed, giant.walks_expected);

    // Target 0 was in the cut-off clique: it must have been redrawn among
    // the giant's survivors, and the walks stranded on the lost side are
    // reported, not invented.
    assert!(run.degradation.target_redraws >= 1);
    assert!(
        labels.right.contains(&run.target) || run.target == labels.b || run.target == labels.c,
        "redrawn target {} must be a giant-component node",
        run.target
    );
    assert!(run.degradation.walks_lost > 0, "lost-side walks are gone");
    for &v in labels.left.iter().chain([&labels.a]) {
        assert_eq!(run.centrality[v], 0.0, "node {v} is cut off");
    }
    for &v in labels.right.iter().chain([&labels.b, &labels.c]) {
        assert!(run.centrality[v] > 0.0, "node {v} is in the giant");
    }
}

/// The collection baseline surfaces its own loss counter instead of
/// silently solving a partial topology.
#[test]
fn collect_baseline_reports_missing_edges() {
    let (g, _labels) = fig1_graph(3).unwrap();
    let clean = collect_and_solve(&g, 0, SimConfig::default()).unwrap();
    assert_eq!(clean.edges_missing, 0);
    assert_eq!(clean.edges_collected, g.edge_count());

    // Heavy loss: either some edge record dies (reported) or, if the
    // damage disconnects the rebuilt topology, the solve fails loudly
    // (an `Err` here is the acceptable alternative to a wrong answer).
    let lossy_cfg = SimConfig::default()
        .with_faults(FaultPlan::default().with_drop_probability(0.4))
        .with_seed(17);
    if let Ok(run) = collect_and_solve(&g, 0, lossy_cfg) {
        assert!(run.edges_missing > 0, "40% drops lost nothing?");
    }
}
