//! Property-based tests on the live-metrics layer: snapshot content is
//! bit-identical across thread counts, attaching metrics perturbs
//! nothing observable, and the engine's live counters agree with its
//! end-of-run statistics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use congest_sim::algorithms::Flood;
use congest_sim::{EngineMetrics, FaultPlan, Registry, Reliable, SimConfig, Simulator};
use rwbc_graph::generators::random_tree;
use rwbc_graph::Graph;

/// Strategy: a random connected graph big enough (n >= 64) that
/// `threads > 1` actually takes the simulator's parallel path.
fn arb_large_graph() -> impl Strategy<Value = Graph> {
    (64usize..96, 0u64..200, 0usize..40).prop_map(|(n, seed, extra)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_tree(n, &mut rng).unwrap();
        let mut edges = tree.edge_vec();
        let mut tries = 0;
        while edges.len() < tree.edge_count() + extra && tries < 256 {
            tries += 1;
            let u = rand::Rng::gen_range(&mut rng, 0..n);
            let v = rand::Rng::gen_range(&mut rng, 0..n);
            let key = if u < v { (u, v) } else { (v, u) };
            if u != v && !edges.contains(&key) {
                edges.push(key);
            }
        }
        Graph::from_edges(n, edges).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn metrics_snapshot_is_identical_at_any_thread_count(
        g in arb_large_graph(),
        seed in 0u64..50,
        drop_p in 0.0f64..0.3,
        dup_p in 0.0f64..0.2,
    ) {
        // Engine updates land on the single-threaded commit spine, so a
        // fixed (graph, seed, plan) must produce a bit-identical registry
        // snapshot at 1 and 8 threads once the run is quiescent.
        let faults = FaultPlan::default()
            .with_drop_probability(drop_p)
            .with_duplicate_probability(dup_p);
        let run = |threads: usize| {
            let registry = Registry::new();
            let engine = EngineMetrics::register(&registry);
            let cfg = SimConfig::default()
                .with_seed(seed)
                .with_threads(threads)
                // Chunks of 4 nodes, so t=8 gets all 8 workers even on
                // the smallest (64-node) generated graphs.
                .with_granularity(4)
                .with_faults(faults.clone());
            let mut sim = Simulator::new(&g, cfg, |v| Reliable::new(Flood::new(v, 0)))
                .with_metrics(engine);
            let stats = sim.run().unwrap();
            (stats, registry.snapshot())
        };
        let (s1, m1) = run(1);
        let (s8, m8) = run(8);
        prop_assert_eq!(s1, s8);
        prop_assert_eq!(m1, m8);
    }

    #[test]
    fn attaching_metrics_perturbs_nothing(
        g in arb_large_graph(),
        seed in 0u64..50,
        drop_p in 0.0f64..0.3,
    ) {
        // A run with metrics attached must be observably identical —
        // stats, outcomes, checkpoint bytes — to one without.
        let cfg = SimConfig::default()
            .with_seed(seed)
            .with_faults(FaultPlan::default().with_drop_probability(drop_p));
        let run = |with_metrics: bool| {
            let registry = Registry::new();
            let mut sim = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
            if with_metrics {
                sim.set_metrics(EngineMetrics::register(&registry));
            }
            for _ in 0..3 {
                if sim.step().unwrap() {
                    break;
                }
            }
            let image = sim.checkpoint();
            let stats = sim.run().unwrap();
            let informed: Vec<_> = sim.programs().iter().map(Flood::informed_at).collect();
            (image, stats, informed)
        };
        prop_assert_eq!(run(false), run(true));
    }

    #[test]
    fn engine_counters_agree_with_run_stats(
        g in arb_large_graph(),
        seed in 0u64..50,
    ) {
        let registry = Registry::new();
        let mut sim = Simulator::new(
            &g,
            SimConfig::default().with_seed(seed),
            |v| Flood::new(v, 0),
        )
        .with_metrics(EngineMetrics::register(&registry));
        let stats = sim.run().unwrap();
        let snap = registry.snapshot();
        prop_assert_eq!(snap.counter("engine_rounds_total"), Some(stats.rounds as u64));
        prop_assert_eq!(snap.counter("engine_messages_total"), Some(stats.total_messages));
        prop_assert_eq!(snap.counter("engine_bits_total"), Some(stats.total_bits));
        // Everything was delivered: nothing is left in flight.
        prop_assert_eq!(snap.gauge("engine_inbox_depth"), Some(0));
    }
}
