//! Regression coverage for the engine's allocation-free delivery fast
//! path.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Fast path ≡ reference commit.** The engine's one round path —
//!    prepare → book spine, commit fan-out and double-buffered inboxes —
//!    must be observationally identical to the pre-optimization
//!    per-group-allocation commit (kept as
//!    `Simulator::with_reference_delivery`): same stats, same trace event
//!    sequence, same checkpoint bytes — under faults, at any thread
//!    count, and across checkpoint/restore boundaries. The reference is
//!    an oracle for the commit only: the node callbacks run the same way
//!    on both, and the reference itself runs at t = 1 and t = 4.
//! 2. **Only the current checkpoint version restores.** An image of any
//!    other version gets a typed error naming its version, never a
//!    misdecode.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use congest_sim::algorithms::Flood;
use congest_sim::{FaultPlan, MemoryTracer, RunStats, SimConfig, SimError, Simulator, TraceEvent};
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

/// One complete traced run; returns (stats, events, final checkpoint).
fn full_run(
    g: &Graph,
    cfg: SimConfig,
    reference: bool,
) -> (congest_sim::RunStats, Vec<TraceEvent>, Vec<u8>) {
    let mut tracer = MemoryTracer::new();
    let mut sim = Simulator::new(g, cfg, |v| Flood::new(v, 0))
        .with_reference_delivery(reference)
        .with_tracer(&mut tracer);
    let stats = sim.run().unwrap();
    let image = sim.checkpoint();
    drop(sim);
    let mut events = tracer.into_events();
    for e in &mut events {
        e.strip_wall_clock();
    }
    (stats, events, image)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fast path must be byte-identical to the reference delivery
    /// implementation: aggregate stats, the full trace event sequence,
    /// and the end-of-run checkpoint image, under faults and at 1, 4,
    /// and 8 threads (the latter two through the parallel commit
    /// fan-out) — and so must the reference itself at 4 threads.
    #[test]
    fn fast_path_matches_reference_delivery(
        g in arb_large_graph(),
        seed in 0u64..50,
        drop_p in 0.0f64..0.3,
        dup_p in 0.0f64..0.2,
        delay_p in 0.0f64..0.2,
    ) {
        let faults = FaultPlan::default()
            .with_drop_probability(drop_p)
            .with_duplicate_probability(dup_p)
            .with_delay_probability(delay_p);
        let cfg = |threads: usize| {
            SimConfig::default()
                .with_seed(seed)
                .with_threads(threads)
                // Chunks of 4 nodes: even at 8 threads on a 64-node
                // graph every worker really runs.
                .with_granularity(4)
                .with_faults(faults.clone())
        };
        let (ref_stats, ref_events, ref_image) = full_run(&g, cfg(1), true);
        for (threads, reference) in [(1usize, false), (4, false), (8, false), (4, true)] {
            let (stats, events, image) = full_run(&g, cfg(threads), reference);
            prop_assert_eq!(&ref_stats, &stats, "stats diverge at {} threads", threads);
            prop_assert_eq!(ref_events.len(), events.len());
            for (i, (a, b)) in ref_events.iter().zip(&events).enumerate() {
                prop_assert_eq!(a, b, "event {} diverges at {} threads", i, threads);
            }
            prop_assert_eq!(&ref_image, &image, "checkpoints diverge at {} threads", threads);
        }
    }

    /// A checkpoint written mid-run by the reference implementation must
    /// restore and finish identically under the fast path (and vice
    /// versa): the scratch buffers are invisible at round boundaries.
    #[test]
    fn mid_run_checkpoints_cross_between_implementations(
        g in arb_large_graph(),
        seed in 0u64..50,
        drop_p in 0.0f64..0.3,
    ) {
        let faults = FaultPlan::default().with_drop_probability(drop_p);
        let cfg = SimConfig::default().with_seed(seed).with_faults(faults);
        let finish = |mut sim: Simulator<'_, Flood>| -> (RunStats, Vec<u8>) {
            let stats = sim.run().unwrap();
            (stats, sim.checkpoint())
        };
        // Reference run, interrupted after (up to) two rounds — under
        // heavy drops an unreliable flood can die out even sooner.
        let interrupt = |sim: &mut Simulator<'_, Flood>| {
            let mut steps = 0;
            while steps < 2 && !sim.step().unwrap() {
                steps += 1;
            }
        };
        let mut first = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0))
            .with_reference_delivery(true);
        interrupt(&mut first);
        let image = first.checkpoint();
        let (ref_stats, ref_final) = finish(first);
        // ...finishes the same on the fast path (restore defaults to it)...
        let resumed = Simulator::<Flood>::restore(&g, cfg.clone(), &image).unwrap();
        let (fast_stats, fast_final) = finish(resumed);
        prop_assert_eq!(&ref_stats, &fast_stats);
        prop_assert_eq!(&ref_final, &fast_final);
        // ...finishes the same when the t1 image resumes under the
        // 8-thread parallel fan-out (thread count is a policy knob a
        // restore may change freely)...
        let wide = cfg.clone().with_threads(8).with_granularity(4);
        let resumed = Simulator::<Flood>::restore(&g, wide, &image).unwrap();
        let (wide_stats, wide_final) = finish(resumed);
        prop_assert_eq!(&ref_stats, &wide_stats);
        prop_assert_eq!(&ref_final, &wide_final);
        // ...and the fast path emits the very same mid-run image.
        let mut fast = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
        interrupt(&mut fast);
        prop_assert_eq!(&image, &fast.checkpoint());
    }
}

/// Images of any version but the current one — older layouts included —
/// are rejected with a typed error naming the version, not misdecoded.
#[test]
fn old_checkpoint_versions_get_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = random_tree(8, &mut rng).unwrap();
    let cfg = SimConfig::default().with_seed(17);
    let sim = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
    let mut image = sim.checkpoint();
    // The version is a big-endian u64 right after the magic word.
    assert_eq!(image[8..16], 4u64.to_be_bytes());
    for version in [1u64, 2, 3, 5, 999] {
        image[8..16].copy_from_slice(&version.to_be_bytes());
        match Simulator::<Flood>::restore(&g, cfg.clone(), &image) {
            Err(SimError::CorruptCheckpoint { reason }) => {
                assert!(reason.contains(&format!("version {version}")), "{reason}");
            }
            other => panic!("version {version}: expected CorruptCheckpoint, got {other:?}"),
        }
    }
}
