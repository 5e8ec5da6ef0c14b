//! Thread-count invariance of the parallel commit fan-out.
//!
//! The engine's contract is that `threads` (and `granularity`) are pure
//! policy knobs: a fixed `(graph, seed, program, fault plan)` produces
//! bit-identical observable output at any setting. This suite pins that
//! for the chunked fan-out path specifically — per-worker outbox/inbox
//! scratch, scatter arenas, and the single-threaded accounting spine —
//! across t ∈ {1, 2, 4, 8} in four regimes:
//!
//! * **clean** — no faults: the fully parallel scatter/merge path.
//! * **outage** — schedule-driven faults only (link outage + node
//!   crash): still the scatter path, exercising its link-down skip.
//! * **reliable** — `Reliable<Flood>` over Bernoulli drops: the routed
//!   spine plus retransmission traffic.
//! * **chaos** — drops + duplicates + delays on bare `Flood`: every
//!   per-message fault draw happens on the spine.
//!
//! Compared per run: `RunStats`, the full trace event sequence, the
//! metrics registry snapshot, and (for checkpointable programs) the
//! end-of-run checkpoint bytes. A separate test crosses a *mid-run*
//! checkpoint between t1 and t8 in both directions on the scatter path.
//!
//! The untraced spine books each sender from its tally alone, so one
//! more proptest runs untraced: several messages of mixed widths per
//! edge, over a cut, through a link outage and with groups over both
//! budgets under `ViolationPolicy::Record`, against the reference
//! commit.

use std::ops::RangeInclusive;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use congest_sim::algorithms::Flood;
use congest_sim::wire::{BitReader, BitWriter, WireState};
use congest_sim::{
    Context, EngineMetrics, FaultPlan, Incoming, LinkOutage, MemoryTracer, NodeCrash, NodeProgram,
    Registry, Reliable, RunStats, SimConfig, Simulator, TraceEvent, ViolationPolicy,
};
use rwbc_graph::generators::random_tree;
use rwbc_graph::{Graph, NodeId};

/// Strategy: a random connected graph with n in [64, 96) — combined
/// with `granularity = 4`, thread counts up to 8 all genuinely engage
/// the parallel fan-out (8 workers need n ≥ 32).
fn arb_graph() -> impl Strategy<Value = Graph> {
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

fn config(seed: u64, threads: usize, faults: FaultPlan) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_threads(threads)
        .with_granularity(4)
        .with_faults(faults)
}

/// Schedule-only fault plan: no per-message randomness, so the engine
/// keeps the scatter/merge path while links go down and a node crashes
/// and recovers mid-run.
fn outage_plan(g: &Graph) -> FaultPlan {
    let (u, v) = g.edge_vec()[0];
    FaultPlan::default()
        .with_link_outage(LinkOutage {
            u,
            v,
            from_round: 1,
            until_round: 4,
        })
        .with_node_crash(NodeCrash {
            node: g.node_count() - 1,
            crash_round: 2,
            recover_round: Some(5),
        })
}

/// One traced, metered `Flood` run; returns everything observable.
fn flood_run(
    g: &Graph,
    cfg: SimConfig,
) -> (
    RunStats,
    Vec<TraceEvent>,
    congest_sim::metrics::MetricsSnapshot,
    Vec<u8>,
) {
    let registry = Registry::new();
    let engine = EngineMetrics::register(&registry);
    let mut tracer = MemoryTracer::new();
    let mut sim = Simulator::new(g, cfg, |v| Flood::new(v, 0))
        .with_tracer(&mut tracer)
        .with_metrics(engine);
    let stats = sim.run().unwrap();
    let image = sim.checkpoint();
    drop(sim);
    let mut events = tracer.into_events();
    for e in &mut events {
        e.strip_wall_clock();
    }
    (stats, events, registry.snapshot(), image)
}

/// One traced, metered `Reliable<Flood>` run (no checkpoint — the
/// reliable adapter carries no wire state).
fn reliable_run(
    g: &Graph,
    cfg: SimConfig,
) -> (
    RunStats,
    Vec<TraceEvent>,
    congest_sim::metrics::MetricsSnapshot,
) {
    let registry = Registry::new();
    let engine = EngineMetrics::register(&registry);
    let mut tracer = MemoryTracer::new();
    let mut sim = Simulator::new(g, cfg, |v| Reliable::new(Flood::new(v, 0)))
        .with_tracer(&mut tracer)
        .with_metrics(engine);
    let stats = sim.run().unwrap();
    drop(sim);
    let mut events = tracer.into_events();
    for e in &mut events {
        e.strip_wall_clock();
    }
    (stats, events, registry.snapshot())
}

/// Sends every neighbor four 24-bit `u64`s at the start, so every group
/// of the `on_start` wave ties for the run's widest (a `u64` costs its
/// value's width), then a burst in each of its first `rounds_left`
/// rounds: one to three messages of 1 to 24 bits each per neighbor,
/// visiting the neighbors in ascending or descending order, so outboxes
/// arrive sorted and unsorted.
struct Burst {
    rounds_left: u64,
}

impl Burst {
    fn send(
        ctx: &mut Context<'_, u64>,
        counts: RangeInclusive<usize>,
        widths: RangeInclusive<u32>,
    ) {
        let mut neighbors: Vec<NodeId> = ctx.neighbors().collect();
        if rand::Rng::gen_bool(ctx.rng(), 0.5) {
            neighbors.reverse();
        }
        for to in neighbors {
            for _ in 0..rand::Rng::gen_range(ctx.rng(), counts.clone()) {
                let width = rand::Rng::gen_range(ctx.rng(), widths.clone());
                let low = rand::Rng::gen_range(ctx.rng(), 0..1u64 << (width - 1));
                ctx.send(to, (1 << (width - 1)) | low);
            }
        }
    }
}

impl NodeProgram for Burst {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        Burst::send(ctx, 4..=4, 24..=24);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, _inbox: &[Incoming<u64>]) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            Burst::send(ctx, 1..=3, 1..=24);
        }
    }

    fn is_terminated(&self) -> bool {
        self.rounds_left == 0
    }
}

impl WireState for Burst {
    fn encode_state(&self, w: &mut BitWriter) {
        self.rounds_left.encode_state(w);
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<Burst> {
        Some(Burst {
            rounds_left: u64::decode_state(r)?,
        })
    }
}

/// One untraced, metered `Burst` run, through the spine or the
/// reference commit; returns everything observable without a tracer.
fn burst_run(
    g: &Graph,
    cfg: SimConfig,
    rounds: u64,
    reference: bool,
) -> (RunStats, congest_sim::metrics::MetricsSnapshot, Vec<u8>) {
    let registry = Registry::new();
    let engine = EngineMetrics::register(&registry);
    let mut sim = Simulator::new(g, cfg, |_| Burst {
        rounds_left: rounds,
    })
    .with_reference_delivery(reference)
    .with_metrics(engine);
    let stats = sim.run().unwrap();
    (stats, registry.snapshot(), sim.checkpoint())
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Clean and schedule-fault (outage) runs take the scatter/merge
    /// path at t > 1; stats, trace, metrics, and checkpoint bytes must
    /// match the sequential run exactly.
    #[test]
    fn scatter_path_is_thread_count_invariant(
        g in arb_graph(),
        seed in 0u64..50,
        outages in any::<bool>(),
    ) {
        let plan = if outages { outage_plan(&g) } else { FaultPlan::default() };
        // The scatter path only covers fault plans with no per-message
        // randomness; this suite's other proptest covers the rest.
        prop_assert!(!plan.uses_rng());
        let (s1, e1, m1, c1) = flood_run(&g, config(seed, 1, plan.clone()));
        for threads in THREADS {
            let (s, e, m, c) = flood_run(&g, config(seed, threads, plan.clone()));
            prop_assert_eq!(&s1, &s, "stats diverge at {} threads", threads);
            prop_assert_eq!(&e1, &e, "trace diverges at {} threads", threads);
            prop_assert_eq!(&m1, &m, "metrics diverge at {} threads", threads);
            prop_assert_eq!(&c1, &c, "checkpoint diverges at {} threads", threads);
        }
    }

    /// Fault plans with per-message randomness force the routed spine;
    /// the fault RNG draw order — and therefore every drop, duplicate,
    /// and delay — must not depend on the thread count, with and
    /// without a reliable delivery layer on top.
    #[test]
    fn routed_spine_is_thread_count_invariant(
        g in arb_graph(),
        seed in 0u64..50,
        drop_p in 0.01f64..0.3,
        dup_p in 0.0f64..0.2,
        delay_p in 0.0f64..0.2,
    ) {
        let chaos = FaultPlan::default()
            .with_drop_probability(drop_p)
            .with_duplicate_probability(dup_p)
            .with_delay_probability(delay_p);
        prop_assert!(chaos.uses_rng());
        let (s1, e1, m1, c1) = flood_run(&g, config(seed, 1, chaos.clone()));
        let (rs1, re1, rm1) = reliable_run(&g, config(seed, 1, chaos.clone()));
        for threads in THREADS {
            let (s, e, m, c) = flood_run(&g, config(seed, threads, chaos.clone()));
            prop_assert_eq!(&s1, &s, "chaos stats diverge at {} threads", threads);
            prop_assert_eq!(&e1, &e, "chaos trace diverges at {} threads", threads);
            prop_assert_eq!(&m1, &m, "chaos metrics diverge at {} threads", threads);
            prop_assert_eq!(&c1, &c, "chaos checkpoint diverges at {} threads", threads);
            let (rs, re, rm) = reliable_run(&g, config(seed, threads, chaos.clone()));
            prop_assert_eq!(&rs1, &rs, "reliable stats diverge at {} threads", threads);
            prop_assert_eq!(&re1, &re, "reliable trace diverges at {} threads", threads);
            prop_assert_eq!(&rm1, &rm, "reliable metrics diverge at {} threads", threads);
        }
    }

    /// Untraced, the spine books every sender from its tally: message
    /// and bit totals, per-edge maxima and the peak edge, the cut
    /// meter, link-outage drops and `Record` violations of both budgets
    /// must match the reference commit at every thread count.
    #[test]
    fn untraced_tallies_match_the_reference_commit(
        g in arb_graph(),
        seed in 0u64..50,
        rounds in 2u64..6,
    ) {
        let edges = g.edge_vec();
        let outage = edges[edges.len() / 2];
        let cfg = |threads: usize| {
            config(
                seed,
                threads,
                FaultPlan::default().with_link_outage(LinkOutage {
                    u: outage.0,
                    v: outage.1,
                    from_round: 1,
                    until_round: 3,
                }),
            )
            .with_cut(edges.iter().copied().step_by(3).collect())
            .with_messages_per_edge(3)
            .with_violation_policy(ViolationPolicy::Record)
        };
        let (s1, m1, c1) = burst_run(&g, cfg(1), rounds, true);
        prop_assert!(s1.violations > 0 && s1.cut.messages > 0 && s1.dropped > 0);
        prop_assert!(s1.max_messages_edge_round == 4 && s1.max_bits_edge_round > s1.budget_bits);
        // The peak is the first of the `on_start` wave's tied groups.
        prop_assert_eq!(s1.peak_edge, Some((0, g.neighbor_slice(0)[0], 0)));
        for threads in THREADS {
            let (s, m, c) = burst_run(&g, cfg(threads), rounds, false);
            prop_assert_eq!(&s1, &s, "stats diverge at {} threads", threads);
            prop_assert_eq!(&m1, &m, "metrics diverge at {} threads", threads);
            prop_assert_eq!(&c1, &c, "checkpoint diverges at {} threads", threads);
        }
        let (s, m, c) = burst_run(&g, cfg(4), rounds, true);
        prop_assert_eq!(&s1, &s, "the reference diverges at 4 threads");
        prop_assert_eq!(&m1, &m, "the reference's metrics diverge at 4 threads");
        prop_assert_eq!(&c1, &c, "the reference's checkpoint diverges at 4 threads");
    }

    /// A mid-run checkpoint crosses thread counts in both directions on
    /// the scatter path: taken at t1 and resumed at t8, and taken at t8
    /// and resumed at t1, both finish exactly like the uninterrupted t1
    /// run. The worker arenas and group scratch are invisible at round
    /// boundaries.
    #[test]
    fn mid_run_checkpoints_cross_thread_counts(
        g in arb_graph(),
        seed in 0u64..50,
        cut_after in 1usize..4,
    ) {
        let cfg = |threads: usize| config(seed, threads, FaultPlan::default());
        let interrupt = |sim: &mut Simulator<'_, Flood>| {
            let mut steps = 0;
            while steps < cut_after && !sim.step().unwrap() {
                steps += 1;
            }
        };
        let finish = |mut sim: Simulator<'_, Flood>| {
            let stats = sim.run().unwrap();
            (stats, sim.checkpoint())
        };
        let baseline = finish(Simulator::new(&g, cfg(1), |v| Flood::new(v, 0)));
        for (take, resume) in [(1usize, 8usize), (8, 1)] {
            let mut sim = Simulator::new(&g, cfg(take), |v| Flood::new(v, 0));
            interrupt(&mut sim);
            let image = sim.checkpoint();
            drop(sim);
            let resumed = Simulator::<Flood>::restore(&g, cfg(resume), &image).unwrap();
            let (stats, final_image) = finish(resumed);
            prop_assert_eq!(&baseline.0, &stats, "stats diverge t{}→t{}", take, resume);
            prop_assert_eq!(
                &baseline.1,
                &final_image,
                "final checkpoint diverges t{}→t{}",
                take,
                resume
            );
        }
    }
}

/// `RunStats` records the worker count the engine *actually* used, not
/// the one the config asked for: a t8 run on a graph too small to split
/// can no longer masquerade as a parallel data point.
#[test]
fn effective_thread_count_is_recorded_in_stats() {
    let mut rng = StdRng::seed_from_u64(11);
    let g = random_tree(64, &mut rng).unwrap();
    for (threads, granularity, expect) in [
        (1usize, 16usize, 1usize),
        (4, 16, 4),
        (8, 16, 4),   // 64 nodes / 16 per chunk caps at 4 workers
        (8, 8, 8),    // finer chunks release all 8
        (8, 64, 1),   // chunk as big as the graph: sequential
        (8, 4096, 1), // granularity beyond n still means one worker
    ] {
        let cfg = SimConfig::default()
            .with_threads(threads)
            .with_granularity(granularity);
        let mut sim = Simulator::new(&g, cfg, |v| Flood::new(v, 0));
        let stats = sim.run().unwrap();
        assert_eq!(
            stats.effective_threads, expect,
            "threads={threads} granularity={granularity}"
        );
        assert_eq!(stats.granularity, granularity);
    }
}

/// The echoes survive a checkpoint/restore round trip by re-derivation:
/// the image itself never contains them (checkpoint bytes stay
/// thread-count-invariant), so the *restoring* config decides what the
/// resumed run reports.
#[test]
fn restore_rederives_execution_echoes_from_the_restoring_config() {
    let mut rng = StdRng::seed_from_u64(12);
    let g = random_tree(64, &mut rng).unwrap();
    let narrow = SimConfig::default().with_threads(1);
    let mut sim = Simulator::new(&g, narrow.clone(), |v| Flood::new(v, 0));
    sim.step().unwrap();
    let image = sim.checkpoint();
    let wide = narrow.clone().with_threads(8).with_granularity(8);
    let resumed = Simulator::<Flood>::restore(&g, wide, &image).unwrap();
    assert_eq!(resumed.stats().effective_threads, 8);
    assert_eq!(resumed.stats().granularity, 8);
    // The wide restore writes the same image bytes right back.
    assert_eq!(sim.checkpoint(), resumed.checkpoint());
}
