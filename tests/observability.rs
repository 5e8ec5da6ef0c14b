//! End-to-end acceptance of the tracing subsystem: a traced chaos run of
//! the full RWBC pipeline must yield a trace from which per-round cut
//! traffic, per-phase timing, and every fault/repair event can be
//! reconstructed — and tracing must never change what it observes.

use rwbc_repro::congest::trace::jsonl::{decode_trace, encode_event};
use rwbc_repro::congest::trace::TraceProfile;
use rwbc_repro::congest::{
    FaultPlan, JsonlTracer, MemoryTracer, NodeCrash, NoopTracer, SimConfig, TraceEvent,
};
use rwbc_repro::graph::generators::fig1_graph;
use rwbc_repro::rwbc::distributed::{
    approximate, approximate_traced, collect_and_solve, collect_and_solve_traced,
    DistributedConfig, Transport,
};
use rwbc_repro::rwbc::lower_bound::LowerBoundInstance;
use rwbc_repro::rwbc::monte_carlo::TargetStrategy;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn chaos_cfg(seed: u64) -> DistributedConfig {
    let mut cfg = DistributedConfig::builder()
        .walks(400)
        .length(80)
        .seed(seed)
        .target(TargetStrategy::Fixed(0))
        .transport(Transport::Reliable { checksums: false })
        .build()
        .unwrap();
    cfg.sim = SimConfig::default()
        .with_bandwidth_coeff(16)
        .with_faults(FaultPlan::default().with_drop_probability(0.05));
    cfg
}

/// The headline acceptance test: the trace of a chaos run accounts for
/// the run's own stats counters — drops, retransmissions, message and
/// bit totals, and phase structure all reconstructible from events alone.
#[test]
fn traced_chaos_run_reconstructs_the_stats_counters() {
    let (g, _) = fig1_graph(3).unwrap();
    let cfg = chaos_cfg(23);

    let mut tracer = MemoryTracer::new();
    let run = approximate_traced(&g, &cfg, &mut tracer).unwrap();
    let events = tracer.into_events();
    let profile = TraceProfile::from_events(&events);

    // Phase spans cover the whole pipeline, walk before count.
    let names: Vec<&str> = profile.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["walk", "count"]);
    assert_eq!(profile.phases[0].rounds, run.walk_stats.rounds);
    assert_eq!(profile.phases[1].rounds, run.count_stats.rounds);

    // Aggregates rebuilt from events match the simulator's own counters.
    let stats_msgs = run.walk_stats.total_messages + run.count_stats.total_messages;
    let stats_bits = run.walk_stats.total_bits + run.count_stats.total_bits;
    assert_eq!(profile.total_messages(), stats_msgs);
    assert_eq!(profile.total_bits(), stats_bits);
    assert_eq!(
        profile.totals.dropped,
        run.walk_stats.dropped + run.count_stats.dropped
    );
    assert_eq!(
        profile.totals.retransmissions,
        run.walk_stats.retransmissions + run.count_stats.retransmissions
    );
    assert!(profile.totals.dropped > 0, "fault plan never fired");
    assert!(profile.totals.retransmissions > 0);

    // Walk-phase bookkeeping travels as app events: every one of the
    // K walks launched per non-target node terminates exactly once
    // (absorbed or truncated).
    let mut terminated = 0u64;
    for e in &events {
        if let TraceEvent::App { key, value, .. } = e {
            if key == "absorbed" || key == "truncated" {
                terminated += value;
            }
        }
    }
    assert_eq!(
        terminated,
        400 * (g.node_count() as u64 - 1),
        "every walk token must terminate once"
    );
}

/// Crash + recovery events appear in the trace exactly where the fault
/// plan scheduled them.
#[test]
fn node_crash_events_land_on_their_scheduled_rounds() {
    let (g, labels) = fig1_graph(3).unwrap();
    let mut cfg = chaos_cfg(29);
    cfg.sim = cfg.sim.with_faults(
        FaultPlan::default()
            .with_drop_probability(0.02)
            .with_node_crash(NodeCrash {
                node: labels.left[0],
                crash_round: 10,
                recover_round: Some(40),
            }),
    );
    let mut tracer = MemoryTracer::new();
    approximate_traced(&g, &cfg, &mut tracer).unwrap();
    let events = tracer.into_events();
    let down: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::NodeDown { round, node } => Some((*round, *node)),
            _ => None,
        })
        .collect();
    let up: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::NodeUp { round, node } => Some((*round, *node)),
            _ => None,
        })
        .collect();
    assert!(
        down.contains(&(10, labels.left[0])),
        "down events: {down:?}"
    );
    assert!(up.contains(&(40, labels.left[0])), "up events: {up:?}");
}

/// Per-round cut traffic summed from the trace equals the stats' cut
/// totals on the lower-bound gadget (the traced E6 measurement).
#[test]
fn cut_timeline_sums_to_the_metered_cut_totals() {
    let mut rng = StdRng::seed_from_u64(61);
    let inst = LowerBoundInstance::random(4, 2, &mut rng);
    let (graph, labels) = inst.build();
    let cut = labels.alice_bob_cut();
    let sim = SimConfig::default().with_seed(61).with_cut(cut);

    let mut tracer = MemoryTracer::new();
    let run = collect_and_solve_traced(&graph, labels.p, sim.clone(), &mut tracer).unwrap();
    let events = tracer.into_events();
    let profile = TraceProfile::from_events(&events);

    assert_eq!(
        profile
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>(),
        ["collect"]
    );
    let timeline = profile.cut_timeline();
    let timeline_bits: u64 = timeline.iter().map(|&(_, _, b)| b).sum();
    assert!(run.stats.cut.bits > 0, "gadget cut saw no traffic");
    assert_eq!(timeline_bits, run.stats.cut.bits);

    // And tracing the collection did not change it.
    let untraced = collect_and_solve(&graph, labels.p, sim).unwrap();
    assert_eq!(untraced.stats, run.stats);
    assert_eq!(untraced.edges_collected, run.edges_collected);
}

/// The no-op tracer is observationally free through the full pipeline:
/// RunStats from an untraced run and a `NoopTracer` run are identical.
#[test]
fn noop_traced_pipeline_matches_untraced_bit_for_bit() {
    let (g, _) = fig1_graph(2).unwrap();
    let cfg = chaos_cfg(31);
    let plain = approximate(&g, &cfg).unwrap();
    let mut noop = NoopTracer;
    let traced = approximate_traced(&g, &cfg, &mut noop).unwrap();
    assert_eq!(plain.walk_stats, traced.walk_stats);
    assert_eq!(plain.count_stats, traced.count_stats);
    assert_eq!(plain.centrality, traced.centrality);
    assert_eq!(plain.target, traced.target);
}

/// The JSONL sink agrees with the in-memory tracer: writing a pipeline
/// trace to a buffer and decoding it back yields the same events (modulo
/// wall clock), with the meta header first.
#[test]
fn jsonl_sink_round_trips_a_pipeline_trace() {
    let (g, _) = fig1_graph(2).unwrap();
    let cfg = chaos_cfg(37);

    let mut mem = MemoryTracer::new();
    approximate_traced(&g, &cfg, &mut mem).unwrap();

    let mut jsonl = JsonlTracer::new(Vec::new());
    approximate_traced(&g, &cfg, &mut jsonl).unwrap();
    let bytes = jsonl.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();

    let mut decoded = decode_trace(&text).unwrap();
    assert!(matches!(decoded.first(), Some(TraceEvent::Meta { .. })));
    // MemoryTracer does not record the sink's meta header line.
    decoded.remove(0);
    let mut expected = mem.into_events();
    for e in decoded.iter_mut().chain(expected.iter_mut()) {
        e.strip_wall_clock();
    }
    assert_eq!(decoded.len(), expected.len());
    for (a, b) in decoded.iter().zip(&expected) {
        assert_eq!(a, b, "line {}", encode_event(a));
    }
}
