//! Golden outputs of every pipeline mode on small fixed graphs.
//!
//! Each case runs at t = 1 and t = 4 (granularity 1, so both thread
//! counts really split the nodes) and must reproduce the recorded
//! `(rounds, messages, bits)` fingerprint over all phases, a CRC-32 of
//! the centrality bits, the target, the fitted fixed-point width, the
//! sketch suppression tally and the whole `DegradationReport`. The traced
//! entry point must return the identical run and emit the recorded
//! `(span, rounds)` sequence.

use rand::rngs::StdRng;
use rand::SeedableRng;

use congest_sim::wire::crc32;
use congest_sim::{
    FaultPlan, LinkCorruption, LinkOutage, NodeCrash, SimConfig, TraceEvent, Tracer,
};
use rwbc::distributed::{
    approximate, approximate_traced, CongestionDiscipline, CountMode, DistributedConfig,
    DistributedRun, Transport,
};
use rwbc::monte_carlo::TargetStrategy;
use rwbc_graph::generators::{connected_gnp, fig1_graph, star};
use rwbc_graph::Graph;

/// Records driver spans as `+name` (start) and `-name:rounds` (end).
#[derive(Debug, Default)]
struct Spans(Vec<String>);

impl Tracer for Spans {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::PhaseStart { name } => self.0.push(format!("+{name}")),
            TraceEvent::PhaseEnd { name, rounds, .. } => self.0.push(format!("-{name}:{rounds}")),
            _ => {}
        }
    }

    fn wants_edge_traffic(&self) -> bool {
        false
    }
}

/// What one run must reproduce.
struct Golden {
    fingerprint: (usize, u64, u64),
    centrality_crc: u32,
    target: usize,
    fixed_point_bits: u8,
    sketch_suppressed: u64,
    degradation: &'static str,
    spans: &'static [&'static str],
}

fn centrality_crc(run: &DistributedRun) -> u32 {
    let bytes: Vec<u8> = run
        .centrality
        .as_slice()
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

fn check(graph: &Graph, config: &DistributedConfig, golden: &Golden) {
    for threads in [1, 4] {
        let mut config = config.clone();
        config.sim = config.sim.with_threads(threads).with_granularity(1);
        let run = approximate(graph, &config).unwrap();
        let mut spans = Spans::default();
        let traced = approximate_traced(graph, &config, &mut spans).unwrap();
        assert_eq!(traced, run, "t={threads}: tracing changed the run");
        let observed = format!(
            "Golden {{ fingerprint: {:?}, centrality_crc: {:#010X}, target: {}, \
             fixed_point_bits: {}, sketch_suppressed: {}, degradation: {:?}, spans: &{:?} }}",
            run.fingerprint(),
            centrality_crc(&run),
            run.target,
            run.fixed_point_bits,
            run.sketch_suppressed,
            format!("{:?}", run.degradation),
            spans.0,
        );
        let matches = run.fingerprint() == golden.fingerprint
            && centrality_crc(&run) == golden.centrality_crc
            && run.target == golden.target
            && run.fixed_point_bits == golden.fixed_point_bits
            && run.sketch_suppressed == golden.sketch_suppressed
            && format!("{:?}", run.degradation) == golden.degradation
            && spans.0 == golden.spans;
        assert!(matches, "t={threads}: observed {observed}");
    }
}

fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    connected_gnp(n, p, 100, &mut StdRng::seed_from_u64(seed)).unwrap()
}

fn config(walks: usize, length: usize, seed: u64) -> DistributedConfig {
    DistributedConfig::builder()
        .walks(walks)
        .length(length)
        .seed(seed)
        .build()
        .unwrap()
}

/// A config at bandwidth coefficient 16 (room for the delivery-layer
/// header and seal) under `faults`.
fn framed(walks: usize, length: usize, seed: u64, faults: FaultPlan) -> DistributedConfig {
    let mut c = config(walks, length, seed);
    c.sim = SimConfig::default()
        .with_bandwidth_coeff(16)
        .with_faults(faults);
    c
}

fn sketch(mut c: DistributedConfig) -> DistributedConfig {
    c.count_mode = CountMode::Sketch { precision: 4 };
    c
}

fn elect(mut c: DistributedConfig) -> DistributedConfig {
    c.elect_target = true;
    c
}

fn reliable(mut c: DistributedConfig, checksums: bool) -> DistributedConfig {
    c.transport = Transport::Reliable { checksums };
    c
}

fn retries(mut c: DistributedConfig, walk_retries: usize) -> DistributedConfig {
    c.transport = Transport::Raw { walk_retries };
    c
}

fn tolerant(mut c: DistributedConfig) -> DistributedConfig {
    c.transport = Transport::PartitionTolerant { retries: 3 };
    c
}

fn crash(node: usize, round: usize) -> FaultPlan {
    FaultPlan::default().with_node_crash(NodeCrash {
        node,
        crash_round: round,
        recover_round: None,
    })
}

#[test]
fn clean_exact() {
    check(&gnp(18, 0.3, 77), &config(40, 30, 9), &Golden { fingerprint: (149, 11224, 181940), centrality_crc: 0x0504C9DB, target: 0, fixed_point_bits: 16, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 0, walks_relaunched: 0, walk_subphases: 1, count_cells_missing: 0, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+walk", "-walk:131", "+count", "-count:18"] });
}

#[test]
fn clean_batched_exact() {
    let mut c = config(40, 30, 9);
    c.discipline = CongestionDiscipline::Batched;
    check(&gnp(18, 0.3, 77), &c, &Golden { fingerprint: (68, 5919, 160720), centrality_crc: 0x0504C9DB, target: 0, fixed_point_bits: 16, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 0, walks_relaunched: 0, walk_subphases: 1, count_cells_missing: 0, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+walk", "-walk:50", "+count", "-count:18"] });
}

#[test]
fn clean_sketch() {
    check(&gnp(18, 0.3, 101), &sketch(config(40, 30, 9)), &Golden { fingerprint: (208, 17125, 259406), centrality_crc: 0x7BF74545, target: 0, fixed_point_bits: 16, sketch_suppressed: 135, degradation: "DegradationReport { walks_lost: 0, walks_relaunched: 0, walk_subphases: 1, count_cells_missing: 0, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+walk", "-walk:192", "+count", "-count:16"] });
}

#[test]
fn elected_target_exact() {
    check(&gnp(18, 0.3, 77), &elect(config(40, 30, 7)), &Golden { fingerprint: (205, 15428, 238060), centrality_crc: 0x0433F061, target: 9, fixed_point_bits: 16, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 0, walks_relaunched: 0, walk_subphases: 1, count_cells_missing: 0, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+election", "-election:21", "+walk", "-walk:166", "+count", "-count:18"] });
}

#[test]
fn elected_target_sketch() {
    check(&gnp(18, 0.3, 101), &elect(sketch(config(40, 30, 7))), &Golden { fingerprint: (184, 12369, 189543), centrality_crc: 0x36F4D37D, target: 9, fixed_point_bits: 16, sketch_suppressed: 135, degradation: "DegradationReport { walks_lost: 0, walks_relaunched: 0, walk_subphases: 1, count_cells_missing: 0, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+election", "-election:21", "+walk", "-walk:147", "+count", "-count:16"] });
}

#[test]
fn raw_walk_retries_exact() {
    let (g, _) = fig1_graph(3).unwrap();
    let mut c = retries(config(60, 40, 31), 3);
    c.sim = SimConfig::default().with_faults(FaultPlan::default().with_drop_probability(0.01));
    check(&g, &c, &Golden { fingerprint: (331, 4027, 60158), centrality_crc: 0xB259B5A2, target: 6, fixed_point_bits: 16, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 0, walks_relaunched: 41, walk_subphases: 4, count_cells_missing: 5, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+walk", "-walk:263", "+walk-retry-1", "-walk-retry-1:41", "+walk-retry-2", "-walk-retry-2:8", "+walk-retry-3", "-walk-retry-3:10", "+count", "-count:9"] });
}

#[test]
fn raw_walk_retries_sketch() {
    let mut c = retries(sketch(config(40, 30, 5)), 2);
    c.sim = SimConfig::default().with_faults(FaultPlan::default().with_drop_probability(0.01));
    check(&gnp(18, 0.3, 101), &c, &Golden { fingerprint: (252, 15301, 235634), centrality_crc: 0x360CCD29, target: 5, fixed_point_bits: 16, sketch_suppressed: 118, degradation: "DegradationReport { walks_lost: 4, walks_relaunched: 133, walk_subphases: 3, count_cells_missing: 0, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+walk", "-walk:154", "+walk-retry-1", "-walk-retry-1:49", "+walk-retry-2", "-walk-retry-2:33", "+count", "-count:16"] });
}

#[test]
fn reliable_sketch_under_drops() {
    let faults = FaultPlan::default().with_drop_probability(0.1);
    check(
        &star(8).unwrap(),
        &reliable(sketch(framed(60, 30, 17, faults)), false),
        &Golden { fingerprint: (4003, 18982, 332322), centrality_crc: 0x7C8DD222, target: 5, fixed_point_bits: 16, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 0, walks_relaunched: 0, walk_subphases: 1, count_cells_missing: 0, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+walk", "-walk:3875", "+count", "-count:128"] },
    );
}

#[test]
fn checksummed_exact_under_corruption() {
    let (g, l) = fig1_graph(3).unwrap();
    let faults = FaultPlan::default()
        .with_corrupt_probability(0.05)
        .with_link_corruption(LinkCorruption {
            u: l.left[0],
            v: l.left[1],
            from_round: 5,
            until_round: 15,
        });
    check(&g, &reliable(framed(60, 40, 21, faults), true), &Golden { fingerprint: (2619, 16670, 835458), centrality_crc: 0x26D79452, target: 0, fixed_point_bits: 10, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 0, walks_relaunched: 0, walk_subphases: 1, count_cells_missing: 0, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 454, links_quarantined: 0 }", spans: &["+walk", "-walk:2546", "+count", "-count:73"] });
}

#[test]
fn checksummed_sketch_under_corruption() {
    let faults = FaultPlan::default().with_corrupt_probability(0.05);
    check(
        &gnp(18, 0.3, 101),
        &reliable(sketch(framed(40, 30, 21, faults)), true),
        &Golden { fingerprint: (1364, 42724, 2154491), centrality_crc: 0x3BC9279C, target: 0, fixed_point_bits: 16, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 0, walks_relaunched: 0, walk_subphases: 1, count_cells_missing: 0, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 1218, links_quarantined: 0 }", spans: &["+walk", "-walk:1220", "+count", "-count:144"] },
    );
}

#[test]
fn partition_tolerant_kill() {
    let (g, l) = fig1_graph(3).unwrap();
    check(&g, &tolerant(framed(100, 50, 9, crash(l.left[1], 30))), &Golden { fingerprint: (1121, 17518, 379014), centrality_crc: 0x91E9E554, target: 0, fixed_point_bits: 16, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 35, walks_relaunched: 303, walk_subphases: 4, count_cells_missing: 27, dead_links_detected: [(0, 1), (1, 2), (1, 6)], dead_nodes_detected: [1], components: [ComponentCoverage { nodes: 8, contains_target: true, walks_expected: 700, walks_completed: 700 }, ComponentCoverage { nodes: 1, contains_target: false, walks_expected: 100, walks_completed: 65 }], target_redraws: 0, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+walk", "-walk:705", "+walk-retry-1", "-walk-retry-1:182", "+walk-retry-2", "-walk-retry-2:0", "+walk-retry-3", "-walk-retry-3:0", "+count", "-count:224", "+count-pass-1", "-count-pass-1:10"] });
}

#[test]
fn partition_tolerant_kill_of_the_drawn_target() {
    let (g, _) = fig1_graph(3).unwrap();
    // Seed 11 draws target 2; its death forces a redraw among the
    // survivors, the seeder's second draw.
    check(&g, &tolerant(framed(100, 50, 11, crash(2, 20))), &Golden { fingerprint: (1757, 37155, 827370), centrality_crc: 0x4714A6E0, target: 0, fixed_point_bits: 16, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 100, walks_relaunched: 700, walk_subphases: 2, count_cells_missing: 27, dead_links_detected: [(0, 2), (1, 2), (2, 6)], dead_nodes_detected: [2], components: [ComponentCoverage { nodes: 8, contains_target: true, walks_expected: 700, walks_completed: 700 }, ComponentCoverage { nodes: 1, contains_target: false, walks_expected: 100, walks_completed: 0 }], target_redraws: 1, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+walk", "-walk:1021", "+walk-retry-1", "-walk-retry-1:726", "+count", "-count:10"] });
}

#[test]
fn partition_tolerant_kill_of_the_elected_target() {
    let (g, _) = fig1_graph(3).unwrap();
    // Seed 13 elects target 1; the election draws nothing from the
    // seeder, so the redraw is its first draw.
    check(&g, &elect(tolerant(framed(100, 50, 13, crash(1, 20)))), &Golden { fingerprint: (1754, 36850, 819080), centrality_crc: 0xAF966B54, target: 2, fixed_point_bits: 16, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 100, walks_relaunched: 700, walk_subphases: 2, count_cells_missing: 27, dead_links_detected: [(0, 1), (1, 2), (1, 6)], dead_nodes_detected: [1], components: [ComponentCoverage { nodes: 8, contains_target: true, walks_expected: 700, walks_completed: 700 }, ComponentCoverage { nodes: 1, contains_target: false, walks_expected: 100, walks_completed: 0 }], target_redraws: 1, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+election", "-election:12", "+walk", "-walk:986", "+walk-retry-1", "-walk-retry-1:746", "+count", "-count:10"] });
}

#[test]
fn partition_tolerant_outage_found_by_the_count_phase() {
    // The link fails after the walk phase has drained, so only the count
    // phase (which sees permanent faults from round 0) finds it.
    let (g, l) = fig1_graph(3).unwrap();
    let mut c = tolerant(framed(60, 40, 15, FaultPlan::default()));
    c.target = TargetStrategy::Fixed(l.a);
    c.sim = c
        .sim
        .with_faults(FaultPlan::default().with_link_outage(LinkOutage {
            u: l.left[0],
            v: l.left[1],
            from_round: 100_000,
            until_round: usize::MAX,
        }));
    check(&g, &c, &Golden { fingerprint: (501, 5278, 117144), centrality_crc: 0xC59B39A5, target: 6, fixed_point_bits: 16, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 0, walks_relaunched: 0, walk_subphases: 1, count_cells_missing: 18, dead_links_detected: [(0, 1)], dead_nodes_detected: [], components: [ComponentCoverage { nodes: 9, contains_target: true, walks_expected: 480, walks_completed: 480 }], target_redraws: 0, corrupt_frames_detected: 0, links_quarantined: 0 }", spans: &["+walk", "-walk:267", "+count", "-count:224", "+count-pass-1", "-count-pass-1:10"] });
}

#[test]
fn checksummed_exact_with_a_quarantined_link() {
    // A link that corrupts every frame is quarantined: the cells it owed
    // never arrive, yet the reliable transport reports none missing.
    let (g, l) = fig1_graph(3).unwrap();
    let faults = FaultPlan::default().with_link_corruption(LinkCorruption {
        u: l.left[0],
        v: l.left[1],
        from_round: 0,
        until_round: usize::MAX,
    });
    check(&g, &reliable(framed(60, 40, 23, faults), true), &Golden { fingerprint: (447, 3948, 210296), centrality_crc: 0x1CA11531, target: 3, fixed_point_bits: 10, sketch_suppressed: 0, degradation: "DegradationReport { walks_lost: 229, walks_relaunched: 0, walk_subphases: 1, count_cells_missing: 0, dead_links_detected: [], dead_nodes_detected: [], components: [], target_redraws: 0, corrupt_frames_detected: 28, links_quarantined: 4 }", spans: &["+walk", "-walk:223", "+count", "-count:224"] });
}
