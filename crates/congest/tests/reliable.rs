//! Integration tests for the reliable-delivery adapter.

use congest_sim::algorithms::Flood;
use congest_sim::{
    FaultPlan, LinkOutage, NodeProgram, Reliable, SimConfig, SimError, Simulator,
    DEFAULT_DEATH_THRESHOLD,
};
use rwbc_graph::generators::{cycle, path, star};

#[test]
fn fault_free_reliable_run_neither_retransmits_nor_suppresses() {
    let g = path(6).unwrap();
    let mut sim = Simulator::new(&g, SimConfig::default(), |v| {
        Reliable::new(Flood::new(v, 0))
    });
    let stats = sim.run().unwrap();
    assert!(sim.programs().iter().all(|p| p.inner().informed()));
    assert_eq!(stats.retransmissions, 0);
    assert_eq!(stats.duplicates_suppressed, 0);
    assert_eq!(stats.dropped, 0);
    // After the application is done, only ack draining remains; the
    // overhead must be small and bounded.
    assert!(
        stats.delivery_overhead_rounds <= 4,
        "overhead {} rounds",
        stats.delivery_overhead_rounds
    );
}

#[test]
fn reliable_flood_survives_heavy_bernoulli_drops() {
    let g = cycle(12).unwrap();
    let faults = FaultPlan::default().with_drop_probability(0.3);
    let cfg = SimConfig::default().with_faults(faults).with_seed(7);
    let mut sim = Simulator::new(&g, cfg, |v| Reliable::new(Flood::new(v, 0)));
    let stats = sim.run().unwrap();
    assert!(
        sim.programs().iter().all(|p| p.inner().informed()),
        "reliable flood must inform every node despite 30% drops"
    );
    assert!(stats.dropped > 0, "the fault plan should have fired");
    assert!(
        stats.retransmissions > 0,
        "drops must have forced retransmissions"
    );
}

#[test]
fn stepped_run_reports_the_same_stats_as_run() {
    let g = cycle(8).unwrap();
    let faults = FaultPlan::default().with_drop_probability(0.3);
    let cfg = SimConfig::default().with_faults(faults).with_seed(11);
    let make = || Simulator::new(&g, cfg.clone(), |v| Reliable::new(Flood::new(v, 0)));
    let run = make().run().unwrap();
    let mut stepped = make();
    while !stepped.step().unwrap() {}
    assert!(run.retransmissions > 0 && run.delivery_overhead_rounds > 0);
    assert_eq!(*stepped.stats(), run);
}

#[test]
fn reliable_flood_survives_duplication_and_delay() {
    let g = path(8).unwrap();
    let faults = FaultPlan::default()
        .with_duplicate_probability(0.5)
        .with_delay_probability(0.3);
    let cfg = SimConfig::default().with_faults(faults).with_seed(3);
    let mut sim = Simulator::new(&g, cfg, |v| Reliable::new(Flood::new(v, 0)));
    let stats = sim.run().unwrap();
    assert!(sim.programs().iter().all(|p| p.inner().informed()));
    assert!(stats.duplicated > 0, "duplication should have fired");
    assert!(
        stats.duplicates_suppressed > 0,
        "fault-injected copies must be filtered before the application"
    );
}

#[test]
fn reliable_flood_rides_out_a_link_outage() {
    // Sever the only edge into the far end of a path for 10 rounds; the
    // retransmission timer must push the token through once the link heals.
    let g = path(5).unwrap();
    let faults = FaultPlan::default().with_link_outage(LinkOutage {
        u: 3,
        v: 4,
        from_round: 0,
        until_round: 10,
    });
    let cfg = SimConfig::default().with_faults(faults);
    let mut sim = Simulator::new(&g, cfg, |v| Reliable::new(Flood::new(v, 0)));
    let stats = sim.run().unwrap();
    assert!(sim.programs().iter().all(|p| p.inner().informed()));
    assert!(stats.rounds > 10, "cannot finish before the link heals");
    assert!(stats.retransmissions > 0);
}

#[test]
fn reliable_star_hub_respects_window_and_budget() {
    // The hub talks to many leaves at once; each channel is independent, so
    // the per-edge CONGEST budget must hold exactly as in the raw run.
    let g = star(16).unwrap();
    let faults = FaultPlan::default().with_drop_probability(0.2);
    let cfg = SimConfig::default().with_faults(faults).with_seed(5);
    let mut sim = Simulator::new(&g, cfg, |v| Reliable::new(Flood::new(v, 0)));
    let stats = sim.run().unwrap();
    assert!(sim.programs().iter().all(|p| p.inner().informed()));
    assert!(stats.congest_compliant(), "reliable layer blew the budget");
    assert_eq!(stats.max_messages_edge_round, 1);
}

/// A permanent outage on a path's last edge: without detection the sender
/// retransmits forever; with detection it declares the channel dead, gives
/// up on the buffered traffic, and the run terminates.
fn permanent_last_edge_outage() -> FaultPlan {
    FaultPlan::default().with_link_outage(LinkOutage {
        u: 2,
        v: 3,
        from_round: 0,
        until_round: usize::MAX,
    })
}

#[test]
fn permanent_outage_without_detection_hits_the_round_budget() {
    let g = path(4).unwrap();
    let cfg = SimConfig::default()
        .with_faults(permanent_last_edge_outage())
        .with_max_rounds(300);
    let mut sim = Simulator::new(&g, cfg, |v| Reliable::new(Flood::new(v, 0)));
    assert!(matches!(
        sim.run(),
        Err(SimError::RoundBudgetExceeded { limit: 300 })
    ));
}

#[test]
fn permanent_outage_is_declared_dead_instead_of_livelocking() {
    let g = path(4).unwrap();
    let cfg = SimConfig::default()
        .with_faults(permanent_last_edge_outage())
        .with_max_rounds(2000);
    let mut sim = Simulator::new(&g, cfg, |v| {
        Reliable::new(Flood::new(v, 0)).with_failure_detection(DEFAULT_DEATH_THRESHOLD)
    });
    let stats = sim.run().unwrap();
    // Node 2 gave up on node 3: the channel is dead, the pulse it buffered
    // is accounted as undeliverable, and the unreachable side stays
    // uninformed while everything else completed.
    assert_eq!(stats.dead_links_declared, 1);
    assert!(stats.undeliverable_messages >= 1);
    assert!(sim.program(2).inner().informed());
    assert!(!sim.program(3).inner().informed());
    assert_eq!(sim.program(2).dead_peers(), vec![3]);
    assert!(sim.program(3).dead_peers().is_empty());
}

#[test]
fn detection_declares_both_directions_on_a_cycle() {
    // On a cycle the flood reaches both endpoints of the severed edge via
    // the other arc, so both sides push into the outage and both declare.
    let g = cycle(8).unwrap();
    let faults = FaultPlan::default().with_link_outage(LinkOutage {
        u: 3,
        v: 4,
        from_round: 0,
        until_round: usize::MAX,
    });
    let cfg = SimConfig::default()
        .with_faults(faults)
        .with_max_rounds(2000);
    let mut sim = Simulator::new(&g, cfg, |v| {
        Reliable::new(Flood::new(v, 0)).with_failure_detection(4)
    });
    let stats = sim.run().unwrap();
    assert_eq!(stats.dead_links_declared, 2);
    assert!(
        sim.programs().iter().all(|p| p.inner().informed()),
        "a cycle minus one edge is still connected"
    );
}

#[test]
fn preseeded_dead_peers_are_not_counted_as_detections() {
    let g = path(3).unwrap();
    let cfg = SimConfig::default().with_max_rounds(500);
    let mut sim = Simulator::new(&g, cfg, |v| {
        // Both endpoints of edge {1, 2} believe the other is already dead
        // (e.g. carried over from an earlier phase's detections).
        let dead = match v {
            1 => vec![2],
            2 => vec![1],
            _ => Vec::new(),
        };
        Reliable::new(Flood::new(v, 0))
            .with_failure_detection(4)
            .with_dead_peers(dead)
    });
    let stats = sim.run().unwrap();
    assert_eq!(
        stats.dead_links_declared, 0,
        "pre-seeded peers are knowledge, not detections"
    );
    assert!(sim.program(1).inner().informed());
    assert!(
        !sim.program(2).inner().informed(),
        "no traffic to a dead peer"
    );
}

#[test]
fn detection_is_inert_on_a_healthy_network() {
    // Arming the detector must not change a fault-free run: no strikes
    // accrue because every frame acks on schedule.
    let g = star(10).unwrap();
    let run = |detect: bool| {
        let mut sim = Simulator::new(&g, SimConfig::default().with_seed(5), |v| {
            let r = Reliable::new(Flood::new(v, 0));
            if detect {
                r.with_failure_detection(1)
            } else {
                r
            }
        });
        let stats = sim.run().unwrap();
        let informed: Vec<_> = sim
            .programs()
            .iter()
            .map(|p| p.inner().informed())
            .collect();
        (stats, informed)
    };
    let (s_plain, i_plain) = run(false);
    let (s_armed, i_armed) = run(true);
    assert_eq!(s_plain, s_armed);
    assert_eq!(i_plain, i_armed);
    assert_eq!(s_armed.dead_links_declared, 0);
}

#[test]
fn reliable_layer_reports_per_node_counters() {
    let g = path(4).unwrap();
    let faults = FaultPlan::default().with_drop_probability(0.25);
    let cfg = SimConfig::default().with_faults(faults).with_seed(2);
    let mut sim = Simulator::new(&g, cfg, |v| Reliable::new(Flood::new(v, 0)));
    let stats = sim.run().unwrap();
    let summed: u64 = sim
        .programs()
        .iter()
        .map(|p| p.reliability_stats().unwrap().retransmissions)
        .sum();
    assert_eq!(stats.retransmissions, summed);
    for p in sim.programs() {
        let rs = p.reliability_stats().unwrap();
        assert!(rs.inner_last_active_round.is_some());
    }
}
