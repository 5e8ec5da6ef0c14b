//! Engine semantics tests: budget enforcement, determinism, parallelism,
//! cut metering, and failure cases.

use congest_sim::{
    bits_for_node_id, Context, Incoming, Message, NodeProgram, SimConfig, SimError, Simulator,
    ViolationPolicy,
};
use rwbc_graph::generators::{complete, cycle, path};
use rwbc_graph::{Graph, NodeId};

/// A message with a declared size of `bits` bits.
#[derive(Debug, Clone)]
struct Fat {
    bits: usize,
}

impl Message for Fat {
    fn bit_size(&self, _n: usize) -> usize {
        self.bits
    }
}

/// Sends one oversized message from node 0 to node 1 and idles.
struct Oversender {
    me: NodeId,
    bits: usize,
    done: bool,
}

impl NodeProgram for Oversender {
    type Msg = Fat;

    fn on_start(&mut self, ctx: &mut Context<'_, Fat>) {
        if self.me == 0 {
            ctx.send(1, Fat { bits: self.bits });
        }
        self.done = true;
    }

    fn on_round(&mut self, _ctx: &mut Context<'_, Fat>, _inbox: &[Incoming<Fat>]) {}

    fn is_terminated(&self) -> bool {
        self.done
    }
}

#[test]
fn oversized_message_rejected_in_strict_mode() {
    let g = path(4).unwrap();
    let budget = SimConfig::default().budget_bits(4);
    let mut sim = Simulator::new(&g, SimConfig::default(), |me| Oversender {
        me,
        bits: budget + 1,
        done: false,
    });
    let err = sim.run().unwrap_err();
    match err {
        SimError::BandwidthExceeded {
            from,
            to,
            bits,
            budget: b,
            ..
        } => {
            assert_eq!((from, to), (0, 1));
            assert_eq!(bits, budget + 1);
            assert_eq!(b, budget);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn oversized_message_recorded_in_record_mode() {
    let g = path(4).unwrap();
    let cfg = SimConfig::default().with_violation_policy(ViolationPolicy::Record);
    let budget = cfg.budget_bits(4);
    let mut sim = Simulator::new(&g, cfg, |me| Oversender {
        me,
        bits: budget + 5,
        done: false,
    });
    let stats = sim.run().unwrap();
    assert_eq!(stats.violations, 1);
    assert!(!stats.congest_compliant());
    assert_eq!(stats.max_bits_edge_round, budget + 5);
}

#[test]
fn message_exactly_at_budget_is_fine() {
    let g = path(4).unwrap();
    let budget = SimConfig::default().budget_bits(4);
    let mut sim = Simulator::new(&g, SimConfig::default(), |me| Oversender {
        me,
        bits: budget,
        done: false,
    });
    let stats = sim.run().unwrap();
    assert!(stats.congest_compliant());
}

/// Sends `count` unit messages to the same neighbor in one round.
struct MultiSender {
    me: NodeId,
    count: usize,
    done: bool,
}

impl NodeProgram for MultiSender {
    type Msg = Fat;

    fn on_start(&mut self, ctx: &mut Context<'_, Fat>) {
        if self.me == 0 {
            for _ in 0..self.count {
                ctx.send(1, Fat { bits: 1 });
            }
        }
        self.done = true;
    }

    fn on_round(&mut self, _ctx: &mut Context<'_, Fat>, _inbox: &[Incoming<Fat>]) {}

    fn is_terminated(&self) -> bool {
        self.done
    }
}

#[test]
fn per_edge_message_limit_enforced() {
    let g = path(3).unwrap();
    let mut sim = Simulator::new(&g, SimConfig::default(), |me| MultiSender {
        me,
        count: 2,
        done: false,
    });
    assert!(matches!(
        sim.run(),
        Err(SimError::TooManyMessages {
            count: 2,
            limit: 1,
            ..
        })
    ));

    // Raising the limit makes the same program legal.
    let cfg = SimConfig::default().with_messages_per_edge(2);
    let mut sim = Simulator::new(&g, cfg, |me| MultiSender {
        me,
        count: 2,
        done: false,
    });
    let stats = sim.run().unwrap();
    assert_eq!(stats.max_messages_edge_round, 2);
}

/// Tries to send to a non-neighbor.
struct BadSender {
    me: NodeId,
    done: bool,
}

impl NodeProgram for BadSender {
    type Msg = Fat;

    fn on_start(&mut self, ctx: &mut Context<'_, Fat>) {
        if self.me == 0 {
            ctx.send(2, Fat { bits: 1 }); // path 0-1-2: 2 is not adjacent to 0
        }
        self.done = true;
    }

    fn on_round(&mut self, _ctx: &mut Context<'_, Fat>, _inbox: &[Incoming<Fat>]) {}

    fn is_terminated(&self) -> bool {
        self.done
    }
}

#[test]
fn send_to_non_neighbor_rejected() {
    let g = path(3).unwrap();
    let mut sim = Simulator::new(&g, SimConfig::default(), |me| BadSender { me, done: false });
    assert!(matches!(
        sim.run(),
        Err(SimError::NotNeighbor { from: 0, to: 2 })
    ));
}

/// The `(from, to, bits)` sends of one scripted round.
type Script = [(NodeId, NodeId, usize)];

/// Sends its scripted `(to, bits)` messages in round 1, in script order.
struct Scripted {
    sends: Vec<(NodeId, usize)>,
}

impl NodeProgram for Scripted {
    type Msg = Fat;

    fn on_start(&mut self, _ctx: &mut Context<'_, Fat>) {}

    fn on_round(&mut self, ctx: &mut Context<'_, Fat>, _inbox: &[Incoming<Fat>]) {
        for (to, bits) in self.sends.drain(..) {
            ctx.send(to, Fat { bits });
        }
    }

    fn is_terminated(&self) -> bool {
        false
    }
}

/// A round that breaks several rules fails with the first error the
/// sequential order meets: senders ascending, each sender's destinations
/// ascending, and each destination's neighbor check before its budget
/// checks. Every thread count and the reference delivery path agree.
#[test]
fn first_error_in_sequential_order_at_every_thread_count() {
    let g = path(64).unwrap();
    let budget = SimConfig::default().budget_bits(64);
    let over = budget + 1;
    let shapes: [(&Script, SimError); 3] = [
        (
            &[(1, 2, over), (40, 10, 1)],
            SimError::BandwidthExceeded {
                from: 1,
                to: 2,
                round: 1,
                bits: over,
                budget,
            },
        ),
        (
            &[(5, 4, over), (5, 30, 1)],
            SimError::BandwidthExceeded {
                from: 5,
                to: 4,
                round: 1,
                bits: over,
                budget,
            },
        ),
        (
            &[(5, 1, 1), (5, 6, over)],
            SimError::NotNeighbor { from: 5, to: 1 },
        ),
    ];
    let paths = [(1, false), (2, false), (4, false), (1, true), (4, true)];
    for (sends, expected) in &shapes {
        for (threads, reference) in paths {
            let cfg = SimConfig::default()
                .with_threads(threads)
                .with_granularity(1);
            let mut sim = Simulator::new(&g, cfg, |me| Scripted {
                sends: sends
                    .iter()
                    .filter(|&&(from, _, _)| from == me)
                    .map(|&(_, to, bits)| (to, bits))
                    .collect(),
            })
            .with_reference_delivery(reference);
            assert_eq!(
                sim.run().unwrap_err(),
                *expected,
                "t = {threads}, reference = {reference}, sends {sends:?}"
            );
        }
    }
}

/// Never terminates: ping-pongs a token forever.
struct PingPong {
    me: NodeId,
}

impl NodeProgram for PingPong {
    type Msg = Fat;

    fn on_start(&mut self, ctx: &mut Context<'_, Fat>) {
        if self.me == 0 {
            ctx.send(1, Fat { bits: 1 });
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Fat>, inbox: &[Incoming<Fat>]) {
        for m in inbox {
            ctx.send(m.from, Fat { bits: 1 });
        }
    }

    fn is_terminated(&self) -> bool {
        false
    }
}

#[test]
fn round_limit_enforced() {
    let g = path(2).unwrap();
    let cfg = SimConfig::default().with_max_rounds(50);
    let mut sim = Simulator::new(&g, cfg, |me| PingPong { me });
    assert!(matches!(
        sim.run(),
        Err(SimError::RoundBudgetExceeded { limit: 50 })
    ));
}

/// Random-walk-ish program used for determinism tests: forwards a token to
/// a uniformly random neighbor for a fixed number of hops, recording its
/// trajectory through visit counts.
#[derive(Debug)]
struct RandomForward {
    me: NodeId,
    visits: u64,
    hops_seen: usize,
    max_hops: usize,
}

impl RandomForward {
    fn new(me: NodeId, max_hops: usize) -> RandomForward {
        RandomForward {
            me,
            visits: 0,
            hops_seen: 0,
            max_hops,
        }
    }
}

impl NodeProgram for RandomForward {
    type Msg = u64; // remaining hops

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if self.me == 0 {
            let d = ctx.degree();
            let i = rand::Rng::gen_range(ctx.rng(), 0..d);
            let to = ctx.neighbor(i);
            ctx.send(to, self.max_hops as u64);
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[Incoming<u64>]) {
        for m in inbox {
            self.visits += 1;
            self.hops_seen += 1;
            if m.msg > 1 {
                let d = ctx.degree();
                let i = rand::Rng::gen_range(ctx.rng(), 0..d);
                let to = ctx.neighbor(i);
                ctx.send(to, m.msg - 1);
            }
        }
    }

    fn is_terminated(&self) -> bool {
        true // passive: run ends when the token dies
    }
}

fn visit_vector(g: &Graph, cfg: SimConfig) -> Vec<u64> {
    let mut sim = Simulator::new(g, cfg, |v| RandomForward::new(v, 40));
    sim.run().unwrap();
    sim.programs().iter().map(|p| p.visits).collect()
}

#[test]
fn runs_are_deterministic_under_fixed_seed() {
    let g = complete(12).unwrap();
    let a = visit_vector(&g, SimConfig::default().with_seed(99));
    let b = visit_vector(&g, SimConfig::default().with_seed(99));
    assert_eq!(a, b);
    let c = visit_vector(&g, SimConfig::default().with_seed(100));
    assert_ne!(a, c, "different seeds should explore different walks");
}

#[test]
fn parallel_execution_matches_sequential() {
    let g = complete(70).unwrap();
    let seq = visit_vector(&g, SimConfig::default().with_seed(5).with_threads(1));
    let par = visit_vector(&g, SimConfig::default().with_seed(5).with_threads(4));
    assert_eq!(seq, par);
}

#[test]
fn cut_meter_counts_crossing_traffic() {
    // Cycle 0-1-2-3-0, cut {(1,2),(3,0)} separates {0,1} from {2,3}.
    let g = cycle(4).unwrap();
    let cfg = SimConfig::default().with_cut(vec![(1, 2), (0, 3)]);
    let mut sim = Simulator::new(&g, cfg, |v| congest_sim::algorithms::Flood::new(v, 0));
    let stats = sim.run().unwrap();
    // Flood sends one message per edge direction: 2 cut edges * 2 = 4.
    assert_eq!(stats.cut.messages, 4);
    assert_eq!(stats.cut.bits, 4); // pulses cost 1 bit
    assert_eq!(stats.total_messages, 8);
}

#[test]
fn empty_program_terminates_immediately() {
    struct Idle;
    impl NodeProgram for Idle {
        type Msg = ();
        fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}
        fn on_round(&mut self, _ctx: &mut Context<'_, ()>, _inbox: &[Incoming<()>]) {}
        fn is_terminated(&self) -> bool {
            true
        }
    }
    let g = path(5).unwrap();
    let mut sim = Simulator::new(&g, SimConfig::default(), |_| Idle);
    let stats = sim.run().unwrap();
    assert_eq!(stats.rounds, 0);
    assert_eq!(stats.total_messages, 0);
}

#[test]
fn budget_bits_reflect_network_size() {
    let g = path(1000).unwrap();
    let mut sim = Simulator::new(&g, SimConfig::default(), |_| PingPong { me: 0 });
    // n = 1000 -> ceil(log2) = 10 -> default coeff 8 -> 80.
    assert_eq!(sim.stats().budget_bits, 80);
    let _ = sim.step();
}

#[test]
fn bits_for_node_id_consistency_with_budget() {
    // A message carrying k node ids fits the default budget when k <= coeff.
    let n = 1 << 16;
    let cfg = SimConfig::default();
    assert!(8 * bits_for_node_id(n) <= cfg.budget_bits(n));
}

#[test]
fn fault_injection_drops_messages_deterministically() {
    use congest_sim::algorithms::Flood;
    let g = complete(10).unwrap();
    let cfg = SimConfig::default().with_seed(3).with_drop_probability(0.5);
    let mut sim = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
    let stats = sim.run().unwrap();
    assert!(
        stats.dropped > 0,
        "50% loss on 90 messages should drop some"
    );
    // Determinism: the same config replays the same losses.
    let mut sim2 = Simulator::new(&g, cfg, |v| Flood::new(v, 0));
    let stats2 = sim2.run().unwrap();
    assert_eq!(stats, stats2);
}

#[test]
fn zero_drop_probability_is_lossless() {
    use congest_sim::algorithms::Flood;
    let g = complete(8).unwrap();
    let cfg = SimConfig::default().with_drop_probability(0.0);
    let mut sim = Simulator::new(&g, cfg, |v| Flood::new(v, 0));
    let stats = sim.run().unwrap();
    assert_eq!(stats.dropped, 0);
    assert!(sim.programs().iter().all(|p| p.informed()));
}

#[test]
fn drop_probability_is_clamped() {
    let cfg = SimConfig::default().with_drop_probability(7.5);
    assert_eq!(cfg.faults.drop_probability, 1.0);
    let cfg = SimConfig::default().with_drop_probability(-1.0);
    assert_eq!(cfg.faults.drop_probability, 0.0);
    let cfg = SimConfig::default().with_drop_probability(f64::NAN);
    assert_eq!(cfg.faults.drop_probability, 0.0);
}

/// Hub program for the star micro-test: sends `per_leaf` sequenced messages
/// to every leaf in one burst, interleaved across destinations so commit
/// must regroup them.
struct StarHub {
    me: NodeId,
    per_leaf: u64,
    done: bool,
}

impl NodeProgram for StarHub {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if self.me == 0 {
            let leaves: Vec<NodeId> = ctx.neighbors().collect();
            for seq in 0..self.per_leaf {
                for &leaf in &leaves {
                    ctx.send(leaf, seq);
                }
            }
        }
        self.done = true;
    }

    fn on_round(&mut self, _ctx: &mut Context<'_, u64>, inbox: &[Incoming<u64>]) {
        if self.me != 0 {
            // Per-destination send order must survive commit's regrouping.
            let got: Vec<u64> = inbox.iter().map(|m| m.msg).collect();
            let want: Vec<u64> = (0..self.per_leaf).collect();
            assert_eq!(got, want, "leaf {} saw a reordered burst", self.me);
        }
    }

    fn is_terminated(&self) -> bool {
        self.done
    }
}

#[test]
fn star_hub_burst_commits_grouped_and_in_order() {
    // A 300-leaf hub emitting interleaved per-leaf bursts exercises the
    // sort-then-group commit path (the old per-message linear destination
    // scan was quadratic in hub degree).
    use rwbc_graph::generators::star;
    let leaves = 300;
    let per_leaf = 3u64;
    let g = star(leaves).unwrap();
    let cfg = SimConfig::default().with_messages_per_edge(per_leaf as usize);
    let mut sim = Simulator::new(&g, cfg, |me| StarHub {
        me,
        per_leaf,
        done: false,
    });
    let stats = sim.run().unwrap();
    assert_eq!(stats.total_messages, leaves as u64 * per_leaf);
    assert_eq!(stats.max_messages_edge_round, per_leaf as usize);
}

#[test]
fn link_outage_blocks_exactly_its_window() {
    use congest_sim::algorithms::Flood;
    use congest_sim::{FaultPlan, LinkOutage};
    let g = path(3).unwrap();
    // The source's only transmission over {0, 1} happens in send round 0;
    // cutting that round partitions the flood.
    let plan = FaultPlan::default().with_link_outage(LinkOutage {
        u: 1,
        v: 0,
        from_round: 0,
        until_round: 1,
    });
    let cfg = SimConfig::default().with_faults(plan);
    let mut sim = Simulator::new(&g, cfg, |v| Flood::new(v, 0));
    let stats = sim.run().unwrap();
    assert_eq!(stats.dropped, 1);
    assert!(!sim.program(1).informed());
    assert!(!sim.program(2).informed());

    // An outage scheduled after the pulse already crossed changes nothing.
    let late = FaultPlan::default().with_link_outage(LinkOutage {
        u: 0,
        v: 1,
        from_round: 5,
        until_round: usize::MAX,
    });
    let cfg = SimConfig::default().with_faults(late);
    let mut sim = Simulator::new(&g, cfg, |v| Flood::new(v, 0));
    let stats = sim.run().unwrap();
    assert_eq!(stats.dropped, 0);
    assert!(sim.programs().iter().all(Flood::informed));
}

#[test]
fn crashed_node_loses_deliveries_and_is_not_stepped() {
    use congest_sim::algorithms::Flood;
    use congest_sim::{FaultPlan, NodeCrash};
    let g = path(3).unwrap();
    // Node 1 is down exactly when the pulse arrives (delivery round 1).
    let plan = FaultPlan::default().with_node_crash(NodeCrash {
        node: 1,
        crash_round: 1,
        recover_round: Some(3),
    });
    let cfg = SimConfig::default().with_faults(plan);
    let mut sim = Simulator::new(&g, cfg, |v| Flood::new(v, 0));
    let stats = sim.run().unwrap();
    assert_eq!(stats.dropped, 1, "the delivery into the crash is lost");
    // The network drains in round 1, so only one crashed round executes.
    assert_eq!(stats.crashed_node_rounds, 1);
    assert!(!sim.program(1).informed());
    assert!(!sim.program(2).informed());
}

#[test]
fn permanently_crashed_node_does_not_block_termination() {
    use congest_sim::algorithms::Flood;
    use congest_sim::{FaultPlan, NodeCrash};
    let g = path(3).unwrap();
    let plan = FaultPlan::default().with_node_crash(NodeCrash {
        node: 2,
        crash_round: 0,
        recover_round: None,
    });
    let cfg = SimConfig::default().with_faults(plan).with_max_rounds(100);
    let mut sim = Simulator::new(&g, cfg, |v| Flood::new(v, 0));
    let stats = sim.run().unwrap();
    assert!(stats.rounds < 100, "run must terminate without node 2");
    assert!(sim.program(1).informed());
    assert!(!sim.program(2).informed());
    assert!(stats.crashed_node_rounds >= 1);
}

#[test]
fn delay_one_always_doubles_flood_informing_times() {
    use congest_sim::algorithms::Flood;
    use congest_sim::FaultPlan;
    let g = path(4).unwrap();
    let plan = FaultPlan::default().with_delay_probability(1.0);
    let cfg = SimConfig::default().with_faults(plan);
    let mut sim = Simulator::new(&g, cfg, |v| Flood::new(v, 0));
    let stats = sim.run().unwrap();
    // Every hop takes two rounds: one in the delay buffer, one in flight.
    for v in 1..4 {
        assert_eq!(sim.program(v).informed_at(), Some(2 * v), "node {v}");
    }
    assert_eq!(stats.delayed, stats.total_messages);
    assert_eq!(stats.dropped, 0);
}

/// Counts how many copies of the pulse arrive at node 1.
struct DupProbe {
    me: NodeId,
    received: usize,
    done: bool,
}

impl NodeProgram for DupProbe {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        if self.me == 0 {
            ctx.send(1, ());
        } else {
            self.done = true;
        }
        if self.me == 0 {
            self.done = true;
        }
    }

    fn on_round(&mut self, _ctx: &mut Context<'_, ()>, inbox: &[Incoming<()>]) {
        self.received += inbox.len();
    }

    fn is_terminated(&self) -> bool {
        self.done
    }
}

/// A node program that panics mid-round, for the worker-panic tests.
struct Grenade {
    me: NodeId,
    victim: NodeId,
}

impl NodeProgram for Grenade {
    type Msg = ();

    fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}

    fn on_round(&mut self, _ctx: &mut Context<'_, ()>, _inbox: &[Incoming<()>]) {
        assert!(
            self.me != self.victim,
            "grenade detonated at node {}",
            self.me
        );
    }

    fn is_terminated(&self) -> bool {
        false
    }
}

#[test]
fn worker_panic_surfaces_as_typed_error() {
    // n >= 64 and threads > 1 forces the thread-pool path, where a panic
    // used to abort via the implicit scope join; it must instead come back
    // as a typed error carrying the payload.
    let g = cycle(70).unwrap();
    let cfg = SimConfig::default().with_threads(4).with_max_rounds(10);
    let mut sim = Simulator::new(&g, cfg, |me| Grenade { me, victim: 13 });
    match sim.run().unwrap_err() {
        SimError::WorkerPanic { round, payload } => {
            assert!(
                payload.contains("grenade detonated at node 13"),
                "payload: {payload}"
            );
            assert!(round <= 10);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn checkpoint_resume_is_bit_identical() {
    use congest_sim::algorithms::Flood;
    let g = cycle(16).unwrap();
    let cfg = SimConfig::default().with_seed(42);

    // Uninterrupted reference run.
    let mut reference = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
    let ref_stats = reference.run().unwrap();
    let ref_informed: Vec<_> = reference
        .programs()
        .iter()
        .map(Flood::informed_at)
        .collect();

    // Interrupted run: a few rounds, checkpoint, drop, restore, finish.
    let mut first = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
    assert!(!first.step().unwrap());
    assert!(!first.step().unwrap());
    let image = first.checkpoint();
    drop(first);
    let mut resumed = Simulator::<Flood>::restore(&g, cfg, &image).unwrap();
    let stats = resumed.run().unwrap();
    let informed: Vec<_> = resumed.programs().iter().map(Flood::informed_at).collect();
    assert_eq!(stats, ref_stats);
    assert_eq!(informed, ref_informed);
}

#[test]
fn checkpoint_resume_preserves_in_flight_faulted_traffic() {
    use congest_sim::algorithms::Flood;
    use congest_sim::FaultPlan;
    // Delays keep messages parked in the delay buffer across the
    // checkpoint boundary; drops consume fault-RNG draws whose stream
    // position must survive serialization.
    let g = complete(10).unwrap();
    let faults = FaultPlan::default()
        .with_drop_probability(0.2)
        .with_delay_probability(0.5);
    let cfg = SimConfig::default().with_seed(7).with_faults(faults);

    let mut reference = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
    let ref_stats = reference.run().unwrap();

    let mut first = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
    assert!(!first.step().unwrap());
    let image = first.checkpoint();
    drop(first);
    let mut resumed = Simulator::<Flood>::restore(&g, cfg, &image).unwrap();
    let stats = resumed.run().unwrap();
    assert_eq!(stats, ref_stats);
}

#[test]
fn restore_rejects_corrupt_images() {
    use congest_sim::algorithms::Flood;
    let g = path(5).unwrap();
    let cfg = SimConfig::default().with_seed(1);
    let mut sim = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
    let _ = sim.step().unwrap();
    let image = sim.checkpoint();

    // A pristine image restores.
    assert!(Simulator::<Flood>::restore(&g, cfg.clone(), &image).is_ok());

    // Truncation.
    assert!(matches!(
        Simulator::<Flood>::restore(&g, cfg.clone(), &image[..image.len() / 2]),
        Err(SimError::CorruptCheckpoint { .. })
    ));

    // Flipped magic word.
    let mut bad = image.to_vec();
    bad[0] ^= 0xFF;
    assert!(matches!(
        Simulator::<Flood>::restore(&g, cfg.clone(), &bad),
        Err(SimError::CorruptCheckpoint { .. })
    ));

    // Seed mismatch between image and config.
    assert!(matches!(
        Simulator::<Flood>::restore(&g, cfg.clone().with_seed(2), &image),
        Err(SimError::CorruptCheckpoint { .. })
    ));

    // Graph size mismatch.
    let bigger = path(6).unwrap();
    assert!(matches!(
        Simulator::<Flood>::restore(&bigger, cfg, &image),
        Err(SimError::CorruptCheckpoint { .. })
    ));
}

#[test]
fn duplicate_one_delivers_every_message_twice() {
    use congest_sim::FaultPlan;
    let g = path(2).unwrap();
    let plan = FaultPlan::default().with_duplicate_probability(1.0);
    let cfg = SimConfig::default().with_faults(plan);
    let mut sim = Simulator::new(&g, cfg, |me| DupProbe {
        me,
        received: 0,
        done: false,
    });
    let stats = sim.run().unwrap();
    assert_eq!(sim.program(1).received, 2);
    assert_eq!(stats.duplicated, 1);
    // The duplicate is a fault artifact: budget accounting saw one send.
    assert_eq!(stats.total_messages, 1);
}
