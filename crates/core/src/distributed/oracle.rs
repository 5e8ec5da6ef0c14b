//! The exact differential oracle: a sequential replay of the walk phase's
//! keyed draws, fed through the count program's fixed-point quantization
//! and combine, must give `approximate`'s centrality bit for bit.
//!
//! Each walk hop is a pure function of `(draw seed, node, source,
//! remaining, ticket)`, where the ticket counts the tokens that reached
//! that state at that node before, and tokens in one state are
//! exchangeable (DESIGN §8). A stack of tokens processed in any order
//! therefore reproduces the distributed visit counts without a simulator,
//! at every thread count, congestion discipline, repaired fault schedule
//! and checkpoint round. The oracle spells out the draw itself, so a
//! change to the draw stream or to the quantization fails it.

use std::collections::{BTreeMap, HashMap};

use congest_sim::{FaultPlan, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rwbc_graph::generators::{barabasi_albert, connected_gnp, torus_2d};
use rwbc_graph::{Graph, NodeId};

use super::{
    approximate, CongestionDiscipline, DistributedConfig, DistributedRun, SolvePhase, StepSolver,
    Transport,
};
use crate::flow_sum::node_net_flow_sparse;
use crate::monte_carlo::TargetStrategy;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The visit counts `ξ_v^s` (as `s → count` per node `v`) of `k` walks of
/// length `l` from every node but `target`, birth visits included.
fn replay_walks(
    g: &Graph,
    target: NodeId,
    k: usize,
    l: usize,
    seed: u64,
) -> Vec<BTreeMap<NodeId, u64>> {
    let draw_seed = seed ^ 0x9E37_79B9;
    let mut counts = vec![BTreeMap::new(); g.node_count()];
    let mut tickets: HashMap<(NodeId, NodeId, u32), u64> = HashMap::new();
    let mut tokens: Vec<(NodeId, NodeId, u32)> = Vec::new();
    for s in (0..g.node_count()).filter(|&s| s != target) {
        counts[s].insert(s, k as u64);
        tokens.extend(std::iter::repeat_n((s, s, l as u32), k));
    }
    while let Some((v, s, remaining)) = tokens.pop() {
        let ticket = tickets.entry((v, s, remaining)).or_insert(0);
        let mut h = draw_seed;
        for w in [v as u64, s as u64, u64::from(remaining), *ticket] {
            h = splitmix64(h ^ w);
        }
        *ticket += 1;
        let i = ((u128::from(h) * g.degree(v) as u128) >> 64) as usize;
        let next = g.neighbor(v, i);
        if next == target {
            continue;
        }
        *counts[next].entry(s).or_insert(0) += 1;
        if remaining > 1 {
            tokens.push((next, s, remaining - 1));
        }
    }
    counts
}

/// The centrality the pipeline must compute from the replayed counts,
/// with `f` fractional bits.
fn oracle_centrality(g: &Graph, target: NodeId, k: usize, l: usize, seed: u64, f: u8) -> Vec<f64> {
    let n = g.node_count();
    let scale = f64::from(1u32 << f);
    // What every node ships: `round(ξ_v^s / d(v) · 2^F)`, nonzero only.
    let shipped: Vec<Vec<(u32, u64)>> = replay_walks(g, target, k, l, seed)
        .iter()
        .enumerate()
        .map(|(v, row)| {
            row.iter()
                .map(|(&s, &c)| {
                    (
                        s as u32,
                        ((c as f64 / g.degree(v) as f64) * scale).round() as u64,
                    )
                })
                .filter(|&(_, q)| q != 0)
                .collect()
        })
        .collect();
    let value = |q: u64| q as f64 / scale / k as f64;
    let columns: Vec<Vec<(u32, f64)>> = shipped
        .iter()
        .map(|row| row.iter().map(|&(s, q)| (s, value(q))).collect())
        .collect();
    let nf = n as f64;
    (0..n)
        .map(|v| {
            let neighbors = g.neighbors(v).map(|u| columns[u].as_slice());
            let inner = node_net_flow_sparse(v, n, &columns[v], neighbors);
            (inner + (nf - 1.0)) / (nf * (nf - 1.0) / 2.0)
        })
        .collect()
}

/// Asserts that `run`, a finished solve of `cfg` on `g`, equals the
/// oracle bit for bit.
fn assert_equals_oracle(what: &str, g: &Graph, cfg: &DistributedConfig, run: &DistributedRun) {
    let target = match cfg.target {
        TargetStrategy::Fixed(t) => t,
        TargetStrategy::Random => StdRng::seed_from_u64(cfg.seed).gen_range(0..g.node_count()),
    };
    assert_eq!(run.target, target, "{what}: target");
    let (k, l) = (cfg.params.walks_per_node, cfg.params.walk_length);
    let expected = oracle_centrality(g, target, k, l, cfg.seed, run.fixed_point_bits);
    for (v, &want) in expected.iter().enumerate() {
        assert_eq!(
            run.centrality[v].to_bits(),
            want.to_bits(),
            "{what}: node {v} computed {} against the oracle's {want}",
            run.centrality[v]
        );
    }
}

fn config(
    seed: u64,
    (k, l): (usize, usize),
    discipline: CongestionDiscipline,
    transport: Transport,
    sim: SimConfig,
) -> DistributedConfig {
    let mut cfg = DistributedConfig::builder()
        .walks(k)
        .length(l)
        .seed(seed)
        .discipline(discipline)
        .transport(transport)
        .build()
        .unwrap();
    cfg.sim = sim;
    cfg
}

/// Runs `approximate`, asserts that it equals the oracle bit for bit and
/// returns the run.
fn assert_matches_oracle(
    name: &str,
    g: &Graph,
    seed: u64,
    (k, l): (usize, usize),
    discipline: CongestionDiscipline,
    transport: Transport,
    sim: SimConfig,
) -> DistributedRun {
    let cfg = config(seed, (k, l), discipline, transport, sim);
    let run = approximate(g, &cfg).unwrap();
    let what = format!("{name} seed {seed} K {k} l {l} {discipline:?} {transport:?}");
    assert_equals_oracle(&what, g, &cfg, &run);
    run
}

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "er-n64",
            connected_gnp(64, 0.1, 100, &mut StdRng::seed_from_u64(1)).unwrap(),
        ),
        (
            "ba-n80",
            barabasi_albert(80, 2, &mut StdRng::seed_from_u64(2)).unwrap(),
        ),
        ("torus-6x7", torus_2d(6, 7).unwrap()),
    ]
}

#[test]
fn approximate_equals_the_sequential_replay_bit_for_bit() {
    for (name, g) in graphs() {
        for seed in [1, 42, 9001] {
            for kl in [(4, 64), (3, 10), (16, 200)] {
                for discipline in [
                    CongestionDiscipline::HoldAndResend,
                    CongestionDiscipline::Batched,
                ] {
                    for threads in [1, 4] {
                        let sim = SimConfig::default()
                            .with_threads(threads)
                            .with_granularity(1);
                        let transport = Transport::Raw { walk_retries: 0 };
                        assert_matches_oracle(name, &g, seed, kl, discipline, transport, sim);
                    }
                }
            }
        }
    }
}

#[test]
fn repaired_faults_leave_the_replay_unchanged() {
    let lossy = FaultPlan::default()
        .with_drop_probability(0.05)
        .with_duplicate_probability(0.02);
    let corrupt = FaultPlan::default()
        .with_corrupt_probability(0.02)
        .with_drop_probability(0.01);
    for (name, g) in graphs().into_iter().take(2) {
        for (checksums, plan) in [(false, &lossy), (true, &corrupt)] {
            // The frame header and seal need a wider budget than the
            // default leaves.
            let sim = SimConfig::default()
                .with_bandwidth_coeff(16)
                .with_faults(plan.clone());
            let run = assert_matches_oracle(
                name,
                &g,
                42,
                (4, 64),
                CongestionDiscipline::HoldAndResend,
                Transport::Reliable { checksums },
                sim,
            );
            let stats = [&run.walk_stats, &run.count_stats];
            assert!(stats.iter().all(|s| s.dropped > 0), "{name}: no drops");
            assert!(stats.iter().all(|s| s.retransmissions > 0), "{name}");
            if checksums {
                assert!(run.degradation.corrupt_frames_detected > 0, "{name}");
            }
        }
    }
}

#[test]
fn solves_restored_mid_walk_and_mid_count_equal_the_replay() {
    for (name, g) in graphs() {
        for discipline in [
            CongestionDiscipline::HoldAndResend,
            CongestionDiscipline::Batched,
        ] {
            let transport = Transport::Raw { walk_retries: 0 };
            let cfg = config(42, (4, 64), discipline, transport, SimConfig::default());
            // The round the count phase starts at, and the last round.
            let mut reference = StepSolver::new(&g, cfg.clone()).unwrap();
            let mut count_start = None;
            while !reference.step().unwrap() {
                if reference.phase() == SolvePhase::Count && count_start.is_none() {
                    count_start = Some(reference.rounds_completed());
                }
            }
            let count_start = count_start.expect("a count phase");
            let end = reference.rounds_completed();
            for (cut, phase) in [
                (count_start / 2, SolvePhase::Walk),
                (count_start, SolvePhase::Count),
                ((count_start + end) / 2, SolvePhase::Count),
            ] {
                let mut solver = StepSolver::new(&g, cfg.clone()).unwrap();
                while solver.rounds_completed() < cut {
                    solver.step().unwrap();
                }
                let what = format!("{name} {discipline:?} restored at round {cut}");
                assert_eq!(solver.phase(), phase, "{what}");
                let image = solver.checkpoint().unwrap();
                let mut restored = StepSolver::restore(&g, cfg.clone(), &image).unwrap();
                let run = restored.run_to_completion().unwrap();
                assert_equals_oracle(&what, &g, &cfg, run);
            }
        }
    }
}

#[test]
fn partition_tolerance_without_failures_leaves_the_replay_unchanged() {
    for (name, g) in graphs() {
        for discipline in [
            CongestionDiscipline::HoldAndResend,
            CongestionDiscipline::Batched,
        ] {
            let transport = Transport::PartitionTolerant { retries: 1 };
            assert_matches_oracle(
                name,
                &g,
                42,
                (4, 64),
                discipline,
                transport,
                SimConfig::default(),
            );
        }
    }
}

#[test]
fn the_daemon_config_equals_the_replay() {
    // What `rwbc-serve` solves (its `SolverConfig::distributed_config`):
    // K = 4, l = 64, target 0 and the default engine config.
    for seed in [1, 42, 9001] {
        let cfg = DistributedConfig::builder()
            .walks(4)
            .length(64)
            .seed(seed)
            .target(TargetStrategy::Fixed(0))
            .build()
            .unwrap();
        for (name, g) in graphs() {
            let run = approximate(&g, &cfg).unwrap();
            assert_equals_oracle(&format!("{name} seed {seed} daemon"), &g, &cfg, &run);
        }
    }
}
