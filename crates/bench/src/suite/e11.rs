//! **E11 (extension) — chaos sweep: accuracy and round overhead under
//! faults.** The CONGEST model is reliable; real networks are not. The
//! simulator's [`FaultPlan`] injects Bernoulli drops and scheduled node
//! crashes, and the [`Reliable`](congest_sim::Reliable) adapter repairs
//! them with sequence numbers, cumulative acks, and timeout
//! retransmission. This experiment sweeps the drop rate (raw vs reliable
//! transport) and the number of transient node crashes, reporting the
//! estimator's accuracy, the loss it *accounts for*, and the round
//! overhead the repair costs.

use congest_sim::{FaultPlan, NodeCrash, SimConfig};
use rwbc::accuracy::mean_relative_error;
use rwbc::distributed::{approximate, DistributedConfig, DistributedRun, Transport};
use rwbc::exact::newman;
use rwbc::monte_carlo::TargetStrategy;
use rwbc_graph::Graph;

use crate::table::{fmt2, fmt4, Table};

/// Typed result for one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Bernoulli drop probability.
    pub drop_p: f64,
    /// `"raw"` or `"reliable"`.
    pub transport: &'static str,
    /// Mean relative error vs the exact solver.
    pub mean_err: f64,
    /// Walk tokens lost (death-conservation audit).
    pub walks_lost: u64,
    /// Phase-2 neighbor-count cells that never arrived.
    pub cells_missing: u64,
    /// Frames re-sent by the reliable layer.
    pub retransmissions: u64,
    /// Total rounds (both phases).
    pub rounds: usize,
    /// Rounds relative to the fault-free run of the same transport.
    pub overhead: f64,
}

fn chaos_config(seed: u64, reliable: bool, faults: FaultPlan) -> DistributedConfig {
    let mut cfg = DistributedConfig::builder()
        .walks(800)
        .length(100)
        .seed(seed)
        .target(TargetStrategy::Fixed(0))
        .transport(if reliable {
            Transport::Reliable { checksums: false }
        } else {
            Transport::default()
        })
        .build()
        .expect("params");
    // The constant-size reliable header needs headroom on tiny n; the
    // raw runs use the same budget so the comparison is apples-to-apples.
    cfg.sim = SimConfig::default()
        .with_bandwidth_coeff(16)
        .with_faults(faults);
    cfg
}

fn run_one(g: &Graph, seed: u64, reliable: bool, faults: FaultPlan) -> DistributedRun {
    approximate(g, &chaos_config(seed, reliable, faults)).expect("chaos run")
}

/// Sweeps drop rates over both transports on the Fig. 1 graph.
///
/// # Panics
///
/// Panics on simulation failure.
pub fn drop_sweep(g: &Graph, drop_rates: &[f64], seed: u64) -> Vec<ChaosRow> {
    let exact = newman(g).expect("exact");
    let mut rows = Vec::new();
    for &reliable in &[false, true] {
        let transport = if reliable { "reliable" } else { "raw" };
        let mut clean_rounds = 0usize;
        for &p in drop_rates {
            let run = run_one(
                g,
                seed,
                reliable,
                FaultPlan::default().with_drop_probability(p),
            );
            let rounds = run.total_rounds();
            if p == 0.0 {
                clean_rounds = rounds;
            }
            rows.push(ChaosRow {
                drop_p: p,
                transport,
                mean_err: mean_relative_error(&run.centrality, &exact),
                walks_lost: run.degradation.walks_lost,
                cells_missing: run.degradation.count_cells_missing,
                retransmissions: run.walk_stats.retransmissions + run.count_stats.retransmissions,
                rounds,
                overhead: rounds as f64 / clean_rounds.max(1) as f64,
            });
        }
    }
    rows
}

/// Crashes `count` community members transiently (down for rounds
/// [20, 60)) under reliable transport and measures the recovery.
///
/// # Panics
///
/// Panics on simulation failure.
pub fn crash_sweep(g: &Graph, victims: &[usize], seed: u64) -> Vec<ChaosRow> {
    let exact = newman(g).expect("exact");
    let mut rows = Vec::new();
    let mut clean_rounds = 0usize;
    for count in 0..=victims.len() {
        let mut faults = FaultPlan::default();
        for &node in &victims[..count] {
            faults = faults.with_node_crash(NodeCrash {
                node,
                crash_round: 20,
                recover_round: Some(60),
            });
        }
        let run = run_one(g, seed, true, faults);
        let rounds = run.total_rounds();
        if count == 0 {
            clean_rounds = rounds;
        }
        rows.push(ChaosRow {
            drop_p: count as f64, // reused as the crash count
            transport: "reliable",
            mean_err: mean_relative_error(&run.centrality, &exact),
            walks_lost: run.degradation.walks_lost,
            cells_missing: run.degradation.count_cells_missing,
            retransmissions: run.walk_stats.retransmissions + run.count_stats.retransmissions,
            rounds,
            overhead: rounds as f64 / clean_rounds.max(1) as f64,
        });
    }
    rows
}

/// Runs the full experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let (g, labels) = rwbc_graph::generators::fig1_graph(3).expect("fig1");

    let rates: &[f64] = if quick {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.01, 0.02, 0.05, 0.10]
    };
    let mut drops = Table::new(
        "E11 (extension): accuracy + round overhead vs drop rate (Fig. 1 graph, K = 800, l = 100)",
        [
            "transport",
            "drop p",
            "mean rel err",
            "walks lost",
            "cells missing",
            "retransmits",
            "rounds",
            "rounds/clean",
        ],
    );
    for r in drop_sweep(&g, rates, 1101) {
        drops.add_row([
            r.transport.to_string(),
            fmt2(r.drop_p),
            fmt4(r.mean_err),
            r.walks_lost.to_string(),
            r.cells_missing.to_string(),
            r.retransmissions.to_string(),
            r.rounds.to_string(),
            fmt2(r.overhead),
        ]);
    }
    // The worst sweep cell in full: the derived retransmission and
    // overhead rates put the table's "rounds/clean" column in context.
    let worst_p = *rates.last().unwrap();
    let worst = run_one(
        &g,
        1101,
        true,
        FaultPlan::default().with_drop_probability(worst_p),
    );
    drops.add_note(format!(
        "walk-phase RunStats at drop p = {worst_p:.2}, reliable transport:\n{}",
        worst.walk_stats.summary()
    ));

    let victims: Vec<usize> = if quick {
        labels.left.iter().copied().take(1).collect()
    } else {
        labels
            .left
            .iter()
            .chain(&labels.right)
            .copied()
            .take(3)
            .collect()
    };
    let mut crashes = Table::new(
        "E11b: transient node crashes (down rounds [20, 60)) under reliable transport",
        [
            "crashed nodes",
            "mean rel err",
            "walks lost",
            "cells missing",
            "retransmits",
            "rounds",
            "rounds/clean",
        ],
    );
    for r in crash_sweep(&g, &victims, 1102) {
        crashes.add_row([
            format!("{}", r.drop_p as usize),
            fmt4(r.mean_err),
            r.walks_lost.to_string(),
            r.cells_missing.to_string(),
            r.retransmissions.to_string(),
            r.rounds.to_string(),
            fmt2(r.overhead),
        ]);
    }
    vec![drops, crashes]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwbc_graph::generators::fig1_graph;

    #[test]
    fn reliable_transport_stays_accurate_and_accounted_under_drops() {
        let (g, _) = fig1_graph(2).unwrap();
        let rows = drop_sweep(&g, &[0.0, 0.05], 7);
        for r in &rows {
            assert!(r.mean_err.is_finite());
            if r.transport == "reliable" {
                assert_eq!(r.walks_lost, 0, "{r:?}");
                assert_eq!(r.cells_missing, 0, "{r:?}");
            }
            if r.transport == "raw" && r.drop_p == 0.0 {
                assert_eq!(r.retransmissions, 0);
            }
        }
        // The 5% reliable run pays for its repairs in rounds, not accuracy.
        let rel5 = rows
            .iter()
            .find(|r| r.transport == "reliable" && r.drop_p > 0.0)
            .unwrap();
        assert!(rel5.retransmissions > 0);
        assert!(rel5.overhead > 1.0);
    }

    #[test]
    fn transient_crashes_are_fully_repaired() {
        let (g, labels) = fig1_graph(2).unwrap();
        let rows = crash_sweep(&g, &labels.left[..1], 8);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.walks_lost, 0, "{r:?}");
            assert_eq!(r.cells_missing, 0, "{r:?}");
        }
    }
}
