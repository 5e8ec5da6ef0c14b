//! **E12 (extension) — permanent-failure sweep: failure detection,
//! survivor-side recovery, and partition tolerance.** E11 injects faults
//! the reliable layer can outlast; this experiment kills nodes *forever*
//! mid-walk (at most 5% of the network, per the acceptance bar) and runs
//! the partition-tolerant pipeline: the failure detector declares the dead
//! channels, survivors re-sample walks away from them, the target is
//! re-drawn if its component is lost, and the estimate is normalized to
//! the surviving giant component. Accuracy is judged against the exact
//! solver *on the survivor graph* — the right ground truth once part of
//! the network is simply gone.

use congest_sim::{FaultPlan, NodeCrash, SimConfig};
use rwbc::distributed::{approximate, DistributedConfig, DistributedRun, Transport};
use rwbc::exact::newman;
use rwbc::monte_carlo::TargetStrategy;
use rwbc_graph::{Graph, NodeId};

use crate::table::{fmt2, fmt4, Table};

/// Typed result for one kill scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PermRow {
    /// Scenario label (which node class was killed).
    pub scenario: &'static str,
    /// Mean relative error over the surviving giant component, against
    /// exact RWBC of the giant subgraph.
    pub mean_err_giant: f64,
    /// Channels the failure detector declared permanently dead.
    pub dead_links: usize,
    /// Nodes whose every incident channel was declared dead.
    pub dead_nodes: usize,
    /// Connected components of the survivor graph.
    pub components: usize,
    /// Nodes in the giant (estimating) component.
    pub giant_nodes: usize,
    /// Giant-component walk completion, `completed / expected`.
    pub giant_coverage: f64,
    /// Walk tokens lost on cut-off components.
    pub walks_lost: u64,
    /// Times the absorbing target had to be re-drawn among survivors.
    pub target_redraws: usize,
    /// Total rounds across both phases and all recovery sub-phases.
    pub rounds: usize,
}

fn perm_config(seed: u64, walks: usize, length: usize, faults: FaultPlan) -> DistributedConfig {
    let mut cfg = DistributedConfig::builder()
        .walks(walks)
        .length(length)
        .seed(seed)
        .target(TargetStrategy::Fixed(0))
        .transport(Transport::PartitionTolerant { retries: 3 })
        .build()
        .expect("params");
    cfg.sim = SimConfig::default()
        .with_bandwidth_coeff(16)
        .with_faults(faults);
    cfg
}

/// Exact RWBC of the giant component's induced subgraph, mapped back to
/// original node ids (non-members read 0.0).
fn giant_exact(g: &Graph, members: &[NodeId]) -> Vec<f64> {
    let n = g.node_count();
    let mut relabel: Vec<Option<NodeId>> = vec![None; n];
    for (i, &v) in members.iter().enumerate() {
        relabel[v] = Some(i);
    }
    let sub = Graph::from_edges(
        members.len(),
        g.edges()
            .filter_map(|e| Some((relabel[e.u]?, relabel[e.v]?))),
    )
    .expect("giant subgraph");
    let exact = newman(&sub).expect("exact on giant");
    (0..n)
        .map(|v| relabel[v].map_or(0.0, |w| exact[w]))
        .collect()
}

/// Distills one run into a [`PermRow`].
fn summarize(g: &Graph, scenario: &'static str, run: &DistributedRun) -> PermRow {
    let giant = run
        .degradation
        .components
        .iter()
        .max_by_key(|c| c.nodes)
        .expect("at least one component");
    // The giant's members are exactly the non-dead nodes of its component;
    // recover them from the survivor topology the report describes.
    let dead: std::collections::BTreeSet<(NodeId, NodeId)> = run
        .degradation
        .dead_links_detected
        .iter()
        .copied()
        .collect();
    let survivor = Graph::from_edges(
        g.node_count(),
        g.edges()
            .filter(|e| !dead.contains(&(e.u.min(e.v), e.u.max(e.v))))
            .map(|e| (e.u, e.v)),
    )
    .expect("survivor graph");
    let comp = rwbc_graph::traversal::connected_components(&survivor).0;
    let giant_id = comp[run.target];
    let members: Vec<NodeId> = (0..g.node_count())
        .filter(|&v| comp[v] == giant_id)
        .collect();
    let exact = giant_exact(g, &members);
    let mean_err_giant = members
        .iter()
        .map(|&v| (run.centrality[v] - exact[v]).abs() / exact[v])
        .sum::<f64>()
        / members.len() as f64;
    PermRow {
        scenario,
        mean_err_giant,
        dead_links: run.degradation.dead_links_detected.len(),
        dead_nodes: run.degradation.dead_nodes_detected.len(),
        components: run.degradation.components.len(),
        giant_nodes: giant.nodes,
        giant_coverage: giant.walks_completed as f64 / giant.walks_expected.max(1) as f64,
        walks_lost: run.degradation.walks_lost,
        target_redraws: run.degradation.target_redraws,
        rounds: run.total_rounds(),
    }
}

/// Runs the permanent-kill scenarios on the Fig. 1 graph (`n = 23`, one
/// kill = 4.3% of the network).
///
/// # Panics
///
/// Panics on simulation failure.
pub fn kill_sweep(walks: usize, length: usize, seed: u64, quick: bool) -> Vec<PermRow> {
    let (g, labels) = rwbc_graph::generators::fig1_graph(10).expect("fig1");
    let kill = |node: NodeId| {
        FaultPlan::default().with_node_crash(NodeCrash {
            node,
            crash_round: 40,
            recover_round: None,
        })
    };
    let mut scenarios: Vec<(&'static str, FaultPlan)> = vec![
        ("none", FaultPlan::default()),
        ("community member", kill(labels.right[2])),
    ];
    if !quick {
        // C's death leaves the graph connected (A-B picks up the flow);
        // A's death severs the left community and forces a target redraw.
        scenarios.push(("center C (no partition)", kill(labels.c)));
        scenarios.push(("bridge A (partitions)", kill(labels.a)));
    }
    scenarios
        .into_iter()
        .map(|(name, faults)| {
            let run = approximate(&g, &perm_config(seed, walks, length, faults))
                .expect("permanent-failure run");
            summarize(&g, name, &run)
        })
        .collect()
}

/// Runs the full experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let (walks, length) = if quick { (150, 50) } else { (400, 80) };
    let mut table = Table::new(
        "E12 (extension): permanent kills mid-walk, partition-tolerant pipeline \
         (Fig. 1 graph, n = 23, kill at round 40)",
        [
            "killed",
            "mean rel err (giant)",
            "dead links",
            "dead nodes",
            "components",
            "giant n",
            "giant coverage",
            "walks lost",
            "redraws",
            "rounds",
        ],
    );
    for r in kill_sweep(walks, length, 1201, quick) {
        table.add_row([
            r.scenario.to_string(),
            fmt4(r.mean_err_giant),
            r.dead_links.to_string(),
            r.dead_nodes.to_string(),
            r.components.to_string(),
            r.giant_nodes.to_string(),
            fmt2(r.giant_coverage),
            r.walks_lost.to_string(),
            r.target_redraws.to_string(),
            r.rounds.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permanent_kill_is_declared_and_giant_fully_covered() {
        let rows = kill_sweep(250, 50, 9, true);
        assert_eq!(rows.len(), 2);
        let clean = &rows[0];
        assert_eq!(clean.dead_links, 0);
        assert_eq!(clean.components, 1);
        assert_eq!(clean.giant_nodes, 23);
        assert!((clean.giant_coverage - 1.0).abs() < 1e-12);
        let killed = &rows[1];
        assert_eq!(killed.dead_nodes, 1);
        assert_eq!(killed.dead_links, 10, "all ten incident links declared");
        assert_eq!(killed.giant_nodes, 22);
        assert!((killed.giant_coverage - 1.0).abs() < 1e-12);
        assert!(killed.mean_err_giant.is_finite());
        // Acceptance bar: within 2.5x the clean run's giant error. Losing
        // a community member discards its walks and re-samples them under
        // recovery, which roughly doubles the giant-component error; the
        // ratio sits at 1.9-2.25 across seeds, so 2.5x is the qualitative
        // "same regime" bound with honest headroom.
        assert!(
            killed.mean_err_giant <= 2.5 * clean.mean_err_giant.max(1e-3),
            "killed {} vs clean {}",
            killed.mean_err_giant,
            clean.mean_err_giant
        );
    }
}
