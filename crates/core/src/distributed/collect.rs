//! The trivial distributed baseline the paper contrasts with (Section I):
//! collect the entire topology at a designated node, then solve locally.
//!
//! "Notice that the trivial method that asking a designated node to collect
//! all the other nodes' neighbors information [...] needs `O(m)` time under
//! the CONGEST model." We implement it as a BFS-tree convergecast with
//! pipelining — `O(m + D)` rounds, exact output — and use it (a) as the
//! exact-but-slow baseline in the round-complexity experiments and (b) as
//! the traffic generator for the lower-bound cut experiment E6, since *any*
//! exact algorithm must move the adjacency information across the gadget's
//! small cut.

use std::collections::VecDeque;

use congest_sim::{
    bits_for_node_id, BitSink, Context, Incoming, Message, NodeProgram, SimConfig, Simulator,
    TraceEvent, Tracer,
};
use rwbc_graph::traversal::is_connected;
use rwbc_graph::{Graph, NodeId};

use crate::exact::newman;
use crate::{Centrality, RwbcError};

/// Messages of the collection protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectMsg {
    /// BFS-tree announcement (the sender offers itself as parent).
    Announce,
    /// One edge record being convergecast toward the root.
    Edge(NodeId, NodeId),
}

impl Message for CollectMsg {
    fn write(&self, n: usize, out: &mut impl BitSink) {
        // 1 tag bit, plus two node ids for an edge record.
        match *self {
            CollectMsg::Announce => out.put(0, 1),
            CollectMsg::Edge(u, v) => {
                out.put(1, 1);
                out.put(u as u64, bits_for_node_id(n));
                out.put(v as u64, bits_for_node_id(n));
            }
        }
    }
}

/// Node program: BFS-tree construction interleaved with pipelined upward
/// forwarding of edge records (each undirected edge is reported once, by
/// its smaller endpoint).
#[derive(Debug, Clone)]
pub struct CollectProgram {
    me: NodeId,
    root: NodeId,
    parent: Option<NodeId>,
    announced: bool,
    outqueue: VecDeque<(NodeId, NodeId)>,
    /// Root only: every edge record received.
    collected: Vec<(NodeId, NodeId)>,
}

impl CollectProgram {
    /// Program for node `me` collecting toward `root`.
    pub fn new(me: NodeId, root: NodeId) -> CollectProgram {
        CollectProgram {
            me,
            root,
            parent: if me == root { Some(me) } else { None },
            announced: false,
            outqueue: VecDeque::new(),
            collected: Vec::new(),
        }
    }

    /// The edges gathered at the root (empty on non-root nodes).
    pub fn collected(&self) -> &[(NodeId, NodeId)] {
        &self.collected
    }

    fn enqueue_own_edges(&mut self, ctx: &Context<'_, CollectMsg>) {
        let me = self.me;
        for v in ctx.neighbors() {
            if me < v {
                if self.me == self.root {
                    self.collected.push((me, v));
                } else {
                    self.outqueue.push_back((me, v));
                }
            }
        }
    }

    fn forward_one(&mut self, ctx: &mut Context<'_, CollectMsg>) {
        if self.me == self.root {
            return;
        }
        if let (Some(parent), Some((u, v))) = (self.parent, self.outqueue.pop_front()) {
            ctx.send(parent, CollectMsg::Edge(u, v));
            // Fault bursts (duplication storms) can balloon the relay
            // queue; give the capacity back once the backlog drains so a
            // burst doesn't pin memory for the rest of the run.
            let cap = self.outqueue.capacity();
            if cap > 64 && self.outqueue.len() < cap / 4 {
                self.outqueue.shrink_to(cap / 2);
            }
        }
    }
}

impl NodeProgram for CollectProgram {
    type Msg = CollectMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, CollectMsg>) {
        if self.me == self.root {
            ctx.broadcast(CollectMsg::Announce);
            self.announced = true;
            self.enqueue_own_edges(ctx);
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, CollectMsg>, inbox: &[Incoming<CollectMsg>]) {
        let mut edges_in = 0u64;
        for m in inbox {
            match m.msg {
                CollectMsg::Announce => {
                    if self.parent.is_none() && self.me != self.root {
                        // Inbox is sorted by sender: adopt the smallest-id
                        // announcer, join the tree, start reporting.
                        self.parent = Some(m.from);
                        self.enqueue_own_edges(ctx);
                    }
                }
                CollectMsg::Edge(u, v) => {
                    if self.me == self.root {
                        self.collected.push((u, v));
                        edges_in += 1;
                    } else {
                        self.outqueue.push_back((u, v));
                    }
                }
            }
        }
        if edges_in > 0 && ctx.tracing() {
            ctx.trace(TraceEvent::App {
                round: ctx.round(),
                node: self.me,
                key: "edges_received".to_string(),
                value: edges_in,
            });
        }
        if self.parent.is_some() && !self.announced {
            // The announcement occupies this round's message slot on every
            // incident edge (including the parent edge), so record
            // forwarding waits one round.
            ctx.broadcast(CollectMsg::Announce);
            self.announced = true;
        } else {
            self.forward_one(ctx);
        }
    }

    fn is_terminated(&self) -> bool {
        // Unreachable nodes idle; reached nodes are done once announced
        // with an empty queue. Global termination additionally requires an
        // empty network, so late-arriving records re-activate us.
        self.outqueue.is_empty()
    }
}

/// Result of [`collect_and_solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct CollectRun {
    /// The exact centrality, computed at the root from the gathered
    /// topology.
    pub centrality: Centrality,
    /// Round/traffic statistics — compare `rounds ≈ O(m + D)` against the
    /// approximation algorithm's `O(n log n)`.
    pub stats: congest_sim::RunStats,
    /// Distinct edges gathered at the root (`m` on a fault-free run).
    pub edges_collected: usize,
    /// Edges the root never received (lost to fault injection). When
    /// non-zero the solve ran on a partial topology and `centrality` is
    /// degraded accordingly.
    pub edges_missing: usize,
}

/// Runs the trivial collect-everything baseline and solves exactly at the
/// root.
///
/// # Errors
///
/// * [`RwbcError::TooSmall`] / [`RwbcError::Disconnected`] on invalid
///   graphs;
/// * [`RwbcError::InvalidParameter`] when `root` is out of range;
/// * propagated simulation/solver errors.
pub fn collect_and_solve(
    graph: &Graph,
    root: NodeId,
    sim: SimConfig,
) -> Result<CollectRun, RwbcError> {
    collect_inner(graph, root, sim, None)
}

/// Runs [`collect_and_solve`] with a [`Tracer`] attached, bracketed by a
/// driver-side `collect` span. The root additionally publishes an
/// `edges_received` application counter per round — the per-round view of
/// how the topology funnels toward it (the signal the cut experiment E6
/// meters). The returned [`CollectRun`] is identical to the untraced one.
///
/// # Errors
///
/// Same conditions as [`collect_and_solve`].
pub fn collect_and_solve_traced(
    graph: &Graph,
    root: NodeId,
    sim: SimConfig,
    tracer: &mut dyn Tracer,
) -> Result<CollectRun, RwbcError> {
    collect_inner(graph, root, sim, Some(tracer))
}

fn collect_inner(
    graph: &Graph,
    root: NodeId,
    sim: SimConfig,
    mut tracer: Option<&mut (dyn Tracer + '_)>,
) -> Result<CollectRun, RwbcError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(RwbcError::TooSmall { n });
    }
    if root >= n {
        return Err(RwbcError::InvalidParameter {
            reason: format!("root {root} out of range"),
        });
    }
    if !is_connected(graph) {
        return Err(RwbcError::Disconnected);
    }
    let t0 = super::span_start(tracer.as_deref_mut(), "collect");
    let mut simulator = Simulator::new(graph, sim, |v| CollectProgram::new(v, root));
    if let Some(tr) = tracer.as_deref_mut() {
        simulator = simulator.with_tracer(tr);
    }
    let stats = simulator.run()?;
    // Fault injection can duplicate records (harmless — dedup) or lose
    // them (surfaced as `edges_missing`; the solve proceeds on what
    // arrived, and a disconnecting loss propagates the solver's error).
    let mut edges = simulator.program(root).collected().to_vec();
    edges.sort_unstable();
    edges.dedup();
    let edges_missing = graph.edge_count().saturating_sub(edges.len());
    super::span_end(tracer, "collect", stats.rounds, t0);
    let rebuilt = Graph::from_edges(n, edges.iter().copied())?;
    let centrality = newman(&rebuilt)?;
    Ok(CollectRun {
        centrality,
        stats,
        edges_collected: edges.len(),
        edges_missing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rwbc_graph::generators::{complete, connected_gnp, path, star};

    #[test]
    fn root_reconstructs_the_graph_exactly() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = connected_gnp(20, 0.3, 100, &mut rng).unwrap();
        let run = collect_and_solve(&g, 0, SimConfig::default()).unwrap();
        assert_eq!(run.edges_collected, g.edge_count());
        let exact = newman(&g).unwrap();
        assert!(run.centrality.approx_eq(&exact, 1e-9));
        assert!(run.stats.congest_compliant());
    }

    #[test]
    fn rounds_scale_with_edges_not_n_log_n() {
        // On a complete graph m = Θ(n²): collection must take Ω(m / n)
        // rounds on the root's incident edges alone; in practice Θ(m)
        // through the bottleneck edges.
        let g = complete(12).unwrap();
        let run = collect_and_solve(&g, 0, SimConfig::default()).unwrap();
        // 11 neighbors must deliver ~55 records over 11 edges.
        assert!(run.stats.rounds >= 5);
        assert_eq!(run.edges_collected, 66);
    }

    #[test]
    fn path_collection_is_pipelined() {
        let g = path(30).unwrap();
        let run = collect_and_solve(&g, 0, SimConfig::default()).unwrap();
        // D = 29, m = 29: pipelining keeps rounds near D + queue drain,
        // far below D * m.
        assert!(run.stats.rounds < 100, "rounds {}", run.stats.rounds);
        assert_eq!(run.edges_collected, 29);
    }

    #[test]
    fn star_root_as_leaf_funnels_through_hub() {
        let g = star(6).unwrap();
        let run = collect_and_solve(&g, 3, SimConfig::default()).unwrap();
        assert_eq!(run.edges_collected, 6);
        // All 6 records cross the single hub-to-root edge: >= 6 rounds.
        assert!(run.stats.rounds >= 6);
    }

    #[test]
    fn validation() {
        let g = path(3).unwrap();
        assert!(matches!(
            collect_and_solve(&g, 9, SimConfig::default()),
            Err(RwbcError::InvalidParameter { .. })
        ));
        let disc = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            collect_and_solve(&disc, 0, SimConfig::default()),
            Err(RwbcError::Disconnected)
        ));
    }

    #[test]
    fn message_sizes_fit_budget() {
        let n = 1000;
        let edge = CollectMsg::Edge(999, 998);
        assert_eq!(edge.bit_size(n), 1 + 2 * 10);
        assert!(edge.bit_size(n) <= SimConfig::default().budget_bits(n));
        assert_eq!(CollectMsg::Announce.bit_size(n), 1);
    }
}
