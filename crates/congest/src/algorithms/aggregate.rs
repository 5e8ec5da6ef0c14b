use rwbc_graph::NodeId;

use crate::{bits_for_count, BitSink, Context, Incoming, Message, NodeProgram};

/// The associative, commutative reduction to convergecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// Sum of all inputs.
    Sum,
    /// Maximum of all inputs.
    Max,
    /// Minimum of all inputs.
    Min,
}

impl AggregateOp {
    fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            AggregateOp::Sum => a + b,
            AggregateOp::Max => a.max(b),
            AggregateOp::Min => a.min(b),
        }
    }
}

/// Messages of the aggregation protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMsg {
    /// BFS-tree announcement (sender offers itself as parent).
    Announce,
    /// Unicast from a child to its chosen parent: "count me".
    Register,
    /// A completed subtree's aggregate flowing to the parent.
    Partial(u64),
}

impl Message for AggMsg {
    fn write(&self, _n: usize, out: &mut impl BitSink) {
        // 2 tag bits, plus the value for partials.
        match self {
            AggMsg::Announce => out.put(0, 2),
            AggMsg::Register => out.put(1, 2),
            AggMsg::Partial(v) => {
                out.put(2, 2);
                out.put(*v, bits_for_count(*v));
            }
        }
    }
}

/// Tree aggregation (convergecast): the root learns
/// `op(input_0, …, input_{n−1})` over all reachable nodes in `O(D)`
/// rounds — the classic CONGEST reduction primitive.
///
/// Protocol, with exact round offsets (node adopts its parent in round
/// `r`):
///
/// 1. round `r`: broadcast `Announce` (the BFS wave continues);
/// 2. round `r + 1`: unicast `Register` to the parent;
/// 3. the parent therefore receives **all** of its children's
///    registrations in round `r + 3` of its own adoption — one round,
///    one exact child count, no ambiguity;
/// 4. once a node's child count is known and all children's `Partial`s
///    have arrived, it sends its combined `Partial` up (leaves fire
///    immediately). The root's value completes when its last subtree
///    reports.
///
/// Every message is ≤ `2 + log₂(max aggregate)` bits and every edge
/// carries at most one message per round (the three sends of a node —
/// announce, register, partial — happen in distinct rounds).
///
/// # Example
///
/// ```
/// use congest_sim::{algorithms::{Aggregate, AggregateOp}, SimConfig, Simulator};
/// use rwbc_graph::generators::grid_2d;
///
/// # fn main() -> Result<(), congest_sim::SimError> {
/// let g = grid_2d(3, 3).unwrap();
/// // Sum of all node ids: 0 + 1 + ... + 8 = 36.
/// let mut sim = Simulator::new(&g, SimConfig::default(), |v| {
///     Aggregate::new(v, 0, v as u64, AggregateOp::Sum)
/// });
/// sim.run()?;
/// assert_eq!(sim.program(0).result(), Some(36));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Aggregate {
    me: NodeId,
    root: NodeId,
    op: AggregateOp,
    parent: Option<NodeId>,
    adopted_round: Option<usize>,
    announced: bool,
    /// Own input combined with received partials.
    acc: u64,
    /// Registrations received (becomes the child count at `adopted + 3`).
    registrations: usize,
    /// Outstanding children (`None` until the window closes).
    pending_children: Option<usize>,
    reported: bool,
    result: Option<u64>,
}

impl Aggregate {
    /// Program for node `me` contributing `input`, aggregating toward
    /// `root` with `op`.
    pub fn new(me: NodeId, root: NodeId, input: u64, op: AggregateOp) -> Aggregate {
        Aggregate {
            me,
            root,
            op,
            parent: if me == root { Some(me) } else { None },
            adopted_round: if me == root { Some(0) } else { None },
            announced: false,
            acc: input,
            registrations: 0,
            pending_children: None,
            reported: false,
            result: None,
        }
    }

    /// The aggregate over all nodes reachable from the root (available at
    /// the root after termination; `None` elsewhere and before).
    pub fn result(&self) -> Option<u64> {
        self.result
    }

    /// Whether this node has folded its subtree and reported upward.
    pub fn reported(&self) -> bool {
        self.reported
    }

    fn maybe_report(&mut self, ctx: &mut Context<'_, AggMsg>) {
        if self.reported {
            return;
        }
        let Some(adopted) = self.adopted_round else {
            return;
        };
        if self.pending_children.is_none() && ctx.round() >= adopted + 3 {
            self.pending_children = Some(self.registrations);
        }
        if self.pending_children == Some(0) {
            self.reported = true;
            if self.me == self.root {
                self.result = Some(self.acc);
            } else {
                let parent = self.parent.expect("adoption implies a parent");
                ctx.send(parent, AggMsg::Partial(self.acc));
            }
        }
    }
}

impl NodeProgram for Aggregate {
    type Msg = AggMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, AggMsg>) {
        if self.me == self.root {
            ctx.broadcast(AggMsg::Announce);
            self.announced = true;
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, AggMsg>, inbox: &[Incoming<AggMsg>]) {
        for m in inbox {
            match m.msg {
                AggMsg::Announce => {
                    if self.parent.is_none() && self.me != self.root {
                        self.parent = Some(m.from);
                        self.adopted_round = Some(ctx.round());
                    }
                }
                AggMsg::Register => {
                    self.registrations += 1;
                }
                AggMsg::Partial(v) => {
                    self.acc = self.op.combine(self.acc, v);
                    *self
                        .pending_children
                        .as_mut()
                        .expect("partials arrive only after the registration window") -= 1;
                }
            }
        }
        // Step 1: continue the wave in the adoption round.
        if self.parent.is_some() && !self.announced {
            ctx.broadcast(AggMsg::Announce);
            self.announced = true;
        } else if let (Some(parent), Some(adopted)) = (self.parent, self.adopted_round) {
            // Step 2: register with the parent one round later.
            if self.me != self.root && ctx.round() == adopted + 1 {
                ctx.send(parent, AggMsg::Register);
            }
        }
        // Steps 3-4: close the child window, fold, report.
        self.maybe_report(ctx);
    }

    fn is_terminated(&self) -> bool {
        // Unreachable nodes stay idle forever; reachable ones terminate
        // once they have reported. (Engine quiescence still requires the
        // in-flight queues to drain.)
        self.reported || self.parent.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use rwbc_graph::generators::{complete, path, star};
    use rwbc_graph::traversal::diameter;
    use rwbc_graph::Graph;

    fn run_agg(
        g: &Graph,
        root: NodeId,
        op: AggregateOp,
        input: impl Fn(NodeId) -> u64,
    ) -> (Option<u64>, crate::RunStats) {
        let mut sim = Simulator::new(g, SimConfig::default(), |v| {
            Aggregate::new(v, root, input(v), op)
        });
        let stats = sim.run().unwrap();
        (sim.program(root).result(), stats)
    }

    #[test]
    fn sum_of_ids_on_path() {
        let g = path(10).unwrap();
        let (result, stats) = run_agg(&g, 0, AggregateOp::Sum, |v| v as u64);
        assert_eq!(result, Some(45));
        assert!(stats.congest_compliant());
    }

    #[test]
    fn max_and_min() {
        let g = star(8).unwrap();
        let (max, _) = run_agg(&g, 3, AggregateOp::Max, |v| 100 + v as u64);
        assert_eq!(max, Some(108));
        let (min, _) = run_agg(&g, 3, AggregateOp::Min, |v| 100 + v as u64);
        assert_eq!(min, Some(100));
    }

    #[test]
    fn rounds_scale_with_diameter_not_n() {
        let g = path(40).unwrap();
        let (_, stats) = run_agg(&g, 0, AggregateOp::Sum, |_| 1);
        let d = diameter(&g).unwrap();
        // Wave down (D) + registration (+2) + partials back up (D) + slack.
        assert!(stats.rounds <= 2 * d + 8, "rounds {}", stats.rounds);
        assert!(stats.rounds >= d);
    }

    #[test]
    fn count_nodes_via_sum_of_ones() {
        let g = complete(13).unwrap();
        let (result, stats) = run_agg(&g, 5, AggregateOp::Sum, |_| 1);
        assert_eq!(result, Some(13));
        // Complete graph: constant rounds.
        assert!(stats.rounds <= 8, "rounds {}", stats.rounds);
    }

    #[test]
    fn root_with_no_neighbors_in_component() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let (result, _) = run_agg(&g, 0, AggregateOp::Sum, |v| v as u64);
        // Only the root's component aggregates: 0 + 1.
        assert_eq!(result, Some(1));
    }
}
