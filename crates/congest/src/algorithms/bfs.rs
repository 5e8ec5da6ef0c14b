use rwbc_graph::NodeId;

use crate::{bits_for_node_id, BitSink, Context, Incoming, Message, NodeProgram};

/// A BFS-layer announcement carrying the sender's id (so receivers can
/// record a parent). Costs one node id on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsMsg {
    /// The announcing node (the receiver's prospective parent).
    pub from_id: NodeId,
}

impl Message for BfsMsg {
    fn write(&self, n: usize, out: &mut impl BitSink) {
        out.put(self.from_id as u64, bits_for_node_id(n));
    }
}

/// Distributed BFS-tree construction from a root.
///
/// Round `r` informs exactly the nodes at distance `r`; each picks the
/// smallest-id announcer as parent. This is the standard `O(D)`-round
/// CONGEST BFS and exercises id-carrying messages under the bit budget.
///
/// # Example
///
/// ```
/// use congest_sim::{algorithms::BfsTree, SimConfig, Simulator};
/// use rwbc_graph::generators::grid_2d;
///
/// # fn main() -> Result<(), congest_sim::SimError> {
/// let g = grid_2d(3, 3).unwrap();
/// let mut sim = Simulator::new(&g, SimConfig::default(), |v| BfsTree::new(v, 0));
/// sim.run()?;
/// assert_eq!(sim.program(8).depth(), Some(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BfsTree {
    me: NodeId,
    root: NodeId,
    depth: Option<usize>,
    parent: Option<NodeId>,
    announced: bool,
}

impl BfsTree {
    /// Program for node `me` building a BFS tree rooted at `root`.
    pub fn new(me: NodeId, root: NodeId) -> BfsTree {
        BfsTree {
            me,
            root,
            depth: if me == root { Some(0) } else { None },
            parent: if me == root { Some(me) } else { None },
            announced: false,
        }
    }

    /// BFS depth of this node (`None` if unreachable).
    pub fn depth(&self) -> Option<usize> {
        self.depth
    }

    /// BFS parent (root maps to itself; `None` if unreachable).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }
}

impl NodeProgram for BfsTree {
    type Msg = BfsMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BfsMsg>) {
        if self.me == self.root {
            ctx.broadcast(BfsMsg { from_id: self.me });
            self.announced = true;
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, BfsMsg>, inbox: &[Incoming<BfsMsg>]) {
        if self.depth.is_none() {
            if let Some(first) = inbox.first() {
                self.depth = Some(ctx.round());
                // Inbox is sorted by sender id: pick the smallest announcer.
                self.parent = Some(first.msg.from_id);
            }
        }
        if self.depth.is_some() && !self.announced {
            ctx.broadcast(BfsMsg { from_id: self.me });
            self.announced = true;
        }
    }

    fn is_terminated(&self) -> bool {
        self.announced || self.depth.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rwbc_graph::generators::{binary_tree, connected_gnp};
    use rwbc_graph::traversal::bfs_distances;

    #[test]
    fn depths_match_centralized_bfs() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = connected_gnp(40, 0.12, 100, &mut rng).unwrap();
        let mut sim = Simulator::new(&g, SimConfig::default(), |v| BfsTree::new(v, 5));
        let stats = sim.run().unwrap();
        assert!(stats.congest_compliant());
        let dist = bfs_distances(&g, 5);
        for v in g.nodes() {
            assert_eq!(sim.program(v).depth(), dist[v], "node {v}");
        }
    }

    #[test]
    fn parents_form_a_tree_toward_root() {
        let g = binary_tree(15).unwrap();
        let mut sim = Simulator::new(&g, SimConfig::default(), |v| BfsTree::new(v, 0));
        sim.run().unwrap();
        for v in 1..15 {
            let p = sim.program(v).parent().unwrap();
            assert!(g.has_edge(v, p));
            assert_eq!(
                sim.program(p).depth().unwrap() + 1,
                sim.program(v).depth().unwrap()
            );
        }
    }

    #[test]
    fn message_fits_budget_exactly() {
        // BfsMsg carries exactly one node id.
        let msg = BfsMsg { from_id: 7 };
        assert_eq!(msg.bit_size(1000), 10);
        assert_eq!(msg.bit_size(2), 1);
    }
}
