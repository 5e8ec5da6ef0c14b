use rwbc_graph::NodeId;

use crate::{bits_for_node_id, BitSink, Context, Incoming, Message, NodeProgram};

/// A candidate-leader announcement. Costs one node id on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderMsg {
    /// Highest node id the sender currently knows of.
    pub candidate: NodeId,
}

impl Message for LeaderMsg {
    fn write(&self, n: usize, out: &mut impl BitSink) {
        out.put(self.candidate as u64, bits_for_node_id(n));
    }
}

/// Max-id leader election by flooding, stabilizing after `D` quiet rounds.
///
/// Every node floods the largest id it has seen; once a node learns a new
/// maximum it re-announces. In a connected graph all nodes converge on
/// `n − 1` within `D` rounds of announcements. The paper's Algorithm 1
/// "randomly choose a target node t" step is realized on top of exactly
/// this primitive (elect, then use the leader's coin flips).
///
/// # Example
///
/// ```
/// use congest_sim::{algorithms::LeaderElect, SimConfig, Simulator};
/// use rwbc_graph::generators::cycle;
///
/// # fn main() -> Result<(), congest_sim::SimError> {
/// let g = cycle(7).unwrap();
/// let mut sim = Simulator::new(&g, SimConfig::default(), LeaderElect::new);
/// sim.run()?;
/// assert!(sim.programs().iter().all(|p| p.leader() == 6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LeaderElect {
    best: NodeId,
    dirty: bool,
}

impl LeaderElect {
    /// Program for node `me`.
    pub fn new(me: NodeId) -> LeaderElect {
        LeaderElect {
            best: me,
            dirty: true,
        }
    }

    /// The highest id this node currently believes is the leader.
    pub fn leader(&self) -> NodeId {
        self.best
    }
}

impl NodeProgram for LeaderElect {
    type Msg = LeaderMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, LeaderMsg>) {
        ctx.broadcast(LeaderMsg {
            candidate: self.best,
        });
        self.dirty = false;
    }

    fn on_round(&mut self, ctx: &mut Context<'_, LeaderMsg>, inbox: &[Incoming<LeaderMsg>]) {
        for m in inbox {
            if m.msg.candidate > self.best {
                self.best = m.msg.candidate;
                self.dirty = true;
            }
        }
        if self.dirty {
            ctx.broadcast(LeaderMsg {
                candidate: self.best,
            });
            self.dirty = false;
        }
    }

    fn is_terminated(&self) -> bool {
        !self.dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use rwbc_graph::generators::{path, star};
    use rwbc_graph::traversal::diameter;

    #[test]
    fn everyone_agrees_on_max_id() {
        let g = path(12).unwrap();
        let mut sim = Simulator::new(&g, SimConfig::default(), LeaderElect::new);
        let stats = sim.run().unwrap();
        assert!(sim.programs().iter().all(|p| p.leader() == 11));
        assert!(stats.congest_compliant());
        // Announcement wave from node 11 needs ~D rounds to drain.
        let d = diameter(&g).unwrap();
        assert!(stats.rounds >= d, "rounds {} < diameter {d}", stats.rounds);
    }

    #[test]
    fn star_converges_in_two_hops() {
        let g = star(6).unwrap();
        let mut sim = Simulator::new(&g, SimConfig::default(), LeaderElect::new);
        let stats = sim.run().unwrap();
        assert!(sim.programs().iter().all(|p| p.leader() == 6));
        assert!(stats.rounds <= 4);
    }
}
