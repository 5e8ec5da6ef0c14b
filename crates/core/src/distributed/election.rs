//! Phase 0 (optional) — distributed target election.
//!
//! Algorithm 1 line 2 says "randomly choose a target node `t`" without
//! saying *who* chooses. By default the driver draws it (a common modeling
//! shortcut); this module provides the fully distributed realization:
//!
//! 1. rounds `1..n`: max-id leader election by candidate flooding
//!    (`n > D`, so every node has converged on the maximum id by round
//!    `n`, using only its knowledge of `n`);
//! 2. round `n`: the self-identified leader draws `t` uniformly from
//!    `0..n` with its private coins and floods it;
//! 3. the announcement reaches everyone within `D` further rounds.
//!
//! Total `O(n)` rounds with `O(log n)`-bit messages — asymptotically free
//! next to the `O(n log n)` walk phase, and it removes the last
//! centralized step from the pipeline.

use rand::Rng;

use congest_sim::{bits_for_node_id, BitSink, Context, Incoming, Message, NodeProgram, TraceEvent};
use rwbc_graph::NodeId;

/// Election-phase messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectMsg {
    /// A leader candidate (the highest id the sender knows).
    Candidate(NodeId),
    /// The elected target, drawn by the leader.
    Target(NodeId),
}

impl Message for ElectMsg {
    fn write(&self, n: usize, out: &mut impl BitSink) {
        // 1 tag bit + one node id.
        let (tag, id) = match *self {
            ElectMsg::Candidate(id) => (0, id),
            ElectMsg::Target(id) => (1, id),
        };
        out.put(tag, 1);
        out.put(id as u64, bits_for_node_id(n));
    }
}

/// Node program electing a uniformly random target via a max-id leader.
#[derive(Debug, Clone)]
pub struct ElectTargetProgram {
    me: NodeId,
    n: usize,
    best: NodeId,
    dirty: bool,
    target: Option<NodeId>,
    announced_target: bool,
}

impl ElectTargetProgram {
    /// Program for node `me` in a network of `n` nodes.
    pub fn new(me: NodeId, n: usize) -> ElectTargetProgram {
        ElectTargetProgram {
            me,
            n,
            best: me,
            dirty: true,
            target: None,
            announced_target: false,
        }
    }

    /// The elected target, once known to this node.
    pub fn target(&self) -> Option<NodeId> {
        self.target
    }

    /// The leader this node believes in (stable from round `D` on).
    pub fn leader(&self) -> NodeId {
        self.best
    }
}

impl NodeProgram for ElectTargetProgram {
    type Msg = ElectMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ElectMsg>) {
        ctx.broadcast(ElectMsg::Candidate(self.me));
        self.dirty = false;
    }

    fn on_round(&mut self, ctx: &mut Context<'_, ElectMsg>, inbox: &[Incoming<ElectMsg>]) {
        for m in inbox {
            match m.msg {
                ElectMsg::Candidate(c) => {
                    if c > self.best {
                        self.best = c;
                        self.dirty = true;
                    }
                }
                ElectMsg::Target(t) => {
                    if self.target.is_none() {
                        self.target = Some(t);
                    }
                }
            }
        }
        // Keep flooding improved candidates during the election window.
        if self.dirty && ctx.round() < self.n {
            ctx.broadcast(ElectMsg::Candidate(self.best));
            self.dirty = false;
        }
        // At round n every node agrees on the leader (n > D); the leader
        // draws the target with its private coins and floods it.
        if ctx.round() == self.n && self.best == self.me && self.target.is_none() {
            let t = ctx.rng().gen_range(0..self.n);
            self.target = Some(t);
            if ctx.tracing() {
                ctx.trace(TraceEvent::App {
                    round: ctx.round(),
                    node: self.me,
                    key: "elected_target".to_string(),
                    value: t as u64,
                });
            }
        }
        if let Some(t) = self.target {
            if !self.announced_target {
                ctx.broadcast(ElectMsg::Target(t));
                self.announced_target = true;
            }
        }
    }

    fn is_terminated(&self) -> bool {
        self.announced_target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{SimConfig, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rwbc_graph::generators::{connected_gnp, path, star};

    fn run_election(
        g: &rwbc_graph::Graph,
        seed: u64,
    ) -> (Vec<Option<NodeId>>, congest_sim::RunStats) {
        let n = g.node_count();
        let mut sim = Simulator::new(g, SimConfig::default().with_seed(seed), |v| {
            ElectTargetProgram::new(v, n)
        });
        let stats = sim.run().unwrap();
        let targets = (0..n).map(|v| sim.program(v).target()).collect();
        (targets, stats)
    }

    #[test]
    fn everyone_agrees_on_one_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = connected_gnp(24, 0.25, 100, &mut rng).unwrap();
        let (targets, stats) = run_election(&g, 5);
        let t = targets[0].expect("target known");
        assert!(targets.iter().all(|&x| x == Some(t)));
        assert!(t < 24);
        assert!(stats.congest_compliant());
        // O(n) rounds: the election window is n, plus <= D spread.
        assert!(stats.rounds <= 24 + 10, "rounds {}", stats.rounds);
    }

    #[test]
    fn leader_is_the_max_id() {
        let g = path(10).unwrap();
        let n = g.node_count();
        let mut sim = Simulator::new(&g, SimConfig::default().with_seed(2), |v| {
            ElectTargetProgram::new(v, n)
        });
        sim.run().unwrap();
        for v in 0..n {
            assert_eq!(sim.program(v).leader(), 9);
        }
    }

    #[test]
    fn different_seeds_elect_different_targets() {
        let g = star(12).unwrap();
        let (a, _) = run_election(&g, 1);
        let mut seen = std::collections::HashSet::new();
        seen.insert(a[0].unwrap());
        for seed in 2..12 {
            let (t, _) = run_election(&g, seed);
            seen.insert(t[0].unwrap());
        }
        assert!(seen.len() > 2, "election should be random: {seen:?}");
    }

    #[test]
    fn election_messages_fit_budget() {
        let msg = ElectMsg::Target(1023);
        assert_eq!(msg.bit_size(1024), 1 + 10);
        assert!(msg.bit_size(1024) <= SimConfig::default().budget_bits(1024));
    }
}
