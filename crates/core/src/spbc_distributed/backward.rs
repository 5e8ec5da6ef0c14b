//! Backward phase of distributed Brandes: dependency accumulation.
//!
//! For each source `s`, Brandes' dependency of `v` is
//!
//! ```text
//!   δ_s(v) = Σ_{w : successor of v} (σ_s(v) / σ_s(w)) · (1 + δ_s(w)),
//! ```
//!
//! where `w` is a successor iff `{v, w} ∈ E` and `d_s(w) = d_s(v) + 1`.
//! Each node knows its own and its neighbors' `(dist, σ)` from the forward
//! phase, so it knows its successor count per source; when the last
//! successor's contribution arrives, its own `δ` is final and it announces
//! `(1 + δ_s(v)) / σ_s(v)` — a convergecast over the BFS DAG, pipelined
//! across all sources, one announcement per edge per round.
//!
//! The final SPBC of `v` is `Σ_{s ≠ v} δ_s(v) / 2` (each unordered pair is
//! seen from both endpoints).

use std::collections::VecDeque;

use congest_sim::{bits_for_node_id, BitSink, Context, Incoming, Message, NodeProgram};
use rwbc_graph::NodeId;

use super::float::MinifloatFormat;
use super::forward::UNREACHED;

/// A backward announcement: the sender's final `(1 + δ) / σ` for `source`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackwardMsg {
    /// The BFS source this contribution concerns.
    pub source: NodeId,
    /// `(1 + δ_s(sender)) / σ_s(sender)`, minifloat-coded.
    pub value_code: u64,
    /// Wire format of the value field.
    pub format: MinifloatFormat,
}

impl Message for BackwardMsg {
    fn write(&self, n: usize, out: &mut impl BitSink) {
        out.put(self.source as u64, bits_for_node_id(n));
        out.put(self.value_code, self.format.bits());
    }
}

/// Node program for the backward phase.
#[derive(Debug, Clone)]
pub struct BackwardProgram {
    me: NodeId,
    format: MinifloatFormat,
    /// Own forward results.
    dist: Vec<u32>,
    sigma: Vec<f64>,
    /// Neighbor distances per slot (from the forward phase).
    nb_dist: Vec<Vec<u32>>,
    /// Successors still outstanding, per source.
    pending: Vec<usize>,
    /// Accumulated dependency per source.
    delta: Vec<f64>,
    /// Sources whose δ is final and awaiting announcement.
    ready: VecDeque<NodeId>,
    started: bool,
}

impl BackwardProgram {
    /// Program for node `me`, fed with its forward-phase state.
    ///
    /// # Panics
    ///
    /// Panics if the forward state vectors have inconsistent lengths.
    pub fn new(
        me: NodeId,
        n: usize,
        format: MinifloatFormat,
        dist: Vec<u32>,
        sigma: Vec<f64>,
        nb_dist: Vec<Vec<u32>>,
    ) -> BackwardProgram {
        assert_eq!(dist.len(), n, "dist vector must cover all sources");
        assert_eq!(sigma.len(), n, "sigma vector must cover all sources");
        // Successor counts per source.
        let mut pending = vec![0usize; n];
        for s in 0..n {
            if dist[s] == UNREACHED {
                continue;
            }
            for row in &nb_dist {
                if row[s] != UNREACHED && row[s] == dist[s] + 1 {
                    pending[s] += 1;
                }
            }
        }
        let mut ready = VecDeque::new();
        for s in 0..n {
            if dist[s] != UNREACHED && pending[s] == 0 {
                ready.push_back(s); // a DAG sink: δ = 0, announce at once
            }
        }
        BackwardProgram {
            me,
            format,
            dist,
            sigma,
            nb_dist,
            pending,
            delta: vec![0.0; n],
            ready,
            started: false,
        }
    }

    /// The accumulated dependencies δ_s(me) (after the phase completes).
    pub fn delta(&self) -> &[f64] {
        &self.delta
    }

    /// This node's shortest-path betweenness: `Σ_{s ≠ me} δ_s(me) / 2`.
    pub fn betweenness(&self) -> f64 {
        self.delta
            .iter()
            .enumerate()
            .filter(|&(s, _)| s != self.me)
            .map(|(_, d)| d)
            .sum::<f64>()
            / 2.0
    }

    fn announce_one(&mut self, ctx: &mut Context<'_, BackwardMsg>) {
        if let Some(s) = self.ready.pop_front() {
            let value = (1.0 + self.delta[s]) / self.sigma[s].max(f64::MIN_POSITIVE);
            ctx.broadcast(BackwardMsg {
                source: s,
                value_code: self.format.encode(value),
                format: self.format,
            });
        }
    }
}

impl NodeProgram for BackwardProgram {
    type Msg = BackwardMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BackwardMsg>) {
        self.started = true;
        self.announce_one(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, BackwardMsg>, inbox: &[Incoming<BackwardMsg>]) {
        let neighbors: Vec<NodeId> = ctx.neighbors().collect();
        for m in inbox {
            let slot = neighbors
                .binary_search(&m.from)
                .expect("messages only arrive from neighbors");
            let s = m.msg.source;
            // Only contributions from *successors* count; everyone else's
            // broadcast is ignored (they announce to all neighbors since
            // CONGEST broadcast costs the same).
            if self.dist[s] != UNREACHED
                && self.nb_dist[slot][s] != UNREACHED
                && self.nb_dist[slot][s] == self.dist[s] + 1
            {
                let value = m.msg.format.decode(m.msg.value_code);
                self.delta[s] += self.sigma[s] * value;
                self.pending[s] -= 1;
                if self.pending[s] == 0 && s != self.me {
                    self.ready.push_back(s);
                } else if self.pending[s] == 0 && s == self.me {
                    // The source's own δ is complete but nobody is
                    // upstream of it; nothing to announce.
                }
            }
        }
        self.announce_one(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.started && self.ready.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spbc_distributed::forward::ForwardProgram;
    use congest_sim::{SimConfig, Simulator};
    use rwbc_graph::generators::{path, star};
    use rwbc_graph::Graph;

    /// Per-node forward-pass output handed to the backward program:
    /// `(dist, sigma, neighbor_dist)`.
    type ForwardState = (Vec<u32>, Vec<f64>, Vec<Vec<u32>>);

    fn fmt() -> MinifloatFormat {
        MinifloatFormat {
            mantissa_bits: 14,
            exp_bits: 7,
        }
    }

    fn run_both(g: &Graph) -> Vec<f64> {
        let n = g.node_count();
        let mut fwd = Simulator::new(
            g,
            SimConfig::default().with_bandwidth_coeff(24).with_seed(1),
            |v| ForwardProgram::new(v, n, fmt()),
        );
        fwd.run().unwrap();
        let state: Vec<ForwardState> = (0..n)
            .map(|v| {
                let p = fwd.program(v);
                (
                    p.dist().to_vec(),
                    p.sigma().to_vec(),
                    p.neighbor_dist().to_vec(),
                )
            })
            .collect();
        drop(fwd);
        let mut bwd = Simulator::new(
            g,
            SimConfig::default().with_bandwidth_coeff(24).with_seed(2),
            |v| {
                let (d, s, nd) = state[v].clone();
                BackwardProgram::new(v, n, fmt(), d, s, nd)
            },
        );
        bwd.run().unwrap();
        (0..n).map(|v| bwd.program(v).betweenness()).collect()
    }

    #[test]
    fn path_dependencies_match_brandes() {
        let g = path(5).unwrap();
        let b = run_both(&g);
        let exact = crate::brandes::betweenness(&g, false).unwrap();
        for v in 0..5 {
            assert!(
                (b[v] - exact[v]).abs() < 1e-2,
                "node {v}: {} vs {}",
                b[v],
                exact[v]
            );
        }
    }

    #[test]
    fn star_hub_gets_all_pairs() {
        let g = star(5).unwrap();
        let b = run_both(&g);
        assert!((b[0] - 10.0).abs() < 1e-2, "hub {}", b[0]);
        for leaf in b.iter().skip(1) {
            assert!(leaf.abs() < 1e-6);
        }
    }

    #[test]
    fn split_credit_on_square() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let b = run_both(&g);
        assert!((b[1] - 0.5).abs() < 1e-2, "{}", b[1]);
        assert!((b[2] - 0.5).abs() < 1e-2, "{}", b[2]);
    }
}
