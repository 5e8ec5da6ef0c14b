//! Forward phase of distributed Brandes: every node learns, for every
//! source `s`, its BFS distance `d_s(v)` and (approximate) shortest-path
//! count `σ_s(v)`.
//!
//! The computation is an incremental, self-stabilizing BFS-with-counting:
//! each node keeps its neighbors' latest announced `(dist, σ)` per source
//! and recomputes its own as
//!
//! ```text
//!   d_s(v) = 1 + min_u d_s(u),        σ_s(v) = Σ_{u : d_s(u) = d_s(v) − 1} σ_s(u)
//! ```
//!
//! re-announcing whenever its pair changes. One announcement crosses each
//! edge per round (a per-node FIFO of dirty sources), so all `n` waves
//! pipeline through the network; the system quiesces once every pair is
//! stable — `O(n + D)` rounds in practice (measured in the tests), with
//! each message carrying a source id, a distance, and a minifloat `σ`:
//! `O(log n)` bits.

use std::collections::VecDeque;

use congest_sim::{bits_for_node_id, BitSink, Context, Incoming, Message, NodeProgram};
use rwbc_graph::NodeId;

use super::float::MinifloatFormat;

/// Sentinel distance for "not yet reached".
pub(super) const UNREACHED: u32 = u32::MAX;

/// A forward announcement: the sender's current `(dist, σ)` for `source`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardMsg {
    /// The BFS source this announcement concerns.
    pub source: NodeId,
    /// The sender's current distance from `source`.
    pub dist: u32,
    /// The sender's current path count, minifloat-coded.
    pub sigma_code: u64,
    /// Wire format of the σ field (fixed per run).
    pub format: MinifloatFormat,
}

impl Message for ForwardMsg {
    fn write(&self, n: usize, out: &mut impl BitSink) {
        // source id + distance (< n) + sigma minifloat.
        out.put(self.source as u64, bits_for_node_id(n));
        out.put(u64::from(self.dist), bits_for_node_id(n));
        out.put(self.sigma_code, self.format.bits());
    }
}

/// Node program for the forward phase.
#[derive(Debug, Clone)]
pub struct ForwardProgram {
    me: NodeId,
    n: usize,
    format: MinifloatFormat,
    /// Per-neighbor-slot, per-source latest announced distance.
    nb_dist: Vec<Vec<u32>>,
    /// Per-neighbor-slot, per-source latest announced σ.
    nb_sigma: Vec<Vec<f64>>,
    /// Own distance per source.
    dist: Vec<u32>,
    /// Own σ per source.
    sigma: Vec<f64>,
    /// Sources needing (re-)announcement, FIFO; `queued` dedupes.
    dirty: VecDeque<NodeId>,
    queued: Vec<bool>,
    started: bool,
}

impl ForwardProgram {
    /// Program for node `me` in a network of `n` nodes with the given σ
    /// wire format.
    pub fn new(me: NodeId, n: usize, format: MinifloatFormat) -> ForwardProgram {
        let mut p = ForwardProgram {
            me,
            n,
            format,
            nb_dist: Vec::new(), // sized lazily at on_start (degree known then)
            nb_sigma: Vec::new(),
            dist: vec![UNREACHED; n],
            sigma: vec![0.0; n],
            dirty: VecDeque::new(),
            queued: vec![false; n],
            started: false,
        };
        p.dist[me] = 0;
        p.sigma[me] = 1.0;
        p.enqueue(me);
        p
    }

    /// Own distances per source (after the phase completes).
    pub fn dist(&self) -> &[u32] {
        &self.dist
    }

    /// Own (approximate) path counts per source.
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// The recorded neighbor distances (slot-indexed), consumed by the
    /// backward phase.
    pub fn neighbor_dist(&self) -> &[Vec<u32>] {
        &self.nb_dist
    }

    fn enqueue(&mut self, s: NodeId) {
        if !self.queued[s] {
            self.queued[s] = true;
            self.dirty.push_back(s);
        }
    }

    /// Recomputes `(dist, σ)` for source `s` from the neighbor tables;
    /// returns whether the pair changed.
    fn recompute(&mut self, s: NodeId) -> bool {
        if self.me == s {
            return false; // the source is its own fixed point
        }
        let mut best = UNREACHED;
        for row in &self.nb_dist {
            let d = row[s];
            if d != UNREACHED {
                best = best.min(d.saturating_add(1));
            }
        }
        let mut sigma = 0.0;
        if best != UNREACHED {
            for (row_d, row_s) in self.nb_dist.iter().zip(&self.nb_sigma) {
                if row_d[s].saturating_add(1) == best {
                    sigma += row_s[s];
                }
            }
        }
        let changed = best != self.dist[s] || (sigma - self.sigma[s]).abs() > 0.0;
        self.dist[s] = best;
        self.sigma[s] = sigma;
        changed
    }

    fn announce_one(&mut self, ctx: &mut Context<'_, ForwardMsg>) {
        if let Some(s) = self.dirty.pop_front() {
            self.queued[s] = false;
            let msg = ForwardMsg {
                source: s,
                dist: self.dist[s],
                sigma_code: self.format.encode(self.sigma[s]),
                format: self.format,
            };
            ctx.broadcast(msg);
        }
    }
}

impl NodeProgram for ForwardProgram {
    type Msg = ForwardMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ForwardMsg>) {
        let deg = ctx.degree();
        self.nb_dist = vec![vec![UNREACHED; self.n]; deg];
        self.nb_sigma = vec![vec![0.0; self.n]; deg];
        self.started = true;
        self.announce_one(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, ForwardMsg>, inbox: &[Incoming<ForwardMsg>]) {
        // Inbox is sorted by sender id = neighbor order; map to slots.
        let neighbors: Vec<NodeId> = ctx.neighbors().collect();
        for m in inbox {
            let slot = neighbors
                .binary_search(&m.from)
                .expect("messages only arrive from neighbors");
            let s = m.msg.source;
            self.nb_dist[slot][s] = m.msg.dist;
            self.nb_sigma[slot][s] = m.msg.format.decode(m.msg.sigma_code);
            if self.recompute(s) {
                self.enqueue(s);
            }
        }
        self.announce_one(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.started && self.dirty.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{SimConfig, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rwbc_graph::generators::{connected_gnp, grid_2d, path};
    use rwbc_graph::traversal::bfs_distances;

    fn fmt() -> MinifloatFormat {
        MinifloatFormat {
            mantissa_bits: 12,
            exp_bits: 7,
        }
    }

    fn run_forward(g: &rwbc_graph::Graph) -> (Vec<Vec<u32>>, Vec<Vec<f64>>, congest_sim::RunStats) {
        let n = g.node_count();
        let mut sim = Simulator::new(
            g,
            SimConfig::default().with_bandwidth_coeff(24).with_seed(1),
            |v| ForwardProgram::new(v, n, fmt()),
        );
        let stats = sim.run().unwrap();
        let dist = (0..n).map(|v| sim.program(v).dist().to_vec()).collect();
        let sigma = (0..n).map(|v| sim.program(v).sigma().to_vec()).collect();
        (dist, sigma, stats)
    }

    #[test]
    fn distances_match_bfs_on_random_graph() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = connected_gnp(24, 0.2, 100, &mut rng).unwrap();
        let (dist, _, stats) = run_forward(&g);
        assert!(stats.congest_compliant());
        for s in g.nodes() {
            let want = bfs_distances(&g, s);
            for v in g.nodes() {
                assert_eq!(dist[v][s], want[v].unwrap() as u32, "d_{s}({v})");
            }
        }
    }

    #[test]
    fn sigma_counts_shortest_paths() {
        // Square: 0-1, 0-2, 1-3, 2-3 — two shortest paths from 0 to 3.
        let g = rwbc_graph::Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let (_, sigma, _) = run_forward(&g);
        assert!((sigma[3][0] - 2.0).abs() < 1e-3, "sigma {}", sigma[3][0]);
        assert!((sigma[1][0] - 1.0).abs() < 1e-3);
        // Symmetric: paths from 3 to 0.
        assert!((sigma[0][3] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn grid_sigma_is_binomial() {
        // On a grid, σ from corner (0,0) to (r,c) is C(r + c, r).
        let g = grid_2d(3, 3).unwrap();
        let (_, sigma, _) = run_forward(&g);
        // Node (2,2) = 8: C(4, 2) = 6 paths from node 0.
        assert!((sigma[8][0] - 6.0).abs() < 0.05, "sigma {}", sigma[8][0]);
        // Node (1,1) = 4: C(2, 1) = 2.
        assert!((sigma[4][0] - 2.0).abs() < 0.01);
    }

    #[test]
    fn rounds_are_near_linear() {
        let g = path(24).unwrap();
        let (_, _, stats) = run_forward(&g);
        // n waves pipelined over a path: O(n + D) = O(n), far below n * D.
        assert!(stats.rounds <= 4 * 24, "rounds {}", stats.rounds);
    }
}
