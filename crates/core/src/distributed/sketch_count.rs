//! Phase 2 under [`CountMode::Sketch`]: the bucket-aggregate exchange.
//!
//! Structurally this is Algorithm 2 with the source axis compressed:
//! instead of `n` rounds shipping one fixed-point count per source, the
//! phase runs `B = 2^p` rounds shipping one *bucket aggregate* per
//! round, and the per-node receive store shrinks from `n × degree` to
//! `B × degree`. The local combine replaces each source potential by
//! its bucket average weighted by the bucket's (locally computable)
//! preimage size — see [`node_net_flow_weighted_strided`] and the error
//! analysis in DESIGN §12.
//!
//! **Systolic rounds**: in lockstep mode a node stays silent in rounds
//! whose outgoing bucket is empty — absence on a loss-free lockstep
//! channel means *exactly zero*, so the receiver's zero default is the
//! true value, not an undercount. Because the bucket index travels
//! explicitly in every [`SketchCountMsg`], silence never desynchronizes
//! slot bookkeeping. Under strict delivery (the reliable transport)
//! every bucket is sent: there, absence is ambiguous with a pending
//! retransmission, so silence would stall the completion check.
//!
//! [`CountMode::Sketch`]: crate::distributed::CountMode

use congest_sim::{Context, Incoming, NodeProgram, TraceEvent};
use rwbc_graph::NodeId;

use crate::distributed::sketch::{bucket_of, bucket_weights, SketchCountMsg, VisitSketch};
use crate::flow_sum::node_net_flow_weighted_strided;

/// Node program for the sketch-compressed computing phase.
#[derive(Debug, Clone)]
pub struct SketchCountProgram {
    me: NodeId,
    n: usize,
    /// The node's own visit sketch: occupancy registers (coverage
    /// diagnostics) plus the fixed-point bucket magnitudes that travel.
    sketch: VisitSketch,
    degree: usize,
    value_bits: u8,
    fractional_bits: u8,
    k: usize,
    sent: usize,
    received_rounds: usize,
    received_per_neighbor: Vec<usize>,
    /// Received neighbor bucket magnitudes, flattened row-major as
    /// `cols[bucket * degree + slot]` (same layout rationale as the
    /// exact program, with `B` rows instead of `n`). Kept in the scaled
    /// integer domain until the final combine so restored checkpoints
    /// are trivially bit-identical.
    cols: Vec<u64>,
    /// When `true`, every bucket is broadcast (no systolic silence) and
    /// completion is per-neighbor message counts; see the module docs.
    strict_delivery: bool,
    /// Broadcasts suppressed by the systolic optimization.
    suppressed: u64,
    dead_peers: Vec<NodeId>,
    live: Vec<bool>,
    betweenness: Option<f64>,
    /// Cached neighbor ids (ascending), filled on first use; excluded
    /// from checkpoints like the exact program's cache.
    neighbor_ids: Vec<NodeId>,
}

impl SketchCountProgram {
    /// Program for node `me` with its phase-1 counts `xi`, listed as
    /// `(s, ξ_me^s)` by ascending source (an omitted source counts zero),
    /// bucketed at `precision`. `value_bits` comes from
    /// [`sketch_field_bits`](crate::distributed::sketch::sketch_field_bits)
    /// and the driver's budget fitting; the per-source quantization
    /// (`round(ξ · 2^F / d)`) is identical to the exact program's, so
    /// sketch error is purely the bucketing, never a different rounding.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: NodeId,
        n: usize,
        degree: usize,
        xi: &[(NodeId, u64)],
        walks_per_node: usize,
        precision: u8,
        value_bits: u8,
        fractional_bits: u8,
    ) -> SketchCountProgram {
        debug_assert!(xi.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(xi.last().is_none_or(|&(s, _)| s < n));
        let scale = f64::from(1u32 << fractional_bits);
        let mut sketch = VisitSketch::new(precision);
        // A zero count would observe nothing, so omitted sources match a
        // dense row.
        for &(s, c) in xi {
            let scaled = ((c as f64 / degree.max(1) as f64) * scale).round() as u64;
            sketch.observe(s, scaled);
        }
        let b = sketch.bucket_count();
        SketchCountProgram {
            me,
            n,
            sketch,
            degree,
            value_bits,
            fractional_bits,
            k: walks_per_node,
            sent: 0,
            received_rounds: 0,
            received_per_neighbor: vec![0; degree],
            cols: vec![0; b * degree],
            strict_delivery: false,
            suppressed: 0,
            dead_peers: Vec::new(),
            live: vec![true; degree],
            betweenness: None,
            neighbor_ids: Vec::new(),
        }
    }

    /// Switches to strict-delivery mode: every bucket is broadcast and
    /// completion is counted per neighbor. Use behind the reliable
    /// transport, where systolic silence is ambiguous with loss.
    #[must_use]
    pub fn with_strict_delivery(mut self, strict: bool) -> SketchCountProgram {
        self.strict_delivery = strict;
        self
    }

    /// The locally computed RWBC of this node (`None` until done).
    pub fn betweenness(&self) -> Option<f64> {
        self.betweenness
    }

    /// This node's visit sketch (occupancy registers + magnitudes).
    pub fn sketch(&self) -> &VisitSketch {
        &self.sketch
    }

    /// Broadcasts suppressed by the systolic empty-bucket optimization.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    fn bucket_count(&self) -> usize {
        self.sketch.bucket_count()
    }

    fn send_next(&mut self, ctx: &mut Context<'_, SketchCountMsg>) {
        if self.sent < self.bucket_count() {
            let scaled = self.sketch.buckets[self.sent];
            // Systolic rule: an empty outgoing bucket is not broadcast
            // in lockstep mode — the receiver's zero default is exact.
            if scaled != 0 || self.strict_delivery {
                ctx.broadcast(SketchCountMsg {
                    bucket: self.sent as u32,
                    scaled,
                    precision: self.sketch.precision,
                    value_bits: self.value_bits,
                });
            } else {
                self.suppressed += 1;
            }
            self.sent += 1;
        }
    }

    fn all_buckets_received(&self) -> bool {
        let b = self.bucket_count();
        if self.strict_delivery {
            self.sent == b
                && self
                    .received_per_neighbor
                    .iter()
                    .zip(&self.live)
                    .all(|(&r, &alive)| !alive || r >= b)
        } else {
            // Lockstep: after B delivery rounds every non-suppressed
            // frame has arrived; suppressed cells are true zeros.
            self.received_rounds == b
        }
    }

    fn finish_if_done(&mut self, ctx: &mut Context<'_, SketchCountMsg>) {
        if self.all_buckets_received() && self.betweenness.is_none() {
            let b = self.bucket_count();
            let inv_scale = 1.0 / f64::from(1u32 << self.fractional_bits);
            let k_f = self.k as f64;
            // Bucket preimage sizes over the full source universe —
            // deterministic from (n, p), so they never travel.
            let weights: Vec<f64> = bucket_weights(self.n, self.sketch.precision)
                .into_iter()
                .map(f64::from)
                .collect();
            let avg = |scaled: u64, w: f64| {
                if w > 0.0 {
                    scaled as f64 * inv_scale / k_f / w
                } else {
                    0.0
                }
            };
            let own: Vec<f64> = self
                .sketch
                .buckets
                .iter()
                .zip(&weights)
                .map(|(&s, &w)| avg(s, w))
                .collect();
            let flat: Vec<f64> = (0..b * self.degree)
                .map(|i| avg(self.cols[i], weights[i / self.degree]))
                .collect();
            let me_bucket = bucket_of(self.me, self.sketch.precision);
            let inner =
                node_net_flow_weighted_strided(me_bucket, &own, &flat, self.degree, &weights);
            let nf = self.n as f64;
            self.betweenness = Some((inner + (nf - 1.0)) / (nf * (nf - 1.0) / 2.0));
            if ctx.tracing() {
                ctx.trace(TraceEvent::App {
                    round: ctx.round(),
                    node: self.me,
                    key: "sketch_suppressed".to_string(),
                    value: self.suppressed,
                });
            }
        }
    }
}

// Checkpoint encoding: everything but `neighbor_ids` (rebuilt on first
// use after a restore), mirroring the exact program.
impl congest_sim::wire::WireState for SketchCountProgram {
    fn encode_state(&self, w: &mut congest_sim::wire::BitWriter) {
        self.me.encode_state(w);
        self.n.encode_state(w);
        self.sketch.encode_state(w);
        self.degree.encode_state(w);
        self.value_bits.encode_state(w);
        self.fractional_bits.encode_state(w);
        self.k.encode_state(w);
        self.sent.encode_state(w);
        self.received_rounds.encode_state(w);
        self.received_per_neighbor.encode_state(w);
        self.cols.encode_state(w);
        self.strict_delivery.encode_state(w);
        self.suppressed.encode_state(w);
        self.dead_peers.encode_state(w);
        self.live.encode_state(w);
        self.betweenness.encode_state(w);
    }

    fn decode_state(r: &mut congest_sim::wire::BitReader<'_>) -> Option<SketchCountProgram> {
        let p = SketchCountProgram {
            me: usize::decode_state(r)?,
            n: usize::decode_state(r)?,
            sketch: VisitSketch::decode_state(r)?,
            degree: usize::decode_state(r)?,
            value_bits: u8::decode_state(r)?,
            fractional_bits: u8::decode_state(r)?,
            k: usize::decode_state(r)?,
            sent: usize::decode_state(r)?,
            received_rounds: usize::decode_state(r)?,
            received_per_neighbor: Vec::decode_state(r)?,
            cols: Vec::decode_state(r)?,
            strict_delivery: bool::decode_state(r)?,
            suppressed: u64::decode_state(r)?,
            dead_peers: Vec::decode_state(r)?,
            live: Vec::decode_state(r)?,
            betweenness: Option::decode_state(r)?,
            neighbor_ids: Vec::new(),
        };
        let consistent = p.me < p.n
            && u32::try_from(p.n).is_ok()
            && p.bucket_count().checked_mul(p.degree) == Some(p.cols.len())
            && p.received_per_neighbor.len() == p.degree
            && p.live.len() == p.degree
            && p.fractional_bits < 32
            && p.k > 0;
        consistent.then_some(p)
    }
}

impl NodeProgram for SketchCountProgram {
    type Msg = SketchCountMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, SketchCountMsg>) {
        self.send_next(ctx);
    }

    fn on_round(
        &mut self,
        ctx: &mut Context<'_, SketchCountMsg>,
        inbox: &[Incoming<SketchCountMsg>],
    ) {
        if self.neighbor_ids.len() != ctx.degree() {
            self.neighbor_ids.clear();
            self.neighbor_ids.extend(ctx.neighbors());
        }
        if !self.dead_peers.is_empty() {
            for p in &self.dead_peers {
                if let Ok(slot) = self.neighbor_ids.binary_search(p) {
                    self.live[slot] = false;
                }
            }
        }
        let b = self.bucket_count();
        // In a clean lockstep round arrivals are the (sorted) neighbor
        // list, so a cursor resolves slots in O(1); the binary search
        // only runs when silence or faults thin the inbox.
        let mut cursor = 0usize;
        for m in inbox {
            let slot = if cursor < self.degree && self.neighbor_ids[cursor] == m.from {
                cursor
            } else {
                self.neighbor_ids
                    .binary_search(&m.from)
                    .expect("messages only arrive from neighbors")
            };
            cursor = slot + 1;
            // The bucket index travels explicitly, so a delayed or
            // retransmitted frame still lands in the right cell.
            let bucket = m.msg.bucket as usize;
            if bucket < b {
                self.cols[bucket * self.degree + slot] = m.msg.scaled;
                self.received_per_neighbor[slot] += 1;
            }
        }
        if self.received_rounds < b {
            self.received_rounds += 1;
        }
        self.send_next(ctx);
        self.finish_if_done(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.betweenness.is_some()
    }

    fn on_neighbor_down(&mut self, peer: rwbc_graph::NodeId) {
        if let Err(pos) = self.dead_peers.binary_search(&peer) {
            self.dead_peers.insert(pos, peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::sketch::sketch_field_bits;
    use congest_sim::wire::{BitReader, BitWriter, WireState};
    use congest_sim::{SimConfig, Simulator};
    use rwbc_graph::generators::cycle;

    fn run_sketch_counts(
        g: &rwbc_graph::Graph,
        counts: &[Vec<u64>],
        k: usize,
        precision: u8,
        f: u8,
    ) -> (Vec<f64>, congest_sim::RunStats) {
        let n = g.node_count();
        let l = counts.iter().flatten().copied().max().unwrap_or(1) as usize;
        let value_bits = sketch_field_bits(k, l, n, f);
        let mut sim = Simulator::new(g, SimConfig::default().with_bandwidth_coeff(16), |v| {
            let xi: Vec<(NodeId, u64)> = counts[v].iter().copied().enumerate().collect();
            SketchCountProgram::new(v, n, g.degree(v), &xi, k, precision, value_bits, f)
        });
        let stats = sim.run().unwrap();
        let b = (0..n)
            .map(|v| sim.program(v).betweenness().expect("phase finished"))
            .collect();
        (b, stats)
    }

    #[test]
    fn phase_takes_bucket_count_rounds() {
        let g = cycle(20).unwrap();
        let counts = vec![vec![1u64; 20]; 20];
        let (_, stats) = run_sketch_counts(&g, &counts, 1, 3, 8);
        // B = 8 rounds regardless of n = 20: the compression is in the
        // round count, exactly as Lemma 3's n is for the exact phase.
        assert_eq!(stats.rounds, 8);
    }

    #[test]
    fn systolic_silence_skips_empty_buckets() {
        let g = cycle(6).unwrap();
        // Only source 0 has any visits: most buckets are empty.
        let counts: Vec<Vec<u64>> = (0..6)
            .map(|_| (0..6).map(|s| u64::from(s == 0)).collect())
            .collect();
        let (_, stats) = run_sketch_counts(&g, &counts, 1, 4, 8);
        // 16 buckets, at most a couple occupied: the message count must
        // be far below the dense 6 nodes · 2 edges · 16 rounds = 192.
        assert!(
            stats.total_messages < 48,
            "systolic silence did not suppress empty buckets: {} messages",
            stats.total_messages
        );
    }

    #[test]
    fn sketch_combine_tracks_exact_combine() {
        // Same synthetic counts as the exact program's test; at high
        // precision (every source its own bucket modulo hashing) the
        // weighted combine should land near the exact one.
        let g = cycle(12).unwrap();
        let n = 12;
        let k = 2;
        let counts: Vec<Vec<u64>> = (0..n)
            .map(|v| (0..n).map(|s| ((v + 2 * s + 1) % 9) as u64).collect())
            .collect();
        let (approx, _) = run_sketch_counts(&g, &counts, k, 8, 16);

        let x: Vec<Vec<f64>> = (0..n)
            .map(|v| {
                (0..n)
                    .map(|s| counts[v][s] as f64 / g.degree(v) as f64 / k as f64)
                    .collect()
            })
            .collect();
        let exact =
            crate::flow_sum::combine_potentials(&g, &x, crate::flow_sum::PairSumMethod::Sorted);
        for v in 0..n {
            let rel = (approx[v] - exact[v]).abs() / exact[v].abs().max(1e-9);
            assert!(
                rel < 0.35,
                "node {v}: sketch {} vs exact {} (rel {rel})",
                approx[v],
                exact[v]
            );
        }
    }

    #[test]
    fn accuracy_improves_with_precision() {
        let g = cycle(16).unwrap();
        let n = 16;
        let counts: Vec<Vec<u64>> = (0..n)
            .map(|v| (0..n).map(|s| ((3 * v + 5 * s) % 13) as u64).collect())
            .collect();
        let x: Vec<Vec<f64>> = (0..n)
            .map(|v| {
                (0..n)
                    .map(|s| counts[v][s] as f64 / g.degree(v) as f64 / 1.0)
                    .collect()
            })
            .collect();
        let exact =
            crate::flow_sum::combine_potentials(&g, &x, crate::flow_sum::PairSumMethod::Sorted);
        let err = |b: &[f64]| -> f64 {
            b.iter()
                .zip(&exact)
                .map(|(a, r)| (a - r).abs() / r.abs().max(1e-9))
                .sum::<f64>()
                / b.len() as f64
        };
        let (coarse, _) = run_sketch_counts(&g, &counts, 1, 2, 16);
        let (fine, _) = run_sketch_counts(&g, &counts, 1, 8, 16);
        assert!(
            err(&fine) <= err(&coarse) + 1e-12,
            "precision 8 ({}) should beat precision 2 ({})",
            err(&fine),
            err(&coarse)
        );
    }

    #[test]
    fn decode_rejects_inconsistent_state() {
        let g = cycle(5).unwrap();
        let counts: Vec<(NodeId, u64)> = (0..5).map(|s| (s, (s * 3 + 1) as u64)).collect();
        let p = SketchCountProgram::new(1, 5, g.degree(1), &counts, 2, 3, 24, 8);
        let decode = |p: &SketchCountProgram| {
            let mut w = BitWriter::new();
            p.encode_state(&mut w);
            SketchCountProgram::decode_state(&mut BitReader::new(&w.finish()))
        };
        assert!(decode(&p).is_some());
        let edits: [fn(&mut SketchCountProgram); 9] = [
            // This node outside the network, or a network of more than
            // 2^32 nodes.
            |p| p.me = p.n,
            |p| p.n = 1 << 32,
            // A bucket table one cell short or long of B · degree.
            |p| p.cols.truncate(1),
            |p| p.cols.push(0),
            // Per-slot vectors of the wrong length.
            |p| {
                p.received_per_neighbor.pop();
            },
            |p| p.live.push(true),
            // A fixed-point width past 31 bits, and no walks per node.
            |p| p.fractional_bits = 32,
            |p| p.k = 0,
            // A degree whose table size overflows `usize`.
            |p| p.degree = usize::MAX,
        ];
        for edit in edits {
            let mut bad = p.clone();
            edit(&mut bad);
            assert!(decode(&bad).is_none());
        }
    }

    #[test]
    fn program_state_round_trips() {
        let g = cycle(5).unwrap();
        let counts: Vec<(NodeId, u64)> = (0..5).map(|s| (s, (s * 3 + 1) as u64)).collect();
        let mut p = SketchCountProgram::new(1, 5, g.degree(1), &counts, 2, 3, 24, 8);
        p.received_per_neighbor[0] = 2;
        p.cols[3] = 77;
        p.suppressed = 1;
        let mut w = BitWriter::new();
        p.encode_state(&mut w);
        let bytes = w.finish();
        let q = SketchCountProgram::decode_state(&mut BitReader::new(&bytes)).unwrap();
        assert_eq!(q.sketch, p.sketch);
        assert_eq!(q.cols, p.cols);
        assert_eq!(q.suppressed, 1);
        assert_eq!(q.received_per_neighbor, p.received_per_neighbor);
    }
}
