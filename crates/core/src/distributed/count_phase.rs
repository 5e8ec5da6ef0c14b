//! Phase 2 — the paper's **Algorithm 2**: nodes exchange their (degree-
//! scaled) visit counts with their neighbors, one source per round, then
//! each node combines Eqs. 6–8 locally.
//!
//! The paper's Lemma 3 bounds this phase by `O(n)` rounds: each node holds
//! one count per source and each edge carries one count per round. We
//! pipeline by *round index*: in round `r` every node broadcasts its count
//! for source `r − 1`, so the source id never travels — it is implied by
//! the global round number, leaving the entire `O(log n)`-bit budget to
//! the value.
//!
//! Counts are transmitted in fixed-point (`F` fractional bits) because the
//! CONGEST model cannot ship reals; the induced quantization error is
//! `≤ 2^{−F−1}` per count and is measured in experiment E7 (design
//! decision D5).
//!
//! A node keeps only the nonzero counts it receives, each as one `u64`
//! that packs the neighbor slot, the source and the fixed-point count off
//! the wire, in one arrival-order list; the potentials are formed only
//! when the node combines (DESIGN §13).

use congest_sim::{Context, Incoming, NodeProgram, TraceEvent};
use rwbc_graph::NodeId;

use crate::distributed::messages::CountMsg;
use crate::flow_sum::node_net_flow_sparse;

/// Node program for the computing phase.
#[derive(Debug, Clone)]
pub struct CountProgram {
    me: NodeId,
    n: usize,
    /// The nonzero fixed-point own counts `(s, round(ξ_me^s · 2^F / d(me)))`
    /// by ascending source — what actually travels; every absent source
    /// sends zero.
    own: Vec<(u32, u64)>,
    /// Index into `own` of the first source not yet broadcast.
    cursor: usize,
    /// The nonzero received neighbor counts, in arrival order, one word
    /// per cell: `(slot << id_bits | source) << value_bits | q`, with `q`
    /// the fixed-point count as it came off the wire. Every absent
    /// `(slot, source)` cell is zero. A source's `K` walks of length `l`
    /// visit at most `K(l + 1)` nodes, so a neighbor's column averages at
    /// most `K(l + 1)` nonzero cells where a dense table holds `n`. Each
    /// slot's cells are by ascending source, because both delivery modes
    /// assign sources in increasing order per neighbor. The potential a
    /// cell stands for is formed only in `combine`.
    cells: Vec<u64>,
    /// `bits(n − 1)`: the width of a cell's slot and of its source field
    /// (derived from `n`, not encoded).
    id_bits: u8,
    degree: usize,
    value_bits: u8,
    fractional_bits: u8,
    k: usize,
    sent: usize,
    received_rounds: usize,
    /// Messages received per neighbor slot so far.
    received_per_neighbor: Vec<usize>,
    /// When `true`, counts are indexed by their *arrival position* per
    /// neighbor instead of by the global round number. Position indexing is
    /// only sound on a channel with in-order exactly-once delivery — i.e.
    /// behind [`Reliable`](congest_sim::Reliable), where retransmitted
    /// counts arrive rounds late but never out of order. In lockstep mode
    /// (the default) the round number implies the source, and a lost
    /// message degrades to a zero cell counted in [`CountProgram::missing`].
    strict_delivery: bool,
    /// Neighbor-count cells that never arrived (lockstep mode only; the
    /// cells keep their zero default — a graceful undercount).
    missing: u64,
    /// Neighbors declared permanently dead (sorted); resolved to slot
    /// positions lazily in `on_round`, where the neighbor list is known.
    dead_peers: Vec<NodeId>,
    /// Liveness per neighbor slot. A dead slot is excluded from the
    /// strict-delivery completion check (its column stays zero and is
    /// tallied in `missing`), so the phase terminates on the survivors.
    live: Vec<bool>,
    /// The node count the final normalization divides by. Defaults to `n`;
    /// after a partition the driver sets it to the surviving component's
    /// size so estimates stay comparable to an exact solve on the
    /// survivor graph.
    effective_n: usize,
    /// The locally computed betweenness, available once the phase is done.
    betweenness: Option<f64>,
    /// Cached neighbor ids (ascending), filled on first use. The topology
    /// is static, so collecting the iterator once replaces the per-round
    /// `Vec<NodeId>` allocations the slot lookups used to pay.
    neighbor_ids: Vec<NodeId>,
}

impl CountProgram {
    /// Program for node `me` with its phase-1 counts `xi`, listed as
    /// `(s, ξ_me^s)` by ascending source (an omitted source counts zero),
    /// degree `degree`, and `K = walks_per_node`.
    ///
    /// `value_bits`/`fractional_bits` come from
    /// [`count_field_bits`](crate::distributed::messages::count_field_bits)
    /// and the driver's budget fitting.
    pub fn new(
        me: NodeId,
        n: usize,
        degree: usize,
        xi: &[(NodeId, u64)],
        walks_per_node: usize,
        value_bits: u8,
        fractional_bits: u8,
    ) -> CountProgram {
        debug_assert!(xi.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(xi.last().is_none_or(|&(s, _)| s < n));
        assert!(
            cell_bits(n, value_bits) <= 64,
            "a cell packs its slot, source and {value_bits}-bit count into one u64"
        );
        let scale = f64::from(1u32 << fractional_bits);
        // Paper Algorithm 2 line 1: divide by the degree. The 1/K of line 4
        // is folded in when a count is read (`value`) so the combine
        // estimates T directly.
        let own: Vec<(u32, u64)> = xi
            .iter()
            .map(|&(s, c)| {
                let q = ((c as f64 / degree.max(1) as f64) * scale).round() as u64;
                (s as u32, q)
            })
            .filter(|&(_, q)| q != 0)
            .collect();
        CountProgram {
            me,
            n,
            own,
            cursor: 0,
            cells: Vec::new(),
            id_bits: id_bits(n),
            degree,
            value_bits,
            fractional_bits,
            k: walks_per_node,
            sent: 0,
            received_rounds: 0,
            received_per_neighbor: vec![0; degree],
            strict_delivery: false,
            missing: 0,
            dead_peers: Vec::new(),
            live: vec![true; degree],
            effective_n: n,
            betweenness: None,
            neighbor_ids: Vec::new(),
        }
    }

    /// Pre-seeds the set of permanently dead neighbors; their columns are
    /// written off immediately instead of being awaited. More deaths may
    /// arrive at runtime via [`NodeProgram::on_neighbor_down`].
    #[must_use]
    pub fn with_dead_neighbors(mut self, mut peers: Vec<NodeId>) -> CountProgram {
        peers.sort_unstable();
        peers.dedup();
        self.dead_peers = peers;
        self
    }

    /// Overrides the node count used by the final normalization (clamped
    /// to ≥ 2); see the `effective_n` field.
    #[must_use]
    pub fn with_effective_n(mut self, n_eff: usize) -> CountProgram {
        self.effective_n = n_eff.max(2);
        self
    }

    /// Switches to strict-delivery (position-indexed) mode; see
    /// [`CountProgram::missing`] for the trade-off. Use when the program
    /// runs behind a reliable-delivery adapter.
    #[must_use]
    pub fn with_strict_delivery(mut self, strict: bool) -> CountProgram {
        self.strict_delivery = strict;
        self
    }

    /// The locally computed RWBC of this node (`None` until the phase
    /// finishes).
    pub fn betweenness(&self) -> Option<f64> {
        self.betweenness
    }

    /// Neighbor-count cells this node never received (always 0 in
    /// strict-delivery mode, where the transport repairs losses).
    pub fn missing(&self) -> u64 {
        self.missing
    }

    /// The potential a fixed-point count `q`, own or received, stands
    /// for. `* inv_scale` is bit-identical to `/ 2^F` (both exact:
    /// power-of-two scaling).
    fn value(&self, q: u64) -> f64 {
        let inv_scale = 1.0 / f64::from(1u32 << self.fractional_bits);
        q as f64 * inv_scale / self.k as f64
    }

    /// The cell key `slot << id_bits | source`: a cell word shifted right
    /// by `value_bits`.
    fn key(&self, slot: usize, source: usize) -> u64 {
        (slot as u64) << self.id_bits | source as u64
    }

    /// A cell word's `(slot, source, q)`.
    fn unpack(&self, word: u64) -> (usize, usize, u64) {
        let key = word >> self.value_bits;
        (
            (key >> self.id_bits) as usize,
            (key & low_bits(self.id_bits)) as usize,
            word & low_bits(self.value_bits),
        )
    }

    /// Writes cell `(slot, source)` with last-write-wins semantics, as a
    /// dense table would: a repeated write overwrites the cell and a zero
    /// removes it. Only a lockstep round can write one cell twice (two
    /// frames from one neighbor in one round), and the inbox is sorted by
    /// sender, so an earlier write of the cell is the last one stored.
    fn store(&mut self, slot: usize, source: usize, q: u64) {
        // A wider count would spill into the key.
        assert!(q <= low_bits(self.value_bits), "a count fits its field");
        let key = self.key(slot, source);
        match self.cells.last_mut() {
            Some(w) if *w >> self.value_bits == key => {
                if q == 0 {
                    self.cells.pop();
                } else {
                    *w = key << self.value_bits | q;
                }
            }
            _ if q == 0 => {}
            _ => self.cells.push(key << self.value_bits | q),
        }
    }

    fn send_next(&mut self, ctx: &mut Context<'_, CountMsg>) {
        if self.sent < self.n {
            let scaled = match self.own.get(self.cursor) {
                Some(&(s, q)) if s as usize == self.sent => {
                    self.cursor += 1;
                    q
                }
                _ => 0,
            };
            ctx.broadcast(CountMsg {
                scaled,
                value_bits: self.value_bits,
            });
            self.sent += 1;
        }
    }

    fn all_counts_received(&self) -> bool {
        if self.strict_delivery {
            // Only live slots owe a full column: a dead neighbor's column
            // would otherwise be awaited forever.
            self.sent == self.n
                && self
                    .received_per_neighbor
                    .iter()
                    .zip(&self.live)
                    .all(|(&r, &alive)| !alive || r >= self.n)
        } else {
            self.received_rounds == self.n
        }
    }

    /// Files one round's inbox into the cell store. Needs the neighbor
    /// list cached in `neighbor_ids`.
    fn receive(&mut self, inbox: &[Incoming<CountMsg>]) {
        if !self.dead_peers.is_empty() {
            for p in &self.dead_peers {
                if let Ok(slot) = self.neighbor_ids.binary_search(p) {
                    self.live[slot] = false;
                }
            }
        }
        if self.strict_delivery || self.received_rounds < self.n {
            // In a clean lockstep round the inbox is exactly the (sorted)
            // neighbor list, so a cursor resolves every slot in O(1); the
            // binary search only runs when faults thin or reorder arrivals.
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
                // Lockstep: the inbox of round r carries the neighbors'
                // counts for source r − 1 (the source id travels for free
                // in the round number). Strict delivery: an in-order
                // exactly-once transport decouples arrival rounds from
                // send rounds, so the arrival *position* implies the
                // source instead. Under raw fault injection a message may
                // be missing; its cell keeps the zero default — a graceful
                // undercount, tallied in `missing` — rather than a
                // protocol failure.
                let source = if self.strict_delivery {
                    self.received_per_neighbor[slot]
                } else {
                    self.received_rounds
                };
                if source < self.n {
                    self.store(slot, source, m.msg.scaled);
                    self.received_per_neighbor[slot] += 1;
                }
            }
            if self.received_rounds < self.n {
                self.received_rounds += 1;
            }
        }
    }

    /// Tallies the missing cells and combines Eqs. 6–8 into this node's
    /// betweenness.
    fn combine(&mut self) {
        let expected = (self.degree * self.n) as u64;
        let received: u64 = self.received_per_neighbor.iter().map(|&r| r as u64).sum();
        self.missing = expected.saturating_sub(received);
        let own: Vec<(u32, f64)> = self.own.iter().map(|&(s, q)| (s, self.value(q))).collect();
        // Stable counting sort by slot: each neighbor's column becomes one
        // contiguous run of `(source, value)`, still by ascending source.
        let mut start = vec![0usize; self.degree + 1];
        for &w in &self.cells {
            start[self.unpack(w).0 + 1] += 1;
        }
        for slot in 0..self.degree {
            start[slot + 1] += start[slot];
        }
        let mut next = start.clone();
        let mut by_slot = vec![(0u32, 0.0f64); self.cells.len()];
        for &w in &self.cells {
            let (slot, source, q) = self.unpack(w);
            by_slot[next[slot]] = (source as u32, self.value(q));
            next[slot] += 1;
        }
        let cols = start.windows(2).map(|r| &by_slot[r[0]..r[1]]);
        let inner = node_net_flow_sparse(self.me, self.n, &own, cols);
        let nf = self.effective_n as f64;
        self.betweenness = Some((inner + (nf - 1.0)) / (nf * (nf - 1.0) / 2.0));
    }

    fn finish_if_done(&mut self, ctx: &mut Context<'_, CountMsg>) {
        if self.all_counts_received() && self.betweenness.is_none() {
            self.combine();
            if ctx.tracing() {
                // The value doubles as a per-node completion marker: the
                // event's round is when this node finished evaluating.
                ctx.trace(TraceEvent::App {
                    round: ctx.round(),
                    node: self.me,
                    key: "count_missing".to_string(),
                    value: self.missing,
                });
            }
        }
    }
}

/// `bits(n − 1)`: the width of a cell's slot field and of its source
/// field.
fn id_bits(n: usize) -> u8 {
    congest_sim::bits_for_count(n.saturating_sub(1) as u64) as u8
}

/// The width of a cell word for `n` nodes and `value_bits`-bit counts:
/// a slot, a source and a count, `2·bits(n − 1) + value_bits`. A
/// [`CountProgram`] needs it to be at most 64.
pub(crate) fn cell_bits(n: usize, value_bits: u8) -> usize {
    2 * usize::from(id_bits(n)) + usize::from(value_bits)
}

/// The all-ones mask of the low `bits < 64` bits.
fn low_bits(bits: u8) -> u64 {
    (1 << bits) - 1
}

// Checkpoint encoding: everything but `neighbor_ids`, a lazily-filled
// topology cache that `on_round` rebuilds on first use after a restore —
// excluding it keeps the bytes of a restored-and-resumed run identical to
// an uninterrupted one — and `cursor` and `id_bits`, which `sent` and `n`
// imply. The own counts and the cells are written as held: `(source, q)`
// pairs by ascending source, and the cell words in arrival order.
impl congest_sim::wire::WireState for CountProgram {
    fn encode_state(&self, w: &mut congest_sim::wire::BitWriter) {
        self.me.encode_state(w);
        self.n.encode_state(w);
        self.own.encode_state(w);
        self.cells.encode_state(w);
        self.degree.encode_state(w);
        self.value_bits.encode_state(w);
        self.fractional_bits.encode_state(w);
        self.k.encode_state(w);
        self.sent.encode_state(w);
        self.received_rounds.encode_state(w);
        self.received_per_neighbor.encode_state(w);
        self.strict_delivery.encode_state(w);
        self.missing.encode_state(w);
        self.dead_peers.encode_state(w);
        self.live.encode_state(w);
        self.effective_n.encode_state(w);
        self.betweenness.encode_state(w);
    }

    fn decode_state(r: &mut congest_sim::wire::BitReader<'_>) -> Option<CountProgram> {
        let me = usize::decode_state(r)?;
        let n = usize::decode_state(r)?;
        let own = Vec::decode_state(r)?;
        let cells = Vec::decode_state(r)?;
        let mut p = CountProgram {
            me,
            n,
            own,
            cursor: 0,
            cells,
            id_bits: 0,
            degree: usize::decode_state(r)?,
            value_bits: u8::decode_state(r)?,
            fractional_bits: u8::decode_state(r)?,
            k: usize::decode_state(r)?,
            sent: usize::decode_state(r)?,
            received_rounds: usize::decode_state(r)?,
            received_per_neighbor: Vec::decode_state(r)?,
            strict_delivery: bool::decode_state(r)?,
            missing: u64::decode_state(r)?,
            dead_peers: Vec::decode_state(r)?,
            live: Vec::decode_state(r)?,
            effective_n: usize::decode_state(r)?,
            betweenness: Option::decode_state(r)?,
            neighbor_ids: Vec::new(),
        };
        let consistent = p.me < p.n
            && u32::try_from(p.n).is_ok()
            && cell_bits(p.n, p.value_bits) <= 64
            && p.own.windows(2).all(|w| w[0].0 < w[1].0)
            && p.own.iter().all(|&(s, q)| q != 0 && (s as usize) < p.n)
            && p.received_per_neighbor.len() == p.degree
            && p.live.len() == p.degree
            && p.fractional_bits < 32
            && p.k > 0;
        if !consistent {
            return None;
        }
        p.id_bits = id_bits(p.n);
        // A cell's slot fits its field and names a neighbor, its source is
        // one the neighbor has already delivered, above the slot's previous
        // one, and its count is nonzero; anything else is a corrupt image.
        let mut next = vec![0usize; p.degree];
        for &word in &p.cells {
            let (slot, source, q) = p.unpack(word);
            if slot >= p.degree || slot as u64 > low_bits(p.id_bits) || source < next[slot] {
                return None;
            }
            let delivered = if p.strict_delivery {
                p.received_per_neighbor[slot]
            } else {
                p.received_rounds
            };
            if source >= delivered.min(p.n) || q == 0 {
                return None;
            }
            next[slot] = source + 1;
        }
        p.cursor = p.own.partition_point(|&(s, _)| (s as usize) < p.sent);
        Some(p)
    }
}

impl NodeProgram for CountProgram {
    type Msg = CountMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, CountMsg>) {
        self.send_next(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, CountMsg>, inbox: &[Incoming<CountMsg>]) {
        if self.neighbor_ids.len() != ctx.degree() {
            self.neighbor_ids.clear();
            self.neighbor_ids.extend(ctx.neighbors());
        }
        self.receive(inbox);
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
    use congest_sim::wire::{BitReader, BitWriter, WireState};
    use congest_sim::{SimConfig, Simulator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rwbc_graph::generators::{cycle, path};

    use crate::flow_sum::node_net_flow_sorted;

    // A hand-fed node: node 2 of a 6-node network, neighbors 1, 3 and 5,
    // own counts with zeros in them, K = 3 and 4 fractional bits.
    const ME: usize = 2;
    const N: usize = 6;
    const NEIGHBORS: [usize; 3] = [1, 3, 5];
    const K: usize = 3;
    const F: u8 = 4;

    fn hand_program(strict: bool) -> CountProgram {
        let xi = [(1, 6), (2, 9), (4, 3), (5, 12)];
        let mut p =
            CountProgram::new(ME, N, NEIGHBORS.len(), &xi, K, 16, F).with_strict_delivery(strict);
        p.neighbor_ids = NEIGHBORS.to_vec();
        p
    }

    fn inbox(frames: &[(usize, u64)]) -> Vec<Incoming<CountMsg>> {
        frames
            .iter()
            .map(|&(from, scaled)| Incoming {
                from,
                msg: CountMsg {
                    scaled,
                    value_bits: 16,
                },
            })
            .collect()
    }

    fn encode(p: &CountProgram) -> Vec<u8> {
        let mut w = BitWriter::new();
        p.encode_state(&mut w);
        w.finish()
    }

    /// `p` through its image: encodes it, decodes it, checks that the
    /// decoded program encodes to the same bytes, and hands it the
    /// neighbor list back.
    fn round_trip(p: &CountProgram) -> CountProgram {
        let bytes = encode(p);
        let mut back =
            CountProgram::decode_state(&mut BitReader::new(&bytes)).expect("valid image");
        assert_eq!(encode(&back), bytes, "restore must not change the image");
        back.neighbor_ids = p.neighbor_ids.clone();
        back
    }

    /// The betweenness of `p`, spelled out densely: its own counts and
    /// the fixed-point table `table[slot][source]` as full columns, then
    /// the dense reduction and the normalization.
    fn dense_betweenness(p: &CountProgram, table: &[impl AsRef<[u64]>]) -> f64 {
        let inv_scale = 1.0 / f64::from(1u32 << p.fractional_bits);
        let value = |q: u64| q as f64 * inv_scale / p.k as f64;
        let mut own = vec![0.0; p.n];
        for &(s, q) in &p.own {
            own[s as usize] = value(q);
        }
        let cols: Vec<Vec<f64>> = table
            .iter()
            .map(|col| col.as_ref().iter().map(|&q| value(q)).collect())
            .collect();
        let inner = node_net_flow_sorted(p.me, &own, cols.iter().map(Vec::as_slice));
        let nf = p.n as f64;
        (inner + (nf - 1.0)) / (nf * (nf - 1.0) / 2.0)
    }

    /// Feeds `rounds` of hand-built inboxes (a checkpoint round trip
    /// after round `restore_after`), then asserts the betweenness equals,
    /// bit for bit, the dense reduction over `expected` — the scaled cell
    /// matrix `expected[slot][source]` the frames should leave behind.
    fn assert_matches_dense(
        strict: bool,
        rounds: &[&[(usize, u64)]],
        restore_after: usize,
        expected: [[u64; N]; 3],
    ) {
        let mut p = hand_program(strict);
        for (r, frames) in rounds.iter().enumerate() {
            p.receive(&inbox(frames));
            if r == restore_after {
                p = round_trip(&p);
            }
        }
        p.combine();
        let want = dense_betweenness(&p, &expected);
        let got = p.betweenness().expect("combined");
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs dense {want}");
    }

    #[test]
    fn lockstep_cells_keep_the_last_write() {
        // Round r carries every neighbor's count for source r; a repeat
        // from one neighbor in one round overwrites that cell.
        let rounds: [&[(usize, u64)]; N] = [
            // A duplicated frame.
            &[(1, 5), (1, 5), (3, 7), (5, 2)],
            // A zero overwriting a nonzero cell; a plain zero.
            &[(1, 4), (1, 0), (3, 2), (5, 0)],
            // A nonzero overwriting a zero; node 3's frame is delayed.
            &[(1, 8), (5, 0), (5, 9)],
            // The delayed frame arrives behind the current one, as the
            // engine delivers it, and so wins the current cell.
            &[(1, 1), (3, 11), (3, 6), (5, 3)],
            &[(1, 2), (3, 5), (5, 4)],
            &[(1, 3), (3, 1), (5, 5)],
        ];
        let expected = [[5, 0, 8, 1, 2, 3], [7, 2, 0, 6, 5, 1], [2, 0, 9, 3, 4, 5]];
        for restore_after in [0, 2, N] {
            assert_matches_dense(false, &rounds, restore_after, expected);
        }
    }

    #[test]
    fn strict_cells_follow_arrival_position() {
        // Behind an in-order transport the k-th frame from a neighbor is
        // its count for source k, whatever round it lands in; frames past
        // the n-th are ignored.
        let rounds: [&[(usize, u64)]; N] = [
            &[(1, 5), (3, 7)],
            // Node 5 catches up with two frames in one round.
            &[(1, 0), (3, 2), (5, 2), (5, 0)],
            &[(1, 8), (1, 1), (3, 0), (5, 9)],
            &[(3, 11), (3, 6), (5, 3)],
            &[(1, 2), (3, 5), (5, 4)],
            &[(1, 3), (5, 5), (5, 7)],
        ];
        let expected = [[5, 0, 8, 1, 2, 3], [7, 2, 0, 11, 6, 5], [2, 0, 9, 3, 4, 5]];
        for restore_after in [0, 3, N] {
            assert_matches_dense(true, &rounds, restore_after, expected);
        }
    }

    /// The cell word `(slot, source, q)`.
    fn word(p: &CountProgram, slot: usize, source: usize, q: u64) -> u64 {
        p.key(slot, source) << p.value_bits | q
    }

    /// Widens `p`'s table to nine slots, more than the 3-bit slot field
    /// of a 6-node network addresses.
    fn widen(p: &mut CountProgram) {
        p.degree = 9;
        p.received_per_neighbor.resize(9, 0);
        p.live.resize(9, true);
    }

    #[test]
    fn decode_rejects_inconsistent_cell_tables() {
        // Two lockstep rounds: sources 0 and 1 delivered, five cells.
        let mut p = hand_program(false);
        p.receive(&inbox(&[(1, 5), (3, 7), (5, 2)]));
        p.receive(&inbox(&[(1, 4), (5, 1)]));
        let decode = |bytes: &[u8]| CountProgram::decode_state(&mut BitReader::new(bytes));
        assert!(decode(&encode(&p)).is_some());
        // A wide table decodes while its cells fit their fields.
        let mut wide = p.clone();
        widen(&mut wide);
        wide.cells.push(word(&wide, 7, 0, 1));
        assert!(decode(&encode(&wide)).is_some());
        let edits: [fn(&mut CountProgram); 11] = [
            // Own pairs out of order, repeated, zero or naming no node.
            |p| p.own.swap(0, 1),
            |p| p.own[1].0 = p.own[0].0,
            |p| p.own[0].1 = 0,
            |p| p.own.push((N as u32, 1)),
            // A cell past the last slot, and a zero cell.
            |p| {
                let (_, source, q) = p.unpack(p.cells[0]);
                p.cells[0] = word(p, NEIGHBORS.len(), source, q);
            },
            |p| p.cells[0] &= !low_bits(p.value_bits),
            // A source repeated or descending within its slot.
            |p| p.cells.push(p.cells[4]),
            |p| p.cells.push(p.cells[0]),
            // A source its neighbor has not delivered yet, and one past
            // the network however many rounds the image claims.
            |p| p.cells.push(word(p, 1, 2, 48)),
            |p| {
                p.received_rounds = N + 1;
                p.cells.push(word(p, 1, N, 48));
            },
            // A slot that overflows its field of the word.
            |p| {
                widen(p);
                p.cells.push(word(p, 8, 0, 1));
            },
        ];
        for edit in edits {
            let mut bad = p.clone();
            edit(&mut bad);
            assert!(
                decode(&encode(&bad)).is_none(),
                "{:?} / {:x?}",
                bad.own,
                bad.cells
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random inboxes through `receive`, with a checkpoint round trip
        /// before a random round: the combine equals the dense reduction
        /// over the last-write-wins table bit for bit, and every image
        /// decodes to a program that encodes it again.
        #[test]
        fn receive_and_combine_match_the_dense_table(
            strict in any::<bool>(),
            n in 2usize..24,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let me = rng.gen_range(0..n);
            let mut neighbors: Vec<usize> = (0..n).filter(|&v| v != me).collect();
            let degree = rng.gen_range(1..=neighbors.len().min(5));
            neighbors.shuffle(&mut rng);
            neighbors.truncate(degree);
            neighbors.sort_unstable();
            let (k, f, value_bits) = (rng.gen_range(1..5), rng.gen_range(1..8u8), rng.gen_range(10..=40u8));
            let xi: Vec<(NodeId, u64)> = (0..n)
                .filter_map(|s| Some((s, rng.gen_range(0..6u64))).filter(|&(_, c)| c > 0))
                .collect();
            let mut p = CountProgram::new(me, n, degree, &xi, k, value_bits, f)
                .with_strict_delivery(strict);
            p.neighbor_ids = neighbors.clone();
            // Zeros are common, and so are frames repeating the last one.
            let draw = |rng: &mut StdRng, last: Option<u64>| match (rng.gen_range(0..4), last) {
                (0, _) => 0,
                (1, Some(q)) => q,
                _ => rng.gen_range(1..=low_bits(value_bits)),
            };
            let mut table = vec![vec![0u64; n]; degree];
            let mut rounds: Vec<Vec<Incoming<CountMsg>>> = Vec::new();
            let frame = |from, scaled| Incoming {
                from,
                msg: CountMsg { scaled, value_bits },
            };
            if strict {
                // Each neighbor's k-th frame is its count for source k,
                // whatever round it lands in; frames past the n-th are
                // ignored.
                let mut queues: Vec<std::collections::VecDeque<u64>> = (0..degree)
                    .map(|slot| {
                        let extra = rng.gen_range(0..3usize);
                        let mut last = None;
                        (0..n + extra)
                            .map(|source| {
                                let q = draw(&mut rng, last);
                                if source < n {
                                    table[slot][source] = q;
                                }
                                last = Some(q);
                                q
                            })
                            .collect()
                    })
                    .collect();
                while queues.iter().any(|q| !q.is_empty()) {
                    let mut frames = Vec::new();
                    for (slot, queue) in queues.iter_mut().enumerate() {
                        for _ in 0..rng.gen_range(0..=3) {
                            if let Some(q) = queue.pop_front() {
                                frames.push(frame(neighbors[slot], q));
                            }
                        }
                    }
                    rounds.push(frames);
                }
            } else {
                // Round r carries each neighbor's count for source r: none
                // (a lost frame), one, or several, a duplicate or a
                // delayed frame among them; the last one wins.
                while rounds.len() < n {
                    let source = rounds.len();
                    let mut frames = Vec::new();
                    for (slot, &from) in neighbors.iter().enumerate() {
                        let mut last = None;
                        for _ in 0..[0, 1, 1, 1, 1, 2, 2, 3][rng.gen_range(0..8usize)] {
                            let q = draw(&mut rng, last);
                            frames.push(frame(from, q));
                            table[slot][source] = q;
                            last = Some(q);
                        }
                    }
                    rounds.push(frames);
                }
            }
            let restore_before = rng.gen_range(0..=rounds.len());
            for (r, frames) in rounds.iter().enumerate() {
                if r == restore_before {
                    p = round_trip(&p);
                }
                p.receive(frames);
            }
            p = round_trip(&p);
            p.combine();
            let (got, want) = (p.betweenness().expect("combined"), dense_betweenness(&p, &table));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs dense {}", got, want);
            round_trip(&p);
        }
    }

    /// Runs phase 2 alone with synthetic integer counts and returns the
    /// per-node betweenness.
    fn run_counts(
        g: &rwbc_graph::Graph,
        counts: &[Vec<u64>],
        k: usize,
        f: u8,
    ) -> (Vec<f64>, congest_sim::RunStats) {
        let n = g.node_count();
        let max = counts.iter().flatten().copied().max().unwrap_or(1);
        let value_bits = (congest_sim::bits_for_count(max) + f as usize) as u8;
        let mut sim = Simulator::new(g, SimConfig::default().with_bandwidth_coeff(16), |v| {
            let xi: Vec<(NodeId, u64)> = counts[v].iter().copied().enumerate().collect();
            CountProgram::new(v, n, g.degree(v), &xi, k, value_bits, f)
        });
        let stats = sim.run().unwrap();
        let b = (0..n)
            .map(|v| sim.program(v).betweenness().expect("phase finished"))
            .collect();
        (b, stats)
    }

    #[test]
    fn phase2_takes_n_plus_one_rounds() {
        let g = cycle(8).unwrap();
        let counts = vec![vec![1u64; 8]; 8];
        let (_, stats) = run_counts(&g, &counts, 1, 8);
        // Pipelined: the source-s counts sent in round s arrive in round
        // s + 1, so the phase completes in exactly n rounds (Lemma 3).
        assert_eq!(stats.rounds, 8);
    }

    #[test]
    fn combine_matches_centralized_formula() {
        // Hand-feed exact potentials (times K * d(v), inverted by the
        // program) and compare against combine_potentials.
        let g = path(4).unwrap();
        let n = 4;
        let k = 2;
        // Synthetic counts: xi[v][s] = (v + 2 s + 1), scaled by nothing.
        let counts: Vec<Vec<u64>> = (0..n)
            .map(|v| (0..n).map(|s| (v + 2 * s + 1) as u64).collect())
            .collect();
        let (b, _) = run_counts(&g, &counts, k, 16);

        // Centralized reference with the same quantization (F = 16 is fine
        // to treat as exact for integer inputs of this size).
        let x: Vec<Vec<f64>> = (0..n)
            .map(|v| {
                (0..n)
                    .map(|s| counts[v][s] as f64 / g.degree(v) as f64 / k as f64)
                    .collect()
            })
            .collect();
        let reference =
            crate::flow_sum::combine_potentials(&g, &x, crate::flow_sum::PairSumMethod::Sorted);
        for v in 0..n {
            assert!(
                (b[v] - reference[v]).abs() < 1e-3,
                "node {v}: {} vs {}",
                b[v],
                reference[v]
            );
        }
    }

    #[test]
    fn quantization_error_shrinks_with_fractional_bits() {
        let g = cycle(5).unwrap();
        let counts: Vec<Vec<u64>> = (0..5)
            .map(|v| (0..5).map(|s| ((7 * v + 3 * s) % 11) as u64).collect())
            .collect();
        let (coarse, _) = run_counts(&g, &counts, 3, 2);
        let (fine, _) = run_counts(&g, &counts, 3, 16);
        let x: Vec<Vec<f64>> = (0..5)
            .map(|v| {
                (0..5)
                    .map(|s| counts[v][s] as f64 / g.degree(v) as f64 / 3.0)
                    .collect()
            })
            .collect();
        let reference =
            crate::flow_sum::combine_potentials(&g, &x, crate::flow_sum::PairSumMethod::Sorted);
        let err = |b: &[f64]| -> f64 {
            b.iter()
                .zip(&reference)
                .map(|(a, r)| (a - r).abs())
                .fold(0.0, f64::max)
        };
        assert!(err(&fine) <= err(&coarse));
        assert!(err(&fine) < 1e-3);
    }
}
