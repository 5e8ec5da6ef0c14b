//! Mergeable visit-count sketches for the compressed count phase.
//!
//! The exact count phase ships one fixed-point value per *source* —
//! `n` rounds, `n` values per edge direction. At `n = 4096` that is
//! ~5.3 Gbit for the phase and an `n × degree` float store per node.
//! This module compresses both: sources are hashed into `B = 2^p`
//! buckets and each node ships one *bucket aggregate* per round instead
//! of one source value, cutting the phase to `B` rounds and the per-node
//! store to `B × degree`.
//!
//! A [`VisitSketch`] is the hyper-anf / HyperBall idiom split in two:
//!
//! * **occupancy registers** — HyperLogLog registers (one 6-bit rank per
//!   bucket, stored in a byte) over the *distinct sources that actually
//!   visited* this node, giving a cheap cardinality estimate of walk
//!   coverage;
//! * **magnitude buckets** — fixed-point scaled visit-count sums
//!   `X_b = Σ_{s: h(s)=b} round(ξ_v^s · 2^F / d(v))`, the payload the
//!   count phase actually exchanges.
//!
//! Merging two sketches takes the element-wise **maximum** of both
//! arrays. For registers that is the standard HLL union; for buckets it
//! is the lattice join over monotone snapshots of the same underlying
//! counts (each walk only ever *adds* visits, so a larger bucket value
//! strictly dominates an earlier one). Max-merge makes the operation
//! commutative, associative, and idempotent — the properties the
//! property tests pin down and the reason duplicated or reordered merge
//! traffic can never double-count.
//!
//! The error introduced by bucketing is analyzed in DESIGN §12: the
//! combine step replaces each source's potential difference by its
//! bucket average, and the deviation is bounded by the within-bucket
//! spread, shrinking as `O(1/√B)`. [`sketch_error_bound`] is the
//! empirically calibrated envelope the property tests and E16 enforce,
//! and [`stacked_error_bound`] stacks it on the paper's `(1 − ε)` term.

use congest_sim::wire::{BitReader, BitSink, BitWriter, WireState};
use congest_sim::{bits_for_count, splitmix64, CorruptionKind, Message};
use rand::rngs::StdRng;
use rand::Rng;
use rwbc_graph::NodeId;

/// Lowest supported sketch precision (4 buckets).
pub const MIN_SKETCH_PRECISION: u8 = 2;
/// Highest supported sketch precision (65536 buckets). Beyond this the
/// sketch is larger than any graph this crate targets per-phase.
pub const MAX_SKETCH_PRECISION: u8 = 16;

/// Version tag leading every serialized [`VisitSketch`]; bump when the
/// layout changes so stale frames are rejected instead of misread.
const SKETCH_WIRE_VERSION: u8 = 1;

/// The bucket source `s` hashes into under precision `p`.
pub fn bucket_of(source: NodeId, precision: u8) -> usize {
    (splitmix64(source as u64) >> (64 - u32::from(precision))) as usize
}

/// HLL rank of source `s`: one plus the leading-zero count of the hash
/// bits left after the bucket index, saturating at the field maximum.
fn rank_of(source: NodeId, precision: u8) -> u8 {
    let rest = splitmix64(source as u64) << precision;
    let width = 64 - u32::from(precision);
    (rest.leading_zeros().min(width - 1) + 1) as u8
}

/// Exact preimage size of every bucket over the source universe
/// `0..n` — the combine-step weights. Deterministic and locally
/// computable from `(n, p)`, so the weights never travel.
pub fn bucket_weights(n: usize, precision: u8) -> Vec<u32> {
    let mut w = vec![0u32; 1usize << precision];
    for s in 0..n {
        w[bucket_of(s, precision)] += 1;
    }
    w
}

/// A mergeable visit-count sketch: HLL occupancy registers plus
/// fixed-point magnitude buckets (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitSketch {
    /// Bucket-count exponent: `B = 2^precision`.
    pub precision: u8,
    /// HLL registers over distinct visited sources, one per bucket.
    pub registers: Vec<u8>,
    /// Fixed-point scaled visit-count sums, one per bucket.
    pub buckets: Vec<u64>,
}

impl VisitSketch {
    /// An empty sketch with `2^precision` buckets.
    ///
    /// # Panics
    ///
    /// If `precision` is outside
    /// [`MIN_SKETCH_PRECISION`]`..=`[`MAX_SKETCH_PRECISION`].
    pub fn new(precision: u8) -> VisitSketch {
        assert!(
            (MIN_SKETCH_PRECISION..=MAX_SKETCH_PRECISION).contains(&precision),
            "sketch precision {precision} outside {MIN_SKETCH_PRECISION}..={MAX_SKETCH_PRECISION}"
        );
        let b = 1usize << precision;
        VisitSketch {
            precision,
            registers: vec![0; b],
            buckets: vec![0; b],
        }
    }

    /// Number of buckets `B = 2^precision`.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Folds one source's scaled visit count into the sketch. A zero
    /// count still updates the occupancy register only when `visited`
    /// demands it — callers pass `scaled > 0` observations.
    pub fn observe(&mut self, source: NodeId, scaled: u64) {
        let b = bucket_of(source, self.precision);
        if scaled > 0 {
            let r = rank_of(source, self.precision);
            if r > self.registers[b] {
                self.registers[b] = r;
            }
        }
        self.buckets[b] = self.buckets[b].saturating_add(scaled);
    }

    /// Lattice join: element-wise maximum of registers *and* buckets.
    /// Commutative, associative, idempotent (property-tested), so
    /// duplicated or reordered merges can never inflate the sketch.
    ///
    /// # Panics
    ///
    /// If the two sketches disagree on precision.
    pub fn merge(&mut self, other: &VisitSketch) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge sketches of different precision"
        );
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = (*a).max(*b);
        }
    }

    /// HyperLogLog cardinality estimate of the distinct sources
    /// observed, with the standard small-range (linear counting)
    /// correction.
    pub fn distinct_estimate(&self) -> f64 {
        let b = self.registers.len();
        let bf = b as f64;
        let alpha = match b {
            4 => 0.532,
            8 => 0.626,
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / bf),
        };
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        let raw = alpha * bf * bf / sum;
        if raw <= 2.5 * bf {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return bf * (bf / zeros as f64).ln();
            }
        }
        raw
    }

    /// Serializes to the versioned wire form. Layout: version byte,
    /// precision byte, `B` six-bit registers, `B` length-prefixed
    /// buckets (6-bit width header + that many value bits), so an
    /// almost-empty sketch costs little more than one byte per bucket.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(u64::from(SKETCH_WIRE_VERSION), 8);
        w.write_bits(u64::from(self.precision), 8);
        for &r in &self.registers {
            w.write_bits(u64::from(r), 6);
        }
        for &v in &self.buckets {
            let width = bits_for_count(v);
            w.write_bits(width as u64, 6);
            w.write_bits(v, width);
        }
        w.finish()
    }

    /// Decodes the versioned wire form. Total over malformed input:
    /// unknown versions, out-of-range precisions, over-wide rank or
    /// width fields, and truncated streams all yield `None`.
    pub fn decode(data: &[u8]) -> Option<VisitSketch> {
        let mut r = BitReader::new(data);
        if r.read_bits(8)? != u64::from(SKETCH_WIRE_VERSION) {
            return None;
        }
        let precision = r.read_bits(8)? as u8;
        if !(MIN_SKETCH_PRECISION..=MAX_SKETCH_PRECISION).contains(&precision) {
            return None;
        }
        let b = 1usize << precision;
        let max_rank = 64 - u64::from(precision);
        let mut registers = Vec::with_capacity(b);
        for _ in 0..b {
            let rank = r.read_bits(6)?;
            if rank > max_rank {
                return None;
            }
            registers.push(rank as u8);
        }
        let mut buckets = Vec::with_capacity(b);
        for _ in 0..b {
            let width = r.read_bits(6)? as usize;
            if width > 64 {
                return None;
            }
            buckets.push(r.read_bits(width)?);
        }
        Some(VisitSketch {
            precision,
            registers,
            buckets,
        })
    }
}

// Checkpoint encoding reuses the versioned wire form so a fuzzable
// single codec covers both surfaces.
impl WireState for VisitSketch {
    fn encode_state(&self, w: &mut BitWriter) {
        let bytes = self.encode();
        bytes.len().encode_state(w);
        w.write_bytes(&bytes);
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<VisitSketch> {
        let len = usize::decode_state(r)?;
        if len > (1usize << 24) {
            return None;
        }
        let bytes = r.read_bytes(len)?;
        VisitSketch::decode(&bytes)
    }
}

/// One sketch-mode phase-2 message: the fixed-point magnitude of one
/// bucket. The bucket index travels explicitly (`precision` bits) —
/// unlike the exact phase's round-implied source id — because the
/// systolic optimization lets nodes skip empty buckets, so arrival
/// position no longer implies the bucket, and a delayed frame still
/// lands in the right cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchCountMsg {
    /// The bucket this magnitude belongs to.
    pub bucket: u32,
    /// `Σ_{s: h(s)=bucket} round(ξ_v^s · 2^F / d(v))`.
    pub scaled: u64,
    /// Bucket-index field width (the sender's sketch precision).
    pub precision: u8,
    /// Magnitude field width in bits, fixed per run.
    pub value_bits: u8,
}

impl SketchCountMsg {
    /// Decodes from bytes produced by [`Message::encode`].
    pub fn decode(data: &[u8], precision: u8, value_bits: u8) -> Option<SketchCountMsg> {
        let mut r = BitReader::new(data);
        Some(SketchCountMsg {
            bucket: r.read_bits(precision as usize)? as u32,
            scaled: r.read_bits(value_bits as usize)?,
            precision,
            value_bits,
        })
    }
}

impl WireState for SketchCountMsg {
    fn encode_state(&self, w: &mut BitWriter) {
        self.bucket.encode_state(w);
        self.scaled.encode_state(w);
        self.precision.encode_state(w);
        self.value_bits.encode_state(w);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<SketchCountMsg> {
        Some(SketchCountMsg {
            bucket: u32::decode_state(r)?,
            scaled: u64::decode_state(r)?,
            precision: u8::decode_state(r)?,
            value_bits: u8::decode_state(r)?,
        })
    }
}

impl Message for SketchCountMsg {
    fn write(&self, _n: usize, out: &mut impl BitSink) {
        out.put(u64::from(self.bucket), self.precision as usize);
        out.put(self.scaled, self.value_bits as usize);
    }

    /// Mangles either field within its fixed width; every mutation still
    /// parses (both fields are bare integers), so an unchecksummed
    /// corrupted bucket silently lands its magnitude in the wrong cell —
    /// the sketch-mode analogue of the exact phase's silent skew.
    fn corrupted(&self, kind: CorruptionKind, _n: usize, rng: &mut StdRng) -> Option<Self> {
        let width = self.precision as usize + self.value_bits as usize;
        let vmask = if self.value_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.value_bits) - 1
        };
        let bmask = (1u64 << self.precision) - 1;
        let mut bucket = u64::from(self.bucket);
        let mut scaled = self.scaled;
        match kind {
            CorruptionKind::BitFlip => {
                let bit = rng.gen_range(0..width);
                if bit < self.precision as usize {
                    bucket ^= 1 << bit;
                } else {
                    scaled ^= 1 << (bit - self.precision as usize);
                }
            }
            CorruptionKind::Truncate => {
                let keep = rng.gen_range(0..self.value_bits as usize);
                scaled = if keep == 0 {
                    0
                } else {
                    scaled >> (self.value_bits as usize - keep)
                };
            }
            CorruptionKind::Garbage => {
                bucket = rng.gen_range(0..u64::MAX) & bmask;
                scaled = rng.gen_range(0..u64::MAX) & vmask;
            }
        }
        Some(SketchCountMsg {
            bucket: bucket as u32,
            scaled,
            precision: self.precision,
            value_bits: self.value_bits,
        })
    }
}

/// Width of the sketch magnitude field: a bucket aggregates at most all
/// `n` sources, each contributing at most `K (l + 1)` visits scaled by
/// `2^f / d ≤ 2^f`. Worst-case over public parameters only, so the width
/// is deterministic and identical at every node.
pub fn sketch_field_bits(k: usize, l: usize, n: usize, f: u8) -> u8 {
    let max = (k as u64)
        .saturating_mul(l as u64 + 1)
        .saturating_mul(n as u64);
    (bits_for_count(max) + f as usize) as u8
}

/// The sketch-induced relative-error envelope at a given precision:
/// bucketing replaces each source potential by its bucket average, and
/// the resulting deviation of the pair sum shrinks as `O(1/√B)` (DESIGN
/// §12). The constant is calibrated against the exact path on ER, BA,
/// and torus topologies (property tests + E16); it is an empirical
/// envelope for mean relative error, not a concentration bound.
pub fn sketch_error_bound(precision: u8) -> f64 {
    let b = (1u64 << precision) as f64;
    6.0 / b.sqrt()
}

/// The full stacked accuracy envelope for sketch mode: the paper's
/// Monte-Carlo `(1 − ε)` term plus the sketch term. Errors from the two
/// stages are independent in origin (sampling noise vs bucketing bias)
/// and simply add at the level of relative error envelopes.
pub fn stacked_error_bound(epsilon: f64, precision: u8) -> f64 {
    epsilon + sketch_error_bound(precision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bucket_hash_covers_all_buckets() {
        let w = bucket_weights(4096, 8);
        assert_eq!(w.len(), 256);
        assert_eq!(w.iter().map(|&c| c as usize).sum::<usize>(), 4096);
        // SplitMix64 disperses sequential ids: no bucket is starved or
        // grossly overloaded at 16 expected entries per bucket.
        assert!(w.iter().all(|&c| c > 0), "starved bucket");
        assert!(w.iter().all(|&c| c < 64), "overloaded bucket");
    }

    #[test]
    fn observe_accumulates_and_ranks() {
        let mut s = VisitSketch::new(4);
        s.observe(3, 100);
        s.observe(3, 50);
        let b = bucket_of(3, 4);
        assert_eq!(s.buckets[b], 150);
        assert_eq!(s.registers[b], rank_of(3, 4));
    }

    #[test]
    fn merge_is_lattice_join() {
        let mut a = VisitSketch::new(3);
        let mut b = VisitSketch::new(3);
        for s in 0..40 {
            a.observe(s, (s as u64) * 3);
            b.observe(s + 20, (s as u64) * 5);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        let mut twice = ab.clone();
        twice.merge(&ab);
        assert_eq!(twice, ab, "merge must be idempotent");
    }

    #[test]
    fn distinct_estimate_tracks_cardinality() {
        let mut s = VisitSketch::new(8);
        for src in 0..1000 {
            s.observe(src, 1);
        }
        let est = s.distinct_estimate();
        let err = (est - 1000.0).abs() / 1000.0;
        // Standard HLL at B = 256 has ~6.5% relative standard error.
        assert!(err < 0.25, "estimate {est} too far from 1000");
    }

    #[test]
    fn sketch_wire_round_trips() {
        let mut s = VisitSketch::new(5);
        for src in 0..200 {
            s.observe(src, (src as u64 * 7) % 2000);
        }
        let bytes = s.encode();
        assert_eq!(VisitSketch::decode(&bytes).unwrap(), s);
    }

    #[test]
    fn sketch_decode_rejects_malformed() {
        assert_eq!(VisitSketch::decode(&[]), None);
        // Wrong version.
        assert_eq!(VisitSketch::decode(&[99, 4]), None);
        // Precision outside the supported band.
        assert_eq!(VisitSketch::decode(&[1, 63]), None);
        // Truncated register block.
        assert_eq!(VisitSketch::decode(&[1, 8, 0, 0]), None);
    }

    #[test]
    fn sketch_decode_never_panics_on_noise() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let len = rng.gen_range(0..200usize);
            let buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u64) as u8).collect();
            let _ = VisitSketch::decode(&buf);
        }
    }

    #[test]
    fn sketch_msg_round_trips_and_size_matches() {
        let m = SketchCountMsg {
            bucket: 200,
            scaled: 987_654,
            precision: 8,
            value_bits: 37,
        };
        let bytes = m.encode(4096);
        assert_eq!(bytes.len(), m.bit_size(4096).div_ceil(8));
        assert_eq!(SketchCountMsg::decode(&bytes, 8, 37).unwrap(), m);
    }

    #[test]
    fn sketch_msg_corruption_stays_in_field_widths() {
        let m = SketchCountMsg {
            bucket: 17,
            scaled: 123_456,
            precision: 6,
            value_bits: 20,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            for kind in CorruptionKind::ALL {
                let c = m.corrupted(kind, 300, &mut rng).unwrap();
                assert!(c.bucket < 64, "{kind:?} escaped the bucket field");
                assert!(c.scaled < (1 << 20), "{kind:?} escaped the value field");
            }
        }
    }

    #[test]
    fn sketch_msg_digest_covers_both_fields() {
        let d = |m: &SketchCountMsg| {
            let mut crc = congest_sim::wire::Crc32::new();
            m.write(4096, &mut crc);
            crc.finish()
        };
        let a = SketchCountMsg {
            bucket: 5,
            scaled: 99,
            precision: 8,
            value_bits: 30,
        };
        let mut b = a;
        b.bucket = 6;
        assert_ne!(d(&a), d(&b));
        let mut c = a;
        c.scaled = 98;
        assert_ne!(d(&a), d(&c));
        // The digest hashes exactly the encoded bits.
        assert_eq!(d(&a), congest_sim::wire::crc32(&a.encode(4096)));
    }

    #[test]
    fn field_widths_and_budget() {
        // n = 4096, K = 4, l = 64, F = 16: worst-case bucket magnitude
        // 4 · 65 · 4096 ≈ 2^21, so 21 + 16 = 37 value bits; with the
        // 8-bit bucket index the frame is 45 bits, well inside the
        // default budget B(4096) = 96 — versus 4096 exact rounds this
        // is a 4096·25 / 256·45 ≈ 8.9× phase-bit reduction.
        assert_eq!(sketch_field_bits(4, 64, 4096, 16), 37);
        let frame = 8 + 37;
        assert!(frame <= congest_sim::SimConfig::default().budget_bits(4096));
    }

    #[test]
    fn error_bounds_shrink_with_precision() {
        assert!(sketch_error_bound(10) < sketch_error_bound(6));
        assert!(stacked_error_bound(0.1, 8) > 0.1);
    }
}
