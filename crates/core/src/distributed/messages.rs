//! Wire messages of the distributed algorithm, with exact bit accounting.
//!
//! Each message's [`Message::write`] puts its fields at their true widths,
//! and the widths are all `O(log n)`:
//!
//! * a node id costs `⌈log₂ n⌉` bits;
//! * a remaining-length field costs `⌈log₂ (l + 1)⌉` bits with `l = O(n·ln(1/ε))`;
//! * a fixed-point count costs `⌈log₂ (K (l+1) 2^F)⌉` bits with
//!   `K = O(log n)`.
//!
//! The size the engine charges, the seal of a checksummed frame and the
//! bytes the decoders read are all what `write` puts, so the paper's
//! Theorem 4 ("each message contains `O(log n)` bits") is a property of
//! the real encoding, not a declaration beside it.

use congest_sim::wire::{BitReader, BitSink, BitWriter, WireState};
use congest_sim::{bits_for_count, bits_for_node_id, CorruptionKind, Message};
use rand::rngs::StdRng;
use rand::Rng;
use rwbc_graph::NodeId;

/// A random-walk token: the unit of the paper's Algorithm 1. Carries its
/// source id and its remaining length, exactly as in line 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkToken {
    /// The node the walk started at (`RW.source`).
    pub source: NodeId,
    /// Hops left before truncation (`RW.length`).
    pub remaining: u32,
}

/// One phase-1 message: one or more walk tokens crossing an edge in a
/// round.
///
/// Under the paper's discipline ([`CongestionDiscipline::HoldAndResend`])
/// a batch always holds exactly one token; the batched ablation packs as
/// many as the bit budget allows, at most [`WalkBatch::CAPACITY`]. The
/// tokens live inline, so a message owns no heap allocation.
///
/// [`CongestionDiscipline::HoldAndResend`]: crate::distributed::CongestionDiscipline::HoldAndResend
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkBatch {
    /// The first `len` entries are the tokens; the rest stay default, so
    /// the derived equality compares only the tokens.
    tokens: [WalkToken; WalkBatch::CAPACITY],
    len: u8,
    /// Width of the remaining-length field, `⌈log₂ (l + 1)⌉` bits,
    /// fixed per run at construction.
    len_bits: u8,
}

/// Width of the batch-size header (tokens per message is small).
const BATCH_HEADER_BITS: usize = 4;

impl WalkBatch {
    /// Most tokens one batch holds: the default budget `8⌈log₂ n⌉` fits
    /// `⌊(8⌈log₂ n⌉ − 4) / (⌈log₂ n⌉ + len_bits)⌋ ≤ 7` of them.
    pub const CAPACITY: usize = 7;

    /// A batch of `tokens`, or `None` when they exceed [`Self::CAPACITY`].
    pub fn new(tokens: &[WalkToken], len_bits: u8) -> Option<WalkBatch> {
        if tokens.len() > WalkBatch::CAPACITY {
            return None;
        }
        let mut batch = WalkBatch::empty(len_bits);
        batch.tokens[..tokens.len()].copy_from_slice(tokens);
        batch.len = tokens.len() as u8;
        Some(batch)
    }

    pub(crate) fn empty(len_bits: u8) -> WalkBatch {
        WalkBatch {
            tokens: [WalkToken::default(); WalkBatch::CAPACITY],
            len: 0,
            len_bits,
        }
    }

    /// Appends a token to a batch that is not full.
    pub(crate) fn push(&mut self, token: WalkToken) {
        self.tokens[usize::from(self.len)] = token;
        self.len += 1;
    }

    /// The tokens.
    pub fn tokens(&self) -> &[WalkToken] {
        &self.tokens[..usize::from(self.len)]
    }

    /// Width of the remaining-length field.
    pub fn len_bits(&self) -> u8 {
        self.len_bits
    }

    /// Bits one token occupies in a network of `n` nodes.
    pub fn token_bits(n: usize, len_bits: u8) -> usize {
        bits_for_node_id(n) + len_bits as usize
    }

    /// Tokens per batch that fit `payload_bits` (the budget net of any
    /// transport header), clamped to `1..=CAPACITY`: one token always
    /// travels, and a budget too small for it fails as a violation.
    pub fn fit(payload_bits: usize, n: usize, len_bits: u8) -> usize {
        (payload_bits.saturating_sub(BATCH_HEADER_BITS) / WalkBatch::token_bits(n, len_bits))
            .clamp(1, WalkBatch::CAPACITY)
    }

    /// Decodes from bytes produced by [`Message::encode`].
    ///
    /// Total over malformed input: a truncated stream, a token count
    /// above [`Self::CAPACITY`] or a source id outside `0..n` (the id
    /// field can physically encode up to `2^⌈log₂ n⌉ - 1`) yields `None`,
    /// never a panic or an out-of-range token handed to the walk logic.
    pub fn decode(data: &[u8], n: usize, len_bits: u8) -> Option<WalkBatch> {
        let mut r = BitReader::new(data);
        let count = r.read_bits(BATCH_HEADER_BITS)? as usize;
        if count > WalkBatch::CAPACITY {
            return None;
        }
        let mut batch = WalkBatch::empty(len_bits);
        for _ in 0..count {
            let source = r.read_bits(bits_for_node_id(n))? as NodeId;
            if source >= n {
                return None;
            }
            let remaining = r.read_bits(len_bits as usize)? as u32;
            batch.push(WalkToken { source, remaining });
        }
        Some(batch)
    }
}

impl Message for WalkBatch {
    fn write(&self, n: usize, out: &mut impl BitSink) {
        out.put(u64::from(self.len), BATCH_HEADER_BITS);
        for t in self.tokens() {
            out.put(t.source as u64, bits_for_node_id(n));
            out.put(u64::from(t.remaining), self.len_bits as usize);
        }
    }

    /// Structure-aware corruption: the batch is encoded to its real wire
    /// bytes, mangled there, and re-decoded, so the damage exercises the
    /// receiver's actual decode path. Truncation can silently shorten the
    /// batch (fewer tokens that still parse) — precisely the failure mode
    /// only a frame checksum catches.
    fn corrupted(&self, kind: CorruptionKind, n: usize, rng: &mut StdRng) -> Option<Self> {
        let mut bytes = self.encode(n);
        match kind {
            CorruptionKind::BitFlip => {
                let bit = rng.gen_range(0..self.bit_size(n));
                // MSB-first, matching the BitWriter layout.
                bytes[bit / 8] ^= 0x80 >> (bit % 8);
                WalkBatch::decode(&bytes, n, self.len_bits)
            }
            CorruptionKind::Truncate => {
                let keep = rng.gen_range(0..bytes.len());
                WalkBatch::decode(&bytes[..keep], n, self.len_bits)
            }
            CorruptionKind::Garbage => {
                let buf: Vec<u8> = (0..bytes.len())
                    .map(|_| rng.gen_range(0..256u64) as u8)
                    .collect();
                WalkBatch::decode(&buf, n, self.len_bits)
            }
        }
    }
}

impl WireState for WalkToken {
    fn encode_state(&self, w: &mut BitWriter) {
        self.source.encode_state(w);
        self.remaining.encode_state(w);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<WalkToken> {
        Some(WalkToken {
            source: usize::decode_state(r)?,
            remaining: u32::decode_state(r)?,
        })
    }
}

// Host-side checkpoint encoding (full-width fields, the tokens as a
// `Vec<WalkToken>`; the budget-charged on-wire form stays
// `Message::write`/`WalkBatch::decode`).
impl WireState for WalkBatch {
    fn encode_state(&self, w: &mut BitWriter) {
        self.tokens().to_vec().encode_state(w);
        self.len_bits.encode_state(w);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<WalkBatch> {
        let tokens: Vec<WalkToken> = Vec::decode_state(r)?;
        WalkBatch::new(&tokens, u8::decode_state(r)?)
    }
}

/// One phase-2 message: the fixed-point scaled count for the source whose
/// index equals the current phase-2 round (so the source id travels for
/// free in the round number — the pipelining that gives Lemma 3's `O(n)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountMsg {
    /// `round(ξ_v^s · 2^F / d(v))` for the implied source `s`.
    pub scaled: u64,
    /// Field width in bits, fixed per run.
    pub value_bits: u8,
}

impl CountMsg {
    /// Decodes from bytes produced by [`Message::encode`].
    pub fn decode(data: &[u8], value_bits: u8) -> Option<CountMsg> {
        let mut r = BitReader::new(data);
        Some(CountMsg {
            scaled: r.read_bits(value_bits as usize)?,
            value_bits,
        })
    }
}

impl WireState for CountMsg {
    fn encode_state(&self, w: &mut BitWriter) {
        self.scaled.encode_state(w);
        self.value_bits.encode_state(w);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<CountMsg> {
        Some(CountMsg {
            scaled: u64::decode_state(r)?,
            value_bits: u8::decode_state(r)?,
        })
    }
}

impl Message for CountMsg {
    fn write(&self, _n: usize, out: &mut impl BitSink) {
        out.put(self.scaled, self.value_bits as usize);
    }

    /// Mangles the scaled count within its fixed field width; every
    /// mutation still parses (the field is a bare integer), so corruption
    /// of an unchecksummed count silently skews the centrality sum —
    /// the distortion E13 measures.
    fn corrupted(&self, kind: CorruptionKind, _n: usize, rng: &mut StdRng) -> Option<Self> {
        let width = self.value_bits as usize;
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let scaled = match kind {
            CorruptionKind::BitFlip => self.scaled ^ (1 << rng.gen_range(0..width)),
            CorruptionKind::Truncate => {
                let keep = rng.gen_range(0..width);
                if keep == 0 {
                    0
                } else {
                    self.scaled >> (width - keep)
                }
            }
            CorruptionKind::Garbage => rng.gen_range(0..u64::MAX) & mask,
        };
        Some(CountMsg {
            scaled,
            value_bits: self.value_bits,
        })
    }
}

/// Width of the remaining-length field for maximum walk length `l`.
pub fn len_field_bits(l: usize) -> u8 {
    bits_for_count(l as u64) as u8
}

/// Width of the fixed-point count field for `K` walks of length `l` with
/// `f` fractional bits: counts are at most `K (l + 1)` and scaling by
/// `2^f / d ≤ 2^f` keeps them below `K (l + 1) 2^f`.
pub fn count_field_bits(k: usize, l: usize, f: u8) -> u8 {
    let max = (k as u64) * (l as u64 + 1);
    (bits_for_count(max) + f as usize) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_batch_round_trips_and_size_matches() {
        let n = 300;
        let len_bits = len_field_bits(500);
        let batch = WalkBatch::new(
            &[
                WalkToken {
                    source: 7,
                    remaining: 499,
                },
                WalkToken {
                    source: 299,
                    remaining: 1,
                },
                WalkToken {
                    source: 0,
                    remaining: 0,
                },
            ],
            len_bits,
        )
        .unwrap();
        let bytes = batch.encode(n);
        // Declared size must match the real encoding (up to byte padding).
        assert_eq!(bytes.len(), batch.bit_size(n).div_ceil(8));
        let back = WalkBatch::decode(&bytes, n, len_bits).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn count_msg_round_trips() {
        let m = CountMsg {
            scaled: 123_456,
            value_bits: 20,
        };
        let bytes = m.encode(300);
        assert_eq!(bytes.len(), 20usize.div_ceil(8));
        assert_eq!(CountMsg::decode(&bytes, 20).unwrap(), m);
    }

    #[test]
    fn field_widths_are_logarithmic() {
        assert_eq!(len_field_bits(1), 1);
        assert_eq!(len_field_bits(255), 8);
        assert_eq!(len_field_bits(256), 9);
        // K = 8, l = 100, F = 12: max count 8 * 101 = 808 -> 10 bits + 12.
        assert_eq!(count_field_bits(8, 100, 12), 22);
    }

    #[test]
    fn decode_rejects_out_of_range_sources() {
        // n = 300 → 9-bit ids, so ids 300..511 are physically encodable
        // but invalid; decode must reject them rather than hand the walk
        // logic an out-of-range node.
        let n = 300;
        let len_bits = len_field_bits(500);
        let mut w = BitWriter::new();
        w.write_bits(1, 4); // one token
        w.write_bits(450, bits_for_node_id(n)); // invalid source
        w.write_bits(3, len_bits as usize);
        assert_eq!(WalkBatch::decode(&w.finish(), n, len_bits), None);
    }

    #[test]
    fn batches_hold_at_most_capacity_tokens() {
        let n = 300;
        let len_bits = len_field_bits(500);
        let token = WalkToken {
            source: 1,
            remaining: 2,
        };
        let full = WalkBatch::new(&[token; WalkBatch::CAPACITY], len_bits).unwrap();
        assert_eq!(WalkBatch::decode(&full.encode(n), n, len_bits), Some(full));
        assert_eq!(
            WalkBatch::new(&[token; WalkBatch::CAPACITY + 1], len_bits),
            None
        );
        // A header announcing one token too many is refused even though
        // every announced token is present.
        let mut w = BitWriter::new();
        w.write_bits(WalkBatch::CAPACITY as u64 + 1, BATCH_HEADER_BITS);
        for _ in 0..=WalkBatch::CAPACITY {
            w.write_bits(1, bits_for_node_id(n));
            w.write_bits(2, len_bits as usize);
        }
        assert_eq!(WalkBatch::decode(&w.finish(), n, len_bits), None);
        // So is an oversized token list in a checkpoint image.
        let mut w = BitWriter::new();
        vec![token; WalkBatch::CAPACITY + 1].encode_state(&mut w);
        len_bits.encode_state(&mut w);
        let image = w.finish();
        assert_eq!(WalkBatch::decode_state(&mut BitReader::new(&image)), None);
        // The default budget never fits more than CAPACITY one-bit-length
        // tokens, and `fit` stays within 1..=CAPACITY at any budget.
        for n in [2usize, 3, 64, 4096, 1 << 20, 1 << 40] {
            let budget = congest_sim::SimConfig::default().budget_bits(n);
            let most = (budget - BATCH_HEADER_BITS) / WalkBatch::token_bits(n, 1);
            assert!(most <= WalkBatch::CAPACITY, "n = {n}: {most}");
            for payload in [0, budget, 100 * budget] {
                let k = WalkBatch::fit(payload, n, 1);
                assert!((1..=WalkBatch::CAPACITY).contains(&k));
            }
        }
    }

    #[test]
    fn corruption_exercises_the_real_codec() {
        use rand::SeedableRng;
        let n = 300;
        let len_bits = len_field_bits(500);
        let batch = WalkBatch::new(
            &[
                WalkToken {
                    source: 7,
                    remaining: 499,
                },
                WalkToken {
                    source: 299,
                    remaining: 1,
                },
            ],
            len_bits,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut survived = 0usize;
        let mut destroyed = 0usize;
        for _ in 0..200 {
            for kind in CorruptionKind::ALL {
                match batch.corrupted(kind, n, &mut rng) {
                    Some(m) => {
                        survived += 1;
                        // Whatever survives decodes cleanly: in-range
                        // sources, same field widths.
                        assert!(m.tokens().iter().all(|t| t.source < n));
                        assert_eq!(m.len_bits(), len_bits);
                    }
                    None => destroyed += 1,
                }
            }
        }
        // Both outcomes must occur: some damage parses (and would be
        // silently accepted without checksums), some destroys the frame.
        assert!(survived > 0, "no corruption ever parsed");
        assert!(destroyed > 0, "no corruption ever destroyed the frame");
    }

    #[test]
    fn count_corruption_stays_in_field_width() {
        use rand::SeedableRng;
        let m = CountMsg {
            scaled: 123_456,
            value_bits: 20,
        };
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            for kind in CorruptionKind::ALL {
                let c = m.corrupted(kind, 300, &mut rng).unwrap();
                assert!(c.scaled < (1 << 20), "{kind:?} escaped the field");
                assert_eq!(c.value_bits, 20);
            }
        }
    }

    #[test]
    fn digests_cover_token_content() {
        let n = 300;
        let len_bits = len_field_bits(500);
        let d = |batch: &WalkBatch| {
            let mut crc = congest_sim::wire::Crc32::new();
            batch.write(n, &mut crc);
            crc.finish()
        };
        let token = WalkToken {
            source: 7,
            remaining: 9,
        };
        let a = WalkBatch::new(&[token], len_bits).unwrap();
        let b = WalkBatch::new(
            &[WalkToken {
                remaining: 8,
                ..token
            }],
            len_bits,
        )
        .unwrap();
        assert_ne!(d(&a), d(&b));
        // The digest hashes exactly the encoded bits: byte-hashing the
        // real encoding gives the same checksum.
        assert_eq!(d(&a), congest_sim::wire::crc32(&a.encode(n)));
    }

    #[test]
    fn single_token_fits_default_budget() {
        // The paper's discipline sends one token per edge per round; that
        // must fit B(n) = 8 ceil(log2 n) for reasonable n and l = n ln(1/eps).
        for n in [8usize, 64, 1000, 1 << 20] {
            let l = (n as f64 * 10.0f64.ln()).ceil() as usize;
            let token = WalkToken {
                source: 0,
                remaining: l as u32,
            };
            let batch = WalkBatch::new(&[token], len_field_bits(l)).unwrap();
            let budget = congest_sim::SimConfig::default().budget_bits(n);
            assert!(
                batch.bit_size(n) <= budget,
                "n = {n}: {} > {budget}",
                batch.bit_size(n)
            );
        }
    }
}
