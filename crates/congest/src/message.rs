use rand::rngs::StdRng;
use rand::Rng;

use crate::fault::CorruptionKind;
use crate::wire::{BitCount, BitSink, BitWriter};

/// A message that can travel over a CONGEST edge.
///
/// A message has one layout, its [`Message::write`], and everything else
/// is derived from it. The [`Simulator`] charges [`Message::bit_size`],
/// the bits `write` puts, against the per-edge budget
/// `B(n) = bandwidth_coeff · ⌈log₂ n⌉` every round, so the paper's
/// Theorem 4 ("our algorithms satisfy the CONGEST model") is checked
/// *mechanically* by running under [`ViolationPolicy::Strict`].
/// Checksummed frames
/// ([`Reliable::with_checksums`](crate::Reliable::with_checksums)) seal
/// what `write` puts, and [`Message::encode`] is its bytes.
///
/// [`Simulator`]: crate::Simulator
/// [`ViolationPolicy::Strict`]: crate::ViolationPolicy::Strict
pub trait Message: Clone + Send + Sync + 'static {
    /// Puts this message's fields into `out`, most-significant bit first,
    /// as they travel on an edge of a network with `n` nodes.
    fn write(&self, n: usize, out: &mut impl BitSink);

    /// Number of bits this message occupies on an edge of a network with
    /// `n` nodes: what [`Message::write`] puts.
    fn bit_size(&self, n: usize) -> usize {
        let mut count = BitCount::default();
        self.write(n, &mut count);
        count.0
    }

    /// The wire bytes: what [`Message::write`] puts, zero-padded to a
    /// whole byte.
    fn encode(&self, n: usize) -> Vec<u8> {
        let mut w = BitWriter::new();
        self.write(n, &mut w);
        w.finish()
    }

    /// Returns a fault-mangled variant of this message, or `None` when
    /// the damage leaves nothing a receiver could parse (the engine then
    /// counts the message as corrupted *and* dropped — undecodable bytes
    /// and lost bytes are indistinguishable to the receiver).
    ///
    /// The default destroys the frame for every [`CorruptionKind`]. Types
    /// with a real wire encoding should override this with a
    /// structure-aware mutation (encode, mangle, re-decode) so corruption
    /// exercises the receiver's decode path instead of vanishing.
    ///
    /// Determinism contract: implementations draw only from `rng`, which
    /// the engine advances in deterministic message order.
    fn corrupted(&self, kind: CorruptionKind, n: usize, rng: &mut StdRng) -> Option<Self> {
        let _ = (kind, n, rng);
        None
    }
}

/// Bits needed to address a node in a network of `n` nodes: `⌈log₂ n⌉`
/// (minimum 1).
///
/// # Example
///
/// ```
/// use congest_sim::bits_for_node_id;
/// assert_eq!(bits_for_node_id(1024), 10);
/// assert_eq!(bits_for_node_id(1000), 10);
/// assert_eq!(bits_for_node_id(2), 1);
/// ```
pub fn bits_for_node_id(n: usize) -> usize {
    crate::config::log2_ceil(n).max(1)
}

/// Bits needed to transmit an integer in `0..=max_value`.
///
/// # Example
///
/// ```
/// use congest_sim::bits_for_count;
/// assert_eq!(bits_for_count(0), 1);
/// assert_eq!(bits_for_count(1), 1);
/// assert_eq!(bits_for_count(255), 8);
/// assert_eq!(bits_for_count(256), 9);
/// ```
pub fn bits_for_count(max_value: u64) -> usize {
    if max_value <= 1 {
        1
    } else {
        (u64::BITS - max_value.leading_zeros()) as usize
    }
}

impl Message for u64 {
    fn write(&self, _n: usize, out: &mut impl BitSink) {
        out.put(*self, bits_for_count(*self));
    }

    fn corrupted(&self, kind: CorruptionKind, _n: usize, rng: &mut StdRng) -> Option<u64> {
        let width = bits_for_count(*self);
        match kind {
            // Invert one bit within the value's wire width.
            CorruptionKind::BitFlip => Some(*self ^ (1 << rng.gen_range(0..width))),
            // A truncated frame keeps only a prefix of the MSB-first
            // encoding: the low-order tail is lost.
            CorruptionKind::Truncate => {
                let keep = rng.gen_range(0..width);
                Some(if keep == 0 {
                    0
                } else {
                    *self >> (width - keep)
                })
            }
            // Garbage of the same width.
            CorruptionKind::Garbage => Some(rng.gen_range(0..u64::MAX) & mask(width)),
        }
    }
}

/// Low `width` bits set (width in `1..=64`).
fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl Message for () {
    /// A pure "pulse" still costs one bit on the wire.
    fn write(&self, _n: usize, out: &mut impl BitSink) {
        out.put(1, 1);
    }

    // A mangled 1-bit pulse is unparseable; the default (destroy) applies.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bits_match_log() {
        assert_eq!(bits_for_node_id(1), 1);
        assert_eq!(bits_for_node_id(2), 1);
        assert_eq!(bits_for_node_id(3), 2);
        assert_eq!(bits_for_node_id(16), 4);
        assert_eq!(bits_for_node_id(17), 5);
    }

    #[test]
    fn count_bits_match_binary_length() {
        assert_eq!(bits_for_count(2), 2);
        assert_eq!(bits_for_count(7), 3);
        assert_eq!(bits_for_count(8), 4);
        assert_eq!(bits_for_count(u64::MAX), 64);
    }

    #[test]
    fn primitive_impls() {
        assert_eq!(Message::bit_size(&(), 100), 1);
        assert_eq!(Message::bit_size(&42u64, 100), 6);
    }

    #[test]
    fn default_corruption_destroys_the_frame() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        for kind in CorruptionKind::ALL {
            assert_eq!(Message::corrupted(&(), kind, 16, &mut rng), None);
        }
    }

    #[test]
    fn u64_corruption_stays_within_the_wire_width() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let value = 42u64; // 6 wire bits
        for _ in 0..200 {
            for kind in CorruptionKind::ALL {
                let mangled = Message::corrupted(&value, kind, 16, &mut rng)
                    .expect("u64 corruption always parses");
                assert!(mangled < 64, "{kind:?} escaped the 6-bit width: {mangled}");
                if kind == CorruptionKind::BitFlip {
                    assert_ne!(mangled, value, "a bit flip must change the value");
                }
            }
        }
        // Full-width values do not overflow the mask/shift arithmetic.
        for _ in 0..50 {
            for kind in CorruptionKind::ALL {
                Message::corrupted(&u64::MAX, kind, 16, &mut rng).unwrap();
            }
        }
    }

    #[test]
    fn digests_separate_different_values() {
        let d = |v: u64| {
            let mut crc = crate::wire::Crc32::new();
            v.write(100, &mut crc);
            crc.finish()
        };
        assert_ne!(d(42), d(43));
        assert_eq!(d(42), d(42));
    }
}
