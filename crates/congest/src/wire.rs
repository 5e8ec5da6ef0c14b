//! Bit-exact wire encoding.
//!
//! A message's layout is its [`Message::write`]: it puts the fields, most
//! significant bit first, into a [`BitSink`]. The size the engine charges
//! is what `write` puts into a [`BitCount`], a checksummed frame's seal is
//! what it puts into a [`Crc32`], and its bytes are what it puts into a
//! [`BitWriter`], so the charge, the seal and the bytes cannot disagree.
//! The module is also the serve daemon's payload codec and the checkpoint
//! codec: [`WireState`] fields in an image framed one way, a 16-byte
//! prelude of magic word and version ([`read_prelude`]) followed only by
//! CRC-sealed, byte-aligned sections ([`BitWriter::section`],
//! [`read_section`]).
//!
//! [`Message::write`]: crate::Message::write
//!
//! # Example
//!
//! ```
//! use congest_sim::wire::{BitReader, BitWriter};
//!
//! let mut w = BitWriter::new();
//! w.write_bits(5, 3); // value 5 in 3 bits
//! w.write_bits(300, 9); // value 300 in 9 bits
//! assert_eq!(w.bit_len(), 12);
//! let bytes = w.finish();
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.read_bits(3), Some(5));
//! assert_eq!(r.read_bits(9), Some(300));
//! ```

use crate::SimError;

/// State that can round-trip through the bit-exact wire encoding.
///
/// This is the serialization contract behind [`Simulator::checkpoint`] /
/// [`Simulator::restore`]: a program (and its message type) that implements
/// `WireState` can be frozen at a round boundary and resumed bit-identically
/// later, possibly in another process. Checkpoints live on the *host* side —
/// they are never charged against the CONGEST budget — so implementations
/// are free to use full-width fields; symmetry with the encoder is what
/// matters, not compactness.
///
/// Decoding is total: a truncated or corrupt image yields `None`, never a
/// panic, so restore paths can surface a typed error.
///
/// [`Simulator::checkpoint`]: crate::Simulator::checkpoint
/// [`Simulator::restore`]: crate::Simulator::restore
pub trait WireState: Sized {
    /// Appends this value's complete state to `w`.
    fn encode_state(&self, w: &mut BitWriter);
    /// Reads back a value previously written by
    /// [`WireState::encode_state`]; `None` on truncated input.
    fn decode_state(r: &mut BitReader<'_>) -> Option<Self>;
}

impl WireState for u64 {
    fn encode_state(&self, w: &mut BitWriter) {
        w.write_bits(*self, 64);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<u64> {
        r.read_bits(64)
    }
}

impl WireState for u32 {
    fn encode_state(&self, w: &mut BitWriter) {
        w.write_bits(u64::from(*self), 32);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<u32> {
        r.read_bits(32).map(|v| v as u32)
    }
}

impl WireState for u8 {
    fn encode_state(&self, w: &mut BitWriter) {
        w.write_bits(u64::from(*self), 8);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<u8> {
        r.read_bits(8).map(|v| v as u8)
    }
}

impl WireState for usize {
    fn encode_state(&self, w: &mut BitWriter) {
        w.write_bits(*self as u64, 64);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<usize> {
        r.read_bits(64).map(|v| v as usize)
    }
}

impl WireState for bool {
    fn encode_state(&self, w: &mut BitWriter) {
        w.write_bits(u64::from(*self), 1);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<bool> {
        r.read_bits(1).map(|v| v == 1)
    }
}

impl WireState for f64 {
    fn encode_state(&self, w: &mut BitWriter) {
        w.write_bits(self.to_bits(), 64);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<f64> {
        r.read_bits(64).map(f64::from_bits)
    }
}

impl WireState for () {
    fn encode_state(&self, _w: &mut BitWriter) {}
    fn decode_state(_r: &mut BitReader<'_>) -> Option<()> {
        Some(())
    }
}

impl<T: WireState> WireState for Option<T> {
    fn encode_state(&self, w: &mut BitWriter) {
        match self {
            Some(v) => {
                w.write_bits(1, 1);
                v.encode_state(w);
            }
            None => w.write_bits(0, 1),
        }
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<Option<T>> {
        match r.read_bits(1)? {
            0 => Some(None),
            _ => T::decode_state(r).map(Some),
        }
    }
}

impl<T: WireState> WireState for Vec<T> {
    fn encode_state(&self, w: &mut BitWriter) {
        w.write_bits(self.len() as u64, 64);
        for item in self {
            item.encode_state(w);
        }
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<Vec<T>> {
        let len = r.read_bits(64)? as usize;
        // Guard against a corrupt length field allocating the world: the
        // remaining input must hold at least one bit per element.
        if len > r.remaining_bits() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode_state(r)?);
        }
        Some(out)
    }
}

impl<A: WireState, B: WireState> WireState for (A, B) {
    fn encode_state(&self, w: &mut BitWriter) {
        self.0.encode_state(w);
        self.1.encode_state(w);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<(A, B)> {
        Some((A::decode_state(r)?, B::decode_state(r)?))
    }
}

impl<A: WireState, B: WireState, C: WireState> WireState for (A, B, C) {
    fn encode_state(&self, w: &mut BitWriter) {
        self.0.encode_state(w);
        self.1.encode_state(w);
        self.2.encode_state(w);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<(A, B, C)> {
        Some((
            A::decode_state(r)?,
            B::decode_state(r)?,
            C::decode_state(r)?,
        ))
    }
}

/// The MSB-first bit packer behind [`BitWriter`] and [`Crc32`]: the low
/// `bits` (`0..8`) bits of `acc` are pending, and each call extends `sink`
/// with the bytes it completes, as one slice.
#[derive(Debug, Clone, Default)]
struct Packer<S> {
    sink: S,
    acc: u8,
    bits: usize,
}

impl<S: for<'a> Extend<&'a u8>> Packer<S> {
    /// Appends the `width` low bits of `value`, most-significant first.
    fn push(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} exceeds 64 bits");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let joined = u128::from(self.acc) << width | u128::from(value);
        let total = self.bits + width;
        let (whole, rest) = (total / 8, total % 8);
        let completed = ((joined >> rest) as u64).to_be_bytes();
        self.sink.extend(&completed[8 - whole..]);
        self.acc = joined as u8;
        self.bits = rest;
    }

    /// Appends whole bytes: as they are on a byte boundary, else eight at
    /// a time.
    fn push_bytes(&mut self, bytes: &[u8]) {
        if self.bits == 0 {
            return self.sink.extend(bytes);
        }
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[8 - chunk.len()..].copy_from_slice(chunk);
            self.push(u64::from_be_bytes(word), 8 * chunk.len());
        }
    }

    /// Zero-pads the pending bits to a byte and returns the sink.
    fn finish(mut self) -> S {
        if self.bits > 0 {
            self.sink.extend(&[self.acc << (8 - self.bits)]);
        }
        self.sink
    }
}

/// Where [`Message::write`](crate::Message::write) puts a message's
/// fields: a [`BitWriter`] stores them, a [`Crc32`] hashes them and a
/// [`BitCount`] counts them.
pub trait BitSink {
    /// Puts the `width` low bits of `value`, most-significant first.
    ///
    /// # Panics
    ///
    /// A [`BitWriter`] or a [`Crc32`] panics if `width > 64` or `value`
    /// does not fit in `width` bits; a [`BitCount`] checks neither.
    fn put(&mut self, value: u64, width: usize);
}

impl BitSink for BitWriter {
    #[inline]
    fn put(&mut self, value: u64, width: usize) {
        self.0.push(value, width);
    }
}

impl BitSink for Crc32 {
    #[inline]
    fn put(&mut self, value: u64, width: usize) {
        self.0.push(value, width);
    }
}

/// The number of bits put, without checking that each value fits its
/// width.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitCount(pub usize);

impl BitSink for BitCount {
    #[inline]
    fn put(&mut self, _value: u64, width: usize) {
        self.0 += width;
    }
}

/// Append-only bit-level writer into a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct BitWriter(Packer<Vec<u8>>);

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Writes the `width` low bits of `value`, most-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: usize) {
        self.0.push(value, width);
    }

    /// Writes a whole byte slice (each byte as 8 bits, in order).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.0.push_bytes(bytes);
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.0.sink.len() * 8 + self.0.bits
    }

    /// Finishes, zero-padding the final partial byte.
    pub fn finish(self) -> Vec<u8> {
        self.0.finish()
    }

    /// Appends one sealed checkpoint section: a `u64` byte length, the
    /// payload's `u32` CRC-32 (both big-endian) and the payload. `payload`
    /// encodes it in place, behind the reserved fields, which are patched
    /// once it is zero-padded to a byte.
    ///
    /// # Panics
    ///
    /// Panics if the writer is not on a byte boundary.
    pub fn section(&mut self, payload: impl FnOnce(&mut BitWriter)) {
        assert_eq!(self.0.bits, 0, "a section starts on a byte boundary");
        let frame = self.0.sink.len();
        self.0.sink.resize(frame + 12, 0);
        payload(self);
        self.write_bits(0, (8 - self.0.bits) % 8);
        let (head, body) = self.0.sink[frame..].split_at_mut(12);
        head[..8].copy_from_slice(&(body.len() as u64).to_be_bytes());
        head[8..].copy_from_slice(&crc32(body).to_be_bytes());
    }
}

/// Bit-level reader over a byte slice; the mirror of [`BitWriter`].
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    cursor: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit.
    pub fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader { data, cursor: 0 }
    }

    /// Reads `width` bits (most-significant first); `None` when the input
    /// is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: usize) -> Option<u64> {
        assert!(width <= 64, "width {width} exceeds 64 bits");
        if width > self.remaining_bits() {
            return None;
        }
        // Gather the (at most nine) bytes the field spans, then cut it out.
        let (first, end) = (self.cursor / 8, (self.cursor + width).div_ceil(8));
        let joined = self.data[first..end]
            .iter()
            .fold(0u128, |acc, &b| acc << 8 | u128::from(b));
        let value = (joined >> (8 * end - self.cursor - width)) & ((1 << width) - 1);
        self.cursor += width;
        Some(value as u64)
    }

    /// Reads `len` whole bytes; `None` when the input is exhausted.
    pub fn read_bytes(&mut self, len: usize) -> Option<Vec<u8>> {
        if len.checked_mul(8)? > self.remaining_bits() {
            return None;
        }
        let (first, skip) = (self.cursor / 8, self.cursor % 8);
        self.cursor += 8 * len;
        // Off a byte boundary each byte straddles two (the last one is in range).
        Some(match skip {
            0 => self.data[first..first + len].to_vec(),
            _ => self.data[first..=first + len]
                .windows(2)
                .map(|pair| pair[0] << skip | pair[1] >> (8 - skip))
                .collect(),
        })
    }

    /// Bits consumed so far.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Bits left to read (counting the zero padding of the final byte).
    pub fn remaining_bits(&self) -> usize {
        (self.data.len() * 8).saturating_sub(self.cursor)
    }
}

/// Lookup table for the IEEE 802.3 CRC-32 (reflected polynomial
/// `0xEDB88320`), built at compile time — the workspace is offline, so
/// the checksum is hand-rolled here rather than pulled from a crate.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The CRC-32 (IEEE) of the bytes put so far.
#[derive(Debug, Clone, Default)]
struct Crc(u32);

impl<'a> Extend<&'a u8> for Crc {
    fn extend<I: IntoIterator<Item = &'a u8>>(&mut self, bytes: I) {
        self.0 = !bytes.into_iter().fold(!self.0, |state, &b| {
            CRC32_TABLE[((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8)
        });
    }
}

/// Streaming CRC-32 (IEEE) over bit-granular content.
///
/// Bits go through [`BitWriter`]'s packer, so feeding a field sequence
/// through [`BitSink::put`] yields the checksum of that sequence's
/// [`BitWriter::finish`] bytes, zero padding included: a frame's checksum
/// is well-defined without ever materializing its bytes.
#[derive(Debug, Clone, Default)]
pub struct Crc32(Packer<Crc>);

impl Crc32 {
    /// A fresh checksum (standard init value).
    pub fn new() -> Crc32 {
        Crc32::default()
    }

    /// Feeds whole bytes.
    pub fn update_bytes(&mut self, bytes: &[u8]) {
        self.0.push_bytes(bytes);
    }

    /// Flushes the partial byte (zero-padded, like [`BitWriter::finish`])
    /// and returns the checksum.
    pub fn finish(self) -> u32 {
        self.0.finish().0
    }
}

/// One-shot CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update_bytes(data);
    crc.finish()
}

/// Checks the 16-byte prelude that opens every checkpoint image, its
/// `u64` magic word and `u64` format version, and returns a reader at
/// the first section. `kind` names the image kind in the error.
///
/// # Errors
///
/// [`SimError::CorruptCheckpoint`] on another magic word or version.
pub fn read_prelude<'a>(
    image: &'a [u8],
    magic: u64,
    version: u64,
    kind: &str,
) -> Result<BitReader<'a>, SimError> {
    let mut r = BitReader::new(image);
    let reason = match (r.read_bits(64), r.read_bits(64)) {
        (Some(m), Some(v)) if (m, v) == (magic, version) => return Ok(r),
        (Some(m), Some(v)) if m == magic => {
            format!("unsupported {kind} version {v} (this build reads version {version})")
        }
        (Some(m), None) if m == magic => format!("truncated {kind} prelude"),
        _ => format!("bad {kind} magic word"),
    };
    Err(SimError::CorruptCheckpoint { reason })
}

/// Reads one section written by [`BitWriter::section`] and returns its
/// payload, borrowed from the image, after verifying its checksum, so a
/// flipped bit is caught at its section. `what` names the section in the
/// error.
///
/// # Errors
///
/// [`SimError::CorruptCheckpoint`] when the reader is off a byte boundary
/// or the section is truncated or fails its checksum.
pub fn read_section<'a>(r: &mut BitReader<'a>, what: &str) -> Result<&'a [u8], SimError> {
    let corrupt = |reason: String| SimError::CorruptCheckpoint { reason };
    if !r.cursor.is_multiple_of(8) {
        return Err(corrupt(format!(
            "{what} section starts off a byte boundary"
        )));
    }
    let (len, sum) = r
        .read_bits(64)
        .zip(r.read_bits(32))
        .ok_or_else(|| corrupt(format!("truncated {what} section header")))?;
    let start = r.cursor / 8;
    let payload = usize::try_from(len)
        .ok()
        .and_then(|len| r.data.get(start..start.checked_add(len)?))
        .ok_or_else(|| corrupt(format!("truncated {what} section")))?;
    if crc32(payload) != sum as u32 {
        return Err(corrupt(format!("{what} section failed its checksum")));
    }
    r.cursor += 8 * payload.len();
    Ok(payload)
}

/// Reads one section ([`read_section`]) and decodes its payload with
/// `decode`, which must read it to the end: a payload with more left
/// than its final byte's zero pad is refused ([`read_end`]).
///
/// # Errors
///
/// [`read_section`]'s and `decode`'s errors, and
/// [`SimError::CorruptCheckpoint`] when the payload holds unread data.
pub fn decode_section<'a, T>(
    r: &mut BitReader<'a>,
    what: &str,
    decode: impl FnOnce(&mut BitReader<'a>) -> Result<T, SimError>,
) -> Result<T, SimError> {
    let mut payload = BitReader::new(read_section(r, what)?);
    let value = decode(&mut payload)?;
    read_end(&payload, &format!("{what} section"))?;
    Ok(value)
}

/// Checks that nothing is left to read in `r` but the zero padding of
/// its final byte — at the end of a section's payload, or after an
/// image's last section, where no padding is left. `what` names the
/// section or image in the error.
///
/// # Errors
///
/// [`SimError::CorruptCheckpoint`] when a whole byte or a set padding
/// bit is left.
pub fn read_end(r: &BitReader<'_>, what: &str) -> Result<(), SimError> {
    let rest = r.remaining_bits();
    let drained = match rest {
        0 => true,
        1..=7 => r.data[r.data.len() - 1] & ((1u8 << rest) - 1) == 0,
        _ => false,
    };
    if drained {
        Ok(())
    } else {
        Err(SimError::CorruptCheckpoint {
            reason: format!("{what} holds unread data"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle for the packer: one bit per step, most-significant
    /// first, zero-padding the final byte.
    #[derive(Default)]
    struct BitAtATime {
        bytes: Vec<u8>,
        bits: usize,
    }

    impl BitAtATime {
        fn write_bits(&mut self, value: u64, width: usize) {
            for i in (0..width).rev() {
                let (byte, bit) = (self.bits / 8, self.bits % 8);
                if bit == 0 {
                    self.bytes.push(0);
                }
                self.bytes[byte] |= (((value >> i) & 1) as u8) << (7 - bit);
                self.bits += 1;
            }
        }
    }

    /// One codec call of a generated sequence.
    #[derive(Debug, Clone)]
    enum Op {
        Bits(u64, usize),
        Bytes(Vec<u8>),
    }

    fn op() -> impl Strategy<Value = Op> {
        (
            any::<bool>(),
            any::<u64>(),
            0usize..=64,
            proptest::collection::vec(any::<u8>(), 0..20),
        )
            .prop_map(|(bits, value, width, bytes)| {
                if bits {
                    Op::Bits(
                        if width == 64 {
                            value
                        } else {
                            value & ((1 << width) - 1)
                        },
                        width,
                    )
                } else {
                    Op::Bytes(bytes)
                }
            })
    }

    #[test]
    fn round_trip_various_widths() {
        let mut w = BitWriter::new();
        let fields = [(1u64, 1usize), (0, 1), (5, 3), (255, 8), (1023, 10), (0, 7)];
        for &(v, width) in &fields {
            w.write_bits(v, width);
        }
        let total: usize = fields.iter().map(|&(_, w)| w).sum();
        assert_eq!(w.bit_len(), total);
        let bytes = w.finish();
        assert_eq!(bytes.len(), total.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        for &(v, width) in &fields {
            assert_eq!(r.read_bits(width), Some(v));
        }
        assert_eq!(r.position(), total);
    }

    #[test]
    fn read_past_end_is_none() {
        let mut w = BitWriter::new();
        w.write_bits(3, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2), Some(3));
        // The padded byte still has 6 readable (zero) bits...
        assert_eq!(r.read_bits(6), Some(0));
        // ...but nothing beyond.
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn full_width_values() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_value_panics() {
        BitWriter::new().write_bits(4, 2);
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bit_granular_crc_equals_byte_crc_of_the_encoding(
            offset in 0usize..8,
            ops in proptest::collection::vec(op(), 0..24),
        ) {
            // Every call goes to the packer, the bit-at-a-time oracle
            // and the checksum alike, after a lead-in that puts the first
            // call at any bit offset.
            let mut w = BitWriter::new();
            let mut oracle = BitAtATime::default();
            let mut c = Crc32::new();
            let lead_in = Op::Bits(0, offset);
            for op in std::iter::once(&lead_in).chain(&ops) {
                match op {
                    Op::Bits(value, width) => {
                        w.write_bits(*value, *width);
                        oracle.write_bits(*value, *width);
                        c.put(*value, *width);
                    }
                    Op::Bytes(bytes) => {
                        w.write_bytes(bytes);
                        for &b in bytes {
                            oracle.write_bits(u64::from(b), 8);
                        }
                        c.update_bytes(bytes);
                    }
                }
            }
            prop_assert_eq!(w.bit_len(), oracle.bits);
            let bytes = w.finish();
            prop_assert_eq!(&bytes, &oracle.bytes);
            prop_assert_eq!(c.finish(), crc32(&bytes));

            let mut r = BitReader::new(&bytes);
            for op in std::iter::once(&lead_in).chain(&ops) {
                match op {
                    Op::Bits(value, width) => prop_assert_eq!(r.read_bits(*width), Some(*value)),
                    Op::Bytes(slice) => {
                        prop_assert_eq!(r.read_bytes(slice.len()), Some(slice.clone()))
                    }
                }
            }
            let pad = r.remaining_bits();
            prop_assert!(pad < 8);
            prop_assert_eq!(r.read_bits(pad + 1), None);
            prop_assert_eq!(r.read_bits(pad), Some(0));
            prop_assert_eq!(r.read_bits(1), None);
            prop_assert_eq!(r.read_bytes(1), None);
        }
    }

    fn apply(w: &mut BitWriter, op: &Op) {
        match op {
            Op::Bits(value, width) => w.write_bits(*value, *width),
            Op::Bytes(bytes) => w.write_bytes(bytes),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sections_are_sealed_in_place(
            lead in proptest::collection::vec(any::<u8>(), 0..4),
            bodies in proptest::collection::vec(proptest::collection::vec(op(), 0..12), 1..4),
            flip in any::<usize>(),
        ) {
            // The oracle frame: the payload encoded on its own, behind
            // its `u64` length and `u32` CRC-32, big-endian.
            let mut w = BitWriter::new();
            w.write_bytes(&lead);
            let mut oracle = lead.clone();
            let mut payloads = Vec::new();
            for ops in &bodies {
                w.section(|w| ops.iter().for_each(|op| apply(w, op)));
                let mut body = BitWriter::new();
                ops.iter().for_each(|op| apply(&mut body, op));
                let body = body.finish();
                oracle.extend((body.len() as u64).to_be_bytes());
                oracle.extend(crc32(&body).to_be_bytes());
                payloads.push((oracle.len(), body.clone()));
                oracle.extend(body);
            }
            let image = w.finish();
            prop_assert_eq!(&image, &oracle);

            // Each payload comes back as the image's own bytes.
            let mut r = BitReader::new(&image);
            prop_assert_eq!(r.read_bytes(lead.len()), Some(lead.clone()));
            for (at, body) in &payloads {
                let got = read_section(&mut r, "test").unwrap();
                prop_assert_eq!(got, &body[..]);
                prop_assert_eq!(got.as_ptr(), image[*at..].as_ptr());
            }
            prop_assert_eq!(r.remaining_bits(), 0);

            // Truncated anywhere, one bit flipped in the checksum or the
            // payload, or read off a byte boundary: a typed error.
            let first = &image[lead.len()..payloads[0].0 + payloads[0].1.len()];
            for cut in 0..first.len() {
                let err = read_section(&mut BitReader::new(&first[..cut]), "test").unwrap_err();
                prop_assert!(err.to_string().contains("truncated test section"), "{}", err);
            }
            let mut flipped = first.to_vec();
            let bit = 64 + flip % (flipped.len() * 8 - 64);
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
            let err = read_section(&mut BitReader::new(&flipped), "test").unwrap_err();
            prop_assert!(err.to_string().contains("failed its checksum"), "{}", err);
            let mut r = BitReader::new(first);
            r.read_bits(1 + flip % 7).unwrap();
            let err = read_section(&mut r, "test").unwrap_err();
            prop_assert!(err.to_string().contains("off a byte boundary"), "{}", err);
        }
    }

    #[test]
    fn byte_helpers_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(1, 3); // unaligned prefix
        w.write_bytes(&[0xDE, 0xAD, 0xBE]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(1));
        assert_eq!(r.read_bytes(3), Some(vec![0xDE, 0xAD, 0xBE]));
        assert_eq!(r.read_bytes(1), None, "past the end");
        assert_eq!(r.read_bytes(usize::MAX), None, "len overflow is caught");
    }
}
