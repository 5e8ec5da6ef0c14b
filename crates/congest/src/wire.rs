//! Bit-exact wire encoding.
//!
//! [`Message::bit_size`] declares how many bits a message occupies; this
//! module provides a real encoder/decoder so tests can verify that declared
//! sizes are *achievable* — i.e. the distributed algorithm's messages
//! genuinely fit in `O(log n)` bits, not just by assertion.
//!
//! [`Message::bit_size`]: crate::Message::bit_size
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

use bytes::{BufMut, Bytes, BytesMut};

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

/// Append-only bit-level writer backed by [`bytes::BytesMut`].
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: BytesMut,
    /// Bits used in the pending (not yet flushed) byte.
    pending: u8,
    pending_bits: u8,
    bit_len: usize,
}

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
        assert!(width <= 64, "width {width} exceeds 64 bits");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in (0..width).rev() {
            let bit = ((value >> i) & 1) as u8;
            self.pending = (self.pending << 1) | bit;
            self.pending_bits += 1;
            self.bit_len += 1;
            if self.pending_bits == 8 {
                self.buf.put_u8(self.pending);
                self.pending = 0;
                self.pending_bits = 0;
            }
        }
    }

    /// Writes a whole byte slice (each byte as 8 bits, in order).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_bits(u64::from(b), 8);
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Finishes, zero-padding the final partial byte.
    pub fn finish(mut self) -> Bytes {
        if self.pending_bits > 0 {
            self.buf.put_u8(self.pending << (8 - self.pending_bits));
        }
        self.buf.freeze()
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
        if self.cursor + width > self.data.len() * 8 {
            return None;
        }
        let mut value = 0u64;
        for _ in 0..width {
            let byte = self.data[self.cursor / 8];
            let bit = (byte >> (7 - (self.cursor % 8))) & 1;
            value = (value << 1) | u64::from(bit);
            self.cursor += 1;
        }
        Some(value)
    }

    /// Reads `len` whole bytes; `None` when the input is exhausted.
    pub fn read_bytes(&mut self, len: usize) -> Option<Vec<u8>> {
        if len.checked_mul(8)? > self.remaining_bits() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.read_bits(8)? as u8);
        }
        Some(out)
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

/// Streaming CRC-32 (IEEE) over bit-granular content.
///
/// Bits are accumulated most-significant first and flushed to the
/// polynomial byte-wise, exactly mirroring [`BitWriter`]: feeding a field
/// sequence through [`Crc32::update_bits`] yields the same checksum as
/// byte-hashing the [`BitWriter::finish`] output of that sequence
/// (including the zero padding of the final partial byte). That makes the
/// checksum of a frame well-defined without ever materializing its bytes.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
    pending: u8,
    pending_bits: u8,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh checksum (standard init value).
    pub fn new() -> Crc32 {
        Crc32 {
            state: 0xFFFF_FFFF,
            pending: 0,
            pending_bits: 0,
        }
    }

    fn update_byte(&mut self, byte: u8) {
        let idx = (self.state ^ u32::from(byte)) & 0xFF;
        self.state = CRC32_TABLE[idx as usize] ^ (self.state >> 8);
    }

    /// Feeds the `width` low bits of `value`, most-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits
    /// (same contract as [`BitWriter::write_bits`]).
    pub fn update_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} exceeds 64 bits");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in (0..width).rev() {
            let bit = ((value >> i) & 1) as u8;
            self.pending = (self.pending << 1) | bit;
            self.pending_bits += 1;
            if self.pending_bits == 8 {
                let byte = self.pending;
                self.update_byte(byte);
                self.pending = 0;
                self.pending_bits = 0;
            }
        }
    }

    /// Feeds a full `u64`.
    pub fn update_u64(&mut self, value: u64) {
        self.update_bits(value, 64);
    }

    /// Feeds whole bytes.
    pub fn update_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.update_bits(u64::from(b), 8);
        }
    }

    /// Flushes the partial byte (zero-padded, like [`BitWriter::finish`])
    /// and returns the checksum.
    pub fn finish(mut self) -> u32 {
        if self.pending_bits > 0 {
            let byte = self.pending << (8 - self.pending_bits);
            self.update_byte(byte);
        }
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update_bytes(data);
    crc.finish()
}

/// Appends one checkpoint section: `u64 byte length + u32 CRC-32 +
/// payload bytes`.
pub fn write_section(w: &mut BitWriter, body: &[u8]) {
    w.write_bits(body.len() as u64, 64);
    w.write_bits(u64::from(crc32(body)), 32);
    w.write_bytes(body);
}

/// Reads back one section written by [`write_section`], verifying its
/// checksum before any of the payload is decoded, so a flipped bit is
/// caught at its section. `what` names the section in the error.
///
/// # Errors
///
/// [`SimError::CorruptCheckpoint`] when the section is truncated or fails
/// its checksum.
pub fn read_section(r: &mut BitReader<'_>, what: &str) -> Result<Vec<u8>, SimError> {
    let corrupt = |reason: String| SimError::CorruptCheckpoint { reason };
    let len = r
        .read_bits(64)
        .ok_or_else(|| corrupt(format!("truncated {what} section header")))?;
    let len =
        usize::try_from(len).map_err(|_| corrupt(format!("oversized {what} section length")))?;
    let sum = r
        .read_bits(32)
        .ok_or_else(|| corrupt(format!("truncated {what} section header")))? as u32;
    let bytes = r
        .read_bytes(len)
        .ok_or_else(|| corrupt(format!("truncated {what} section")))?;
    if crc32(&bytes) != sum {
        return Err(corrupt(format!("{what} section failed its checksum")));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn bit_granular_crc_equals_byte_crc_of_the_encoding() {
        let fields = [(1u64, 1usize), (300, 9), (0, 0), (u64::MAX, 64), (5, 3)];
        let mut w = BitWriter::new();
        let mut c = Crc32::new();
        for &(v, width) in &fields {
            w.write_bits(v, width);
            c.update_bits(v, width);
        }
        assert_eq!(c.finish(), crc32(&w.finish()));
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
