//! Little-endian byte I/O helpers for compact binary snapshot formats.
//!
//! The text edge-list format of [`crate::io`] is meant for eyeballing; the
//! query-serving subsystem (`ftbfs-oracle`) additionally persists frozen
//! structures as *binary* snapshots with a magic header and a checksum.
//! This module provides the shared primitives: fixed-width little-endian
//! writers, a bounds-checked [`ByteReader`], alignment padding for
//! mmap-oriented section layouts, the FNV-1a checksums used to detect
//! corrupted or truncated snapshot files, and the zero-copy little-endian
//! array view [`LeU32s`] through which every frozen structure serves its
//! `u32` arrays straight out of its snapshot bytes.
//!
//! All integers are encoded little-endian so snapshots are byte-identical
//! across platforms.  Decoding **never** reinterprets raw snapshot bytes at
//! native endianness: every read goes through `u32::from_le_bytes` /
//! `u64::from_le_bytes` (the workspace forbids `unsafe`, so transmutes and
//! `align_to` tricks are impossible by construction), which compiles to a
//! plain load on little-endian hardware and a byte swap on big-endian
//! hardware — same bytes, same values, everywhere.

use std::fmt;

/// Appends a `u16` in little-endian order.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, value: u16) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u32` in little-endian order.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends every `u32` of `values` in little-endian order — the bulk writer
/// behind snapshot array sections.
pub fn put_u32_slice(buf: &mut Vec<u8>, values: &[u32]) {
    buf.reserve(4 * values.len());
    for &v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Pads `buf` with zero bytes until its length is a multiple of `align`.
///
/// Snapshot sections are aligned this way so that, when a snapshot file is
/// mapped at a page boundary, every section starts on an `align`-byte
/// boundary in memory.
///
/// # Panics
///
/// Panics if `align` is zero.
pub fn pad_to_align(buf: &mut Vec<u8>, align: usize) {
    assert!(align > 0, "alignment must be positive");
    let rem = buf.len() % align;
    if rem != 0 {
        buf.resize(buf.len() + (align - rem), 0);
    }
}

/// Error produced when a [`ByteReader`] runs out of input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByteError {
    /// Byte offset at which the read was attempted.
    pub at: usize,
    /// Number of bytes the read needed.
    pub wanted: usize,
    /// Number of bytes that were actually available.
    pub available: usize,
}

impl fmt::Display for ByteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unexpected end of input at byte {}: wanted {} bytes, {} available",
            self.at, self.wanted, self.available
        )
    }
}

impl std::error::Error for ByteError {}

/// A bounds-checked cursor over a byte slice, the reading counterpart of the
/// `put_*` writers.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Current byte offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Returns `true` if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `len` raw bytes.
    pub fn take_bytes(&mut self, len: usize) -> Result<&'a [u8], ByteError> {
        if self.remaining() < len {
            return Err(ByteError {
                at: self.pos,
                wanted: len,
                available: self.remaining(),
            });
        }
        let slice = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, ByteError> {
        let b = self.take_bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, ByteError> {
        let b = self.take_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, ByteError> {
        let b = self.take_bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Incremental 64-bit FNV-1a: the streaming form of [`fnv1a64`], for
/// hashing inputs assembled from several slices without concatenating them.
///
/// ```
/// use ftbfs_graph::bytes::{fnv1a64, Fnv1a};
/// let whole = fnv1a64(b"frozen structure");
/// let streamed = Fnv1a::new().update(b"frozen ").update(b"structure").finish();
/// assert_eq!(whole, streamed);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher positioned at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Absorbs `bytes`, one byte per FNV step.
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Absorbs `bytes` as little-endian 64-bit words, one **word** per FNV
    /// step — the bulk-checksum variant used by snapshot sections (8× fewer
    /// serial multiplies than the byte-stepped form, so open-time
    /// checksumming stays off the serving critical path).  A trailing
    /// partial word (sections are `u32`-granular, so at most 4 bytes) is
    /// zero-extended.  The words are decoded little-endian, so the digest
    /// is platform-independent.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of 4 (sections store `u32`
    /// arrays, so their lengths always are).
    #[must_use]
    pub fn update_words(mut self, bytes: &[u8]) -> Self {
        assert!(
            bytes.len() % 4 == 0,
            "word-stepped FNV needs a whole number of u32 words"
        );
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.0 ^= u64::from_le_bytes([
                chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
            ]);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            self.0 ^= u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]) as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// The digest of everything absorbed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// The 64-bit FNV-1a hash of `bytes` — the checksum used by binary
/// snapshots (and as a cheap structural fingerprint).
///
/// FNV-1a is not cryptographic; it detects accidental corruption and
/// truncation, which is all the snapshot formats need.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a::new().update(bytes).finish()
}

/// The 64-bit-word-stepped FNV-1a digest of `bytes` (see
/// [`Fnv1a::update_words`]): the section checksum of the v2 snapshot
/// format.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of 4.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    Fnv1a::new().update_words(bytes).finish()
}

/// A zero-copy view of a byte region as an array of little-endian `u32`s —
/// the read side of [`put_u32_slice`].
///
/// This is how mmap-served snapshots expose their big arrays: the bytes
/// stay wherever they are (an owned buffer, a mapped file) and every access
/// decodes 4 bytes via `u32::from_le_bytes`, which is a plain load on
/// little-endian hardware.  No native-endian reinterpretation ever happens.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeU32s<'a> {
    bytes: &'a [u8],
}

impl<'a> LeU32s<'a> {
    /// Wraps `bytes` as a `u32` array view.
    ///
    /// Returns `None` if the length is not a multiple of 4.
    pub fn new(bytes: &'a [u8]) -> Option<Self> {
        if bytes.len() % 4 != 0 {
            return None;
        }
        Some(LeU32s { bytes })
    }

    /// An empty view.
    pub fn empty() -> Self {
        LeU32s { bytes: &[] }
    }

    /// Number of `u32` elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / 4
    }

    /// Returns `true` if the view holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The `i`-th element, decoded little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        // One bounds check on a 4-byte subslice, not four byte indexes.
        let at = i * 4;
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().expect("four bytes"))
    }

    /// A sub-view of the element range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    #[inline]
    pub fn slice(&self, lo: usize, hi: usize) -> LeU32s<'a> {
        LeU32s {
            bytes: &self.bytes[lo * 4..hi * 4],
        }
    }

    /// The underlying little-endian bytes.
    #[inline]
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Iterates the decoded elements in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }

    /// Binary-searches a sorted view for `x`, with `slice::binary_search`
    /// semantics.
    pub fn binary_search(&self, x: u32) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let v = self.get(mid);
            if v < x {
                lo = mid + 1;
            } else if v > x {
                hi = mid;
            } else {
                return Ok(mid);
            }
        }
        Err(lo)
    }
}

/// Read access to a `u32` array, implemented by native slices and
/// little-endian byte views, for code that walks either: the query
/// engine's parent pointers live in snapshot bytes (precomputed trees) or
/// in its own `Vec<u32>` scratch (searched and cached restrictions).
pub trait WordRead: Copy {
    /// The `i`-th element.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    fn read(&self, i: usize) -> u32;
}

impl WordRead for &[u32] {
    #[inline(always)]
    fn read(&self, i: usize) -> u32 {
        self[i]
    }
}

impl WordRead for LeU32s<'_> {
    #[inline(always)]
    fn read(&self, i: usize) -> u32 {
        self.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        assert_eq!(buf.len(), 14);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.is_empty());
        assert_eq!(r.position(), 14);
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0x0102_0304);
        assert_eq!(buf, vec![0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn truncated_reads_error_with_context() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 7);
        let mut r = ByteReader::new(&buf);
        r.take_u16().unwrap();
        let err = r.take_u32().unwrap_err();
        assert_eq!(
            err,
            ByteError {
                at: 2,
                wanted: 4,
                available: 0
            }
        );
        assert!(err.to_string().contains("byte 2"));
        // The failed read does not advance the cursor.
        assert_eq!(r.position(), 2);
    }

    #[test]
    fn take_bytes_and_remaining() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r = ByteReader::new(&data);
        assert_eq!(r.take_bytes(2).unwrap(), &[1, 2]);
        assert_eq!(r.remaining(), 3);
        assert!(r.take_bytes(4).is_err());
        assert_eq!(r.take_bytes(3).unwrap(), &[3, 4, 5]);
        assert!(r.is_empty());
    }

    #[test]
    fn fnv_checksum_is_stable_and_sensitive() {
        // Reference value of FNV-1a("") is the offset basis.
        assert_eq!(fnv1a64(&[]), 0xcbf2_9ce4_8422_2325);
        let a = fnv1a64(b"frozen structure");
        let b = fnv1a64(b"frozen structurf");
        assert_ne!(a, b);
        assert_eq!(a, fnv1a64(b"frozen structure"));
    }

    #[test]
    fn streaming_fnv_matches_one_shot_and_word_fnv_detects_flips() {
        let data = b"dual failure resilient bfs structure"; // 36 bytes = 9 words
        assert_eq!(
            Fnv1a::new().update(&data[..7]).update(&data[7..]).finish(),
            fnv1a64(data)
        );
        // The word-stepped digest is deterministic, differs from the
        // byte-stepped one, and any single-bit flip changes it.
        let words = fnv1a64_words(data);
        assert_eq!(words, fnv1a64_words(data));
        assert_ne!(words, fnv1a64(data));
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = *data;
                flipped[i] ^= 1 << bit;
                assert_ne!(fnv1a64_words(&flipped), words, "flip at byte {i} bit {bit}");
            }
        }
        assert_eq!(fnv1a64_words(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    #[should_panic]
    fn word_fnv_rejects_ragged_input() {
        let _ = fnv1a64_words(&[1, 2, 3]);
    }

    #[test]
    fn pad_to_align_and_bulk_writer() {
        let mut buf = vec![0xAAu8; 5];
        pad_to_align(&mut buf, 64);
        assert_eq!(buf.len(), 64);
        assert!(buf[5..].iter().all(|&b| b == 0));
        pad_to_align(&mut buf, 64); // already aligned: no-op
        assert_eq!(buf.len(), 64);
        let mut arr = Vec::new();
        put_u32_slice(&mut arr, &[1, 0x0102_0304, u32::MAX]);
        assert_eq!(arr.len(), 12);
        assert_eq!(&arr[4..8], &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn le_u32s_decodes_the_same_values_the_writer_encoded() {
        let values = [0u32, 1, 7, 0xDEAD_BEEF, u32::MAX, 42];
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &values);
        let view = LeU32s::new(&buf).expect("length is a multiple of 4");
        assert_eq!(view.len(), values.len());
        assert!(!view.is_empty());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(view.get(i), v);
        }
        assert_eq!(view.iter().collect::<Vec<_>>(), values);
        let sub = view.slice(1, 4);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.get(0), 1);
        assert_eq!(sub.get(2), 0xDEAD_BEEF);
        assert!(LeU32s::new(&buf[..7]).is_none());
        assert!(LeU32s::empty().is_empty());
    }

    #[test]
    fn le_u32s_reads_are_byte_order_defined_not_native() {
        // The byte pattern 01 02 03 04 must decode as 0x04030201 on every
        // platform: the little-endian *byte order* defines the value.  A
        // native-endian reinterpretation would decode 0x01020304 on
        // big-endian hardware; `from_le_bytes` cannot.
        let bytes = [0x01u8, 0x02, 0x03, 0x04];
        let view = LeU32s::new(&bytes).unwrap();
        assert_eq!(view.get(0), 0x0403_0201);
        assert_eq!(
            view.get(0),
            u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
        );
        // And unaligned backing storage is fine: LE decoding never requires
        // the bytes to sit on a u32 boundary in memory.
        let shifted = [0xFFu8, 0x01, 0x02, 0x03, 0x04];
        let view = LeU32s::new(&shifted[1..]).unwrap();
        assert_eq!(view.get(0), 0x0403_0201);
    }

    #[test]
    fn le_u32s_binary_search_matches_slice_semantics() {
        let values: Vec<u32> = vec![2, 3, 5, 8, 13, 21, 34];
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &values);
        let view = LeU32s::new(&buf).unwrap();
        for probe in 0..40u32 {
            assert_eq!(
                view.binary_search(probe),
                values.binary_search(&probe),
                "probe {probe}"
            );
        }
        assert_eq!(LeU32s::empty().binary_search(7), Err(0));
    }
}
