//! The binary snapshot format of [`crate::FrozenStructure`]: one version, v2,
//! whose derived arrays are stored ready to serve, under one of two magics
//! — `"FTBO"` for one shared slab, `"FTBM"` for one slab per declared
//! source (see [`crate::frozen`]).
//!
//! ## Base payload — the determining data
//!
//! A frozen structure is fully determined by its header (`n`, resilience,
//! contract, sources) and its edge list; the CSR arrays and fault-free
//! trees are deterministic functions of those.  The base payload stores
//! exactly that, and its byte-stepped FNV-1a is the structure fingerprint.
//!
//! ```text
//! version  u16       2
//! flags    u16       bit 0: approximate contract; other bits must be 0
//! n        u32       vertex count of the underlying graph
//! resil    u32       designed resilience f
//! contract 4 × u32   (α numerator, α denominator, β, θ) — only if bit 0
//! k        u32       number of sources
//! sources  k × u32
//! m        u32       number of structure (union) edges
//! edges    m × (orig u32, u u32, v u32), strictly increasing by orig
//! slabs    k × (m_s u32, m_s × u32 union-edge indices) — "FTBM" only
//! ```
//!
//! ## Frame and sections — zero-rebuild load
//!
//! The *derived* arrays follow the base as 64-byte-aligned little-endian
//! **sections**, each described by a table-of-contents entry carrying the
//! section's kind tag, absolute offset, byte length and checksum.  A
//! serving process can therefore hold the snapshot bytes (read into a
//! buffer, or a caller-mapped region) and open a [`crate::FrozenView`]
//! over them with **zero rebuild and zero copy** of the big arrays —
//! open-time work is validation only (bounds, alignment, checksums, freeze
//! invariants, and the certificate that the derived sections match the
//! base).  Unknown section kinds are skipped after their bounds and
//! checksum check, so the format can grow without breaking readers
//! (forward compatibility), and a [`crate::FrozenStructure::load`] /
//! `save` round trip keeps them.
//!
//! ```text
//! magic        4 bytes   "FTBO" / "FTBM"
//! base         B bytes   the base payload above
//! base_check   u64       word-stepped FNV-1a over the base payload
//! fingerprint  u64       the structure fingerprint (= FNV-1a of the base),
//!                        stored so a borrowed open need not re-hash the
//!                        base; load() and the serving boundary do
//! count        u32       number of sections
//! toc          count × { kind u32, offset u64, len u64, check u64 }
//! frame_check  u64       word-stepped FNV-1a over fingerprint..toc
//! padding      zero bytes up to the first 64-byte boundary
//! sections     each at a 64-byte-aligned absolute offset, raw
//!              little-endian u32 arrays, zero padding in between
//! ```
//!
//! The sections, in file order (`S` slabs: one, or `k` for `"FTBM"`):
//!
//! ```text
//! SLBT  k × (m_s, offset)   "FTBM" only: per-slab edge count and prefix sum
//! EORI  Σ m_s               per-slab original edge ids, strictly increasing
//! XADJ  S × (n + 1)         per-slab CSR offsets
//! AHED  2 Σ m_s             per-slab arc heads
//! AEDG  2 Σ m_s             per-slab arc edge indices (slab-local)
//! TREE  k × 2n              per source, the dist row then the parent row
//! ```
//!
//! Every byte of a snapshot is covered by exactly one integrity check
//! (magic compare, base checksum, frame checksum, per-section checksums,
//! or the padding-must-be-zero rule), so any single-bit corruption is
//! detected.  Checksums over `u32` arrays use the **word-stepped** FNV-1a
//! variant ([`ftbfs_graph::bytes::fnv1a64_words`], one FNV step per
//! little-endian 64-bit word): same detection power for the 4-byte-aligned
//! payloads snapshots store, 8× fewer serial multiplies, keeping open-time
//! checksumming off the serving critical path.
//!
//! Version 1 — the base payload alone under a trailing checksum, rebuilt
//! on every load — is no longer read or written; its files are rejected
//! with [`SnapshotError::UnsupportedVersion`]`(1)`.

use crate::api::Contract;
use ftbfs_core::ApproxParams;
use ftbfs_graph::bytes::{
    fnv1a64_words, pad_to_align, put_u16, put_u32, put_u32_slice, put_u64, ByteReader, LeU32s,
};
use std::fmt;

/// Magic prefix of every shared-slab frozen-structure snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FTBO";
/// Magic prefix of every per-source-slab frozen-structure snapshot (see
/// [`crate::FrozenStructure::freeze_parts`]).
pub const SNAPSHOT_MULTI_MAGIC: [u8; 4] = *b"FTBM";
/// The snapshot format version every writer emits and every reader
/// accepts.
pub const SNAPSHOT_VERSION: u16 = 2;
/// Alignment (in bytes) of every section start, chosen to match cache
/// lines so mapped arrays never straddle a line at their first element.
pub const SNAPSHOT_ALIGN: usize = 64;

/// Header flag: the base carries an approximate [`Contract`].
const FLAG_APPROX: u16 = 1;

/// Which snapshot format `save_with` writes.  Only v2 exists, and
/// `save` writes it; the knob is kept for the standalone `perfbench`
/// package, which names the format it writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SnapshotVersion {
    /// Base payload plus aligned derived sections, opened with zero
    /// rebuild through [`crate::FrozenView`].
    #[default]
    V2,
}

// Section kind tags (little-endian four-character codes).
/// Slab-local original-edge-id array (`m × u32`, strictly increasing).
pub(crate) const SEC_EDGE_ORIG: u32 = u32::from_le_bytes(*b"EORI");
/// CSR offsets (`(n + 1) × u32` per slab).
pub(crate) const SEC_XADJ: u32 = u32::from_le_bytes(*b"XADJ");
/// CSR arc heads (`2m × u32` per slab).
pub(crate) const SEC_ARC_HEADS: u32 = u32::from_le_bytes(*b"AHED");
/// CSR arc frozen-edge ids (`2m × u32` per slab).
pub(crate) const SEC_ARC_EDGES: u32 = u32::from_le_bytes(*b"AEDG");
/// Fault-free BFS trees (`k × 2n × u32`: dist row then parent row).
pub(crate) const SEC_TREES: u32 = u32::from_le_bytes(*b"TREE");
/// Multi-source slab table (`k × 2 × u32`: per-slab edge count and its
/// prefix-sum offset into the concatenated per-slab arrays).
pub(crate) const SEC_SLAB_TABLE: u32 = u32::from_le_bytes(*b"SLBT");

/// Errors produced when decoding a frozen-structure snapshot.
///
/// This enum may gain variants as the snapshot format evolves; match it
/// with a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The input does not start with the expected magic.
    BadMagic,
    /// The snapshot was written by an unsupported format version.
    UnsupportedVersion(u16),
    /// The input ended before the declared contents.
    Truncated {
        /// Byte offset at which data ran out.
        at: usize,
    },
    /// The base or frame checksum does not match (corrupted snapshot).
    ChecksumMismatch,
    /// A section's recorded checksum does not match its bytes.
    SectionChecksum {
        /// The section's kind tag (a little-endian four-character code).
        kind: u32,
    },
    /// The payload decoded but its contents are inconsistent.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a frozen-structure snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Truncated { at } => write!(f, "snapshot truncated at byte {at}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::SectionChecksum { kind } => {
                let tag = kind.to_le_bytes();
                write!(
                    f,
                    "section {:?} checksum mismatch",
                    String::from_utf8_lossy(&tag)
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<ftbfs_graph::bytes::ByteError> for SnapshotError {
    fn from(err: ftbfs_graph::bytes::ByteError) -> Self {
        SnapshotError::Truncated { at: err.at }
    }
}

pub(crate) fn corrupt<T>(why: impl Into<String>) -> Result<T, SnapshotError> {
    Err(SnapshotError::Corrupt(why.into()))
}

/// One entry of a snapshot's section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionEntry {
    /// The section's kind tag (a little-endian four-character code, e.g.
    /// `u32::from_le_bytes(*b"XADJ")`).
    pub kind: u32,
    /// Absolute byte offset of the section, a multiple of
    /// [`SNAPSHOT_ALIGN`].
    pub offset: usize,
    /// Section length in bytes, a multiple of 4.
    pub len: usize,
    /// Word-stepped FNV-1a over the section bytes.
    pub checksum: u64,
}

/// The parsed outer layout of a snapshot — tooling/test access to the
/// frame without materialising a structure.
#[derive(Clone, Debug)]
pub struct SnapshotLayout {
    /// The format version (always [`SNAPSHOT_VERSION`] on success).
    pub version: u16,
    /// The answer contract the header declares.
    pub contract: Contract,
    /// The byte range of the base payload.
    pub base: std::ops::Range<usize>,
    /// The structure fingerprint recorded in the frame.
    pub fingerprint: u64,
    /// The section table, in file order.
    pub sections: Vec<SectionEntry>,
}

/// Aligns `at` up to the next multiple of [`SNAPSHOT_ALIGN`].
fn align_up(at: usize) -> usize {
    at.div_ceil(SNAPSHOT_ALIGN) * SNAPSHOT_ALIGN
}

/// Writes the base payload header up to and including the edge list (the
/// part both layouts share).
pub(crate) fn put_base(
    out: &mut Vec<u8>,
    contract: Contract,
    n: u32,
    resilience: u32,
    sources: &[ftbfs_graph::VertexId],
    edges: &[(u32, u32, u32)],
) {
    put_u16(out, SNAPSHOT_VERSION);
    put_u16(
        out,
        match contract {
            Contract::Exact => 0,
            Contract::Approx(_) => FLAG_APPROX,
        },
    );
    put_u32(out, n);
    put_u32(out, resilience);
    if let Contract::Approx(p) = contract {
        for word in [p.mult_num, p.mult_den, p.add, p.theta] {
            put_u32(out, word);
        }
    }
    put_u32(out, sources.len() as u32);
    for s in sources {
        put_u32(out, s.0);
    }
    put_u32(out, edges.len() as u32);
    for &(orig, u, v) in edges {
        put_u32_slice(out, &[orig, u, v]);
    }
}

/// Assembles a complete snapshot from its base payload, the structure
/// fingerprint, and the section payloads (each a `u32` array).
pub(crate) fn assemble(
    magic: [u8; 4],
    base: &[u8],
    fingerprint: u64,
    sections: &[(u32, Vec<u8>)],
) -> Vec<u8> {
    debug_assert!(base.len() % 4 == 0, "base payload is u32-granular");
    // Lay out the section offsets first: header, then each section at the
    // next 64-byte boundary.
    let header_len = 4 + base.len() + 8 // magic + base + base checksum
        + 8 + 4 + 28 * sections.len() + 8; // fingerprint + count + toc + frame checksum
    let mut offsets = Vec::with_capacity(sections.len());
    let mut cursor = align_up(header_len);
    for (_, bytes) in sections {
        debug_assert!(bytes.len() % 4 == 0, "sections store u32 arrays");
        offsets.push(cursor);
        cursor = align_up(cursor + bytes.len());
    }
    let total = cursor;

    let mut frame = Vec::with_capacity(12 + 28 * sections.len());
    put_u64(&mut frame, fingerprint);
    put_u32(&mut frame, sections.len() as u32);
    for ((kind, bytes), &offset) in sections.iter().zip(&offsets) {
        put_u32(&mut frame, *kind);
        put_u64(&mut frame, offset as u64);
        put_u64(&mut frame, bytes.len() as u64);
        put_u64(&mut frame, fnv1a64_words(bytes));
    }

    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&magic);
    out.extend_from_slice(base);
    put_u64(&mut out, fnv1a64_words(base));
    out.extend_from_slice(&frame);
    put_u64(&mut out, fnv1a64_words(&frame));
    debug_assert_eq!(out.len(), header_len);
    for ((_, bytes), &offset) in sections.iter().zip(&offsets) {
        pad_to_align(&mut out, SNAPSHOT_ALIGN);
        debug_assert_eq!(out.len(), offset);
        out.extend_from_slice(bytes);
    }
    pad_to_align(&mut out, SNAPSHOT_ALIGN);
    debug_assert_eq!(out.len(), total);
    out
}

/// The validated outer frame of a snapshot.
pub(crate) struct Frame {
    pub fingerprint: u64,
    pub sections: Vec<SectionEntry>,
}

/// Parses and fully validates the frame of `data`, whose base payload
/// ends at absolute offset `base_end`: base checksum, frame checksum,
/// section alignment/bounds/checksums, no overlaps, and zero padding
/// everywhere not covered by a checksum.
pub(crate) fn read_frame(data: &[u8], base_end: usize) -> Result<Frame, SnapshotError> {
    let base = &data[4..base_end];
    if base.len() % 4 != 0 {
        return corrupt("base payload length is not u32-granular");
    }
    let mut r = ByteReader::new(&data[base_end..]);
    let stored_base = r.take_u64()?;
    if fnv1a64_words(base) != stored_base {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let frame_start = base_end + r.position();
    let fingerprint = r.take_u64()?;
    let section_count = r.take_u32()? as usize;
    if section_count > 4096 {
        return corrupt(format!("implausible section count {section_count}"));
    }
    let mut sections = Vec::with_capacity(section_count);
    for _ in 0..section_count {
        let kind = r.take_u32()?;
        let offset = r.take_u64()? as usize;
        let len = r.take_u64()? as usize;
        let checksum = r.take_u64()?;
        sections.push(SectionEntry {
            kind,
            offset,
            len,
            checksum,
        });
    }
    let frame_end = base_end + r.position();
    let stored_frame = r.take_u64()?;
    if fnv1a64_words(&data[frame_start..frame_end]) != stored_frame {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let header_end = base_end + r.position();

    // Per-section validation: alignment, u32 granularity, bounds (after
    // the header, inside the data), checksum.
    for s in &sections {
        if s.offset % SNAPSHOT_ALIGN != 0 {
            return corrupt(format!(
                "section offset {} is not 64-byte aligned",
                s.offset
            ));
        }
        if s.len % 4 != 0 {
            return corrupt("section length is not u32-granular");
        }
        if s.offset < header_end {
            return corrupt("section overlaps the snapshot header");
        }
        let end = s.offset.checked_add(s.len);
        match end {
            Some(end) if end <= data.len() => {}
            _ => return Err(SnapshotError::Truncated { at: data.len() }),
        }
        if fnv1a64_words(&data[s.offset..s.offset + s.len]) != s.checksum {
            return Err(SnapshotError::SectionChecksum { kind: s.kind });
        }
    }

    // Overlap + padding validation: sections must be disjoint, every gap
    // (and the trailing pad) must be zero bytes, and the file must extend
    // to the aligned end of the last section — so that *every* byte of the
    // snapshot is covered by exactly one integrity check.
    let mut order: Vec<usize> = (0..sections.len()).collect();
    order.sort_by_key(|&i| sections[i].offset);
    let mut covered_end = header_end;
    for &i in &order {
        let s = &sections[i];
        if s.offset < covered_end {
            return corrupt("sections overlap");
        }
        if data[covered_end..s.offset].iter().any(|&b| b != 0) {
            return corrupt("nonzero padding between sections");
        }
        covered_end = s.offset + s.len;
    }
    let needed = align_up(covered_end);
    if data.len() < needed {
        return Err(SnapshotError::Truncated { at: data.len() });
    }
    if data.len() > needed {
        // The encoding is canonical: exactly one byte string per
        // structure, so byte-comparing snapshots (the golden-fixture gate)
        // is meaningful.  Extended-but-zero tails are rejected, not
        // silently dropped on a save round-trip.
        return corrupt(format!(
            "{} trailing bytes after the final alignment pad",
            data.len() - needed
        ));
    }
    if data[covered_end..].iter().any(|&b| b != 0) {
        return corrupt("nonzero padding after the last section");
    }
    Ok(Frame {
        fingerprint,
        sections,
    })
}

/// Finds the unique section of `kind` with exactly `expected_len` bytes.
pub(crate) fn require_section(
    sections: &[SectionEntry],
    kind: u32,
    expected_len: usize,
) -> Result<SectionEntry, SnapshotError> {
    let tag = || String::from_utf8_lossy(&kind.to_le_bytes()).into_owned();
    let mut found = None;
    for s in sections {
        if s.kind == kind {
            if found.is_some() {
                return corrupt(format!("duplicate section {:?}", tag()));
            }
            found = Some(*s);
        }
    }
    let Some(s) = found else {
        return corrupt(format!("missing section {:?}", tag()));
    };
    if s.len != expected_len {
        return corrupt(format!(
            "section {:?} has {} bytes, expected {expected_len}",
            tag(),
            s.len
        ));
    }
    Ok(s)
}

/// Checks an approximate contract is well formed: `α`'s denominator is
/// nonzero and `α ≥ 1`.
pub(crate) fn check_contract(contract: Contract) -> Result<(), SnapshotError> {
    match contract {
        Contract::Approx(p) if p.mult_den == 0 => corrupt("stretch denominator must be nonzero"),
        Contract::Approx(p) if p.mult_num < p.mult_den => {
            corrupt("multiplicative stretch must be at least one")
        }
        _ => Ok(()),
    }
}

/// The parsed base payload of a snapshot: header fields plus typed views
/// into the underlying bytes, no array materialisation.
pub(crate) struct Base<'a> {
    pub version: u16,
    pub contract: Contract,
    pub n: u32,
    pub resilience: u32,
    pub source_count: usize,
    sources: LeU32s<'a>,
    pub m: usize,
    /// Absolute byte offset of the edge records.
    pub edges_at: usize,
    /// The `(orig, u, v)` edge records, three words each.
    rows: LeU32s<'a>,
    /// Per-slab union-edge index lists; empty for single-slab snapshots.
    pub slab_lists: Vec<LeU32s<'a>>,
    /// Absolute offset one past the end of the base payload.
    pub end: usize,
}

impl<'a> Base<'a> {
    /// Checks `data` starts with either magic, then walks its base
    /// payload, checking bounds, the version and the flags; the
    /// multi-source magic adds the trailing slab lists.  Allocates only the
    /// slab-list table.
    pub fn walk(data: &'a [u8]) -> Result<Self, SnapshotError> {
        let multi = data.starts_with(&SNAPSHOT_MULTI_MAGIC);
        if !multi && !data.starts_with(&SNAPSHOT_MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = ByteReader::new(&data[4..]);
        let version = r.take_u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let flags = r.take_u16()?;
        if flags & !FLAG_APPROX != 0 {
            return corrupt(format!("reserved flags must be zero, got {flags:#06x}"));
        }
        let n = r.take_u32()?;
        let resilience = r.take_u32()?;
        let contract = if flags & FLAG_APPROX != 0 {
            Contract::Approx(ApproxParams {
                mult_num: r.take_u32()?,
                mult_den: r.take_u32()?,
                add: r.take_u32()?,
                theta: r.take_u32()?,
            })
        } else {
            Contract::Exact
        };
        let words = |r: &mut ByteReader<'a>, count: usize| {
            r.take_bytes(4 * count)
                .map(|b| LeU32s::new(b).expect("whole words"))
        };
        let source_count = r.take_u32()? as usize;
        let sources = words(&mut r, source_count)?;
        let m = r.take_u32()? as usize;
        let edges_at = 4 + r.position();
        let rows = words(&mut r, 3 * m)?;
        let mut slab_lists = Vec::new();
        if multi {
            for _ in 0..source_count {
                let m_s = r.take_u32()? as usize;
                slab_lists.push(words(&mut r, m_s)?);
            }
        }
        Ok(Base {
            version,
            contract,
            n,
            resilience,
            source_count,
            sources,
            m,
            edges_at,
            rows,
            slab_lists,
            end: 4 + r.position(),
        })
    }

    #[inline]
    pub fn source(&self, i: usize) -> u32 {
        self.sources.get(i)
    }

    /// The original id of base edge `i`.
    #[inline]
    pub fn edge_id(&self, i: usize) -> u32 {
        self.rows.get(3 * i)
    }

    /// The endpoints `(u, v)` of base edge `i`.
    #[inline]
    pub fn endpoints(&self, i: usize) -> (u32, u32) {
        (self.rows.get(3 * i + 1), self.rows.get(3 * i + 2))
    }

    /// Iterates the `(orig, u, v)` edge triples.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.m).map(|i| {
            let (u, v) = self.endpoints(i);
            (self.edge_id(i), u, v)
        })
    }

    /// The index list of slab `slab`.
    #[inline]
    pub fn slab_list(&self, slab: usize) -> LeU32s<'a> {
        self.slab_lists[slab]
    }

    /// Checks the freeze invariants: a well-formed contract (`α`
    /// denominator nonzero, `α ≥ 1`; exact for per-source slabs), at least
    /// one in-range source (distinct, for per-source slabs), strictly
    /// increasing edge ids with endpoints `u < v < n`, and per-slab index
    /// lists strictly increasing within the union range.
    pub fn validate_invariants(&self) -> Result<(), SnapshotError> {
        check_contract(self.contract)?;
        if self.source_count == 0 {
            return corrupt("a frozen structure needs at least one source");
        }
        let multi = !self.slab_lists.is_empty();
        if multi && self.contract != Contract::Exact {
            return corrupt("per-source snapshots carry the exact contract only");
        }
        for i in 0..self.source_count {
            if self.source(i) >= self.n {
                return corrupt("source vertex out of range");
            }
            if multi && (0..i).any(|j| self.source(j) == self.source(i)) {
                return corrupt("duplicate source in the source set");
            }
        }
        let mut prev: Option<u32> = None;
        for (orig, u, v) in self.edges() {
            if prev.is_some_and(|p| p >= orig) {
                return corrupt("edge ids must be strictly increasing");
            }
            prev = Some(orig);
            if u >= v || v >= self.n {
                return corrupt("edge endpoints must satisfy u < v < n");
            }
        }
        for slab in 0..self.slab_lists.len() {
            let mut prev: Option<u32> = None;
            for idx in self.slab_list(slab).iter() {
                if prev.is_some_and(|p| p >= idx) {
                    return corrupt("slab edge indices must be strictly increasing");
                }
                prev = Some(idx);
                if idx as usize >= self.m {
                    return corrupt("slab edge index out of union range");
                }
            }
        }
        Ok(())
    }
}

/// Parses the outer layout of a snapshot (either magic) without
/// materialising a structure: the contract, the base range, the recorded
/// fingerprint and the fully validated section table.  Tooling and
/// format-compat tests use this to address individual sections.
pub fn snapshot_layout(data: &[u8]) -> Result<SnapshotLayout, SnapshotError> {
    let base = Base::walk(data)?;
    let frame = read_frame(data, base.end)?;
    Ok(SnapshotLayout {
        version: base.version,
        contract: base.contract,
        base: 4..base.end,
        fingerprint: frame.fingerprint,
        sections: frame.sections,
    })
}

/// Encodes a `u32` array as little-endian section bytes.
pub(crate) fn words(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 * values.len());
    put_u32_slice(&mut out, values);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::FrozenStructure;
    use ftbfs_core::dual_failure_ftbfs;
    use ftbfs_graph::{generators, TieBreak, VertexId};

    fn frozen_sample() -> FrozenStructure {
        let g = generators::connected_gnp(40, 0.12, 5);
        let w = TieBreak::new(&g, 5);
        let h = dual_failure_ftbfs(&g, &w, VertexId(0));
        FrozenStructure::freeze(&g, &h)
    }

    /// Rewrites the version field of a snapshot (no checksum covers it
    /// before the version check runs).
    fn with_version(bytes: &[u8], version: u16) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[4..6].copy_from_slice(&version.to_le_bytes());
        out
    }

    #[test]
    fn save_load_roundtrip_is_identical() {
        let frozen = frozen_sample();
        let bytes = frozen.save();
        assert_eq!(&bytes[..4], &SNAPSHOT_MAGIC);
        let loaded = FrozenStructure::load(&bytes).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(loaded.fingerprint(), frozen.fingerprint());
        // Saving again is byte-identical (canonical encoding).
        assert_eq!(loaded.save(), bytes);
    }

    #[test]
    fn v2_save_load_roundtrip_is_identical() {
        let frozen = frozen_sample();
        let bytes = frozen.save();
        assert_eq!(
            frozen.save_with(SnapshotVersion::V2),
            bytes,
            "v2 is the one format"
        );
        assert_eq!(bytes.len() % SNAPSHOT_ALIGN, 0, "writer pads to 64");
        let loaded = FrozenStructure::load(&bytes).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(loaded.save(), bytes);
    }

    #[test]
    fn v2_layout_exposes_aligned_checksummed_sections() {
        let frozen = frozen_sample();
        let bytes = frozen.save();
        let layout = snapshot_layout(&bytes).unwrap();
        assert_eq!(layout.version, SNAPSHOT_VERSION);
        assert_eq!(layout.contract, Contract::Exact);
        assert_eq!(layout.fingerprint, frozen.fingerprint());
        assert_eq!(
            layout.fingerprint,
            ftbfs_graph::bytes::fnv1a64(&bytes[layout.base.clone()]),
            "the fingerprint is the FNV-1a of the base payload"
        );
        assert_eq!(layout.sections.len(), 5);
        let n = frozen.vertex_count();
        let m = frozen.edge_count();
        let expected = [
            (SEC_EDGE_ORIG, 4 * m),
            (SEC_XADJ, 4 * (n + 1)),
            (SEC_ARC_HEADS, 8 * m),
            (SEC_ARC_EDGES, 8 * m),
            (SEC_TREES, 8 * n * frozen.sources().len()),
        ];
        for (kind, len) in expected {
            let s = layout
                .sections
                .iter()
                .find(|s| s.kind == kind)
                .unwrap_or_else(|| panic!("missing section {kind:08x}"));
            assert_eq!(s.len, len);
            assert_eq!(s.offset % SNAPSHOT_ALIGN, 0);
            assert_eq!(
                ftbfs_graph::bytes::fnv1a64_words(&bytes[s.offset..s.offset + s.len]),
                s.checksum
            );
        }
        // Version-1 files are no longer read.
        assert_eq!(
            snapshot_layout(&with_version(&bytes, 1)).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let frozen = frozen_sample();
        let bytes = frozen.save();
        assert_eq!(
            FrozenStructure::load(b"nope").unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(
            FrozenStructure::load(&wrong).unwrap_err(),
            SnapshotError::BadMagic
        );
        for cut in [5, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                FrozenStructure::load(&bytes[..cut]).is_err(),
                "cut at {cut} must not load"
            );
        }
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let frozen = frozen_sample();
        let mut bytes = frozen.save();
        // The resilience word (bytes 12..16) has no structural invariant,
        // so only the base checksum can catch a flip there.
        bytes[12] ^= 0x40;
        assert_eq!(
            FrozenStructure::load(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
    }

    #[test]
    fn v2_section_corruption_is_attributed_to_the_section() {
        let frozen = frozen_sample();
        let mut bytes = frozen.save();
        let layout = snapshot_layout(&bytes).unwrap();
        let tree = layout
            .sections
            .iter()
            .find(|s| s.kind == SEC_TREES)
            .unwrap();
        bytes[tree.offset + 4] ^= 0x01;
        assert_eq!(
            FrozenStructure::load(&bytes).unwrap_err(),
            SnapshotError::SectionChecksum { kind: SEC_TREES }
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let bytes = frozen_sample().save();
        for version in [0, 1, 3, 42] {
            assert_eq!(
                FrozenStructure::load(with_version(&bytes, version)).unwrap_err(),
                SnapshotError::UnsupportedVersion(version)
            );
        }
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(SnapshotError::Truncated { at: 12 }
            .to_string()
            .contains("12"));
        assert!(SnapshotError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(SnapshotError::SectionChecksum { kind: SEC_XADJ }
            .to_string()
            .contains("XADJ"));
        assert!(SnapshotError::Corrupt("x > n".to_string())
            .to_string()
            .contains("x > n"));
    }

    fn multi_sample() -> FrozenStructure {
        let g = generators::tree_plus_chords(14, 6, 2);
        let w = TieBreak::new(&g, 2);
        let parts = ftbfs_core::multi_failure_ftmbfs_parts(&g, &w, &[VertexId(0), VertexId(7)], 2);
        FrozenStructure::freeze_parts(&g, &parts)
    }

    #[test]
    fn multi_snapshot_roundtrip_is_identical() {
        let frozen = multi_sample();
        let bytes = frozen.save();
        assert_eq!(&bytes[..4], &SNAPSHOT_MULTI_MAGIC);
        let loaded = FrozenStructure::load(&bytes).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(loaded.fingerprint(), frozen.fingerprint());
        assert_eq!(loaded.save(), bytes);
    }

    #[test]
    fn multi_malformed_snapshots_return_typed_errors() {
        let bytes = multi_sample().save();
        for cut in [5, bytes.len() / 3, bytes.len() - 1] {
            let err = FrozenStructure::load(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let err = FrozenStructure::load(&flipped).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::ChecksumMismatch | SnapshotError::SectionChecksum { .. }
            ),
            "unexpected {err:?}"
        );
    }

    #[test]
    fn load_rejects_duplicate_sources_like_freeze_parts_does() {
        // Hand-craft a checksummed per-source snapshot declaring source 0
        // twice: the loader must enforce the same distinctness invariant
        // freeze_parts() asserts, not just the checksums.
        let mut payload = Vec::new();
        put_u16(&mut payload, SNAPSHOT_VERSION);
        put_u16(&mut payload, 0); // flags
        for word in [3, 1, 2, 0, 0, 1, 0, 0, 1] {
            // n, resilience, k, sources 0 and 0, m, edge (orig 0, u 0, v 1)
            put_u32(&mut payload, word);
        }
        for _ in 0..2 {
            put_u32(&mut payload, 1); // m_s
            put_u32(&mut payload, 0); // union index
        }
        let fingerprint = ftbfs_graph::bytes::fnv1a64(&payload);
        let bytes = assemble(SNAPSHOT_MULTI_MAGIC, &payload, fingerprint, &[]);
        match FrozenStructure::load(&bytes).unwrap_err() {
            SnapshotError::Corrupt(why) => assert!(why.contains("duplicate source")),
            other => panic!("expected Corrupt(duplicate source), got {other:?}"),
        }
    }
}
