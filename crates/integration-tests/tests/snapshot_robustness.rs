//! Robustness of the binary snapshot loaders against malformed input: a
//! serving process deserialising a frozen structure from disk or the
//! network must get a typed [`SnapshotError`] for *any* corruption —
//! truncation at every prefix length, bit flips at every offset, wrong or
//! foreign magic, and adversarial length fields — and must **never panic**.
//! Both layouts of [`FrozenStructure`] are covered: the shared-slab
//! `"FTBO"` snapshots, under the exact and the approximate contract, and
//! the per-source `"FTBM"` snapshots of [`FrozenStructure::freeze_parts`].
//! Snapshots whose checksums were recomputed over forged derived sections
//! must be rejected too: the view would otherwise serve wrong answers.
//!
//! Deterministic sweeps cover every truncation point and every byte
//! position (one flip per byte) on small instances; proptest then fuzzes
//! (offset, bit, mutation-kind) combinations — including multi-bit flips
//! that could in principle collide the checksum back to validity, which the
//! structural validation behind it must still reject — on larger instances.

use ftbfs_core::dual::DualFtBfsBuilder;
use ftbfs_core::{approx_ftbfs, multi_failure_ftmbfs_parts, ApproxParams};
use ftbfs_graph::bytes::{fnv1a64, fnv1a64_words, put_u32, put_u64};
use ftbfs_graph::{generators, FaultSpec, TieBreak, VertexId};
use ftbfs_oracle::{
    snapshot_layout, Freeze, FrozenStructure, FrozenView, QueryEngine, SnapshotError,
    SNAPSHOT_ALIGN, SNAPSHOT_MAGIC, SNAPSHOT_MULTI_MAGIC, SNAPSHOT_VERSION,
};
use ftbfs_serve::EpochSnapshot;
use proptest::prelude::*;

/// An exact single-slab snapshot of the paper's dual-failure structure.
fn exact_snapshot(seed: u64) -> Vec<u8> {
    let g = generators::connected_gnp(24, 0.18, seed);
    let w = TieBreak::new(&g, seed);
    DualFtBfsBuilder::new(&g, &w, VertexId(0))
        .build()
        .structure
        .freeze(&g)
        .save()
}

/// A single-slab snapshot whose header carries the approximate contract.
fn approx_snapshot(seed: u64) -> Vec<u8> {
    let g = generators::connected_gnp(24, 0.18, seed);
    let w = TieBreak::new(&g, seed);
    let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
    FrozenStructure::freeze_approx(&g, &built).save()
}

fn multi_snapshot(seed: u64) -> Vec<u8> {
    let g = generators::tree_plus_chords(12, 5, seed);
    let w = TieBreak::new(&g, seed);
    let sources = [VertexId(0), VertexId(7)];
    let parts = multi_failure_ftmbfs_parts(&g, &w, &sources, 2);
    FrozenStructure::freeze_parts(&g, &parts).save()
}

/// Every load attempt must produce `Err`, never a panic and never a
/// structure (the input is corrupted by construction), and the
/// zero-rebuild view open must reject identically to the owned load.
fn assert_rejects(data: &[u8], what: &str) {
    match FrozenStructure::load(data) {
        Err(_) => {}
        Ok(_) => panic!("{what}: corrupted snapshot unexpectedly loaded"),
    }
    if let Ok(view) = FrozenView::open(data) {
        panic!("{what}: corrupted snapshot unexpectedly opened as {view:?}");
    }
}

/// Re-implements the frame writer from its spec (module docs of
/// `ftbfs_oracle::snapshot`), so tests can build variant files — e.g. with
/// an extra unknown section — independently of the production encoder.
fn assemble_v2_like(
    magic: [u8; 4],
    base: &[u8],
    fingerprint: u64,
    sections: &[(u32, Vec<u8>)],
) -> Vec<u8> {
    let align = |at: usize| at.div_ceil(SNAPSHOT_ALIGN) * SNAPSHOT_ALIGN;
    let header_len = 4 + base.len() + 8 + 8 + 4 + 28 * sections.len() + 8;
    let mut offsets = Vec::new();
    let mut cursor = align(header_len);
    for (_, bytes) in sections {
        offsets.push(cursor);
        cursor = align(cursor + bytes.len());
    }
    let mut frame = Vec::new();
    put_u64(&mut frame, fingerprint);
    put_u32(&mut frame, sections.len() as u32);
    for ((kind, bytes), &offset) in sections.iter().zip(&offsets) {
        put_u32(&mut frame, *kind);
        put_u64(&mut frame, offset as u64);
        put_u64(&mut frame, bytes.len() as u64);
        put_u64(&mut frame, fnv1a64_words(bytes));
    }
    let mut out = Vec::new();
    out.extend_from_slice(&magic);
    out.extend_from_slice(base);
    put_u64(&mut out, fnv1a64_words(base));
    out.extend_from_slice(&frame);
    put_u64(&mut out, fnv1a64_words(&frame));
    for ((_, bytes), &offset) in sections.iter().zip(&offsets) {
        out.resize(offset, 0);
        out.extend_from_slice(bytes);
    }
    out.resize(cursor, 0);
    out
}

/// Rebuilds a valid snapshot with its sections edited by `edit` and every
/// checksum recomputed — what a buggy or hostile writer would produce.
fn reassembled(data: &[u8], edit: impl FnOnce(&mut Vec<(u32, Vec<u8>)>)) -> Vec<u8> {
    let layout = snapshot_layout(data).expect("input is a valid snapshot");
    let mut sections: Vec<(u32, Vec<u8>)> = layout
        .sections
        .iter()
        .map(|s| (s.kind, data[s.offset..s.offset + s.len].to_vec()))
        .collect();
    edit(&mut sections);
    let magic: [u8; 4] = data[..4].try_into().unwrap();
    assemble_v2_like(magic, &data[layout.base], layout.fingerprint, &sections)
}

/// Rebuilds a valid snapshot with one extra section of an unknown kind
/// appended.
fn with_unknown_section(data: &[u8]) -> Vec<u8> {
    reassembled(data, |sections| {
        sections.push((
            u32::from_le_bytes(*b"ZZZZ"),
            vec![7, 0, 0, 0, 9, 0, 0, 0, 42, 0, 0, 0],
        ))
    })
}

/// Rebuilds a valid snapshot with words of section `kind` overwritten,
/// checksums recomputed.
fn with_forged_words(data: &[u8], kind: &[u8; 4], words: &[(usize, u32)]) -> Vec<u8> {
    reassembled(data, |sections| {
        let kind = u32::from_le_bytes(*kind);
        let (_, bytes) = sections.iter_mut().find(|(k, _)| *k == kind).unwrap();
        for &(i, word) in words {
            bytes[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
    })
}

/// Both the view open and the owned load reject `data` as corrupt.
fn assert_corrupt(data: &[u8], what: &str) {
    for err in [
        FrozenView::open(data).map(|_| ()).unwrap_err(),
        FrozenStructure::load(data).map(|_| ()).unwrap_err(),
    ] {
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{what}: {err:?}");
    }
}

/// The exact structure `H = G` of `cycle(6)` served from source 0.
fn cycle_snapshot() -> (ftbfs_graph::Graph, Vec<u8>) {
    let g = generators::cycle(6);
    let frozen = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges());
    let bytes = frozen.save();
    (g, bytes)
}

#[test]
fn forged_tree_with_recomputed_checksums_is_rejected() {
    // The path tree 0-1-2-3-4-5 has a valid tree shape (each distance is
    // its parent's plus one) but is no BFS tree of the cycle: served, it
    // would answer d(0, 5) = 5 where the structure says 1.
    let (_g, bytes) = cycle_snapshot();
    let path_tree: Vec<(usize, u32)> = (0..6)
        .map(|v| (v, v as u32))
        .chain((1..6).map(|v| (6 + v, v as u32 - 1)))
        .collect();
    let forged = with_forged_words(&bytes, b"TREE", &path_tree);
    assert!(snapshot_layout(&forged).is_ok(), "every checksum is valid");
    assert_corrupt(&forged, "path tree on a cycle");
}

#[test]
fn forged_arc_with_recomputed_checksums_is_rejected() {
    // Vertex 0's first arc (to 1, over edge {0, 1}) retargeted to 3: still
    // in range and sorted, but served it would answer d(0, 3) = 1 under
    // faults {(1, 2), (4, 5)}, where 3 is unreachable — too short.
    let (g, bytes) = cycle_snapshot();
    let forged = with_forged_words(&bytes, b"AHED", &[(0, 3)]);
    assert!(snapshot_layout(&forged).is_ok(), "every checksum is valid");
    assert_corrupt(&forged, "retargeted arc");
    let spec = FaultSpec::from((
        g.edge_between(VertexId(1), VertexId(2)).unwrap(),
        g.edge_between(VertexId(4), VertexId(5)).unwrap(),
    ));
    let loaded = FrozenStructure::load(&bytes).unwrap();
    let answer = QueryEngine::new().try_distance(&loaded, VertexId(3), &spec);
    assert_eq!(answer.unwrap().into_value(), None);
}

#[test]
fn every_truncation_point_is_a_typed_error() {
    // The approximate header (four extra contract words) gets the same
    // sweep the exact and multi layouts get below.
    let approx = approx_snapshot(3);
    for cut in 0..approx.len() {
        assert_rejects(&approx[..cut], "truncation");
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    // One flip per byte position (bit chosen by position) keeps the sweep
    // linear while still touching every field, contract words included.
    let approx = approx_snapshot(5);
    for i in 0..approx.len() {
        let mut bytes = approx.clone();
        bytes[i] ^= 1 << (i % 8);
        assert_rejects(&bytes, "bit flip");
    }
}

#[test]
fn wrong_and_foreign_magic_are_bad_magic() {
    let single = approx_snapshot(7);
    let multi = multi_snapshot(7);
    // Swapping the two formats' magics must fail cleanly in both
    // directions (a multi payload under a single magic and vice versa).
    let mut cross_a = single.clone();
    cross_a[..4].copy_from_slice(&SNAPSHOT_MULTI_MAGIC);
    assert_rejects(&cross_a, "cross magic (checksummed payload differs)");
    let mut cross_b = multi.clone();
    cross_b[..4].copy_from_slice(&SNAPSHOT_MAGIC);
    assert_rejects(&cross_b, "cross magic (checksummed payload differs)");
    assert_eq!(
        FrozenStructure::load(b"").unwrap_err(),
        SnapshotError::BadMagic
    );
    assert_eq!(
        FrozenStructure::load(b"\x00\x01\x02").unwrap_err(),
        SnapshotError::BadMagic
    );
    // Both layouts' magics are recognised; what follows this one is junk.
    assert_eq!(
        FrozenStructure::load(b"FTBMxxxxxxxxxxxx").unwrap_err(),
        SnapshotError::UnsupportedVersion(u16::from_le_bytes(*b"xx"))
    );
    // The retired approximate magic is foreign too.
    let mut retired = single.clone();
    retired[..4].copy_from_slice(b"FTBA");
    assert_eq!(
        FrozenStructure::load(&retired).unwrap_err(),
        SnapshotError::BadMagic
    );
}

#[test]
fn v2_every_truncation_point_is_a_typed_error() {
    // The writer pads the file to the aligned end of the last section
    // and the loader demands that full length, so *every* proper prefix —
    // including cuts inside trailing padding and at every section
    // boundary — must be rejected, by load and by view open alike.
    let single = exact_snapshot(3);
    for cut in 0..single.len() {
        assert_rejects(&single[..cut], "v2 truncation");
    }
    let multi = multi_snapshot(3);
    for cut in 0..multi.len() {
        assert_rejects(&multi[..cut], "v2 truncation");
    }
}

#[test]
fn v2_truncation_at_every_section_boundary_is_rejected() {
    // The boundary cuts deserve their own sweep: exactly at each section
    // start, one byte in, and exactly at each section end (still short of
    // the following sections or trailing pad).
    // (A "cut" equal to the full file length is the intact snapshot, which
    // can happen when the last section ends exactly on the 64-byte
    // boundary — skip that one.)
    let single = exact_snapshot(9);
    let layout = snapshot_layout(&single).unwrap();
    for s in &layout.sections {
        for cut in [s.offset, s.offset + 1, s.offset + s.len] {
            if cut < single.len() {
                assert_rejects(&single[..cut], "section-boundary truncation");
            }
        }
    }
    let multi = multi_snapshot(9);
    let layout = snapshot_layout(&multi).unwrap();
    for s in &layout.sections {
        for cut in [s.offset, s.offset + 1, s.offset + s.len] {
            if cut < multi.len() {
                assert_rejects(&multi[..cut], "section-boundary truncation");
            }
        }
    }
}

#[test]
fn v2_every_single_bit_flip_is_rejected() {
    // Every byte of a v2 snapshot is covered by the magic, a checksum, or
    // the zero-padding rule, so a flip anywhere — header, TOC, section
    // data, padding — must be caught.
    let single = exact_snapshot(5);
    for i in 0..single.len() {
        let mut bytes = single.clone();
        bytes[i] ^= 1 << (i % 8);
        assert_rejects(&bytes, "v2 bit flip");
    }
    let multi = multi_snapshot(5);
    for i in 0..multi.len() {
        let mut bytes = multi.clone();
        bytes[i] ^= 1 << (i % 8);
        assert_rejects(&bytes, "v2 bit flip");
    }
}

#[test]
fn v2_per_section_checksum_corruption_is_attributed() {
    let single = exact_snapshot(7);
    let layout = snapshot_layout(&single).unwrap();
    for s in &layout.sections {
        let mut bytes = single.clone();
        bytes[s.offset] ^= 0x20;
        assert_eq!(
            FrozenView::open(&bytes).unwrap_err(),
            SnapshotError::SectionChecksum { kind: s.kind },
            "flip in section {:?}",
            s.kind.to_le_bytes()
        );
        assert_rejects(&bytes, "section corruption");
    }
    let multi = multi_snapshot(7);
    let layout = snapshot_layout(&multi).unwrap();
    for s in &layout.sections {
        let mut bytes = multi.clone();
        bytes[s.offset + s.len - 1] ^= 0x01;
        assert_eq!(
            FrozenView::open(&bytes).unwrap_err(),
            SnapshotError::SectionChecksum { kind: s.kind },
        );
        assert_rejects(&bytes, "section corruption");
    }
}

#[test]
fn v2_unknown_sections_are_skipped_forward_compatibly() {
    // A future writer may add sections this reader does not know; after
    // the bounds + checksum check they must be ignored, and the snapshot
    // must load and open with unchanged answers.
    let single = exact_snapshot(11);
    let extended = with_unknown_section(&single);
    assert_ne!(extended, single);
    let plain = FrozenStructure::load(&single).unwrap();
    let with_extra = FrozenStructure::load(&extended).expect("unknown section must be skipped");
    assert_eq!(plain, with_extra);
    let view = FrozenView::open(&extended).expect("view skips unknown sections too");
    assert_eq!(view.fingerprint(), plain.fingerprint());
    // But a flip inside the unknown section is still corruption.
    let layout = snapshot_layout(&extended).unwrap();
    let unknown = layout
        .sections
        .iter()
        .find(|s| s.kind == u32::from_le_bytes(*b"ZZZZ"))
        .expect("extra section present");
    let mut corrupted = extended.clone();
    corrupted[unknown.offset] ^= 0x80;
    assert_rejects(&corrupted, "unknown-section corruption");

    let multi = multi_snapshot(11);
    let extended = with_unknown_section(&multi);
    let plain = FrozenStructure::load(&multi).unwrap();
    let with_extra = FrozenStructure::load(&extended).expect("unknown section skipped");
    assert_eq!(plain, with_extra);
    assert!(FrozenView::open(&extended).is_ok());
}

#[test]
fn unknown_sections_survive_a_load_save_round_trip() {
    // A frozen structure is its snapshot bytes: loading a file that
    // carries a section this reader does not know gives a structure equal
    // to the plain load, and saving it hands back every byte it was
    // loaded from, the unknown section included.
    for plain in [exact_snapshot(13), approx_snapshot(13), multi_snapshot(13)] {
        let extended = with_unknown_section(&plain);
        let loaded = FrozenStructure::load(&extended).expect("unknown section is skipped");
        assert_eq!(loaded, FrozenStructure::load(&plain).unwrap());
        assert_eq!(loaded.save(), extended);
        let reloaded = FrozenStructure::load(&loaded.save()).unwrap();
        assert_eq!(reloaded.save(), extended);
    }
}

#[test]
fn v2_forged_fingerprint_is_rejected_on_load() {
    // The fingerprint is attested by the writer (the borrowed open trusts
    // it under the frame checksum), but load — and the serving boundary,
    // `EpochSnapshot`, which loads — recomputes the real value from the
    // base payload and must reject a file whose base and fingerprint
    // disagree: the buggy-external-writer case.
    let single = exact_snapshot(23);
    let layout = snapshot_layout(&single).unwrap();
    let base = &single[layout.base.clone()];
    let sections: Vec<(u32, Vec<u8>)> = layout
        .sections
        .iter()
        .map(|s| (s.kind, single[s.offset..s.offset + s.len].to_vec()))
        .collect();
    let forged = assemble_v2_like(
        single[..4].try_into().unwrap(),
        base,
        layout.fingerprint ^ 1,
        &sections,
    );
    assert!(
        FrozenView::open(&forged).is_ok(),
        "a borrowed open trusts it"
    );
    for err in [
        FrozenStructure::load(&forged).unwrap_err(),
        EpochSnapshot::from_bytes(forged).unwrap_err(),
    ] {
        match err {
            SnapshotError::Corrupt(why) => assert!(why.contains("fingerprint"), "{why}"),
            other => panic!("expected Corrupt(fingerprint...), got {other:?}"),
        }
    }

    let multi = multi_snapshot(23);
    let layout = snapshot_layout(&multi).unwrap();
    let base = &multi[layout.base.clone()];
    let sections: Vec<(u32, Vec<u8>)> = layout
        .sections
        .iter()
        .map(|s| (s.kind, multi[s.offset..s.offset + s.len].to_vec()))
        .collect();
    let forged = assemble_v2_like(
        multi[..4].try_into().unwrap(),
        base,
        !layout.fingerprint,
        &sections,
    );
    assert!(FrozenStructure::load(&forged).is_err());
    assert!(EpochSnapshot::from_bytes(forged).is_err());
}

#[test]
fn v2_trailing_extension_is_rejected_even_when_zero() {
    // The v2 encoding is canonical — exactly one byte string per
    // structure — so appended bytes must be rejected even if they are
    // zeros that would pass a padding rule.
    for extra in [1usize, 7, 64, 4096] {
        let single = exact_snapshot(21);
        let mut extended = single.clone();
        extended.resize(single.len() + extra, 0);
        assert_rejects(&extended, "zero-extended tail");
        extended[single.len()] = 0xFF;
        assert_rejects(&extended, "nonzero-extended tail");
        let multi = multi_snapshot(21);
        let mut extended = multi.clone();
        extended.resize(multi.len() + extra, 0);
        assert_rejects(&extended, "zero-extended tail");
    }
}

#[test]
fn v2_magic_with_v1_body_is_rejected() {
    // The retired version-1 layout was the base payload under one
    // byte-stepped FNV-1a checksum.  Such a body must be rejected cleanly
    // (no panic, no misparse) whether its version field says 2 — the
    // loader finds no frame after the base — or 1, for all three
    // header kinds, load and open.
    for bytes in [exact_snapshot(13), approx_snapshot(13), multi_snapshot(13)] {
        let layout = snapshot_layout(&bytes).unwrap();
        for version in [SNAPSHOT_VERSION, 1] {
            let mut payload = bytes[layout.base.clone()].to_vec();
            payload[..2].copy_from_slice(&version.to_le_bytes());
            let mut crafted = Vec::new();
            crafted.extend_from_slice(&bytes[..4]);
            crafted.extend_from_slice(&payload);
            put_u64(&mut crafted, fnv1a64(&payload));
            assert_rejects(&crafted, "v1 body");
            if version == 1 {
                assert_eq!(
                    snapshot_layout(&crafted).unwrap_err(),
                    SnapshotError::UnsupportedVersion(1)
                );
            }
        }
    }
}

#[test]
fn v2_cross_magic_is_rejected() {
    let single = exact_snapshot(15);
    let mut crossed = single.clone();
    crossed[..4].copy_from_slice(&SNAPSHOT_MULTI_MAGIC);
    assert_rejects(&crossed, "v2 cross magic");
    let multi = multi_snapshot(15);
    let mut crossed = multi.clone();
    crossed[..4].copy_from_slice(&SNAPSHOT_MAGIC);
    assert_rejects(&crossed, "v2 cross magic");
}

#[test]
fn adversarial_length_fields_do_not_overallocate_or_panic() {
    // A tiny "snapshot" that declares absurd counts: the loaders must run
    // out of bytes (typed error) without trusting the counts.
    for magic in [SNAPSHOT_MAGIC, SNAPSHOT_MULTI_MAGIC] {
        let mut payload = Vec::new();
        ftbfs_graph::bytes::put_u16(&mut payload, SNAPSHOT_VERSION);
        ftbfs_graph::bytes::put_u16(&mut payload, 0); // flags
        ftbfs_graph::bytes::put_u32(&mut payload, 10); // n
        ftbfs_graph::bytes::put_u32(&mut payload, 2); // resilience
        ftbfs_graph::bytes::put_u32(&mut payload, u32::MAX); // source count
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&magic);
        bytes.extend_from_slice(&payload);
        ftbfs_graph::bytes::put_u64(&mut bytes, ftbfs_graph::bytes::fnv1a64(&payload));
        assert_rejects(&bytes, "length bomb");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Random single-byte mutations at proptest-chosen offsets never panic
    /// and never load, across seeds (single-slab format, approximate
    /// contract).
    #[test]
    fn single_snapshot_mutations_never_panic(
        seed in 0u64..50,
        offset_sel in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let bytes = approx_snapshot(seed);
        let offset = ((bytes.len() - 1) as f64 * offset_sel) as usize;
        let mut mutated = bytes.clone();
        mutated[offset] ^= xor;
        prop_assert!(FrozenStructure::load(&mutated).is_err());
        // Mutations must also not corrupt the pristine copy's loadability.
        prop_assert!(FrozenStructure::load(&bytes).is_ok());
    }

    /// Random mutations on the multi-source format: single-byte flips plus
    /// payload-shuffling splices (checksum-surviving structural damage is
    /// caught by validation, not just the checksum).
    #[test]
    fn multi_snapshot_mutations_never_panic(
        seed in 0u64..30,
        offset_sel in 0.0f64..1.0,
        xor in 1u8..=255,
        splice_sel in 0u8..2,
    ) {
        let bytes = multi_snapshot(seed);
        let offset = ((bytes.len() - 1) as f64 * offset_sel) as usize;
        let mut mutated = bytes.clone();
        if splice_sel == 1 && bytes.len() > 24 {
            // Duplicate a mid-payload chunk over another offset, then leave
            // the checksum untouched: must fail (checksum or validation).
            let src = 12 + offset % (bytes.len() - 24);
            let dst = 12 + (offset * 7 + 3) % (bytes.len() - 24);
            let b = mutated[src];
            mutated[dst] = b.wrapping_add(xor);
        } else {
            mutated[offset] ^= xor;
        }
        if mutated != bytes {
            prop_assert!(FrozenStructure::load(&mutated).is_err());
        }
        prop_assert!(FrozenStructure::load(&bytes).is_ok());
    }

    /// Truncation at a proptest-chosen point is always a typed error for
    /// both formats.
    #[test]
    fn truncations_never_panic(seed in 0u64..30, cut_sel in 0.0f64..1.0) {
        let single = approx_snapshot(seed);
        let cut = (single.len() as f64 * cut_sel) as usize;
        prop_assert!(FrozenStructure::load(&single[..cut.min(single.len() - 1)]).is_err());
        let multi = multi_snapshot(seed);
        let cut = (multi.len() as f64 * cut_sel) as usize;
        prop_assert!(FrozenStructure::load(&multi[..cut.min(multi.len() - 1)]).is_err());
    }

    /// Random single-byte mutations never panic and never load or open,
    /// across seeds and both formats (exact contract).
    #[test]
    fn v2_snapshot_mutations_never_panic(
        seed in 0u64..16,
        offset_sel in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let single = exact_snapshot(seed);
        let offset = ((single.len() - 1) as f64 * offset_sel) as usize;
        let mut mutated = single.clone();
        mutated[offset] ^= xor;
        prop_assert!(FrozenStructure::load(&mutated).is_err());
        prop_assert!(FrozenView::open(&mutated).is_err());
        prop_assert!(FrozenStructure::load(&single).is_ok());

        let multi = multi_snapshot(seed);
        let offset = ((multi.len() - 1) as f64 * offset_sel) as usize;
        let mut mutated = multi.clone();
        mutated[offset] ^= xor;
        prop_assert!(FrozenStructure::load(&mutated).is_err());
        prop_assert!(FrozenView::open(&mutated).is_err());
        prop_assert!(FrozenStructure::load(&multi).is_ok());
    }
}
