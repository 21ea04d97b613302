//! Format-compatibility gate over the checked-in golden snapshots
//! (`crates/oracle/testdata/`, regenerated by the `gen_snapshot_goldens`
//! bin in `ftbfs-bench`), one per contract kind: exact single-slab,
//! approximate single-slab, and multi-source.
//!
//! Every golden must keep loading and opening with the current code and
//! keep producing the recorded fingerprint; the current encoders must
//! reproduce the golden bytes exactly (canonical encodings).  If a PR
//! changes the snapshot byte format without bumping the format version,
//! these tests — and the CI `snapshot-compat` job running
//! `gen_snapshot_goldens --check` — fail, which is the point: on-disk
//! snapshots in the field must stay readable across releases.
//!
//! When a deliberate, version-bumped format change lands: regenerate the
//! fixtures and update the `GOLDEN_*_FINGERPRINT` constants from the
//! generator's output.

use ftbfs_core::ApproxParams;
use ftbfs_graph::{EdgeId, FaultSpec, VertexId};
use ftbfs_oracle::{
    snapshot_layout, Contract, FrozenStructure, FrozenView, QueryEngine, SnapshotError,
    SNAPSHOT_ALIGN, SNAPSHOT_VERSION,
};

const GOLDEN_SINGLE_V2: &[u8] = include_bytes!("../testdata/golden_single_v2.ftbo");
const GOLDEN_APPROX_V2: &[u8] = include_bytes!("../testdata/golden_approx_v2.ftbo");
const GOLDEN_MULTI_V2: &[u8] = include_bytes!("../testdata/golden_multi_v2.ftbm");

/// Recorded when the fixtures were generated; see the module docs for the
/// regeneration procedure.
const GOLDEN_SINGLE_FINGERPRINT: u64 = 0x8d65de4883a53ebb;
const GOLDEN_APPROX_FINGERPRINT: u64 = 0x793a008db4368865;
const GOLDEN_MULTI_FINGERPRINT: u64 = 0xfdbe5a03bcab3f3a;

/// The structure and the zero-rebuild view over the same bytes answer
/// every target identically, fault-free and with original edge 0 failed.
fn assert_view_matches_load(loaded: &FrozenStructure, view: &FrozenView<'_>) {
    let mut ea = QueryEngine::new();
    let mut eb = QueryEngine::new();
    let fault = EdgeId(0);
    assert!(loaded.contains_edge(fault), "edge 0 is in the fixture");
    for t in 0..loaded.vertex_count() {
        let t = VertexId(t as u32);
        for spec in [FaultSpec::None, FaultSpec::from(fault)] {
            assert_eq!(
                ea.try_distance(loaded, t, &spec).unwrap(),
                eb.try_distance(view, t, &spec).unwrap(),
                "target {t:?} spec {spec:?}"
            );
        }
    }
}

#[test]
fn golden_single_v2_loads_and_opens_with_the_recorded_fingerprint() {
    let loaded = FrozenStructure::load(GOLDEN_SINGLE_V2).expect("golden must keep loading");
    assert_eq!(loaded.fingerprint(), GOLDEN_SINGLE_FINGERPRINT);
    assert_eq!(loaded.contract(), Contract::Exact);
    // The current encoder reproduces the golden bytes (canonical).
    assert_eq!(loaded.save(), GOLDEN_SINGLE_V2);
    // Zero-rebuild open over the same bytes: same identity, same answers.
    let view = FrozenView::open(GOLDEN_SINGLE_V2).expect("golden must keep opening");
    assert_eq!(view.fingerprint(), GOLDEN_SINGLE_FINGERPRINT);
    assert_view_matches_load(&loaded, &view);
}

#[test]
fn golden_single_v2_layout_is_stable() {
    let layout = snapshot_layout(GOLDEN_SINGLE_V2).expect("layout parses");
    assert_eq!(layout.version, SNAPSHOT_VERSION);
    assert_eq!(layout.fingerprint, GOLDEN_SINGLE_FINGERPRINT);
    assert_eq!(
        layout.sections.len(),
        5,
        "single snapshots store five sections"
    );
    for s in &layout.sections {
        assert_eq!(s.offset % SNAPSHOT_ALIGN, 0);
        assert_eq!(s.len % 4, 0);
    }
}

#[test]
fn golden_multi_v2_loads_and_opens_with_the_recorded_fingerprint() {
    let loaded = FrozenStructure::load(GOLDEN_MULTI_V2).expect("golden must keep loading");
    assert_eq!(loaded.fingerprint(), GOLDEN_MULTI_FINGERPRINT);
    assert_eq!(loaded.save(), GOLDEN_MULTI_V2);
    let view = FrozenView::open(GOLDEN_MULTI_V2).expect("golden must keep opening");
    assert_eq!(view.fingerprint(), GOLDEN_MULTI_FINGERPRINT);
    let mut ea = QueryEngine::new();
    let mut eb = QueryEngine::new();
    assert_eq!(
        ea.try_distance_matrix(&loaded, &FaultSpec::None).unwrap(),
        eb.try_distance_matrix(&view, &FaultSpec::None).unwrap(),
    );
    let layout = snapshot_layout(GOLDEN_MULTI_V2).expect("layout parses");
    assert_eq!(
        layout.sections.len(),
        6,
        "multi snapshots store six sections"
    );
}

#[test]
fn golden_approx_v2_loads_and_opens_with_the_recorded_fingerprint() {
    let loaded = FrozenStructure::load(GOLDEN_APPROX_V2).expect("golden must keep loading");
    assert_eq!(loaded.fingerprint(), GOLDEN_APPROX_FINGERPRINT);
    assert_eq!(loaded.save(), GOLDEN_APPROX_V2);
    let view = FrozenView::open(GOLDEN_APPROX_V2).expect("golden must keep opening");
    assert_eq!(view.fingerprint(), GOLDEN_APPROX_FINGERPRINT);

    // The stored stretch contract is the default (α = 3/1, β = 4, θ = 4)
    // and is what faulted answers declare.
    assert_eq!(view.contract(), Contract::Approx(ApproxParams::DEFAULT));
    assert_eq!(loaded.contract(), view.contract());
    assert!(view.guarantee(&FaultSpec::from(EdgeId(0))).is_approx());
    assert!(view.guarantee(&FaultSpec::None).is_exact());
    assert_view_matches_load(&loaded, &view);

    let layout = snapshot_layout(GOLDEN_APPROX_V2).expect("layout parses");
    assert_eq!(layout.fingerprint, GOLDEN_APPROX_FINGERPRINT);
    assert_eq!(layout.contract, view.contract());
    assert_eq!(
        layout.sections.len(),
        5,
        "approx snapshots store five sections"
    );
    for s in &layout.sections {
        assert_eq!(s.offset % SNAPSHOT_ALIGN, 0);
        assert_eq!(s.len % 4, 0);
    }
}

#[test]
fn goldens_relabelled_as_version_1_are_rejected() {
    // Version 1 (base payload under a trailing checksum, rebuilt on load)
    // is retired: a file claiming it gets a typed error, not a misparse.
    for golden in [GOLDEN_SINGLE_V2, GOLDEN_APPROX_V2, GOLDEN_MULTI_V2] {
        let mut v1 = golden.to_vec();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            snapshot_layout(&v1).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
    }
}
