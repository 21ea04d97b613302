//! Serving the approximate FT-ABFS backend of `ftbfs_core::approx_ftbfs`
//! through the one frozen type: a shared-slab [`FrozenStructure`] whose
//! header declares [`Contract::Approx`].
//!
//! An FT-ABFS structure trades the paper's exactness theorem for size: it
//! keeps `O(n·θ)` edges instead of `O(n^{5/3})` and promises, for every
//! fault set `F` with `|F| ≤ 2`,
//!
//! ```text
//! dist(s, v, G ∖ F)  ≤  dist(s, v, H ∖ F)  ≤  ⌈α · dist(s, v, G ∖ F)⌉ + β
//! ```
//!
//! with reachability preserved exactly.  Nothing about serving it differs
//! from an exact structure — same CSR, same trees, same engine — except
//! the [`Guarantee`] its answers carry, which [`Contract::guarantee`]
//! derives: [`Guarantee::Exact`] fault-free (the primary BFS tree is
//! embedded whole), [`Guarantee::Approx`] within the designed resilience,
//! and [`Guarantee::BestEffort`] beyond it.  The contract `(α, β, θ)` is
//! stored in the snapshot header (flag bit 0 of the `"FTBO"` base, see
//! [`crate::snapshot`]) and covered by the fingerprint, so two structures
//! with identical edges but different declared contracts are different
//! serving artifacts and never share engine caches.
//!
//! [`Guarantee`]: crate::Guarantee
//! [`Guarantee::Exact`]: crate::Guarantee::Exact
//! [`Guarantee::Approx`]: crate::Guarantee::Approx
//! [`Guarantee::BestEffort`]: crate::Guarantee::BestEffort

use crate::api::Contract;
use crate::frozen::FrozenStructure;
use ftbfs_core::ApproxFtBfs;
use ftbfs_graph::Graph;

impl FrozenStructure {
    /// Compiles a built FT-ABFS structure over `graph` for serving,
    /// declaring the construction's stretch contract.
    ///
    /// # Panics
    ///
    /// Panics if the structure references edges not in `graph`, or if the
    /// contract is malformed (`mult_den == 0` or `α < 1`).
    ///
    /// # Examples
    ///
    /// ```
    /// use ftbfs_core::{approx_ftbfs, ApproxParams};
    /// use ftbfs_graph::{generators, FaultSpec, TieBreak, VertexId};
    /// use ftbfs_oracle::{Contract, FrozenStructure, QueryEngine};
    ///
    /// let g = generators::connected_gnp(30, 0.15, 11);
    /// let w = TieBreak::new(&g, 11);
    /// let built = approx_ftbfs(&g, &w, VertexId(0), ApproxParams::DEFAULT);
    /// let frozen = FrozenStructure::freeze_approx(&g, &built);
    /// assert_eq!(frozen.contract(), Contract::Approx(ApproxParams::DEFAULT));
    ///
    /// let mut engine = QueryEngine::new();
    /// let e = g.edges().next().unwrap();
    /// let answer = engine
    ///     .try_distance(&frozen, VertexId(7), &FaultSpec::from(e))
    ///     .unwrap();
    /// assert!(answer.guarantee().is_approx());
    /// ```
    pub fn freeze_approx(graph: &Graph, built: &ApproxFtBfs) -> Self {
        FrozenStructure::with_contract(
            graph,
            built.structure.sources(),
            built.structure.resilience(),
            Contract::Approx(built.params),
            built.structure.edges(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::api::{Contract, Guarantee};
    use crate::frozen::FrozenStructure;
    use crate::snapshot::{snapshot_layout, SnapshotError};
    use crate::view::FrozenView;
    use crate::QueryEngine;
    use ftbfs_core::{approx_ftbfs, ApproxParams};
    use ftbfs_graph::{bfs, generators, EdgeId, FaultSpec, Graph, GraphView, TieBreak, VertexId};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn sample() -> (Graph, FrozenStructure) {
        let g = generators::connected_gnp(34, 0.14, 6);
        let w = TieBreak::new(&g, 6);
        let built = approx_ftbfs(&g, &w, v(0), ApproxParams::DEFAULT);
        let frozen = FrozenStructure::freeze_approx(&g, &built);
        (g, frozen)
    }

    #[test]
    fn guarantee_contract_tiers_by_fault_count() {
        let (g, frozen) = sample();
        let edges: Vec<EdgeId> = g.edges().collect();
        assert_eq!(frozen.resilience(), 2);
        assert_eq!(frozen.guarantee(&FaultSpec::None), Guarantee::Exact);
        let Contract::Approx(p) = frozen.contract() else {
            panic!("approximate freeze declares the approximate contract");
        };
        let expected = Guarantee::Approx {
            mult_num: p.mult_num,
            mult_den: p.mult_den,
            add: p.add,
        };
        assert_eq!(frozen.guarantee(&FaultSpec::from(edges[0])), expected);
        assert_eq!(
            frozen.guarantee(&FaultSpec::from((edges[0], edges[1]))),
            expected
        );
        assert_eq!(
            frozen.guarantee(&FaultSpec::from([edges[0], edges[1], edges[2]])),
            Guarantee::BestEffort
        );
    }

    #[test]
    fn answers_respect_the_stretch_contract() {
        let (g, frozen) = sample();
        let edges: Vec<EdgeId> = g.edges().collect();
        let mut engine = QueryEngine::new();
        for (i, &a) in edges.iter().enumerate().step_by(5) {
            let b = edges[(i + 3) % edges.len()];
            let spec = if a == b {
                FaultSpec::from(a)
            } else {
                FaultSpec::from((a, b))
            };
            let truth = bfs(&GraphView::new(&g).without_faults(&spec), v(0));
            for t in g.vertices() {
                let answer = engine.try_distance(&frozen, t, &spec).unwrap();
                let got = answer.into_value();
                let expect = truth.distance(t);
                match (got, expect) {
                    (None, None) => {}
                    (Some(d), Some(true_d)) => {
                        assert!(d >= true_d, "structure distances never undershoot");
                        let bound = answer.guarantee().stretch_bound(true_d).unwrap();
                        assert!(
                            (d as u64) <= bound,
                            "target {t:?} spec {spec:?}: {d} > bound {bound}"
                        );
                    }
                    (got, expect) => {
                        panic!(
                            "reachability mismatch at {t:?} under {spec:?}: {got:?} vs {expect:?}"
                        )
                    }
                }
            }
        }
    }

    #[test]
    fn save_load_roundtrip_keeps_the_contract() {
        let (_g, frozen) = sample();
        let bytes = frozen.save();
        let loaded = FrozenStructure::load(&bytes).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(loaded.fingerprint(), frozen.fingerprint());
        assert_eq!(loaded.contract(), frozen.contract());
        // Canonical encoding: saving again is byte-identical.
        assert_eq!(loaded.save(), bytes);
    }

    #[test]
    fn view_answers_identically_to_the_structure() {
        let (g, frozen) = sample();
        let bytes = frozen.save();
        let view = FrozenView::open(&bytes).unwrap();
        assert_eq!(view.vertex_count(), frozen.vertex_count());
        assert_eq!(view.edge_count(), frozen.edge_count());
        assert_eq!(view.sources(), frozen.sources());
        assert_eq!(view.resilience(), frozen.resilience());
        assert_eq!(view.contract(), frozen.contract());
        assert_eq!(view.fingerprint(), frozen.fingerprint());
        let mut ea = QueryEngine::new();
        let mut eb = QueryEngine::new();
        let edges: Vec<EdgeId> = g.edges().collect();
        for spec in [
            FaultSpec::None,
            FaultSpec::from(edges[1]),
            FaultSpec::from((edges[0], edges[edges.len() / 2])),
            FaultSpec::from([edges[0], edges[2], edges[4]]),
        ] {
            for t in g.vertices() {
                let a = ea.try_distance(&frozen, t, &spec).unwrap();
                let b = eb.try_distance(&view, t, &spec).unwrap();
                assert_eq!(a, b, "target {t:?} spec {spec:?}");
                assert_eq!(a.guarantee(), frozen.guarantee(&spec));
            }
        }
        assert_eq!(FrozenStructure::load(&bytes).unwrap(), frozen);
    }

    #[test]
    fn layout_reads_the_contract_from_the_header() {
        let (g, frozen) = sample();
        let bytes = frozen.save();
        assert!(FrozenView::open(&bytes).is_ok());
        let layout = snapshot_layout(&bytes).unwrap();
        assert_eq!(layout.contract, Contract::Approx(ApproxParams::DEFAULT));
        assert_eq!(layout.fingerprint, frozen.fingerprint());
        assert_eq!(layout.sections.len(), 5);
        // The contract is four header words: the approximate base is 16
        // bytes longer than the exact one over the same edges.
        let exact = FrozenStructure::from_edges(
            &g,
            frozen.sources(),
            frozen.resilience(),
            (0..frozen.edge_count() as u32).map(|i| frozen.original_edge(i)),
        );
        let exact_layout = snapshot_layout(&exact.save()).unwrap();
        assert_eq!(exact_layout.contract, Contract::Exact);
        assert_eq!(layout.base.len(), exact_layout.base.len() + 16);
    }

    #[test]
    fn fingerprint_covers_the_declared_contract() {
        let g = generators::connected_gnp(30, 0.15, 3);
        let w = TieBreak::new(&g, 3);
        // Same built edge set, re-declared under a different contract: the
        // serving artifacts must not be interchangeable.
        let built = approx_ftbfs(&g, &w, v(0), ApproxParams::DEFAULT);
        let a = FrozenStructure::freeze_approx(&g, &built);
        let mut relabelled = built.clone();
        relabelled.params.add += 1;
        let b = FrozenStructure::freeze_approx(&g, &relabelled);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a, b);
        // And differs from an exact frozen structure over the same edges.
        let exact = FrozenStructure::freeze(&g, &built.structure);
        assert_ne!(a.fingerprint(), exact.fingerprint());
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        let (_g, frozen) = sample();
        let bytes = frozen.save();
        for cut in [3, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                FrozenStructure::load(&bytes[..cut]).is_err(),
                "cut at {cut} must not load"
            );
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x20;
        assert!(FrozenStructure::load(&flipped).is_err());
        // A zero stretch denominator (header words: version, flags, n,
        // resilience, then α's numerator and denominator) is rejected by
        // the invariant check before any checksum is consulted.
        let mut crafted = bytes.clone();
        crafted[20..24].copy_from_slice(&0u32.to_le_bytes());
        match FrozenStructure::load(&crafted).unwrap_err() {
            SnapshotError::Corrupt(why) => assert!(why.contains("denominator"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // So is a contract promising a stretch below one.
        let mut crafted = bytes.clone();
        crafted[20..24].copy_from_slice(&9u32.to_le_bytes());
        match FrozenStructure::load(&crafted).unwrap_err() {
            SnapshotError::Corrupt(why) => assert!(why.contains("at least one"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn view_rejects_v1_and_foreign_magics() {
        let (_g, frozen) = sample();
        let mut v1 = frozen.save();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            FrozenView::open(&v1).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
        assert_eq!(
            FrozenView::open(b"FTBX....").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            FrozenView::open(b"FTBA....").unwrap_err(),
            SnapshotError::BadMagic,
            "the retired approximate magic is not a snapshot"
        );
    }
}
