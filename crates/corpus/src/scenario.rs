//! Named, serializable fault-scenario suites.
//!
//! A [`ScenarioSuite`] is a recorded sequence of
//! [`FaultSpec`]s with a name, a kind and the seed it was derived from —
//! the corpus currency that benchmarks and integration tests run by
//! name.  Four builders cover the fault models the dual-failure
//! structure must survive:
//!
//! * [`correlated_spatial`] — both faults of every pair drawn from edges
//!   internal to one quad-tree region (a flooded district, not two
//!   independent coin flips);
//! * [`bridge_adversarial`] — genuine 2-cuts: an edge `e` paired with a
//!   bridge of `G ∖ {e}` found by the biconnected-components pass
//!   ([`ftbfs_graph::properties::bridges_under`]), so the pair actually
//!   disconnects something;
//! * [`hub_targeted`] — both faults incident to one high-degree hub;
//! * [`replay_sequence`] — a deterministic mixed stream of none/one/pair
//!   specs for bit-for-bit replay testing.
//!
//! Suites serialize to a line-oriented text format with a trailing
//! FNV-1a checksum ([`ScenarioSuite::to_text`] /
//! [`ScenarioSuite::from_text`]); parsing is total — malformed input
//! yields a typed [`SuiteError`], never a panic.  Rebuilding a suite
//! from the same `(generator inputs, seed)` reproduces it exactly.

use crate::gen::EmbeddedGraph;
use crate::quad::QuadTree;
use ftbfs_graph::bytes::Fnv1a;
use ftbfs_graph::properties::bridges_under;
use ftbfs_graph::{EdgeId, FaultSpec, Graph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// The fault model a suite was built under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScenarioKind {
    /// Spatially correlated pairs from one quad-tree region.
    CorrelatedSpatial,
    /// Bridge/2-cut adversarial pairs.
    BridgeAdversarial,
    /// Pairs incident to one high-degree hub.
    HubTargeted,
    /// A deterministic mixed replay sequence.
    Replay,
}

impl ScenarioKind {
    /// The stable text-format identifier of this kind.
    pub fn slug(self) -> &'static str {
        match self {
            ScenarioKind::CorrelatedSpatial => "correlated-spatial",
            ScenarioKind::BridgeAdversarial => "bridge-adversarial",
            ScenarioKind::HubTargeted => "hub-targeted",
            ScenarioKind::Replay => "replay",
        }
    }

    /// Parses a [`slug`](Self::slug) back into a kind.
    pub fn from_slug(slug: &str) -> Option<Self> {
        Some(match slug {
            "correlated-spatial" => ScenarioKind::CorrelatedSpatial,
            "bridge-adversarial" => ScenarioKind::BridgeAdversarial,
            "hub-targeted" => ScenarioKind::HubTargeted,
            "replay" => ScenarioKind::Replay,
            _ => return None,
        })
    }
}

/// A named, seeded, serializable sequence of fault specifications.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioSuite {
    /// Suite name (a single whitespace-free token).
    pub name: String,
    /// The fault model the suite encodes.
    pub kind: ScenarioKind,
    /// Seed the suite was derived from (replaying with the same
    /// generator inputs and this seed reproduces the suite exactly).
    pub seed: u64,
    /// The recorded fault specifications, in execution order.
    pub faults: Vec<FaultSpec>,
}

/// Error parsing or validating a serialized scenario suite.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SuiteError {
    /// The input does not start with the `ftbfs-suite v1` header.
    MissingHeader,
    /// A line could not be parsed (1-based line number).
    MalformedLine {
        /// 1-based offending line.
        line: usize,
    },
    /// A required field line is missing or out of order.
    MissingField(&'static str),
    /// The `kind` field names no known scenario kind.
    UnknownKind,
    /// The `faults <count>` declaration disagrees with the fault lines.
    CountMismatch {
        /// Declared count.
        declared: usize,
        /// Fault lines actually present.
        actual: usize,
    },
    /// The trailing checksum does not match the preceding lines.
    ChecksumMismatch {
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum recomputed from the lines read.
        actual: u64,
    },
    /// A fault references an edge id outside the target graph.
    EdgeOutOfRange {
        /// Index of the offending fault spec.
        spec: usize,
        /// The out-of-range edge id.
        edge: u32,
    },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::MissingHeader => write!(f, "missing `ftbfs-suite v1` header"),
            SuiteError::MalformedLine { line } => write!(f, "malformed suite line {line}"),
            SuiteError::MissingField(field) => write!(f, "missing suite field `{field}`"),
            SuiteError::UnknownKind => write!(f, "unknown scenario kind"),
            SuiteError::CountMismatch { declared, actual } => write!(
                f,
                "suite declares {declared} fault(s) but contains {actual}"
            ),
            SuiteError::ChecksumMismatch { expected, actual } => write!(
                f,
                "suite checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
            SuiteError::EdgeOutOfRange { spec, edge } => {
                write!(f, "fault spec {spec} references unknown edge {edge}")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// The first line of every serialized suite.
const SUITE_HEADER: &str = "ftbfs-suite v1";

impl ScenarioSuite {
    /// Serializes the suite to its checksummed text format.
    ///
    /// # Panics
    ///
    /// Panics if the suite name is empty or contains whitespace (builder
    /// names are slugs, so this only fires on hand-built suites).
    pub fn to_text(&self) -> String {
        assert!(
            !self.name.is_empty() && !self.name.chars().any(char::is_whitespace),
            "suite names must be single whitespace-free tokens"
        );
        let mut s = String::new();
        s.push_str(SUITE_HEADER);
        s.push('\n');
        s.push_str(&format!("name {}\n", self.name));
        s.push_str(&format!("kind {}\n", self.kind.slug()));
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("faults {}\n", self.faults.len()));
        for spec in &self.faults {
            s.push('f');
            for e in spec.edges() {
                s.push_str(&format!(" {}", e.0));
            }
            s.push('\n');
        }
        let digest = Fnv1a::new().update(s.as_bytes()).finish();
        s.push_str(&format!("checksum {digest:016x}\n"));
        s
    }

    /// Parses a serialized suite, verifying the trailing checksum.
    ///
    /// The checksum is computed over the lines before it joined with
    /// `\n` (so CRLF input round-trips); any structural problem returns
    /// a typed [`SuiteError`].
    pub fn from_text(text: &str) -> Result<Self, SuiteError> {
        let mut digest = Fnv1a::new();
        let mut lines = text.lines().enumerate();

        let (_, header) = lines.next().ok_or(SuiteError::MissingHeader)?;
        if header.trim_end() != SUITE_HEADER {
            return Err(SuiteError::MissingHeader);
        }
        digest = digest.update(header.as_bytes()).update(b"\n");

        let field = |lines: &mut std::iter::Enumerate<std::str::Lines<'_>>,
                     digest: &mut Fnv1a,
                     key: &'static str|
         -> Result<(usize, String), SuiteError> {
            let (idx, line) = lines.next().ok_or(SuiteError::MissingField(key))?;
            *digest = digest.update(line.as_bytes()).update(b"\n");
            let mut parts = line.split_whitespace();
            if parts.next() != Some(key) {
                return Err(SuiteError::MissingField(key));
            }
            let value = parts
                .next()
                .ok_or(SuiteError::MalformedLine { line: idx + 1 })?;
            if parts.next().is_some() {
                return Err(SuiteError::MalformedLine { line: idx + 1 });
            }
            Ok((idx, value.to_string()))
        };

        let (_, name) = field(&mut lines, &mut digest, "name")?;
        let (kind_line, kind_slug) = field(&mut lines, &mut digest, "kind")?;
        let kind = ScenarioKind::from_slug(&kind_slug).ok_or(SuiteError::UnknownKind)?;
        let (seed_line, seed_text) = field(&mut lines, &mut digest, "seed")?;
        let seed: u64 = seed_text.parse().map_err(|_| SuiteError::MalformedLine {
            line: seed_line + 1,
        })?;
        let (count_line, count_text) = field(&mut lines, &mut digest, "faults")?;
        let declared: usize = count_text.parse().map_err(|_| SuiteError::MalformedLine {
            line: count_line + 1,
        })?;
        let _ = kind_line;

        let mut faults = Vec::with_capacity(declared.min(1 << 20));
        let mut checksum: Option<(usize, u64)> = None;
        for (idx, line) in lines {
            let line = line.trim_end();
            if let Some(rest) = line.strip_prefix("checksum ") {
                let stored = u64::from_str_radix(rest.trim(), 16)
                    .map_err(|_| SuiteError::MalformedLine { line: idx + 1 })?;
                checksum = Some((idx, stored));
                break;
            }
            digest = digest.update(line.as_bytes()).update(b"\n");
            let mut parts = line.split_whitespace();
            if parts.next() != Some("f") {
                return Err(SuiteError::MalformedLine { line: idx + 1 });
            }
            let mut edges: Vec<EdgeId> = Vec::new();
            for tok in parts {
                let id: u32 = tok
                    .parse()
                    .map_err(|_| SuiteError::MalformedLine { line: idx + 1 })?;
                edges.push(EdgeId(id));
            }
            faults.push(FaultSpec::from_edges(edges));
        }
        let (_, stored) = checksum.ok_or(SuiteError::MissingField("checksum"))?;
        let actual = digest.finish();
        if stored != actual {
            return Err(SuiteError::ChecksumMismatch {
                expected: stored,
                actual,
            });
        }
        if faults.len() != declared {
            return Err(SuiteError::CountMismatch {
                declared,
                actual: faults.len(),
            });
        }
        Ok(ScenarioSuite {
            name,
            kind,
            seed,
            faults,
        })
    }

    /// Checks that every referenced edge exists in `graph`.
    pub fn validate_for(&self, graph: &Graph) -> Result<(), SuiteError> {
        let m = graph.edge_count() as u32;
        for (spec_idx, spec) in self.faults.iter().enumerate() {
            for e in spec.edges() {
                if e.0 >= m {
                    return Err(SuiteError::EdgeOutOfRange {
                        spec: spec_idx,
                        edge: e.0,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Builds the correlated-spatial suite: each pair's two faults are
/// distinct edges internal to one quad-tree leaf region.
///
/// Regions with fewer than two internal edges are skipped; if no region
/// qualifies the suite is empty (no lattice-free embedding does this in
/// practice).
pub fn correlated_spatial(
    embedded: &EmbeddedGraph,
    tree: &QuadTree,
    pairs: usize,
    seed: u64,
) -> ScenarioSuite {
    let graph = &embedded.graph;
    let mut region_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); tree.leaf_count()];
    for e in graph.edges() {
        let ep = graph.endpoints(e);
        let (lu, lv) = (tree.leaf_of(ep.u.index()), tree.leaf_of(ep.v.index()));
        if lu == lv {
            region_edges[lu].push(e);
        }
    }
    let eligible: Vec<&Vec<EdgeId>> = region_edges.iter().filter(|r| r.len() >= 2).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut faults = Vec::with_capacity(pairs);
    if !eligible.is_empty() {
        for _ in 0..pairs {
            let region = eligible[rng.gen_range(0..eligible.len())];
            let a = region[rng.gen_range(0..region.len())];
            let b = loop {
                let b = region[rng.gen_range(0..region.len())];
                if b != a {
                    break b;
                }
            };
            faults.push(FaultSpec::from((a, b)));
        }
    }
    ScenarioSuite {
        name: ScenarioKind::CorrelatedSpatial.slug().to_string(),
        kind: ScenarioKind::CorrelatedSpatial,
        seed,
        faults,
    }
}

/// Builds the bridge-adversarial suite: each pair `{e, b}` is a genuine
/// 2-cut, with `b` a bridge of `G ∖ {e}` found by the
/// biconnected-components pass.
///
/// Candidate edges alternate between edges incident to the graph's
/// weakest vertices (degree ≤ 2 — on lattices these are the only spots
/// where removing one edge creates a bridge, and uniform sampling would
/// essentially never find them) and uniformly random edges.  Sampling
/// retries until enough 2-cuts are found or an attempt budget
/// (`20 · pairs + 50`) runs out, so 2-edge-connected graphs cannot loop
/// forever; the suite may then hold fewer pairs.
pub fn bridge_adversarial(graph: &Graph, pairs: usize, seed: u64) -> ScenarioSuite {
    let m = graph.edge_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weak_edges: Vec<EdgeId> = graph
        .vertices()
        .filter(|&v| graph.degree(v) <= 2)
        .flat_map(|v| graph.incident_edges(v))
        .collect();
    let mut faults = Vec::with_capacity(pairs);
    let mut attempts = 0usize;
    while faults.len() < pairs && attempts < 20 * pairs + 50 && m >= 2 {
        attempts += 1;
        let e = if !weak_edges.is_empty() && attempts % 2 == 0 {
            weak_edges[rng.gen_range(0..weak_edges.len())]
        } else {
            EdgeId(rng.gen_range(0..m) as u32)
        };
        let cut_partners = bridges_under(graph, &FaultSpec::from(e));
        if cut_partners.is_empty() {
            continue;
        }
        let b = cut_partners[rng.gen_range(0..cut_partners.len())];
        faults.push(FaultSpec::from((e, b)));
    }
    ScenarioSuite {
        name: ScenarioKind::BridgeAdversarial.slug().to_string(),
        kind: ScenarioKind::BridgeAdversarial,
        seed,
        faults,
    }
}

/// Builds the hub-targeted suite: both faults of each pair are incident
/// to one of the `hub_count` highest-degree vertices.
pub fn hub_targeted(graph: &Graph, hub_count: usize, pairs: usize, seed: u64) -> ScenarioSuite {
    let mut by_degree: Vec<_> = graph.vertices().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    let hubs: Vec<_> = by_degree
        .into_iter()
        .take(hub_count.max(1))
        .filter(|&v| graph.degree(v) >= 2)
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut faults = Vec::with_capacity(pairs);
    if !hubs.is_empty() {
        for _ in 0..pairs {
            let hub = hubs[rng.gen_range(0..hubs.len())];
            let incident = graph.neighbors(hub);
            let (_, a) = incident[rng.gen_range(0..incident.len())];
            let b = loop {
                let (_, b) = incident[rng.gen_range(0..incident.len())];
                if b != a {
                    break b;
                }
            };
            faults.push(FaultSpec::from((a, b)));
        }
    }
    ScenarioSuite {
        name: ScenarioKind::HubTargeted.slug().to_string(),
        kind: ScenarioKind::HubTargeted,
        seed,
        faults,
    }
}

/// Builds the replay suite: a deterministic mixed stream of
/// none/one/pair fault specs (≈20 % fault-free, 40 % single, 40 % dual)
/// whose whole purpose is bit-for-bit reproducibility from `seed`.
pub fn replay_sequence(graph: &Graph, len: usize, seed: u64) -> ScenarioSuite {
    let m = graph.edge_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut faults = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.gen_range(0..10u32);
        let spec = if roll < 2 || m == 0 {
            FaultSpec::None
        } else if roll < 6 || m == 1 {
            FaultSpec::from(EdgeId(rng.gen_range(0..m) as u32))
        } else {
            let a = EdgeId(rng.gen_range(0..m) as u32);
            let b = EdgeId(rng.gen_range(0..m) as u32);
            FaultSpec::from((a, b))
        };
        faults.push(spec);
    }
    ScenarioSuite {
        name: ScenarioKind::Replay.slug().to_string(),
        kind: ScenarioKind::Replay,
        seed,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::road_like;
    use ftbfs_graph::{bfs, generators, GraphView, VertexId};

    fn sample_suite() -> ScenarioSuite {
        ScenarioSuite {
            name: "demo".to_string(),
            kind: ScenarioKind::Replay,
            seed: 42,
            faults: vec![
                FaultSpec::None,
                FaultSpec::from(EdgeId(3)),
                FaultSpec::from((EdgeId(1), EdgeId(7))),
                FaultSpec::from_edges([EdgeId(0), EdgeId(2), EdgeId(9)]),
            ],
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let suite = sample_suite();
        let text = suite.to_text();
        let back = ScenarioSuite::from_text(&text).expect("roundtrip");
        assert_eq!(back, suite);
        // Serialization itself is deterministic.
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn crlf_input_roundtrips() {
        let text = sample_suite().to_text().replace('\n', "\r\n");
        assert_eq!(ScenarioSuite::from_text(&text).unwrap(), sample_suite());
    }

    #[test]
    fn malformed_suites_yield_typed_errors() {
        let good = sample_suite().to_text();
        assert_eq!(ScenarioSuite::from_text(""), Err(SuiteError::MissingHeader));
        assert_eq!(
            ScenarioSuite::from_text("ftbfs-suite v2\n"),
            Err(SuiteError::MissingHeader)
        );
        let kindless = good.replace("kind replay", "kind nonsense");
        assert_eq!(
            ScenarioSuite::from_text(&kindless),
            Err(SuiteError::UnknownKind)
        );
        // Flipping a fault id breaks the checksum.
        let tampered = good.replace("f 3\n", "f 4\n");
        assert!(matches!(
            ScenarioSuite::from_text(&tampered),
            Err(SuiteError::ChecksumMismatch { .. })
        ));
        // Dropping a fault line breaks the checksum before the count.
        let shorter = good.replace("f 3\n", "");
        assert!(matches!(
            ScenarioSuite::from_text(&shorter),
            Err(SuiteError::ChecksumMismatch { .. })
        ));
        // No checksum line at all.
        let unchecked = good.lines().take(6).collect::<Vec<_>>().join("\n");
        assert_eq!(
            ScenarioSuite::from_text(&unchecked),
            Err(SuiteError::MissingField("checksum"))
        );
    }

    #[test]
    fn validation_bounds_edges() {
        let g = generators::cycle(5);
        let mut suite = sample_suite();
        assert_eq!(
            suite.validate_for(&g),
            Err(SuiteError::EdgeOutOfRange { spec: 2, edge: 7 })
        );
        suite.faults.truncate(2);
        assert_eq!(suite.validate_for(&g), Ok(()));
    }

    #[test]
    fn correlated_pairs_stay_in_one_region() {
        let g = road_like(14, 14, 12, 9);
        let qt = QuadTree::build(&g.coords, 12);
        let suite = correlated_spatial(&g, &qt, 24, 5);
        assert_eq!(suite.faults.len(), 24);
        for spec in &suite.faults {
            let edges = spec.edges();
            assert_eq!(edges.len(), 2, "correlated specs are pairs");
            let leaves: Vec<usize> = edges
                .iter()
                .flat_map(|&e| {
                    let ep = g.graph.endpoints(e);
                    [qt.leaf_of(ep.u.index()), qt.leaf_of(ep.v.index())]
                })
                .collect();
            assert!(
                leaves.iter().all(|&l| l == leaves[0]),
                "faults span regions: {leaves:?}"
            );
        }
        // Deterministic in the seed.
        assert_eq!(suite, correlated_spatial(&g, &qt, 24, 5));
        assert_ne!(suite, correlated_spatial(&g, &qt, 24, 6));
    }

    #[test]
    fn bridge_adversarial_pairs_disconnect() {
        // A cycle through a few chords: plenty of 2-cuts.
        let g = generators::cycle(30);
        let suite = bridge_adversarial(&g, 6, 3);
        assert!(!suite.faults.is_empty());
        for spec in &suite.faults {
            assert_eq!(spec.len(), 2);
            let res = bfs(&GraphView::new(&g).without_faults(spec), VertexId(0));
            assert!(
                res.reached_count() < g.vertex_count(),
                "2-cut {spec:?} failed to disconnect the cycle"
            );
        }
        assert_eq!(suite, bridge_adversarial(&g, 6, 3));
    }

    #[test]
    fn hub_targeted_pairs_share_a_hub() {
        let g = generators::star(10);
        let suite = hub_targeted(&g, 1, 8, 1);
        assert_eq!(suite.faults.len(), 8);
        for spec in &suite.faults {
            // Every edge of a star is incident to the hub; a pair of
            // distinct star edges always shares vertex 0.
            assert_eq!(spec.len(), 2);
        }
        assert_eq!(suite, hub_targeted(&g, 1, 8, 1));
    }

    #[test]
    fn replay_sequences_are_reproducible_and_mixed() {
        let g = generators::grid(6, 6);
        let suite = replay_sequence(&g, 200, 77);
        assert_eq!(suite.faults.len(), 200);
        assert_eq!(suite, replay_sequence(&g, 200, 77));
        assert_ne!(suite, replay_sequence(&g, 200, 78));
        let nones = suite.faults.iter().filter(|s| s.is_empty()).count();
        let pairs = suite.faults.iter().filter(|s| s.len() == 2).count();
        assert!(nones > 0 && pairs > 0, "mix of fault sizes expected");
        suite.validate_for(&g).expect("edges in range");
        // And the serialized form round-trips losslessly.
        let back = ScenarioSuite::from_text(&suite.to_text()).unwrap();
        assert_eq!(back, suite);
    }
}
