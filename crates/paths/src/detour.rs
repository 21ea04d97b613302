//! Detour decomposition of single-failure replacement paths (Claim 3.4).
//!
//! For a failing edge `e_i ∈ π(s, v)`, the replacement path chosen by the
//! paper decomposes as `P_{s,v,{e_i}} = π(s, x_i) ∘ D_i ∘ π(y_i, v)` where the
//! *detour* `D_i` is edge-disjoint from `π(s, v)` and meets it exactly at its
//! two endpoints `x_i` (the divergence point) and `y_i` (the re-entry point).

use ftbfs_graph::{EdgeId, Graph, Path, VertexId};

/// A detour segment `D = P[x, y]` of a replacement path together with its
/// attachment points on `π(s, v)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Detour {
    /// The detour path from `x` to `y` (inclusive of both endpoints).
    pub path: Path,
    /// First vertex of the detour: the divergence point from `π(s, v)`.
    pub x: VertexId,
    /// Last vertex of the detour: the re-entry point into `π(s, v)`.
    pub y: VertexId,
}

impl Detour {
    /// The number of edges of the detour (`|D|`).
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// Returns `true` if the detour has no edges (degenerate; does not occur
    /// for real replacement paths but kept total for robustness).
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }

    /// Returns `true` if the (undirected) edge identified by `e` lies on the
    /// detour.
    pub fn contains_edge(&self, graph: &Graph, e: EdgeId) -> bool {
        let ep = graph.endpoints(e);
        self.path.contains_edge(ep.u, ep.v)
    }

    /// Returns `true` if vertex `v` lies on the detour (including endpoints).
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.path.contains_vertex(v)
    }

    /// The edge ids of the detour, resolved in `graph`.
    pub fn edge_ids(&self, graph: &Graph) -> Vec<EdgeId> {
        self.path.edge_ids(graph)
    }

    /// The position (0-based) of vertex `v` along the detour, measured from
    /// `x`, if `v` lies on the detour.  This realises the paper's
    /// `dist(x_i, v, D_i)`.
    pub fn position(&self, v: VertexId) -> Option<usize> {
        self.path.position(v)
    }
}

/// The three-segment decomposition of a replacement path,
/// `P = π(s, x) ∘ D ∘ π(y, v)` (Claim 3.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decomposition {
    /// The prefix `π(s, x)` of the canonical shortest path.
    pub prefix: Path,
    /// The detour segment `D` (from `x` to `y`).
    pub detour: Detour,
    /// The suffix `π(y, v)` of the canonical shortest path.
    pub suffix: Path,
}

impl Decomposition {
    /// Reassembles the full replacement path from the three segments.
    pub fn reassemble(&self) -> Path {
        self.prefix.concat(&self.detour.path).concat(&self.suffix)
    }
}

/// Decomposes a replacement path `p` with respect to the canonical path `pi`
/// (`π(s, v)`), both starting at the same source and ending at the same
/// target.
///
/// Returns `None` when `p` does not have the three-segment form — i.e. when
/// it is not of the shape "prefix of `π`, one excursion off `π`, suffix of
/// `π`".  Replacement paths selected as in step (1) of `Cons2FTBFS`
/// always decompose (Claim 3.4); arbitrary shortest paths in `G ∖ {e}` may
/// not.
///
/// A path equal to `pi` itself decomposes with an empty detour anchored at
/// the target.
pub fn decompose(pi: &Path, p: &Path) -> Option<Decomposition> {
    if pi.source() != p.source() || pi.target() != p.target() {
        return None;
    }
    let pi_vertices = pi.vertices();
    let p_vertices = p.vertices();

    // Longest common prefix with pi.
    let mut i = 0;
    while i < pi_vertices.len() && i < p_vertices.len() && pi_vertices[i] == p_vertices[i] {
        i += 1;
    }
    // p == pi (or p is a prefix of pi, impossible for equal endpoints).
    if i == p_vertices.len() {
        let target = p.target();
        return Some(Decomposition {
            prefix: p.clone(),
            detour: Detour {
                path: Path::singleton(target),
                x: target,
                y: target,
            },
            suffix: Path::singleton(target),
        });
    }
    if i == 0 {
        return None; // different sources already excluded, defensive
    }
    let x = pi_vertices[i - 1];

    // Longest common suffix with pi.
    let mut j = 0;
    while j < pi_vertices.len()
        && j < p_vertices.len()
        && pi_vertices[pi_vertices.len() - 1 - j] == p_vertices[p_vertices.len() - 1 - j]
    {
        j += 1;
    }
    let y = p_vertices[p_vertices.len() - j];

    // The detour is p between x and y; it must not touch pi in its interior.
    let x_pos = i - 1;
    let y_pos = p_vertices.len() - j;
    if y_pos < x_pos {
        return None;
    }
    let detour_vertices = &p_vertices[x_pos..=y_pos];
    let interior = &detour_vertices[1..detour_vertices.len().saturating_sub(1)];
    if interior.iter().any(|u| pi_vertices.contains(u)) {
        return None;
    }
    let prefix = Path::new(pi_vertices[..=x_pos].to_vec());
    let detour_path = if detour_vertices.len() == 1 {
        Path::singleton(detour_vertices[0])
    } else {
        Path::new(detour_vertices.to_vec())
    };
    let suffix_start = pi.position(y)?;
    let suffix = Path::new(pi_vertices[suffix_start..].to_vec());
    // The suffix of p must equal the suffix of pi for the decomposition to be valid.
    if p_vertices[y_pos..] != pi_vertices[suffix_start..] {
        return None;
    }
    Some(Decomposition {
        prefix,
        detour: Detour {
            path: detour_path,
            x,
            y,
        },
        suffix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn path(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&i| v(i)).collect())
    }

    #[test]
    fn simple_decomposition() {
        let pi = path(&[0, 1, 2, 3, 4]);
        let p = path(&[0, 1, 5, 6, 3, 4]);
        let d = decompose(&pi, &p).unwrap();
        assert_eq!(d.prefix, path(&[0, 1]));
        assert_eq!(d.detour.x, v(1));
        assert_eq!(d.detour.y, v(3));
        assert_eq!(d.detour.path, path(&[1, 5, 6, 3]));
        assert_eq!(d.suffix, path(&[3, 4]));
        assert_eq!(d.reassemble(), p);
        assert_eq!(d.detour.len(), 3);
        assert_eq!(d.detour.position(v(6)), Some(2));
        assert_eq!(d.detour.position(v(9)), None);
    }

    #[test]
    fn detour_ending_at_target() {
        let pi = path(&[0, 1, 2, 3]);
        let p = path(&[0, 5, 6, 3]);
        let d = decompose(&pi, &p).unwrap();
        assert_eq!(d.detour.x, v(0));
        assert_eq!(d.detour.y, v(3));
        assert_eq!(d.suffix, Path::singleton(v(3)));
        assert_eq!(d.reassemble(), p);
    }

    #[test]
    fn identical_path_gives_empty_detour() {
        let pi = path(&[0, 1, 2]);
        let d = decompose(&pi, &pi).unwrap();
        assert!(d.detour.is_empty());
        assert_eq!(d.reassemble(), pi);
    }

    #[test]
    fn two_excursions_do_not_decompose() {
        let pi = path(&[0, 1, 2, 3, 4, 5]);
        // leaves pi at 0, returns at 2, leaves again at 3, returns at 5
        let p = path(&[0, 6, 2, 3, 7, 5]);
        assert!(decompose(&pi, &p).is_none());
    }

    #[test]
    fn mismatched_endpoints_do_not_decompose() {
        let pi = path(&[0, 1, 2]);
        let p = path(&[0, 1, 3]);
        assert!(decompose(&pi, &p).is_none());
        let q = path(&[9, 1, 2]);
        assert!(decompose(&pi, &q).is_none());
    }

    #[test]
    fn detour_edge_and_vertex_membership() {
        let mut b = GraphBuilder::new(7);
        b.add_path(&[v(0), v(1), v(2), v(3), v(4)]);
        b.add_path(&[v(1), v(5), v(6), v(3)]);
        let g = b.build();
        let pi = path(&[0, 1, 2, 3, 4]);
        let p = path(&[0, 1, 5, 6, 3, 4]);
        let d = decompose(&pi, &p).unwrap();
        let e56 = g.edge_between(v(5), v(6)).unwrap();
        let e12 = g.edge_between(v(1), v(2)).unwrap();
        assert!(d.detour.contains_edge(&g, e56));
        assert!(!d.detour.contains_edge(&g, e12));
        assert!(d.detour.contains_vertex(v(5)));
        assert!(!d.detour.contains_vertex(v(2)));
        assert_eq!(d.detour.edge_ids(&g).len(), 3);
    }
}
