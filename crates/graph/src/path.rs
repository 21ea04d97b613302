//! Paths as vertex sequences, with the segment algebra used throughout the
//! paper: subpaths `P[a, b]`, concatenation `P1 ∘ P2`, last edges
//! `LastE(P)`, and divergence points.

use crate::graph::{Graph, VertexId};
use std::fmt;

/// A simple path in a graph, stored as the ordered sequence of visited
/// vertices.
///
/// A path with `k+1` vertices has length (number of edges) `k`; a
/// single-vertex path has length `0`.  Paths are directed in the sense that
/// the vertex order matters (the paper views all paths as directed away from
/// the source `s`), but they traverse undirected edges.
///
/// # Examples
///
/// ```
/// use ftbfs_graph::{Path, VertexId};
///
/// let p = Path::new(vec![VertexId(0), VertexId(1), VertexId(2)]);
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.source(), VertexId(0));
/// assert_eq!(p.target(), VertexId(2));
/// assert_eq!(p.last_edge(), Some((VertexId(1), VertexId(2))));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path {
    vertices: Vec<VertexId>,
}

impl Path {
    /// Creates a path from an ordered vertex sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or contains an immediate repetition
    /// (`... v v ...`), which would denote a zero-length self-loop step.
    pub fn new(vertices: Vec<VertexId>) -> Self {
        assert!(
            !vertices.is_empty(),
            "a path must contain at least one vertex"
        );
        for pair in vertices.windows(2) {
            assert_ne!(
                pair[0], pair[1],
                "a path must not repeat a vertex consecutively"
            );
        }
        Path { vertices }
    }

    /// Creates the trivial path consisting of a single vertex.
    pub fn singleton(v: VertexId) -> Self {
        Path { vertices: vec![v] }
    }

    /// The vertices of the path, in order.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The number of edges on the path (`|P|` in the paper's notation).
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len() - 1
    }

    /// Returns `true` if the path has no edges (a single vertex).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.len() == 1
    }

    /// First vertex of the path.
    #[inline]
    pub fn source(&self) -> VertexId {
        self.vertices[0]
    }

    /// Last vertex of the path.
    #[inline]
    pub fn target(&self) -> VertexId {
        *self.vertices.last().expect("path is non-empty")
    }

    /// The last edge of the path as an ordered pair `(second-to-last, last)`,
    /// the `LastE(P)` of the paper.  Returns `None` for single-vertex paths.
    pub fn last_edge(&self) -> Option<(VertexId, VertexId)> {
        let k = self.vertices.len();
        if k < 2 {
            None
        } else {
            Some((self.vertices[k - 2], self.vertices[k - 1]))
        }
    }

    /// Iterator over the ordered edge pairs of the path.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices.windows(2).map(|w| (w[0], w[1]))
    }

    /// Resolves the path's edges to edge ids of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if a consecutive vertex pair of the path is not an edge of
    /// `graph`.
    pub fn edge_ids(&self, graph: &Graph) -> Vec<crate::graph::EdgeId> {
        self.edge_pairs()
            .map(|(a, b)| {
                graph.edge_between(a, b).unwrap_or_else(|| {
                    panic!("path step ({a:?},{b:?}) is not an edge of the graph")
                })
            })
            .collect()
    }

    /// The id of the last edge of the path in `graph`, if the path is
    /// non-trivial.
    pub fn last_edge_id(&self, graph: &Graph) -> Option<crate::graph::EdgeId> {
        self.last_edge().map(|(a, b)| {
            graph
                .edge_between(a, b)
                .unwrap_or_else(|| panic!("path step ({a:?},{b:?}) is not an edge of the graph"))
        })
    }

    /// Returns `true` if vertex `v` appears on the path.
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// Position of the first occurrence of `v` on the path, if any.
    pub fn position(&self, v: VertexId) -> Option<usize> {
        self.vertices.iter().position(|&x| x == v)
    }

    /// Returns `true` if the unordered edge `{a, b}` is traversed by the path.
    pub fn contains_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.edge_pairs()
            .any(|(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// The subpath `P[a, b]` between the first occurrences of vertices `a`
    /// and `b` (inclusive), following the paper's `P[v_i, v_j]` notation.
    ///
    /// # Panics
    ///
    /// Panics if either vertex does not lie on the path or if `a` occurs
    /// after `b`.
    fn subpath(&self, a: VertexId, b: VertexId) -> Path {
        let i = self.position(a).expect("subpath start vertex not on path");
        let j = self.position(b).expect("subpath end vertex not on path");
        assert!(i <= j, "subpath start occurs after end ({a:?} after {b:?})");
        Path {
            vertices: self.vertices[i..=j].to_vec(),
        }
    }

    /// The prefix of the path up to (and including) vertex `a`.
    pub fn prefix(&self, a: VertexId) -> Path {
        self.subpath(self.source(), a)
    }

    /// The suffix of the path from vertex `a` (inclusive) to the end.
    pub fn suffix(&self, a: VertexId) -> Path {
        self.subpath(a, self.target())
    }

    /// Concatenation `self ∘ other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` does not start at the target of `self`.
    pub fn concat(&self, other: &Path) -> Path {
        assert_eq!(
            self.target(),
            other.source(),
            "cannot concatenate paths: {:?} does not end where {:?} starts",
            self,
            other
        );
        let mut vertices = self.vertices.clone();
        vertices.extend_from_slice(&other.vertices[1..]);
        Path { vertices }
    }

    /// Returns `true` if the path visits no vertex twice.
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.vertices.len());
        self.vertices.iter().all(|v| seen.insert(*v))
    }

    /// Returns `true` if every consecutive pair of vertices is an edge of
    /// `graph`.
    pub fn is_valid_in(&self, graph: &Graph) -> bool {
        self.edge_pairs().all(|(a, b)| graph.has_edge(a, b))
    }

    /// The reversed path.
    pub fn reversed(&self) -> Path {
        let mut vertices = self.vertices.clone();
        vertices.reverse();
        Path { vertices }
    }

    /// The first *divergence point* of `self` from `other`, following the
    /// paper's definition: the first vertex `w` on `self` such that
    /// `w ∈ self ∩ other` but the vertex following `w` on `self` is **not**
    /// on `other`.  Returns `None` when no such vertex exists (for instance
    /// when `self` is a prefix of `other` or the paths never meet).
    pub fn first_divergence_from(&self, other: &Path) -> Option<VertexId> {
        let other_set: std::collections::HashSet<VertexId> =
            other.vertices.iter().copied().collect();
        for w in self.vertices.windows(2) {
            let (cur, next) = (w[0], w[1]);
            if other_set.contains(&cur) && !other_set.contains(&next) {
                return Some(cur);
            }
        }
        None
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "{}", v.0)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn path(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&i| v(i)).collect())
    }

    #[test]
    fn basic_accessors() {
        let p = path(&[0, 1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.source(), v(0));
        assert_eq!(p.target(), v(3));
        assert_eq!(p.last_edge(), Some((v(2), v(3))));
        assert!(p.contains_vertex(v(2)));
        assert!(!p.contains_vertex(v(9)));
        assert!(p.contains_edge(v(2), v(1)));
        assert!(!p.contains_edge(v(0), v(2)));
    }

    #[test]
    fn singleton_path() {
        let p = Path::singleton(v(4));
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.last_edge(), None);
        assert_eq!(p.source(), v(4));
        assert_eq!(p.target(), v(4));
    }

    #[test]
    #[should_panic]
    fn empty_vertex_list_panics() {
        let _ = Path::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn immediate_repetition_panics() {
        let _ = path(&[0, 1, 1, 2]);
    }

    #[test]
    fn subpath_prefix_suffix() {
        let p = path(&[0, 1, 2, 3, 4]);
        assert_eq!(p.subpath(v(1), v(3)), path(&[1, 2, 3]));
        assert_eq!(p.prefix(v(2)), path(&[0, 1, 2]));
        assert_eq!(p.suffix(v(2)), path(&[2, 3, 4]));
        assert_eq!(p.subpath(v(2), v(2)), Path::singleton(v(2)));
    }

    #[test]
    #[should_panic]
    fn subpath_wrong_order_panics() {
        let p = path(&[0, 1, 2, 3]);
        let _ = p.subpath(v(3), v(1));
    }

    #[test]
    fn concat_paths() {
        let p1 = path(&[0, 1, 2]);
        let p2 = path(&[2, 3]);
        assert_eq!(p1.concat(&p2), path(&[0, 1, 2, 3]));
        let single = Path::singleton(v(2));
        assert_eq!(p1.concat(&single), p1);
    }

    #[test]
    #[should_panic]
    fn concat_mismatched_panics() {
        let p1 = path(&[0, 1]);
        let p2 = path(&[2, 3]);
        let _ = p1.concat(&p2);
    }

    #[test]
    fn simplicity_and_reversal() {
        assert!(path(&[0, 1, 2]).is_simple());
        assert!(!path(&[0, 1, 2, 0]).is_simple());
        assert_eq!(path(&[0, 1, 2]).reversed(), path(&[2, 1, 0]));
    }

    #[test]
    fn validity_in_graph_and_edge_ids() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.add_edge(v(2), v(3));
        let g = b.build();
        let p = path(&[0, 1, 2, 3]);
        assert!(p.is_valid_in(&g));
        assert_eq!(p.edge_ids(&g).len(), 3);
        assert_eq!(p.last_edge_id(&g), g.edge_between(v(2), v(3)));
        let bad = path(&[0, 2]);
        assert!(!bad.is_valid_in(&g));
    }

    #[test]
    fn divergence_points() {
        // pi = 0-1-2-3-4, q diverges at 1, rejoins at 4.
        let pi = path(&[0, 1, 2, 3, 4]);
        let q = path(&[0, 1, 5, 6, 4]);
        assert_eq!(q.first_divergence_from(&pi), Some(v(1)));
        // A path identical to a prefix of pi has no divergence point.
        let pref = path(&[0, 1, 2]);
        assert_eq!(pref.first_divergence_from(&pi), None);
        // Leaves at 0, returns at 2, leaves again at 2: the first one counts.
        let z = path(&[0, 7, 2, 8, 4]);
        assert_eq!(z.first_divergence_from(&pi), Some(v(0)));
    }

    #[test]
    fn debug_format() {
        let p = path(&[0, 1, 2]);
        assert_eq!(format!("{p:?}"), "Path[0-1-2]");
    }
}
