use crate::{GraphBuilder, GraphError};

/// Identifier of a node: plain `usize` index in `0..n`.
///
/// The paper assumes each node has a unique `O(log n)`-bit identifier
/// (Section III-A); a dense index is the canonical such labeling and is what
/// the CONGEST simulator's bit-accounting layer charges for.
pub type NodeId = usize;

/// An immutable simple undirected graph in compressed-sparse-row form.
///
/// Construction goes through [`GraphBuilder`] (or the convenience
/// constructors such as [`Graph::from_edges`]), which validate that the graph
/// is simple. Neighbor lists are sorted ascending, enabling `O(log d)`
/// adjacency tests via [`Graph::has_edge`].
///
/// # Example
///
/// ```
/// use rwbc_graph::Graph;
///
/// # fn main() -> Result<(), rwbc_graph::GraphError> {
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// assert_eq!(g.degree_sum(), 2 * g.edge_count());
/// assert!(g.has_edge(1, 0));
/// assert!(!g.has_edge(0, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR row offsets; length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists; length `2m`.
    adjacency: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an iterator of undirected edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if any edge references a node `>= n`, is a
    /// self-loop, or repeats an earlier edge.
    ///
    /// # Example
    ///
    /// ```
    /// use rwbc_graph::Graph;
    /// let triangle = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
    /// assert_eq!(triangle.degree(0), 2);
    /// ```
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Internal constructor used by [`GraphBuilder`]; inputs must already be
    /// a valid CSR of a simple graph with sorted rows.
    pub(crate) fn from_csr_unchecked(offsets: Vec<usize>, adjacency: Vec<NodeId>) -> Graph {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), adjacency.len());
        Graph { offsets, adjacency }
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Graph {
        Graph {
            offsets: vec![0; n + 1],
            adjacency: Vec::new(),
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Degree `d(v)` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sum of all degrees (equals `2m`; the handshake lemma).
    #[inline]
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }

    /// Maximum degree over all nodes, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over all nodes, or 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Sorted neighbor slice of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbor_slice(&self, v: NodeId) -> &[NodeId] {
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterator over the neighbors of `v` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        Neighbors {
            inner: self.neighbor_slice(v).iter(),
        }
    }

    /// The `i`-th neighbor of `v` (0-based, ascending order).
    ///
    /// Used by random-walk code to pick a uniform neighbor by index without
    /// materializing the list.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` or `i >= degree(v)`.
    #[inline]
    pub fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        self.neighbor_slice(v)[i]
    }

    /// Whether the undirected edge `{u, v}` exists. `O(log d(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u >= self.node_count() || v >= self.node_count() {
            return false;
        }
        self.neighbor_slice(u).binary_search(&v).is_ok()
    }

    /// Iterator over all nodes `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count()
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`,
    /// in lexicographic order.
    ///
    /// ```
    /// use rwbc_graph::Graph;
    /// let g = Graph::from_edges(3, [(2, 0), (0, 1)]).unwrap();
    /// let edges: Vec<_> = g.edges().map(|e| (e.u, e.v)).collect();
    /// assert_eq!(edges, vec![(0, 1), (0, 2)]);
    /// ```
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            node: 0,
            idx: 0,
        }
    }

    /// Collects all edges as `(u, v)` pairs with `u < v`.
    pub fn edge_vec(&self) -> Vec<(NodeId, NodeId)> {
        self.edges().map(|e| (e.u, e.v)).collect()
    }

    /// Returns the graph with node labels permuted: new node `perm[v]`
    /// takes the role of old node `v`.
    ///
    /// Useful for testing label-invariance of centrality measures.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[NodeId]) -> Graph {
        let n = self.node_count();
        assert_eq!(perm.len(), n, "permutation length must equal node count");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "perm must be a permutation of 0..n");
            seen[p] = true;
        }
        let edges = self
            .edges()
            .map(|e| (perm[e.u], perm[e.v]))
            .collect::<Vec<_>>();
        Graph::from_edges(n, edges).expect("relabeling a simple graph stays simple")
    }

    /// Returns a copy of the graph with node `t` and all incident edges
    /// removed; remaining nodes are re-indexed densely, preserving order.
    ///
    /// This realizes the paper's `A_t` / `D_t` / `M_t` "remove the `t`-th row
    /// and column" operation (Section IV) at the graph level. The second
    /// return value maps old ids to new ids (`None` for `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t >= n`.
    pub fn remove_node(&self, t: NodeId) -> (Graph, Vec<Option<NodeId>>) {
        let n = self.node_count();
        assert!(t < n, "node {t} out of range");
        let mut map: Vec<Option<NodeId>> = Vec::with_capacity(n);
        let mut next = 0;
        for v in 0..n {
            if v == t {
                map.push(None);
            } else {
                map.push(Some(next));
                next += 1;
            }
        }
        let edges = self
            .edges()
            .filter(|e| e.u != t && e.v != t)
            .map(|e| (map[e.u].unwrap(), map[e.v].unwrap()))
            .collect::<Vec<_>>();
        let g = Graph::from_edges(n - 1, edges).expect("node removal keeps the graph simple");
        (g, map)
    }

    /// Disjoint union of two graphs: nodes of `other` are shifted by
    /// `self.node_count()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let shift = self.node_count();
        let n = shift + other.node_count();
        let edges = self
            .edges()
            .map(|e| (e.u, e.v))
            .chain(other.edges().map(|e| (e.u + shift, e.v + shift)))
            .collect::<Vec<_>>();
        Graph::from_edges(n, edges).expect("disjoint union of simple graphs is simple")
    }

    /// Density `2m / (n (n - 1))`, or 0 when `n < 2`.
    pub fn density(&self) -> f64 {
        let n = self.node_count();
        if n < 2 {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / (n as f64 * (n as f64 - 1.0))
    }
}

/// Iterator over the neighbors of a node; see [`Graph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: std::slice::Iter<'a, NodeId>,
}

impl<'a> Iterator for Neighbors<'a> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// A single undirected edge yielded by [`Graph::edges`], with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
}

/// Iterator over all undirected edges; see [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    graph: &'a Graph,
    node: NodeId,
    idx: usize,
}

impl<'a> Iterator for Edges<'a> {
    type Item = EdgeRef;

    fn next(&mut self) -> Option<EdgeRef> {
        let n = self.graph.node_count();
        while self.node < n {
            let row = self.graph.neighbor_slice(self.node);
            while self.idx < row.len() {
                let v = row[self.idx];
                self.idx += 1;
                if v > self.node {
                    return Some(EdgeRef { u: self.node, v });
                }
            }
            self.node += 1;
            self.idx = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = path4();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree_sum(), 6);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(4, [(2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbor_slice(2), &[0, 1, 3]);
        assert_eq!(g.neighbor(2, 1), 1);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = path4();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_lexicographic_once() {
        let g = Graph::from_edges(4, [(3, 1), (0, 2), (1, 0)]).unwrap();
        let es = g.edge_vec();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.density(), 0.0);
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        assert!(matches!(
            Graph::from_edges(3, [(0, 3)]),
            Err(GraphError::NodeOutOfRange { id: 3, n: 3 })
        ));
        assert!(matches!(
            Graph::from_edges(3, [(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        ));
        assert!(matches!(
            Graph::from_edges(3, [(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        ));
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = path4();
        let perm = vec![3, 2, 1, 0];
        let h = g.relabel(&perm);
        assert_eq!(h.edge_count(), 3);
        assert!(h.has_edge(3, 2));
        assert!(h.has_edge(2, 1));
        assert!(h.has_edge(1, 0));
    }

    #[test]
    #[should_panic(expected = "perm must be a permutation")]
    fn relabel_rejects_non_permutation() {
        path4().relabel(&[0, 0, 1, 2]);
    }

    #[test]
    fn remove_node_reindexes() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let (h, map) = g.remove_node(1);
        assert_eq!(h.node_count(), 3);
        // Old edges (2,3) and (0,3) survive as (1,2) and (0,2).
        assert_eq!(h.edge_vec(), vec![(0, 2), (1, 2)]);
        assert_eq!(map, vec![Some(0), None, Some(1), Some(2)]);
    }

    #[test]
    fn disjoint_union_shifts() {
        let a = Graph::from_edges(2, [(0, 1)]).unwrap();
        let b = Graph::from_edges(3, [(0, 2)]).unwrap();
        let u = a.disjoint_union(&b);
        assert_eq!(u.node_count(), 5);
        assert_eq!(u.edge_vec(), vec![(0, 1), (2, 4)]);
    }

    #[test]
    fn density_of_complete_triangle() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!((g.density() - 1.0).abs() < 1e-12);
    }
}
