//! Structural summaries of graphs used when reporting experiments.

use crate::traversal::{connected_components, diameter};
use crate::Graph;

/// Degree distribution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree `2m / n`.
    pub mean: f64,
    /// Population variance of the degree sequence.
    pub variance: f64,
}

/// Computes [`DegreeStats`] for a graph.
///
/// # Panics
///
/// Panics if the graph has no nodes.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let n = g.node_count();
    assert!(n > 0, "degree statistics of the empty graph are undefined");
    let degs: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let mean = degs.iter().sum::<usize>() as f64 / n as f64;
    let variance = degs
        .iter()
        .map(|&d| {
            let x = d as f64 - mean;
            x * x
        })
        .sum::<f64>()
        / n as f64;
    DegreeStats {
        min: *degs.iter().min().unwrap(),
        max: *degs.iter().max().unwrap(),
        mean,
        variance,
    }
}

/// Histogram of degrees: entry `d` is the number of nodes with degree `d`.
pub fn degree_histogram(g: &Graph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in g.nodes() {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// A one-struct structural report used in experiment logs.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of edges `m`.
    pub edges: usize,
    /// Number of connected components.
    pub components: usize,
    /// Exact diameter (`None` when disconnected).
    pub diameter: Option<usize>,
    /// Degree statistics.
    pub degrees: DegreeStats,
    /// Edge density.
    pub density: f64,
}

/// Builds a [`GraphSummary`]. Computes the exact diameter, so this is
/// `O(nm)`; intended for experiment-sized graphs.
///
/// # Panics
///
/// Panics if the graph has no nodes.
pub fn summarize(g: &Graph) -> GraphSummary {
    let (_, components) = connected_components(g);
    GraphSummary {
        nodes: g.node_count(),
        edges: g.edge_count(),
        components,
        diameter: diameter(g),
        degrees: degree_stats(g),
        density: g.density(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn stats_of_star() {
        // Star K_{1,4}: center degree 4, leaves degree 1.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert!(s.variance > 0.0);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let h = degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 5);
        assert_eq!(h[1], 2);
        assert_eq!(h[2], 3);
    }

    #[test]
    fn summary_fields_consistent() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let s = summarize(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.components, 1);
        assert_eq!(s.diameter, Some(2));
        assert_eq!(s.degrees.min, 2);
        assert_eq!(s.degrees.max, 2);
        assert!((s.degrees.variance).abs() < 1e-12);
    }

    #[test]
    fn regular_graph_has_zero_variance() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(degree_stats(&g).variance, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn stats_of_empty_graph_panic() {
        degree_stats(&Graph::empty(0));
    }
}
