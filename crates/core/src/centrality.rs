use std::ops::Index;

use rwbc_graph::NodeId;

/// A per-node centrality score vector.
///
/// All algorithms in this crate return their scores through this type, which
/// adds the ranking/comparison helpers the experiment suite needs.
///
/// # Example
///
/// ```
/// use rwbc::Centrality;
/// let c = Centrality::from_values(vec![0.2, 0.9, 0.5]);
/// assert_eq!(c.argmax(), Some(1));
/// assert_eq!(c.top_k(2), vec![1, 2]);
/// assert_eq!(c.ranks(), vec![2, 0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Centrality {
    values: Vec<f64>,
}

impl Centrality {
    /// Wraps a score vector (index = node id).
    pub fn from_values(values: Vec<f64>) -> Centrality {
        Centrality { values }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Score of node `v`, or `None` when out of range.
    pub fn get(&self, v: NodeId) -> Option<f64> {
        self.values.get(v).copied()
    }

    /// Borrow of the underlying score slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Consumes into the underlying vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.values
    }

    /// Iterator over `(node, score)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.values.iter().copied().enumerate()
    }

    /// The node with the highest score (`None` for the empty vector; ties
    /// break toward the smaller id).
    pub fn argmax(&self) -> Option<NodeId> {
        let mut best: Option<(NodeId, f64)> = None;
        for (v, x) in self.iter() {
            match best {
                Some((_, bx)) if bx >= x => {}
                _ => best = Some((v, x)),
            }
        }
        best.map(|(v, _)| v)
    }

    /// Maximum score (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Minimum score (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Sum of all scores.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Node ids of the `k` highest scores, best first (ties break toward
    /// smaller ids; `k` is clamped to `len`).
    pub fn top_k(&self, k: usize) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = (0..self.len()).collect();
        order.sort_by(|&a, &b| {
            self.values[b]
                .partial_cmp(&self.values[a])
                .expect("centrality scores must not be NaN")
                .then(a.cmp(&b))
        });
        order.truncate(k);
        order
    }

    /// Rank of each node: `ranks()[v] == 0` means `v` has the highest score.
    /// Ties break toward smaller ids (a total order, which keeps rank
    /// correlation well-defined).
    pub fn ranks(&self) -> Vec<usize> {
        let order = self.top_k(self.len());
        let mut ranks = vec![0usize; self.len()];
        for (rank, &v) in order.iter().enumerate() {
            ranks[v] = rank;
        }
        ranks
    }

    /// A copy rescaled so the scores sum to 1 (no-op if the sum is 0).
    pub fn to_distribution(&self) -> Centrality {
        let s = self.sum();
        if s == 0.0 {
            return self.clone();
        }
        Centrality::from_values(self.values.iter().map(|x| x / s).collect())
    }

    /// Entry-wise closeness within `tol`.
    pub fn approx_eq(&self, other: &Centrality, tol: f64) -> bool {
        self.len() == other.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<NodeId> for Centrality {
    type Output = f64;

    fn index(&self, v: NodeId) -> &f64 {
        &self.values[v]
    }
}

impl FromIterator<f64> for Centrality {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Centrality {
        Centrality::from_values(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let c = Centrality::from_values(vec![1.0, 3.0, 2.0]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c[1], 3.0);
        assert_eq!(c.get(2), Some(2.0));
        assert_eq!(c.get(9), None);
        assert_eq!(c.max(), Some(3.0));
        assert_eq!(c.min(), Some(1.0));
        assert_eq!(c.sum(), 6.0);
    }

    #[test]
    fn ordering_helpers() {
        let c = Centrality::from_values(vec![0.5, 0.5, 0.9, 0.1]);
        assert_eq!(c.argmax(), Some(2));
        assert_eq!(c.top_k(3), vec![2, 0, 1]); // tie 0 vs 1 -> smaller id first
        assert_eq!(c.ranks(), vec![1, 2, 0, 3]);
        assert_eq!(c.top_k(99).len(), 4);
    }

    #[test]
    fn distribution_normalizes() {
        let c = Centrality::from_values(vec![1.0, 3.0]);
        let d = c.to_distribution();
        assert!((d.sum() - 1.0).abs() < 1e-12);
        assert!((d[1] - 0.75).abs() < 1e-12);
        let z = Centrality::from_values(vec![0.0, 0.0]);
        assert_eq!(z.to_distribution(), z);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Centrality::from_values(vec![1.0, 2.0]);
        let b = Centrality::from_values(vec![1.0 + 1e-9, 2.0 - 1e-9]);
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
        let c = Centrality::from_values(vec![1.0]);
        assert!(!a.approx_eq(&c, 1.0));
    }

    #[test]
    fn empty_vector_edge_cases() {
        let e = Centrality::from_values(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.argmax(), None);
        assert_eq!(e.max(), None);
        assert!(e.top_k(3).is_empty());
    }

    #[test]
    fn collects_from_iterator() {
        let c: Centrality = [0.1, 0.2].into_iter().collect();
        assert_eq!(c.len(), 2);
    }
}
