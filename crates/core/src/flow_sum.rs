//! Shared pair-summation machinery for net-flow betweenness.
//!
//! Every RWBC computation in this crate — exact, Monte-Carlo, and the
//! distributed algorithm's local combine step (paper Algorithm 2 line 3) —
//! ends with the same reduction: given per-node "potential" columns
//! `x[v][s] ≈ T_vs` (expected degree-scaled visits of an absorbing walk from
//! `s` at `v`), node `i`'s throughput summed over all source/target pairs is
//!
//! ```text
//!   Σ_{s<t, i∉{s,t}}  I_i^{(st)}
//!     = (1/2) Σ_{j ∈ N(i)} Σ_{s<t, i∉{s,t}} |z_s − z_t|,   z_k = x[i][k] − x[j][k]
//! ```
//!
//! (paper Eq. 6). The naive pair loop is `Θ(n²)` per edge; sorting `z` turns
//! the inner double sum into `Σ_k (2k − n + 1) z_(k)` — `O(n log n)` per
//! edge (the Brandes–Fleischer trick). Excluded pairs (those with
//! `i ∈ {s, t}`) are handled by subtracting `Σ_t |z_i − z_t|`, computable
//! from the same sorted array with prefix sums.
//!
//! Both the direct and the sorted reductions are implemented and
//! cross-checked by tests; callers choose via [`PairSumMethod`].

use rwbc_graph::Graph;

/// Which pair-summation algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairSumMethod {
    /// `O(n log n)` per edge via sorting (Brandes–Fleischer).
    #[default]
    Sorted,
    /// `Θ(n²)` per edge, literally Eq. 6. Kept as the obviously-correct
    /// oracle that the tests check `Sorted` against.
    Direct,
}

/// A sorted view of a difference column with prefix sums, supporting the two
/// queries the reduction needs.
///
/// The column may leave its zeros implicit: `zeros` entries equal to zero
/// rank between the negative and the positive entries of `sorted`. Exact
/// zeros add only `±0.0` terms to the rank-weighted fold and the prefix
/// sums, so both queries return the same bits as on the dense column,
/// except that a zero pair sum may differ in sign (which a `+0.0`-seeded
/// accumulator erases).
#[derive(Debug)]
pub(crate) struct SortedColumn {
    /// The stored entries, ascending.
    sorted: Vec<f64>,
    /// `prefix[k] = Σ_{j<k} sorted[j]`.
    prefix: Vec<f64>,
    /// Zero entries not stored in `sorted`.
    zeros: usize,
    /// Negative entries of `sorted`: the rank where the zero run starts.
    neg: usize,
}

impl SortedColumn {
    pub(crate) fn new(z: &[f64]) -> SortedColumn {
        let mut sorted = z.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("potentials must not be NaN"));
        SortedColumn::from_sorted(sorted, 0)
    }

    /// A column of `nonzero.len() + zeros` entries, given only its
    /// nonzero ones (in any order).
    pub(crate) fn with_zeros(mut nonzero: Vec<f64>, zeros: usize) -> SortedColumn {
        // Equal entries are bit-identical (no NaN, no −0.0 among
        // nonzeros), so any sort yields the same sequence.
        nonzero.sort_unstable_by(f64::total_cmp);
        SortedColumn::from_sorted(nonzero, zeros)
    }

    fn from_sorted(sorted: Vec<f64>, zeros: usize) -> SortedColumn {
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        for &v in &sorted {
            prefix.push(prefix.last().unwrap() + v);
        }
        let neg = sorted.partition_point(|&v| v < 0.0);
        SortedColumn {
            sorted,
            prefix,
            zeros,
            neg,
        }
    }

    fn len(&self) -> usize {
        self.sorted.len() + self.zeros
    }

    /// `Σ_{s<t} |z_s − z_t|` over all unordered pairs.
    pub(crate) fn pair_sum(&self) -> f64 {
        let n = self.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                // Entries past the negatives rank behind the zero run.
                let rank = if k < self.neg { k } else { k + self.zeros };
                (2.0 * rank as f64 - n + 1.0) * v
            })
            .sum()
    }

    /// `Σ_t |c − z_t|` over all entries.
    pub(crate) fn abs_sum_around(&self, c: f64) -> f64 {
        // Stored entries <= c via binary search; the zero run is <= c
        // exactly when c >= 0.
        let stored = self.sorted.partition_point(|&v| v <= c);
        let k = stored + if c >= 0.0 { self.zeros } else { 0 };
        let below = c * k as f64 - self.prefix[stored];
        let total = *self.prefix.last().unwrap();
        let above = (total - self.prefix[stored]) - c * (self.len() - k) as f64;
        below + above
    }
}

/// Net-flow sum of node `me` over pairs excluding `me`, given its own
/// potential column and each neighbor's column (sorted method).
pub(crate) fn node_net_flow_sorted<'a>(
    me: usize,
    own: &[f64],
    neighbor_cols: impl Iterator<Item = &'a [f64]>,
) -> f64 {
    let mut acc = 0.0;
    for nb in neighbor_cols {
        debug_assert_eq!(own.len(), nb.len());
        let z: Vec<f64> = own.iter().zip(nb).map(|(a, b)| a - b).collect();
        let col = SortedColumn::new(&z);
        // All pairs, minus the pairs that involve `me`.
        acc += col.pair_sum() - col.abs_sum_around(z[me]);
    }
    acc / 2.0
}

/// [`node_net_flow_sorted`] over sparse columns of `n` entries each, with
/// every absent entry zero. `own` holds node `me`'s nonzero potentials and
/// each of `neighbor_cols` one neighbor's, as `(source, value)` by
/// ascending source. The result is bit-identical to the dense reduction
/// (see [`SortedColumn`]), at `O(m log m)` per neighbor for `m` nonzero
/// differences instead of `O(n log n)`.
pub(crate) fn node_net_flow_sparse<'a>(
    me: usize,
    n: usize,
    own: &[(u32, f64)],
    neighbor_cols: impl Iterator<Item = &'a [(u32, f64)]>,
) -> f64 {
    let mut acc = 0.0;
    for nb in neighbor_cols {
        let (z, at_me) = nonzero_differences(me, own, nb);
        let zeros = n - z.len();
        let col = SortedColumn::with_zeros(z, zeros);
        acc += col.pair_sum() - col.abs_sum_around(at_me);
    }
    acc / 2.0
}

/// Merges two sparse columns, each by ascending source, into the nonzero
/// entries of `own − nb`, and returns that difference at `me` as well.
fn nonzero_differences(me: usize, own: &[(u32, f64)], nb: &[(u32, f64)]) -> (Vec<f64>, f64) {
    let mut z = Vec::with_capacity(own.len() + nb.len());
    let mut at_me = 0.0;
    let (mut i, mut j) = (0, 0);
    loop {
        let source = match (own.get(i), nb.get(j)) {
            (None, None) => break,
            (Some(a), Some(b)) => a.0.min(b.0),
            (Some(a), None) => a.0,
            (None, Some(b)) => b.0,
        };
        // An absent entry is the dense column's zero, so `o - b` is the
        // very subtraction the dense reduction performs.
        let o = match own.get(i) {
            Some(&(s, v)) if s == source => {
                i += 1;
                v
            }
            _ => 0.0,
        };
        let b = match nb.get(j) {
            Some(&(s, v)) if s == source => {
                j += 1;
                v
            }
            _ => 0.0,
        };
        let d = o - b;
        if source as usize == me {
            at_me = d;
        }
        if d != 0.0 {
            z.push(d);
        }
    }
    (z, at_me)
}

/// A weighted sorted column: entry `k` stands for `weight[k]` identical
/// copies of `value[k]`. This is the sketch-mode combine primitive — a
/// bucket of `c_b` sources collapses to one entry of weight `c_b`, and
/// the pair sum over the expanded multiset is recovered exactly from the
/// weighted prefix sums, in `O(B log B)` instead of `O(n log n)`.
#[derive(Debug)]
pub(crate) struct WeightedColumn {
    /// `(value, weight)` sorted by value; zero-weight entries dropped.
    sorted: Vec<(f64, f64)>,
    /// `prefix_w[k] = Σ_{j<k} weight_j`.
    prefix_w: Vec<f64>,
    /// `prefix_wv[k] = Σ_{j<k} weight_j · value_j`.
    prefix_wv: Vec<f64>,
}

impl WeightedColumn {
    pub(crate) fn new(z: &[f64], weights: &[f64]) -> WeightedColumn {
        debug_assert_eq!(z.len(), weights.len());
        let mut sorted: Vec<(f64, f64)> = z
            .iter()
            .zip(weights)
            .filter(|(_, &w)| w > 0.0)
            .map(|(&v, &w)| (v, w))
            .collect();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("potentials must not be NaN"));
        let mut prefix_w = Vec::with_capacity(sorted.len() + 1);
        let mut prefix_wv = Vec::with_capacity(sorted.len() + 1);
        prefix_w.push(0.0);
        prefix_wv.push(0.0);
        for &(v, w) in &sorted {
            prefix_w.push(prefix_w.last().unwrap() + w);
            prefix_wv.push(prefix_wv.last().unwrap() + w * v);
        }
        WeightedColumn {
            sorted,
            prefix_w,
            prefix_wv,
        }
    }

    /// `Σ_{s<t} |z_s − z_t|` over all unordered pairs of the *expanded*
    /// multiset. An entry of weight `w` at cumulative position `P`
    /// occupies expanded ranks `P..P+w`, and summing the sorted-rank
    /// identity `(2k − W + 1)·v` over that run gives `v·w·(2P + w − W)`.
    pub(crate) fn pair_sum(&self) -> f64 {
        let total = *self.prefix_w.last().unwrap();
        self.sorted
            .iter()
            .enumerate()
            .map(|(k, &(v, w))| v * w * (2.0 * self.prefix_w[k] + w - total))
            .sum()
    }

    /// `Σ_t weight_t · |c − z_t|` over all entries.
    pub(crate) fn abs_sum_around(&self, c: f64) -> f64 {
        let k = self.sorted.partition_point(|&(v, _)| v <= c);
        let below = c * self.prefix_w[k] - self.prefix_wv[k];
        let total_w = *self.prefix_w.last().unwrap();
        let total_wv = *self.prefix_wv.last().unwrap();
        let above = (total_wv - self.prefix_wv[k]) - c * (total_w - self.prefix_w[k]);
        below + above
    }
}

/// Sketch-mode analogue of [`node_net_flow_sorted`]: columns are bucket
/// averages (`B` entries, row-major `flat[b * deg + slot]`) and
/// each bucket carries its preimage weight. `me_bucket` is the bucket
/// node `me` hashes into; its average stands in for `z_me` in the
/// excluded-pair correction.
pub(crate) fn node_net_flow_weighted_strided(
    me_bucket: usize,
    own: &[f64],
    flat: &[f64],
    deg: usize,
    weights: &[f64],
) -> f64 {
    debug_assert_eq!(flat.len(), own.len() * deg);
    debug_assert_eq!(weights.len(), own.len());
    let mut acc = 0.0;
    let mut z = vec![0.0; own.len()];
    for slot in 0..deg {
        for (b, (zb, o)) in z.iter_mut().zip(own).enumerate() {
            *zb = o - flat[b * deg + slot];
        }
        let col = WeightedColumn::new(&z, weights);
        acc += col.pair_sum() - col.abs_sum_around(z[me_bucket]);
    }
    acc / 2.0
}

/// Net-flow sum of node `me` over pairs excluding `me` — the literal Eq. 6
/// double loop. `Θ(n²)` per neighbor.
pub(crate) fn node_net_flow_direct<'a>(
    me: usize,
    own: &[f64],
    neighbor_cols: impl Iterator<Item = &'a [f64]>,
) -> f64 {
    let cols: Vec<&[f64]> = neighbor_cols.collect();
    let n = own.len();
    let mut acc = 0.0;
    for s in 0..n {
        for t in (s + 1)..n {
            if s == me || t == me {
                continue;
            }
            for nb in &cols {
                acc += (own[s] - own[t] - nb[s] + nb[t]).abs();
            }
        }
    }
    acc / 2.0
}

/// Combines potential columns into normalized betweenness (paper Eqs. 6–8):
///
/// * inner flows from the pair sums above;
/// * endpoint flows `I_s^{(st)} = I_t^{(st)} = 1` (Eq. 7) contribute
///   `n − 1` per node (one per pair it belongs to);
/// * normalization by `n (n − 1) / 2` pairs (Eq. 8).
///
/// `x[v]` is node `v`'s potential column (`x[v][s] ≈ T_vs`).
pub(crate) fn combine_potentials(graph: &Graph, x: &[Vec<f64>], method: PairSumMethod) -> Vec<f64> {
    let n = graph.node_count();
    debug_assert_eq!(x.len(), n);
    let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    (0..n)
        .map(|i| {
            let neighbors = graph.neighbor_slice(i).iter().map(|&j| x[j].as_slice());
            let inner = match method {
                PairSumMethod::Sorted => node_net_flow_sorted(i, &x[i], neighbors),
                PairSumMethod::Direct => node_net_flow_direct(i, &x[i], neighbors),
            };
            (inner + (n as f64 - 1.0)) / pairs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rwbc_graph::generators::{complete, cycle};

    /// Draws one column of `n` potentials, from 0% to 100% of them
    /// nonzero. `fixed` draws from four fixed-point levels, so ties and
    /// exact cancellations between columns are common; otherwise values
    /// are continuous and of either sign.
    fn draw_column(rng: &mut StdRng, n: usize, fixed: bool) -> Vec<f64> {
        const DENSITIES: [f64; 6] = [0.0, 0.05, 0.25, 0.5, 0.9, 1.0];
        let density = DENSITIES[rng.gen_range(0..DENSITIES.len())];
        (0..n)
            .map(|_| {
                if !rng.gen_bool(density) {
                    0.0
                } else if fixed {
                    f64::from(rng.gen_range(1u32..=4)) / 16.0 / 3.0
                } else {
                    let v: f64 = rng.gen_range(-2.0..2.0);
                    if v == 0.0 {
                        1.0
                    } else {
                        v
                    }
                }
            })
            .collect()
    }

    fn nonzero(col: &[f64]) -> Vec<(u32, f64)> {
        (0..col.len())
            .filter(|&s| col[s] != 0.0)
            .map(|s| (s as u32, col[s]))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sparse_combine_is_bit_identical_to_dense(
            n in 1usize..48,
            deg in 0usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fixed = rng.gen_bool(0.5);
            let me = rng.gen_range(0..n);
            let mut own = draw_column(&mut rng, n, fixed);
            let mut cols: Vec<Vec<f64>> = (0..deg)
                .map(|_| draw_column(&mut rng, n, fixed))
                .collect();
            // `me` outside the support, inside it on both sides, or left
            // to the draw.
            match rng.gen_range(0..3) {
                0 => {
                    own[me] = 0.0;
                    for col in &mut cols {
                        col[me] = 0.0;
                    }
                }
                1 => {
                    own[me] = 1.0 / 16.0;
                    for col in &mut cols {
                        col[me] = 1.0 / 16.0;
                    }
                }
                _ => {}
            }
            let dense = node_net_flow_sorted(me, &own, cols.iter().map(Vec::as_slice));
            let sparse_cols: Vec<Vec<(u32, f64)>> = cols.iter().map(|c| nonzero(c)).collect();
            let sparse = node_net_flow_sparse(
                me,
                n,
                &nonzero(&own),
                sparse_cols.iter().map(Vec::as_slice),
            );
            prop_assert_eq!(sparse.to_bits(), dense.to_bits(), "{} vs dense {}", sparse, dense);
        }
    }

    #[test]
    fn pair_sum_matches_brute_force() {
        let z = [3.0, -1.0, 2.0, 2.0, 0.5];
        let col = SortedColumn::new(&z);
        let mut brute = 0.0;
        for s in 0..z.len() {
            for t in (s + 1)..z.len() {
                brute += (z[s] - z[t]).abs();
            }
        }
        assert!((col.pair_sum() - brute).abs() < 1e-12);
    }

    #[test]
    fn abs_sum_around_matches_brute_force() {
        let z = [3.0, -1.0, 2.0, 2.0, 0.5];
        let col = SortedColumn::new(&z);
        for &c in &[-5.0, -1.0, 0.0, 2.0, 2.5, 10.0] {
            let brute: f64 = z.iter().map(|v| (c - v).abs()).sum();
            assert!(
                (col.abs_sum_around(c) - brute).abs() < 1e-12,
                "c = {c}: {} vs {brute}",
                col.abs_sum_around(c)
            );
        }
    }

    #[test]
    fn sorted_equals_direct_on_random_potentials() {
        let mut rng = StdRng::seed_from_u64(17);
        for graph in [cycle(7).unwrap(), complete(6).unwrap()] {
            let n = graph.node_count();
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let a = combine_potentials(&graph, &x, PairSumMethod::Sorted);
            let b = combine_potentials(&graph, &x, PairSumMethod::Direct);
            for (l, r) in a.iter().zip(&b) {
                assert!((l - r).abs() < 1e-9, "{l} vs {r}");
            }
        }
    }

    #[test]
    fn weighted_pair_sum_matches_expanded_multiset() {
        let z = [3.0, -1.0, 2.0, 0.5];
        let w = [2.0, 1.0, 3.0, 2.0];
        let col = WeightedColumn::new(&z, &w);
        // Expand each entry into `w` copies and brute-force the pairs.
        let mut expanded = Vec::new();
        for (v, c) in z.iter().zip(&w) {
            for _ in 0..*c as usize {
                expanded.push(*v);
            }
        }
        let mut brute = 0.0;
        for s in 0..expanded.len() {
            for t in (s + 1)..expanded.len() {
                brute += (expanded[s] - expanded[t]).abs();
            }
        }
        assert!((col.pair_sum() - brute).abs() < 1e-12);
        for &c in &[-2.0, 0.5, 1.7, 4.0] {
            let brute_abs: f64 = expanded.iter().map(|v| (c - v).abs()).sum();
            assert!((col.abs_sum_around(c) - brute_abs).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_weights_reduce_to_sorted_column() {
        let z = [3.0, -1.0, 2.0, 2.0, 0.5];
        let w = [1.0; 5];
        let plain = SortedColumn::new(&z);
        let weighted = WeightedColumn::new(&z, &w);
        assert!((plain.pair_sum() - weighted.pair_sum()).abs() < 1e-12);
        for &c in &[-5.0, 0.0, 2.0, 10.0] {
            assert!((plain.abs_sum_around(c) - weighted.abs_sum_around(c)).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_weight_entries_are_inert() {
        let z = [3.0, 99.0, 2.0];
        let w = [2.0, 0.0, 1.0];
        let col = WeightedColumn::new(&z, &w);
        let dense = WeightedColumn::new(&[3.0, 2.0], &[2.0, 1.0]);
        assert!((col.pair_sum() - dense.pair_sum()).abs() < 1e-12);
        assert!((col.abs_sum_around(1.0) - dense.abs_sum_around(1.0)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_single_pair() {
        // n = 2: the only pair is (0, 1); both are endpoints everywhere, so
        // b = (0 + 1) / 1 = 1 for both nodes.
        let g = rwbc_graph::Graph::from_edges(2, [(0, 1)]).unwrap();
        let x = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        let b = combine_potentials(&g, &x, PairSumMethod::Sorted);
        assert_eq!(b, vec![1.0, 1.0]);
    }

    #[test]
    fn constant_columns_produce_endpoint_only_flow() {
        // If every node has the same potential column, all differences are
        // zero and only the endpoint terms (n - 1) survive: b = 2 / n.
        let g = cycle(5).unwrap();
        let x = vec![vec![1.0; 5]; 5];
        let b = combine_potentials(&g, &x, PairSumMethod::Sorted);
        for v in b {
            assert!((v - 2.0 / 5.0).abs() < 1e-12);
        }
    }
}
