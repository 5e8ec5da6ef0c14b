//! **E16 — Sketch-compressed counting.** Exact vs sketch count phase at
//! the same walk workload: per-phase traffic (the compression claim),
//! count-phase state footprint (the memory claim), and accuracy against
//! the exact-mode run across a precision sweep (the error claim, checked
//! against [`sketch_error_bound`]).
//!
//! The walk phase is bit-identical between the two modes — the sketch
//! changes only Algorithm 2 — so every difference the tables show is
//! attributable to the count-phase representation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rwbc::accuracy::{max_relative_error, mean_relative_error};
use rwbc::distributed::{approximate, sketch_error_bound, CountMode, DistributedConfig};
use rwbc::monte_carlo::TargetStrategy;
use rwbc_graph::generators::connected_gnp;
use rwbc_graph::Graph;

use crate::table::{fmt4, Table};

/// Typed result for one count-mode configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchRow {
    /// `"exact"` or the sketch precision.
    pub mode: String,
    /// Count-phase rounds.
    pub count_rounds: usize,
    /// Count-phase bits on the wire.
    pub count_bits: u64,
    /// Count-phase bits relative to exact mode (exact / this).
    pub bit_reduction: f64,
    /// Per-node count-phase state in 64-bit words: the sparse exact
    /// store's bound, or the sketch's dense buckets.
    pub state_words_per_node: u64,
    /// Broadcasts elided by the systolic only-modified-nodes rule.
    pub suppressed: u64,
    /// Mean relative error vs the exact-mode run (0 for exact).
    pub mean_err: f64,
    /// Max relative error vs the exact-mode run (0 for exact).
    pub max_err: f64,
    /// The documented sketch error envelope (NaN for exact).
    pub bound: f64,
}

fn config(seed: u64, k: usize, l: usize, mode: CountMode) -> DistributedConfig {
    DistributedConfig::builder()
        .walks(k)
        .length(l)
        .seed(seed)
        .target(TargetStrategy::Fixed(0))
        .count_mode(mode)
        .build()
        .expect("e16 params")
}

/// Mean degree of a graph (for the state-footprint estimate).
fn mean_degree(g: &Graph) -> f64 {
    2.0 * g.edge_count() as f64 / g.node_count() as f64
}

/// Per-node count-phase state in 64-bit words. The exact program holds
/// one two-word `(source, count)` pair per *nonzero* own count and one
/// two-word cell per *nonzero* neighbor count; a source's `K` walks of
/// length `l` reach at most `K(l + 1)` nodes, so a node's row and a
/// neighbor column each average at most `min(n, K(l + 1))` nonzero
/// entries — the bound reported here. The sketch program holds `2^p`
/// buckets per neighbor plus its own (registers are bytes).
fn state_words(g: &Graph, mode: CountMode, k: usize, l: usize) -> u64 {
    let n = g.node_count() as f64;
    let deg = mean_degree(g);
    let per_node = match mode {
        CountMode::Exact => 2.0 * (deg + 1.0) * n.min((k * (l + 1)) as f64),
        CountMode::Sketch { precision } => {
            let b = f64::from(1u32 << precision);
            b * (deg + 1.0) + b / 8.0
        }
    };
    per_node.round() as u64
}

/// Runs the precision sweep on one graph and workload.
///
/// # Panics
///
/// Panics on simulation failure.
pub fn sweep(g: &Graph, k: usize, l: usize, seed: u64, precisions: &[u8]) -> Vec<SketchRow> {
    let exact = approximate(g, &config(seed, k, l, CountMode::Exact)).expect("exact run");
    let exact_bits = exact.phase_breakdown().count.bits;
    let mut rows = vec![SketchRow {
        mode: "exact".to_string(),
        count_rounds: exact.count_stats.rounds,
        count_bits: exact_bits,
        bit_reduction: 1.0,
        state_words_per_node: state_words(g, CountMode::Exact, k, l),
        suppressed: 0,
        mean_err: 0.0,
        max_err: 0.0,
        bound: f64::NAN,
    }];
    for &precision in precisions {
        let mode = CountMode::Sketch { precision };
        let run = approximate(g, &config(seed, k, l, mode)).expect("sketch run");
        assert_eq!(
            run.walk_stats, exact.walk_stats,
            "walk phase must be mode-invariant"
        );
        let bits = run.phase_breakdown().count.bits;
        rows.push(SketchRow {
            mode: format!("sketch p={precision}"),
            count_rounds: run.count_stats.rounds,
            count_bits: bits,
            bit_reduction: exact_bits as f64 / bits.max(1) as f64,
            state_words_per_node: state_words(g, mode, k, l),
            suppressed: run.sketch_suppressed,
            mean_err: mean_relative_error(&run.centrality, &exact.centrality),
            max_err: max_relative_error(&run.centrality, &exact.centrality),
            bound: sketch_error_bound(precision),
        });
    }
    rows
}

/// Runs the full experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 64 } else { 256 };
    let (k, l) = (4, 64); // the bench-matrix workload
    let mut rng = StdRng::seed_from_u64(16);
    let deg = (1.5 * (n as f64).ln()).max(6.0);
    let g = connected_gnp(n, deg / (n as f64 - 1.0), 200, &mut rng).unwrap();
    let precisions: &[u8] = if quick { &[3, 4, 5] } else { &[4, 6, 8] };
    let mut t = Table::new(
        "E16: exact vs sketch count phase (traffic, state, accuracy)",
        [
            "mode",
            "count rounds",
            "count bits",
            "bit reduction",
            "state words/node (bound)",
            "suppressed",
            "mean rel err",
            "max rel err",
            "error bound",
        ],
    );
    for r in sweep(&g, k, l, 1600 + n as u64, precisions) {
        t.add_row([
            r.mode.clone(),
            r.count_rounds.to_string(),
            r.count_bits.to_string(),
            format!("{:.2}x", r.bit_reduction),
            r.state_words_per_node.to_string(),
            r.suppressed.to_string(),
            fmt4(r.mean_err),
            fmt4(r.max_err),
            if r.bound.is_nan() {
                "-".to_string()
            } else {
                fmt4(r.bound)
            },
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_compresses_and_stays_inside_the_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = connected_gnp(64, 0.12, 200, &mut rng).unwrap();
        let rows = sweep(&g, 4, 64, 9, &[4]);
        assert_eq!(rows.len(), 2);
        let (exact, sketch) = (&rows[0], &rows[1]);
        // 16 bucket rounds against 64 source rounds, strictly fewer bits,
        // and a much smaller resident count state.
        assert_eq!(exact.count_rounds, 64);
        assert_eq!(sketch.count_rounds, 16);
        assert!(
            sketch.bit_reduction > 2.0,
            "bit reduction {}",
            sketch.bit_reduction
        );
        assert!(sketch.state_words_per_node < exact.state_words_per_node / 2);
        assert!(
            sketch.mean_err <= sketch.bound,
            "mean err {} above bound {}",
            sketch.mean_err,
            sketch.bound
        );
    }

    #[test]
    fn accuracy_tightens_as_precision_grows() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = connected_gnp(48, 0.15, 200, &mut rng).unwrap();
        let rows = sweep(&g, 8, 64, 11, &[3, 6]);
        // Every precision stays inside its own envelope, and the coarse
        // sketch's envelope is strictly wider than the fine one's.
        assert!(rows[1].mean_err <= rows[1].bound);
        assert!(rows[2].mean_err <= rows[2].bound);
        assert!(rows[1].bound > rows[2].bound);
    }
}
