//! **E13 (extension) — corruption sweep: checksummed frames vs the raw
//! transport.** E11/E12 fault messages by dropping, delaying, or killing;
//! this experiment *mangles* them — bit flips, truncation, garbage — at
//! increasing rates and measures what the integrity layer buys. The raw
//! transport silently loses every corrupted token (walk-batch decode
//! rejects the frame or, worse, swallows a plausible wrong token), while
//! the checksummed reliable adapter detects each damaged frame by CRC,
//! withholds the ack, and lets retransmission repair it. The headline
//! claim — enabled by the walk phase's schedule-invariant randomness —
//! is exact: a repaired run's centrality is **bit-identical** to the
//! fault-free run, at any corruption rate the links survive. A final
//! scenario makes one link corrupt *everything* forever, which no
//! retransmission can outlast; the detector quarantines the channel and
//! the run degrades honestly instead of hanging.

use congest_sim::{FaultPlan, LinkCorruption, SimConfig};
use rwbc::accuracy::mean_relative_error;
use rwbc::distributed::{approximate, DistributedRun, Transport};
use rwbc::exact::newman;
use rwbc::monte_carlo::TargetStrategy;
use rwbc::Centrality;

use crate::table::{fmt4, Table};

/// Typed result for one corruption scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionRow {
    /// Scenario label.
    pub scenario: String,
    /// Per-message corruption probability.
    pub corrupt_p: f64,
    /// Whether the checksummed reliable adapter was on.
    pub checksums: bool,
    /// Mean relative error against the exact solver.
    pub mean_err: f64,
    /// Messages the fault layer actually mangled (both phases).
    pub corrupted: u64,
    /// Mangled frames the CRC caught and retransmission repaired.
    pub frames_detected: u64,
    /// Links the detector quarantined as persistently corrupting.
    pub quarantined: u64,
    /// Walk tokens lost for good.
    pub walks_lost: u64,
    /// Whether the degradation report came back clean.
    pub clean: bool,
    /// Whether the centrality is bit-identical to the fault-free run
    /// with the same seed and transport.
    pub fingerprint_match: bool,
    /// Total rounds across both phases.
    pub rounds: usize,
}

fn corrupt_config(
    seed: u64,
    walks: usize,
    length: usize,
    checksums: bool,
    faults: FaultPlan,
) -> rwbc::distributed::DistributedConfig {
    let mut cfg = rwbc::distributed::DistributedConfig::builder()
        .walks(walks)
        .length(length)
        .seed(seed)
        .target(TargetStrategy::Fixed(0))
        .transport(if checksums {
            Transport::Reliable { checksums: true }
        } else {
            Transport::default()
        })
        .build()
        .expect("params");
    cfg.sim = SimConfig::default()
        .with_bandwidth_coeff(16)
        .with_faults(faults);
    cfg
}

fn summarize(
    scenario: String,
    corrupt_p: f64,
    checksums: bool,
    run: &DistributedRun,
    exact: &Centrality,
    baseline: &Centrality,
) -> CorruptionRow {
    CorruptionRow {
        scenario,
        corrupt_p,
        checksums,
        mean_err: mean_relative_error(&run.centrality, exact),
        corrupted: run.walk_stats.corrupted + run.count_stats.corrupted,
        frames_detected: run.degradation.corrupt_frames_detected,
        quarantined: run.degradation.links_quarantined,
        walks_lost: run.degradation.walks_lost,
        clean: run.degradation.is_clean(),
        fingerprint_match: run.centrality == *baseline,
        rounds: run.total_rounds(),
    }
}

/// Runs the corruption sweep on the Fig. 1 graph: each rate once over the
/// raw transport and once behind the checksummed reliable adapter, plus
/// the persistently-corrupting-link quarantine scenario.
///
/// # Panics
///
/// Panics on simulation failure.
pub fn corruption_sweep(walks: usize, length: usize, seed: u64, quick: bool) -> Vec<CorruptionRow> {
    let (g, labels) = rwbc_graph::generators::fig1_graph(3).expect("fig1");
    let exact = newman(&g).expect("exact");
    let rates: &[f64] = if quick {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.02, 0.05, 0.10]
    };
    // Fault-free reference fingerprints, one per transport (the raw and
    // reliable transports draw identical walks but round phase-2 counts
    // through different paths, so each is its own baseline).
    let baseline = |checksums: bool| -> DistributedRun {
        approximate(
            &g,
            &corrupt_config(seed, walks, length, checksums, FaultPlan::default()),
        )
        .expect("fault-free baseline")
    };
    let base_raw = baseline(false);
    let base_crc = baseline(true);
    let mut rows = Vec::new();
    for &p in rates {
        for checksums in [false, true] {
            let faults = FaultPlan::default().with_corrupt_probability(p);
            let run = approximate(&g, &corrupt_config(seed, walks, length, checksums, faults))
                .expect("corruption run");
            let base = if checksums { &base_crc } else { &base_raw };
            let label = if checksums { "checksummed" } else { "raw" };
            rows.push(summarize(
                format!("{label} p={p}"),
                p,
                checksums,
                &run,
                &exact,
                &base.centrality,
            ));
        }
    }
    // One link corrupting everything forever: undetectable-by-retry, so
    // the checksummed layer must quarantine it and degrade honestly.
    let poisoned = FaultPlan::default().with_link_corruption(LinkCorruption {
        u: labels.left[0],
        v: labels.left[1],
        from_round: 0,
        until_round: usize::MAX,
    });
    let run = approximate(&g, &corrupt_config(seed, walks, length, true, poisoned))
        .expect("quarantine run");
    rows.push(summarize(
        "checksummed, one link always corrupt".to_string(),
        1.0,
        true,
        &run,
        &exact,
        &base_crc.centrality,
    ));
    rows
}

/// Runs the full experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let (walks, length) = if quick { (60, 40) } else { (200, 60) };
    let mut table = Table::new(
        "E13 (extension): payload corruption, raw transport vs checksummed \
         reliable frames (Fig. 1 graph, n = 23)",
        [
            "scenario",
            "mean rel err",
            "corrupted",
            "frames caught",
            "quarantined",
            "walks lost",
            "clean",
            "fingerprint",
            "rounds",
        ],
    );
    for r in corruption_sweep(walks, length, 1301, quick) {
        table.add_row([
            r.scenario.clone(),
            fmt4(r.mean_err),
            r.corrupted.to_string(),
            r.frames_detected.to_string(),
            r.quarantined.to_string(),
            r.walks_lost.to_string(),
            r.clean.to_string(),
            if r.fingerprint_match {
                "match"
            } else {
                "DIFFERS"
            }
            .to_string(),
            r.rounds.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksummed_runs_repair_to_the_exact_clean_fingerprint() {
        let rows = corruption_sweep(60, 40, 7, true);
        // quick: 2 rates x 2 transports + quarantine scenario.
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.mean_err.is_finite());
            if r.checksums && r.quarantined == 0 {
                // The headline claim: every fully-repaired checksummed run
                // is bit-identical to its fault-free baseline.
                assert!(r.fingerprint_match, "{} diverged", r.scenario);
                assert!(r.clean, "{} not clean", r.scenario);
                assert_eq!(r.walks_lost, 0);
            }
        }
        // The nonzero-rate checksummed run actually exercised the CRC.
        let repaired = rows
            .iter()
            .find(|r| r.checksums && r.corrupt_p > 0.0 && r.quarantined == 0)
            .expect("repaired run present");
        assert!(repaired.corrupted > 0);
        assert!(repaired.frames_detected > 0);
        // The raw transport at the same rate lost walks.
        let raw = rows
            .iter()
            .find(|r| !r.checksums && r.corrupt_p > 0.0)
            .expect("raw run present");
        assert!(raw.walks_lost > 0, "raw transport should lose walks");
        assert!(!raw.clean);
        // The poisoned link ends quarantined, not hung.
        let quarantined = rows.last().unwrap();
        assert!(quarantined.quarantined > 0);
        assert!(!quarantined.clean);
    }
}
