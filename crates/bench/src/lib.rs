//! Experiment harness for the RWBC reproduction.
//!
//! Every figure/table/theorem of the paper maps to one experiment module
//! (the index lives in `DESIGN.md` §6 and results in `EXPERIMENTS.md`):
//!
//! | id | paper source | module |
//! |----|--------------|--------|
//! | E1 | Fig. 1 (motivating example) | [`suite::e1`] |
//! | E2 | Theorem 1 (`l = O(n)` truncation) | [`suite::e2`] |
//! | E3 | Theorem 3 (`K = O(log n)` concentration) | [`suite::e3`] |
//! | E4 | Lemma 2 + Theorem 5 (round complexity) | [`suite::e4`] |
//! | E5 | Theorem 4 (CONGEST compliance) | [`suite::e5`] |
//! | E6 | Figs. 2–5, Lemma 4, Theorems 6–8 (lower bound) | [`suite::e6`] |
//! | E7 | Theorem 2 (approximation quality) | [`suite::e7`] |
//! | E8 | Section II (related measures) | [`suite::e8`] |
//! | E9 | extension: distributed algorithm landscape | [`suite::e9`] |
//! | E10 | Section II-D, ref. \[15\] (the random walk problem) | [`suite::e10`] |
//! | E11 | extension: chaos sweep (faults + reliable delivery) | [`suite::e11`] |
//! | E12 | extension: permanent kills (detector + partition tolerance) | [`suite::e12`] |
//! | E13 | extension: corruption sweep (checksummed frames + quarantine) | [`suite::e13`] |
//! | E14 | extension: serving centrality under load (rwbc-serve) | [`suite::e14`] |
//! | E15 | extension: telemetry overhead (metrics registry) | [`suite::e15`] |
//!
//! Run them with `cargo run --release -p rwbc-bench --bin experiments --
//! all` (add `--quick` for a fast smoke pass). Each module exposes a
//! `run(quick) -> Vec<Table>` entry point plus typed result structs that
//! the integration tests assert on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! End-to-end perf scenarios live in [`perf`] behind the `rwbc-bench`
//! binary (`cargo run --release -p rwbc-bench --bin rwbc-bench`), which
//! writes machine-readable `BENCH_<scenario>.json` files.

//! Data-integrity tooling (decode fuzzer + fault-plan shrinker) lives in
//! [`chaos`] behind the `rwbc-chaos` binary.

//! Service-level load replay for the `rwbc-serve` daemon lives in
//! [`serve_load`] behind the `rwbc-replay` binary, which writes
//! `BENCH_serve-*.json` throughput/latency artifacts.

pub mod chaos;
pub mod perf;
pub mod serve_load;
pub mod suite;
pub mod table;

pub use table::Table;

/// The command-line tools print through these, so a closed stdout
/// ends them with status 0.
pub use congest_sim::{outln, print_stdout};
