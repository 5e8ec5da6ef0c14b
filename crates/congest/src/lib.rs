//! A synchronous **CONGEST-model** network simulator.
//!
//! The CONGEST model (Peleg 2000; Section III-A of the reproduced paper) is
//! a synchronous message-passing model on a graph `G = (V, E)`:
//!
//! * computation proceeds in discrete *rounds*;
//! * in each round every node may send one message to each neighbor;
//! * each message carries at most `O(log n)` bits;
//! * time complexity is the number of rounds until all nodes terminate
//!   (local computation is free).
//!
//! This crate realizes the model faithfully enough that the paper's claims
//! become *measurable*:
//!
//! * [`Simulator`] runs a [`NodeProgram`] per node in lockstep rounds;
//! * every message is charged its [`Message::bit_size`], the bits its one
//!   layout [`Message::write`] puts, against the per-edge budget
//!   `B(n) = bandwidth_coeff · ⌈log₂ n⌉` and the per-edge message limit,
//!   and violations are either hard errors (strict mode, the default) or
//!   recorded in [`RunStats`];
//! * [`RunStats`] reports rounds, messages, bits, and the per-edge-per-round
//!   maxima that Theorem 4 of the paper is about;
//! * a *cut meter* counts traffic crossing a designated edge cut — the
//!   instrument behind the lower-bound experiment (E6), where the paper's
//!   `Ω(n / log n + D)` bound stems from `Ω(N log N)` bits having to cross a
//!   `Θ(log N)`-edge cut (paper Theorem 7).
//!
//! # Example: flooding a token
//!
//! ```
//! use congest_sim::{algorithms::Flood, SimConfig, Simulator};
//! use rwbc_graph::generators::path;
//!
//! # fn main() -> Result<(), congest_sim::SimError> {
//! let g = path(8).unwrap();
//! let mut sim = Simulator::new(&g, SimConfig::default(), |v| Flood::new(v, 0));
//! let stats = sim.run()?;
//! // The token needs eccentricity(0) = 7 rounds to reach node 7.
//! assert!(stats.rounds >= 7);
//! assert!(sim.programs().iter().all(|p| p.informed()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod fault;
mod message;
mod node;
mod reliable;
mod rng;
mod stats;

pub mod algorithms;
pub mod metrics;
pub mod trace;
pub mod wire;

pub use config::{SimConfig, ViolationPolicy};
pub use engine::Simulator;
pub use error::SimError;
pub use fault::{CorruptionKind, FaultPlan, LinkCorruption, LinkOutage, NodeCrash};
pub use message::{bits_for_count, bits_for_node_id, Message};
pub use metrics::{
    Counter, EngineMetrics, Gauge, Histogram, LogHistogram, MetricsSnapshot, Registry,
    METRICS_SCHEMA_VERSION,
};
pub use node::{Context, Incoming, NodeProgram};
pub use reliable::{Reliable, ReliableMsg, DEFAULT_DEATH_THRESHOLD, FRAME_CHECKSUM_BITS};
pub use rng::{node_rng, splitmix64};
pub use stats::{CutMeter, PhaseTraffic, ReliabilityStats, RunStats};
pub use trace::{
    FlightRecorder, JsonlTracer, MemoryTracer, NoopTracer, TraceEvent, Tracer,
    FLIGHT_DEFAULT_CAPACITY,
};
pub use wire::BitSink;

/// Writes `text` to stdout for the command-line tools. When the reader
/// has closed stdout (`rwbc-trace timeline FILE | head`), the process
/// ends with status 0, because nobody is left to read the rest; `print!`
/// would panic instead.
///
/// # Panics
///
/// On any other write error, as `print!` does.
pub fn print_stdout(text: &str) {
    use std::io::{ErrorKind, Write};
    match std::io::stdout().write_all(text.as_bytes()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `println!` through [`print_stdout`]: a closed stdout ends the process
/// with status 0.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::print_stdout("\n")
    };
    ($($arg:tt)*) => {
        $crate::print_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}
