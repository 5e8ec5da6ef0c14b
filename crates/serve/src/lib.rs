//! `rwbc-serve` — a crash-tolerant centrality daemon.
//!
//! The daemon loads (generates) a graph, runs the distributed RWBC
//! pipeline round-by-round on a background thread via
//! [`StepSolver`](rwbc::distributed::StepSolver), and serves
//! centrality / ranking / stats queries over a length-prefixed,
//! CRC-framed TCP protocol built on the `congest_sim::wire` codecs.
//!
//! Robustness is the point, not the transport:
//!
//! * per-request **deadlines** with typed [`Response::Timeout`] answers;
//! * **admission control**: a bounded queue that sheds with
//!   [`Response::Overloaded`] + retry-after instead of buffering;
//! * a [`Client`] with capped exponential backoff + jitter mirroring
//!   the engine's `Reliable` retransmission schedule;
//! * **periodic atomic checkpoints** of the in-flight solve, so
//!   `kill -9` mid-solve resumes from the last image and converges to
//!   the bit-identical result;
//! * admin **drain/shutdown** that flushes a final checkpoint and
//!   closes the JSONL trace cleanly;
//! * health/readiness wired to the solve's `DegradationReport` — a
//!   degraded result is served with explicit [`SloFlags`], never
//!   silently;
//! * **live telemetry**: a zero-dependency metrics registry spanning the
//!   request path, the background solve, and the CONGEST engine — the
//!   daemon's one account, which `Stats` and `Health` read too — scraped
//!   via [`Request::Metrics`] (rendered as versioned JSON or
//!   Prometheus text), multi-window **SLO burn rates**
//!   ([`slo`]), a crash-safe **flight recorder** dumped next to the
//!   checkpoint, and a plain-terminal dashboard ([`top`]).
//!
//! [`Response::Timeout`]: protocol::Response::Timeout
//! [`Response::Overloaded`]: protocol::Response::Overloaded

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod metrics;
pub mod protocol;
pub mod slo;
pub mod solver;
pub mod top;

pub use client::{Client, ClientError, BASE_BACKOFF_MS, MAX_BACKOFF_MS};
pub use daemon::{Daemon, ServeConfig};
pub use metrics::{DaemonMetrics, ServeMetrics};
pub use protocol::{
    DaemonState, HealthReport, MetricsReport, ProtocolError, Request, RequestEnvelope, Response,
    ServeStats, SloFlags,
};
pub use slo::{SloConfig, SloTracker, FAST_WINDOW_S, SLOW_WINDOW_S};
pub use solver::{BackgroundSolver, GraphSpec, SolveSnapshot, SolverConfig, SolverHooks};
