//! Structured tracing for the CONGEST simulator.
//!
//! The paper's claims are per-round claims — round complexity upper
//! bounds and bits-across-a-cut lower bounds — so the simulator can emit
//! a typed event stream describing *where* rounds and bits go:
//!
//! * round boundaries with per-round message/bit aggregates,
//! * per-edge congestion samples,
//! * fault-injection outcomes (drops, duplicates, delays, corruption,
//!   crashes),
//! * reliable-delivery activity (retransmissions, suppressed
//!   duplicates, detected corrupt frames, dead-link declarations),
//! * driver-side phase spans with wall-clock timing,
//! * application-level counters published by node programs.
//!
//! Attach a [`Tracer`] with
//! [`Simulator::with_tracer`](crate::Simulator::with_tracer). An
//! untraced simulator never constructs an event — the tracing hooks
//! vanish behind an `Option` check — and a run with the no-op tracer is
//! bit-identical (stats and checkpoints) to an untraced run.
//!
//! **Determinism:** every event except the wall-clock field of
//! [`TraceEvent::PhaseEnd`] is a pure function of `(graph, seed,
//! program)`. Node-originated events are buffered per node and drained
//! in ascending node order each round, so the emitted sequence is
//! identical at any thread count — the same guarantee the engine makes
//! for its replay. Use [`TraceEvent::strip_wall_clock`] before
//! comparing traces.
//!
//! Sinks: [`MemoryTracer`] collects events in memory; [`JsonlTracer`]
//! streams them as line-delimited JSON (one event per line, stable
//! schema — see [`jsonl`]).
//! [`profile::TraceProfile`] aggregates either form into per-round
//! rows, log-bucketed histograms, hottest edges, and a phase timing
//! breakdown.

pub mod flight;
pub mod json;
pub mod jsonl;
pub mod profile;

use std::fmt;

use rwbc_graph::NodeId;

pub use flight::{FlightRecorder, FLIGHT_DEFAULT_CAPACITY};
pub use jsonl::JsonlTracer;
pub use profile::{LogHistogram, TraceProfile};

/// Version of the JSONL trace schema. Bumped whenever an event's
/// encoded field set changes incompatibly.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Why the engine dropped a committed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Lost to the Bernoulli drop fault.
    Fault,
    /// Lost to a scheduled link outage on the edge.
    LinkDown,
    /// Delivered while the receiver was crashed.
    ReceiverCrashed,
    /// Mangled beyond parsing by corruption fault injection (the receiver
    /// cannot distinguish undecodable bytes from no bytes).
    Corrupt,
}

impl DropReason {
    /// Stable schema name of the reason.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::Fault => "fault",
            DropReason::LinkDown => "link_down",
            DropReason::ReceiverCrashed => "crashed",
            DropReason::Corrupt => "corrupt",
        }
    }

    /// Parses a schema name back into a reason.
    pub fn from_str_opt(s: &str) -> Option<DropReason> {
        match s {
            "fault" => Some(DropReason::Fault),
            "link_down" => Some(DropReason::LinkDown),
            "crashed" => Some(DropReason::ReceiverCrashed),
            "corrupt" => Some(DropReason::Corrupt),
            _ => None,
        }
    }
}

/// One typed observation from a traced run.
///
/// Events arrive in deterministic order: per round, crash transitions
/// first, then receiver-side drops, then node-originated events in
/// ascending node id, then per-edge traffic and fault outcomes in
/// commit order (sender ascending, destinations ascending), then the
/// round aggregate. Driver-level phase spans bracket whole simulator
/// runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Stream header: schema version. Written once by JSONL sinks.
    Meta {
        /// The [`TRACE_SCHEMA_VERSION`] the stream was written with.
        schema: u64,
    },
    /// A driver-side phase (e.g. `election`, `walk`, `count`,
    /// `collect`) began.
    PhaseStart {
        /// Phase name.
        name: String,
    },
    /// A driver-side phase ended.
    PhaseEnd {
        /// Phase name (matches the opening [`TraceEvent::PhaseStart`]).
        name: String,
        /// Simulated rounds the phase consumed.
        rounds: usize,
        /// Host wall-clock duration in microseconds. The only
        /// non-deterministic field in the schema; zeroed by
        /// [`TraceEvent::strip_wall_clock`].
        elapsed_us: u64,
    },
    /// End-of-round aggregate, emitted once per committed round
    /// (round `0` is the `on_start` send wave).
    Round {
        /// Round number the traffic was sent in.
        round: usize,
        /// Messages committed this round.
        messages: u64,
        /// Bits committed this round.
        bits: u64,
        /// Messages crossing the metered cut this round.
        cut_messages: u64,
        /// Bits crossing the metered cut this round.
        cut_bits: u64,
    },
    /// Traffic over one edge direction in one round. Suppressed when
    /// the attached tracer opts out via [`Tracer::wants_edge_traffic`].
    EdgeTraffic {
        /// Round number.
        round: usize,
        /// Sending endpoint.
        from: NodeId,
        /// Receiving endpoint.
        to: NodeId,
        /// Messages sent over the direction this round.
        messages: usize,
        /// Bits sent over the direction this round.
        bits: usize,
        /// Whether the edge crosses the metered cut.
        cut: bool,
    },
    /// A committed message was lost.
    Dropped {
        /// Round the loss occurred in: the send round for
        /// [`DropReason::Fault`] and [`DropReason::LinkDown`], the
        /// delivery round for [`DropReason::ReceiverCrashed`].
        round: usize,
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Why it was lost.
        reason: DropReason,
    },
    /// A committed message was mangled in flight by corruption fault
    /// injection but still parsed at the receiver (a destroyed frame is
    /// reported as [`TraceEvent::Dropped`] with [`DropReason::Corrupt`]
    /// instead).
    Corrupted {
        /// Round it was sent in.
        round: usize,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// How the frame was mangled.
        kind: crate::fault::CorruptionKind,
    },
    /// A checksummed delivery layer detected and discarded a corrupt
    /// frame (the sender's retransmission machinery repairs the loss).
    CorruptFrameDetected {
        /// Round the frame arrived in.
        round: usize,
        /// Receiving node.
        node: NodeId,
        /// Peer whose frame failed verification.
        peer: NodeId,
    },
    /// A committed message was duplicated by fault injection.
    Duplicated {
        /// Round it was sent in.
        round: usize,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// A committed message was held back one round by fault injection.
    Delayed {
        /// Round it was sent in.
        round: usize,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// A node entered a crash window.
    NodeDown {
        /// First round the node is down.
        round: usize,
        /// The crashed node.
        node: NodeId,
    },
    /// A node recovered from a crash window.
    NodeUp {
        /// First round the node is back up.
        round: usize,
        /// The recovered node.
        node: NodeId,
    },
    /// The reliable-delivery layer retransmitted a timed-out frame.
    Retransmission {
        /// Round of the retransmission.
        round: usize,
        /// Retransmitting node.
        node: NodeId,
        /// Peer the frame is addressed to.
        peer: NodeId,
        /// Sequence number of the retransmitted frame.
        seq: u8,
    },
    /// The reliable-delivery layer discarded an already-delivered copy.
    DuplicateSuppressed {
        /// Round the duplicate arrived in.
        round: usize,
        /// Receiving node.
        node: NodeId,
        /// Peer that (re)sent the frame.
        peer: NodeId,
    },
    /// A failure detector declared the channel to `peer` permanently
    /// dead.
    DeadLinkDeclared {
        /// Round of the declaration.
        round: usize,
        /// Declaring node.
        node: NodeId,
        /// The peer declared unreachable.
        peer: NodeId,
        /// `true` when detected by timeout strikes at runtime, `false`
        /// when preseeded from prior knowledge.
        detected: bool,
    },
    /// An application-level counter published by a node program (e.g.
    /// walk tokens absorbed at the target this round).
    App {
        /// Round the observation was made in.
        round: usize,
        /// Publishing node.
        node: NodeId,
        /// Counter name (protocol-defined, e.g. `absorbed`).
        key: String,
        /// Counter value.
        value: u64,
    },
}

impl TraceEvent {
    /// Zeroes the wall-clock field, leaving only deterministic content.
    /// Two same-seed runs at different thread counts compare equal
    /// event-for-event after this.
    pub fn strip_wall_clock(&mut self) {
        if let TraceEvent::PhaseEnd { elapsed_us, .. } = self {
            *elapsed_us = 0;
        }
    }
}

/// A sink for [`TraceEvent`]s.
///
/// Implementations run on the engine's single-threaded spine (event
/// buffers from parallel workers are drained in node order before this
/// is called), so no `Send`/`Sync` bound is needed. The `Debug` bound
/// keeps `Simulator`'s own `Debug` derive intact.
pub trait Tracer: fmt::Debug {
    /// Receives one event. Called in deterministic order.
    fn record(&mut self, event: &TraceEvent);

    /// Whether the engine should emit per-edge
    /// [`TraceEvent::EdgeTraffic`] samples (the highest-volume event
    /// class). Defaults to `true`.
    fn wants_edge_traffic(&self) -> bool {
        true
    }
}

/// A tracer that discards everything.
///
/// Exists so generic call sites can pass "no tracing" explicitly; a
/// run with a `NoopTracer` attached produces bit-identical statistics
/// and checkpoints to an untraced run (the engine still constructs
/// events for it, so prefer *not* attaching a tracer on hot paths).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn record(&mut self, _event: &TraceEvent) {}

    fn wants_edge_traffic(&self) -> bool {
        false
    }
}

/// A tracer that collects events into a `Vec`, for tests and in-memory
/// aggregation.
#[derive(Debug, Default)]
pub struct MemoryTracer {
    /// Events recorded so far, in emission order.
    pub events: Vec<TraceEvent>,
    edge_traffic: bool,
}

impl MemoryTracer {
    /// A collector that records every event class.
    pub fn new() -> MemoryTracer {
        MemoryTracer {
            events: Vec::new(),
            edge_traffic: true,
        }
    }

    /// A collector that skips per-edge traffic samples.
    pub fn without_edge_traffic() -> MemoryTracer {
        MemoryTracer {
            events: Vec::new(),
            edge_traffic: false,
        }
    }

    /// Consumes the tracer, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl Tracer for MemoryTracer {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }

    fn wants_edge_traffic(&self) -> bool {
        self.edge_traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_wall_clock_only_touches_phase_end() {
        let mut e = TraceEvent::PhaseEnd {
            name: "walk".to_string(),
            rounds: 10,
            elapsed_us: 1234,
        };
        e.strip_wall_clock();
        assert_eq!(
            e,
            TraceEvent::PhaseEnd {
                name: "walk".to_string(),
                rounds: 10,
                elapsed_us: 0,
            }
        );
        let mut r = TraceEvent::Round {
            round: 1,
            messages: 2,
            bits: 3,
            cut_messages: 0,
            cut_bits: 0,
        };
        let before = r.clone();
        r.strip_wall_clock();
        assert_eq!(r, before);
    }

    #[test]
    fn memory_tracer_collects_in_order() {
        let mut t = MemoryTracer::new();
        t.record(&TraceEvent::PhaseStart {
            name: "a".to_string(),
        });
        t.record(&TraceEvent::Meta { schema: 1 });
        assert_eq!(t.events.len(), 2);
        assert!(matches!(t.events[0], TraceEvent::PhaseStart { .. }));
    }
}
