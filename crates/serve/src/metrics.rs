//! The daemon's live-metrics bundle: one [`Registry`] holding the
//! serving-tier instruments next to the engine's, so a single
//! [`Request::Metrics`](crate::protocol::Request::Metrics) scrape sees
//! the whole process.
//!
//! The registry is the daemon's one account: every count it reports
//! lives here, and `Stats`, `Health`, `Metrics` and `rwbc-top` all read
//! these instruments, so they cannot disagree.
//!
//! Naming follows the Prometheus conventions the registry enforces:
//! `serve_*` for the request path, `solver_*` for the background solve,
//! `engine_*` (registered by the engine itself) for CONGEST-round
//! traffic. The request counters partition exactly: every admitted
//! query is counted once in `serve_requests_total` and once in exactly
//! one of `answered` / `timed_out` / `shed`; `served` counts the
//! answered ones whose client received a result.

use congest_sim::{Counter, EngineMetrics, Gauge, Histogram, Registry};

/// Handles into the daemon's registry, cloned wherever the request path
/// or the solver thread needs to record.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Queries admitted past the health/admin/draining checks.
    pub requests_total: Counter,
    /// Admitted queries answered within their deadline (any response,
    /// including typed errors — the client got *an* answer in time).
    pub answered_total: Counter,
    /// Answered queries whose client received a `Value` or `Ranking`.
    pub served_total: Counter,
    /// Admitted queries that missed their deadline.
    pub timed_out_total: Counter,
    /// Queries shed because the admission queue was full (or, once the
    /// workers are gone, refused `Draining`).
    pub shed_total: Counter,
    /// Served results that carried degraded SLO flags.
    pub degraded_served_total: Counter,
    /// Jobs currently sitting in the admission queue.
    pub queue_depth: Gauge,
    /// End-to-end latency of admitted queries, microseconds.
    pub latency_us: Histogram,
    /// Background-solve phase, as
    /// [`phase_tag`](crate::protocol::phase_tag) encodes it.
    pub solver_phase: Gauge,
    /// CONGEST rounds the background solve has completed, set after
    /// every step; a restored solve starts at its image's round.
    pub solver_rounds_completed: Gauge,
    /// Checkpoints persisted by the background solve.
    pub checkpoints_total: Counter,
    /// Time to serialize + persist one checkpoint, microseconds.
    pub checkpoint_duration_us: Histogram,
    /// Flight-recorder dumps written.
    pub flight_dumps_total: Counter,
}

impl ServeMetrics {
    /// Registers (or re-attaches to) the serving-tier instruments.
    pub fn register(registry: &Registry) -> ServeMetrics {
        ServeMetrics {
            requests_total: registry.counter("serve_requests_total"),
            answered_total: registry.counter("serve_requests_answered_total"),
            served_total: registry.counter("serve_requests_served_total"),
            timed_out_total: registry.counter("serve_requests_timed_out_total"),
            shed_total: registry.counter("serve_requests_shed_total"),
            degraded_served_total: registry.counter("serve_degraded_served_total"),
            queue_depth: registry.gauge("serve_queue_depth"),
            latency_us: registry.histogram("serve_request_latency_us"),
            solver_phase: registry.gauge("solver_phase"),
            solver_rounds_completed: registry.gauge("solver_rounds_completed"),
            checkpoints_total: registry.counter("solver_checkpoints_total"),
            checkpoint_duration_us: registry.histogram("solver_checkpoint_duration_us"),
            flight_dumps_total: registry.counter("serve_flight_dumps_total"),
        }
    }
}

/// The full bundle a daemon owns: the registry plus pre-registered
/// serve and engine handles.
#[derive(Debug, Clone)]
pub struct DaemonMetrics {
    /// The registry every scrape snapshots.
    pub registry: Registry,
    /// Serving-tier handles.
    pub serve: ServeMetrics,
    /// Engine handles, attached to the background solve's simulators.
    pub engine: EngineMetrics,
}

impl DaemonMetrics {
    /// A fresh registry with the standard instrument set.
    pub fn new() -> DaemonMetrics {
        let registry = Registry::new();
        let serve = ServeMetrics::register(&registry);
        let engine = EngineMetrics::register(&registry);
        DaemonMetrics {
            registry,
            serve,
            engine,
        }
    }
}

impl Default for DaemonMetrics {
    fn default() -> DaemonMetrics {
        DaemonMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_on_one_registry() {
        let m = DaemonMetrics::new();
        m.serve.requests_total.inc();
        // Re-registering returns handles onto the same instruments.
        let again = ServeMetrics::register(&m.registry);
        again.requests_total.inc();
        let snap = m.registry.snapshot();
        assert_eq!(snap.counter("serve_requests_total"), Some(2));
        // The standard set is present from the start.
        assert_eq!(snap.counter("engine_rounds_total"), Some(0));
        assert_eq!(snap.gauge("serve_queue_depth"), Some(0));
        assert!(snap.histogram("serve_request_latency_us").is_some());
    }
}
