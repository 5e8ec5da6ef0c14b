//! The wire protocol: length-prefixed, CRC-framed request/response
//! messages encoded with the `congest_sim::wire` bit codecs.
//!
//! A frame on the socket is `u32 payload length (BE) + u32 CRC-32 (BE) +
//! payload`; the payload is a [`WireState`]-encoded [`RequestEnvelope`]
//! or [`Response`]. Every decode surface returns a typed
//! [`ProtocolError`] on malformed input — truncation, an oversized
//! length prefix, a checksum mismatch, or an unknown tag never panics
//! and never silently yields garbage.

use std::fmt;
use std::io::{Read, Write};

use congest_sim::wire::{crc32, BitReader, BitWriter, WireState};
use congest_sim::MetricsSnapshot;
use rwbc::distributed::SolvePhase;

/// Protocol version, carried in every request envelope so mismatched
/// peers fail typed instead of mis-decoding. Version 2 added the
/// [`Request::Metrics`] / [`Response::Metrics`] pair and the uptime /
/// checkpoint-age / burn-rate fields on [`HealthReport`] and
/// [`ServeStats`].
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a frame payload. Anything larger is rejected before a
/// single byte of it is buffered — the admission-control guarantee that a
/// malicious or broken peer cannot make the daemon allocate unboundedly.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Typed protocol failure.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying socket failed (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The advertised payload length.
        len: usize,
    },
    /// The payload did not match its CRC-32.
    ChecksumMismatch,
    /// The payload decoded to nothing sensible.
    Malformed {
        /// Which structure failed to decode.
        what: &'static str,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
            ProtocolError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            ProtocolError::ChecksumMismatch => write!(f, "frame failed its CRC-32"),
            ProtocolError::Malformed { what } => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

/// A client request plus its per-request deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestEnvelope {
    /// Milliseconds the client is willing to wait once the request is
    /// admitted; the daemon answers [`Response::Timeout`] past this.
    pub deadline_ms: u32,
    /// The request proper.
    pub request: Request,
}

/// What a client can ask the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// One node's centrality value.
    Centrality {
        /// The node queried.
        node: usize,
    },
    /// The `k` highest-centrality nodes with their values.
    TopK {
        /// How many nodes to return.
        k: usize,
    },
    /// Daemon service counters.
    Stats,
    /// Health / readiness probe (never shed, never queued).
    Health,
    /// Admin: stop accepting queries, flush a final checkpoint, close
    /// the trace, and exit cleanly.
    Drain,
    /// Admin: like drain, without waiting for queued work.
    Shutdown,
    /// Full live-metrics snapshot (never shed, never queued — like
    /// [`Request::Health`], scrapers must see an overloaded daemon).
    Metrics,
}

impl Request {
    fn tag(&self) -> u8 {
        match self {
            Request::Centrality { .. } => 0,
            Request::TopK { .. } => 1,
            Request::Stats => 2,
            Request::Health => 3,
            Request::Drain => 4,
            Request::Shutdown => 5,
            Request::Metrics => 6,
        }
    }
}

/// Staleness / coverage flags attached to every served result, derived
/// from the solve's `DegradationReport` — a degraded solve is served
/// with these set, never silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SloFlags {
    /// The solve lost something (`!DegradationReport::is_clean()`).
    pub degraded: bool,
    /// The solve resumed from a checkpoint after a crash.
    pub resumed: bool,
    /// Walk tokens unaccounted for.
    pub walks_lost: u64,
    /// Phase-2 count cells that never arrived.
    pub count_cells_missing: u64,
}

/// Daemon service counters, served on [`Request::Stats`]. Every count
/// is read from the daemon's metrics registry, named below.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Queries whose client received a [`Response::Value`] or
    /// [`Response::Ranking`] (`serve_requests_served_total`).
    pub requests_served: u64,
    /// Queries shed at admission, with [`Response::Overloaded`] or,
    /// once the workers are gone, [`Response::Draining`]
    /// (`serve_requests_shed_total`).
    pub requests_overloaded: u64,
    /// Queries that missed their deadline
    /// (`serve_requests_timed_out_total`).
    pub requests_timed_out: u64,
    /// CONGEST rounds the background solve has completed
    /// (`solver_rounds_completed`).
    pub solve_rounds: u64,
    /// Checkpoints written so far (`solver_checkpoints_total`).
    pub checkpoints_written: u64,
    /// Total microseconds spent writing checkpoints (the sum of
    /// `solver_checkpoint_duration_us`).
    pub checkpoint_overhead_us: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Milliseconds since the last checkpoint landed, on the daemon's
    /// uptime clock (the same one deadlines use); `None` before the
    /// first checkpoint or with checkpointing disabled.
    pub last_checkpoint_age_ms: Option<u64>,
}

/// The solve phase's tag, as [`HealthReport::phase`] and the
/// `solver_phase` gauge carry it.
pub fn phase_tag(phase: SolvePhase) -> u8 {
    match phase {
        SolvePhase::Walk => 0,
        SolvePhase::Count => 1,
        SolvePhase::Done => 2,
        SolvePhase::Failed => 3,
    }
}

/// The display name of a [`phase_tag`]; an unknown tag reads `failed`.
pub fn phase_name(tag: u64) -> &'static str {
    match tag {
        0 => "walk",
        1 => "count",
        2 => "done",
        _ => "failed",
    }
}

/// Daemon lifecycle state, served in [`HealthReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonState {
    /// Building or loading the graph.
    Loading,
    /// The background solve is running; queries get
    /// [`Response::NotReady`].
    Solving,
    /// A result is available and being served.
    Serving,
    /// Draining: admin-initiated shutdown in progress.
    Draining,
}

impl DaemonState {
    fn tag(self) -> u8 {
        match self {
            DaemonState::Loading => 0,
            DaemonState::Solving => 1,
            DaemonState::Serving => 2,
            DaemonState::Draining => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<DaemonState> {
        Some(match tag {
            0 => DaemonState::Loading,
            1 => DaemonState::Solving,
            2 => DaemonState::Serving,
            3 => DaemonState::Draining,
            _ => return None,
        })
    }

    /// Lower-case display name (`loading`, `solving`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            DaemonState::Loading => "loading",
            DaemonState::Solving => "solving",
            DaemonState::Serving => "serving",
            DaemonState::Draining => "draining",
        }
    }
}

/// Health / readiness report, served on [`Request::Health`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Lifecycle state.
    pub state: DaemonState,
    /// `true` once queries can be answered from a finished solve.
    pub ready: bool,
    /// Pipeline phase, as [`phase_tag`] encodes it.
    pub phase: u8,
    /// CONGEST rounds completed by the solve
    /// (`solver_rounds_completed`).
    pub rounds_completed: u64,
    /// Degradation-derived flags (meaningful once `ready`).
    pub slo: SloFlags,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Milliseconds since the last checkpoint landed; `None` before the
    /// first one or with checkpointing disabled.
    pub last_checkpoint_age_ms: Option<u64>,
    /// Fast-window (1 min) SLO burn rate — 1.0 burns the error budget
    /// exactly at the availability target, > 1.0 burns it faster.
    pub burn_fast: f64,
    /// Slow-window (10 min) SLO burn rate.
    pub burn_slow: f64,
}

/// Full live-metrics report, served on [`Request::Metrics`].
///
/// The structured [`MetricsSnapshot`] is the single source of truth; the
/// client renders it as versioned JSON
/// ([`MetricsSnapshot::to_json`]) or Prometheus text exposition
/// ([`MetricsSnapshot::to_prometheus`]) locally, so the wire carries one
/// canonical form.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Every counter, gauge, and histogram in the daemon's registry.
    pub snapshot: MetricsSnapshot,
    /// Milliseconds since the daemon started (its deadline clock).
    pub uptime_ms: u64,
    /// Milliseconds since the last checkpoint landed, on that same
    /// clock; `None` before the first one or with checkpointing off.
    pub last_checkpoint_age_ms: Option<u64>,
    /// Fast-window (1 min) SLO burn rate.
    pub burn_fast: f64,
    /// Slow-window (10 min) SLO burn rate.
    pub burn_slow: f64,
}

impl MetricsReport {
    /// Versioned JSON rendering: the report-level fields plus the
    /// registry snapshot (with its own `schema_version`) under
    /// `"metrics"`.
    pub fn to_json(&self) -> congest_sim::trace::json::Json {
        use congest_sim::trace::json::Json;
        Json::Obj(vec![
            ("uptime_ms".to_string(), Json::Int(self.uptime_ms as i64)),
            (
                "last_checkpoint_age_ms".to_string(),
                self.last_checkpoint_age_ms
                    .map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            ("burn_fast".to_string(), Json::Float(self.burn_fast)),
            ("burn_slow".to_string(), Json::Float(self.burn_slow)),
            ("metrics".to_string(), self.snapshot.to_json()),
        ])
    }

    /// Prometheus text exposition: the snapshot's rendering plus the
    /// report-level values as gauges, all under the `rwbc_` prefix.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.snapshot.to_prometheus();
        let mut gauge = |name: &str, value: String| {
            let _ = writeln!(out, "# TYPE rwbc_{name} gauge");
            let _ = writeln!(out, "rwbc_{name} {value}");
        };
        gauge("uptime_ms", self.uptime_ms.to_string());
        if let Some(age) = self.last_checkpoint_age_ms {
            gauge("checkpoint_age_ms", age.to_string());
        }
        gauge("slo_burn_rate_fast", format!("{}", self.burn_fast));
        gauge("slo_burn_rate_slow", format!("{}", self.burn_slow));
        out
    }
}

/// What the daemon answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One node's centrality.
    Value {
        /// The node queried.
        node: usize,
        /// Its estimated centrality.
        value: f64,
        /// Staleness / coverage flags.
        slo: SloFlags,
    },
    /// Top-k ranking, highest first.
    Ranking {
        /// `(node, value)` pairs.
        top: Vec<(usize, f64)>,
        /// Staleness / coverage flags.
        slo: SloFlags,
    },
    /// Service counters.
    Stats(ServeStats),
    /// Health / readiness.
    Health(HealthReport),
    /// Full live-metrics snapshot (boxed: much larger than the others).
    Metrics(Box<MetricsReport>),
    /// Admin command acknowledged.
    AdminOk,
    /// The solve has not finished yet; retry after the hint.
    NotReady {
        /// Suggested client back-off floor, milliseconds.
        retry_after_ms: u32,
    },
    /// Load shed: the admission queue is full; retry after the hint.
    Overloaded {
        /// Suggested client back-off floor, milliseconds.
        retry_after_ms: u32,
    },
    /// The request missed its deadline.
    Timeout {
        /// The deadline that was missed, milliseconds.
        deadline_ms: u32,
    },
    /// The daemon is draining and no longer answers queries.
    Draining,
    /// Typed failure (bad node id, malformed request, ...).
    Error {
        /// Human-readable reason.
        reason: String,
    },
}

impl Response {
    fn tag(&self) -> u8 {
        match self {
            Response::Value { .. } => 0,
            Response::Ranking { .. } => 1,
            Response::Stats(_) => 2,
            Response::Health(_) => 3,
            Response::AdminOk => 4,
            Response::NotReady { .. } => 5,
            Response::Overloaded { .. } => 6,
            Response::Timeout { .. } => 7,
            Response::Draining => 8,
            Response::Error { .. } => 9,
            Response::Metrics(_) => 10,
        }
    }
}

fn encode_str(s: &str, w: &mut BitWriter) {
    s.as_bytes().to_vec().encode_state(w);
}

fn decode_str(r: &mut BitReader<'_>) -> Option<String> {
    String::from_utf8(Vec::<u8>::decode_state(r)?).ok()
}

impl WireState for SloFlags {
    fn encode_state(&self, w: &mut BitWriter) {
        self.degraded.encode_state(w);
        self.resumed.encode_state(w);
        self.walks_lost.encode_state(w);
        self.count_cells_missing.encode_state(w);
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<SloFlags> {
        Some(SloFlags {
            degraded: bool::decode_state(r)?,
            resumed: bool::decode_state(r)?,
            walks_lost: u64::decode_state(r)?,
            count_cells_missing: u64::decode_state(r)?,
        })
    }
}

impl WireState for ServeStats {
    fn encode_state(&self, w: &mut BitWriter) {
        self.requests_served.encode_state(w);
        self.requests_overloaded.encode_state(w);
        self.requests_timed_out.encode_state(w);
        self.solve_rounds.encode_state(w);
        self.checkpoints_written.encode_state(w);
        self.checkpoint_overhead_us.encode_state(w);
        self.uptime_ms.encode_state(w);
        self.last_checkpoint_age_ms.encode_state(w);
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<ServeStats> {
        Some(ServeStats {
            requests_served: u64::decode_state(r)?,
            requests_overloaded: u64::decode_state(r)?,
            requests_timed_out: u64::decode_state(r)?,
            solve_rounds: u64::decode_state(r)?,
            checkpoints_written: u64::decode_state(r)?,
            checkpoint_overhead_us: u64::decode_state(r)?,
            uptime_ms: u64::decode_state(r)?,
            last_checkpoint_age_ms: Option::decode_state(r)?,
        })
    }
}

impl WireState for HealthReport {
    fn encode_state(&self, w: &mut BitWriter) {
        self.state.tag().encode_state(w);
        self.ready.encode_state(w);
        self.phase.encode_state(w);
        self.rounds_completed.encode_state(w);
        self.slo.encode_state(w);
        self.uptime_ms.encode_state(w);
        self.last_checkpoint_age_ms.encode_state(w);
        self.burn_fast.encode_state(w);
        self.burn_slow.encode_state(w);
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<HealthReport> {
        Some(HealthReport {
            state: DaemonState::from_tag(u8::decode_state(r)?)?,
            ready: bool::decode_state(r)?,
            phase: u8::decode_state(r)?,
            rounds_completed: u64::decode_state(r)?,
            slo: SloFlags::decode_state(r)?,
            uptime_ms: u64::decode_state(r)?,
            last_checkpoint_age_ms: Option::decode_state(r)?,
            burn_fast: f64::decode_state(r)?,
            burn_slow: f64::decode_state(r)?,
        })
    }
}

impl WireState for MetricsReport {
    fn encode_state(&self, w: &mut BitWriter) {
        self.snapshot.encode_state(w);
        self.uptime_ms.encode_state(w);
        self.last_checkpoint_age_ms.encode_state(w);
        self.burn_fast.encode_state(w);
        self.burn_slow.encode_state(w);
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<MetricsReport> {
        Some(MetricsReport {
            snapshot: MetricsSnapshot::decode_state(r)?,
            uptime_ms: u64::decode_state(r)?,
            last_checkpoint_age_ms: Option::decode_state(r)?,
            burn_fast: f64::decode_state(r)?,
            burn_slow: f64::decode_state(r)?,
        })
    }
}

impl WireState for RequestEnvelope {
    fn encode_state(&self, w: &mut BitWriter) {
        PROTOCOL_VERSION.encode_state(w);
        self.deadline_ms.encode_state(w);
        self.request.encode_state(w);
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<RequestEnvelope> {
        if u32::decode_state(r)? != PROTOCOL_VERSION {
            return None;
        }
        Some(RequestEnvelope {
            deadline_ms: u32::decode_state(r)?,
            request: Request::decode_state(r)?,
        })
    }
}

impl WireState for Request {
    fn encode_state(&self, w: &mut BitWriter) {
        self.tag().encode_state(w);
        match self {
            Request::Centrality { node } => node.encode_state(w),
            Request::TopK { k } => k.encode_state(w),
            Request::Stats
            | Request::Health
            | Request::Drain
            | Request::Shutdown
            | Request::Metrics => {}
        }
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<Request> {
        Some(match u8::decode_state(r)? {
            0 => Request::Centrality {
                node: usize::decode_state(r)?,
            },
            1 => Request::TopK {
                k: usize::decode_state(r)?,
            },
            2 => Request::Stats,
            3 => Request::Health,
            4 => Request::Drain,
            5 => Request::Shutdown,
            6 => Request::Metrics,
            _ => return None,
        })
    }
}

impl WireState for Response {
    fn encode_state(&self, w: &mut BitWriter) {
        self.tag().encode_state(w);
        match self {
            Response::Value { node, value, slo } => {
                node.encode_state(w);
                value.encode_state(w);
                slo.encode_state(w);
            }
            Response::Ranking { top, slo } => {
                top.encode_state(w);
                slo.encode_state(w);
            }
            Response::Stats(stats) => stats.encode_state(w),
            Response::Health(report) => report.encode_state(w),
            Response::Metrics(report) => report.encode_state(w),
            Response::AdminOk | Response::Draining => {}
            Response::NotReady { retry_after_ms } | Response::Overloaded { retry_after_ms } => {
                retry_after_ms.encode_state(w);
            }
            Response::Timeout { deadline_ms } => deadline_ms.encode_state(w),
            Response::Error { reason } => encode_str(reason, w),
        }
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<Response> {
        Some(match u8::decode_state(r)? {
            0 => Response::Value {
                node: usize::decode_state(r)?,
                value: f64::decode_state(r)?,
                slo: SloFlags::decode_state(r)?,
            },
            1 => Response::Ranking {
                top: Vec::decode_state(r)?,
                slo: SloFlags::decode_state(r)?,
            },
            2 => Response::Stats(ServeStats::decode_state(r)?),
            3 => Response::Health(HealthReport::decode_state(r)?),
            4 => Response::AdminOk,
            5 => Response::NotReady {
                retry_after_ms: u32::decode_state(r)?,
            },
            6 => Response::Overloaded {
                retry_after_ms: u32::decode_state(r)?,
            },
            7 => Response::Timeout {
                deadline_ms: u32::decode_state(r)?,
            },
            8 => Response::Draining,
            9 => Response::Error {
                reason: decode_str(r)?,
            },
            10 => Response::Metrics(Box::new(MetricsReport::decode_state(r)?)),
            _ => return None,
        })
    }
}

/// Encodes a request envelope into a frame payload.
pub fn encode_request(env: &RequestEnvelope) -> Vec<u8> {
    let mut w = BitWriter::new();
    env.encode_state(&mut w);
    w.finish()
}

/// Decodes a frame payload into a request envelope.
///
/// # Errors
///
/// [`ProtocolError::Malformed`] on truncation, an unknown tag, or a
/// version mismatch.
pub fn decode_request(payload: &[u8]) -> Result<RequestEnvelope, ProtocolError> {
    let mut r = BitReader::new(payload);
    RequestEnvelope::decode_state(&mut r).ok_or(ProtocolError::Malformed { what: "request" })
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = BitWriter::new();
    resp.encode_state(&mut w);
    w.finish()
}

/// Decodes a frame payload into a response.
///
/// # Errors
///
/// [`ProtocolError::Malformed`] on truncation or an unknown tag.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut r = BitReader::new(payload);
    Response::decode_state(&mut r).ok_or(ProtocolError::Malformed { what: "response" })
}

/// Writes one `length + CRC-32 + payload` frame.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] past [`MAX_FRAME_BYTES`];
/// [`ProtocolError::Io`] on socket failure.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtocolError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge { len: payload.len() });
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(&crc32(payload).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying the length cap before buffering and the
/// CRC-32 before returning.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] when the prefix exceeds the cap
/// (nothing past the header is read); [`ProtocolError::ChecksumMismatch`]
/// on a failed CRC; [`ProtocolError::Io`] on socket failure or EOF.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, ProtocolError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let sum = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != sum {
        return Err(ProtocolError::ChecksumMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(env: RequestEnvelope) {
        let payload = encode_request(&env);
        assert_eq!(decode_request(&payload).unwrap(), env);
    }

    fn roundtrip_response(resp: Response) {
        let payload = encode_response(&resp);
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        for request in [
            Request::Centrality { node: 7 },
            Request::TopK { k: 10 },
            Request::Stats,
            Request::Health,
            Request::Drain,
            Request::Shutdown,
            Request::Metrics,
        ] {
            roundtrip_request(RequestEnvelope {
                deadline_ms: 250,
                request,
            });
        }
    }

    #[test]
    fn responses_roundtrip() {
        let slo = SloFlags {
            degraded: true,
            resumed: true,
            walks_lost: 3,
            count_cells_missing: 9,
        };
        for resp in [
            Response::Value {
                node: 4,
                value: 0.125,
                slo,
            },
            Response::Ranking {
                top: vec![(1, 0.5), (0, 0.25)],
                slo: SloFlags::default(),
            },
            Response::Stats(ServeStats {
                requests_served: 10,
                requests_overloaded: 2,
                requests_timed_out: 1,
                solve_rounds: 640,
                checkpoints_written: 10,
                checkpoint_overhead_us: 1234,
                uptime_ms: 9000,
                last_checkpoint_age_ms: Some(125),
            }),
            Response::Health(HealthReport {
                state: DaemonState::Serving,
                ready: true,
                phase: 2,
                rounds_completed: 640,
                slo,
                uptime_ms: 9000,
                last_checkpoint_age_ms: None,
                burn_fast: 1.5,
                burn_slow: 0.25,
            }),
            Response::Metrics(Box::new(MetricsReport {
                snapshot: {
                    let registry = congest_sim::Registry::new();
                    registry.counter("serve_requests_total").add(17);
                    registry.gauge("serve_queue_depth").set(3);
                    registry.histogram("serve_request_latency_us").record(800);
                    registry.snapshot()
                },
                uptime_ms: 1234,
                last_checkpoint_age_ms: Some(77),
                burn_fast: 2.0,
                burn_slow: 0.125,
            })),
            Response::AdminOk,
            Response::NotReady { retry_after_ms: 8 },
            Response::Overloaded { retry_after_ms: 16 },
            Response::Timeout { deadline_ms: 100 },
            Response::Draining,
            Response::Error {
                reason: "node 99 out of range".to_string(),
            },
        ] {
            roundtrip_response(resp);
        }
    }

    #[test]
    fn frames_roundtrip_and_catch_corruption() {
        let payload = encode_request(&RequestEnvelope {
            deadline_ms: 100,
            request: Request::Stats,
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(read_frame(&mut &buf[..]).unwrap(), payload);
        // Flip one payload bit: the CRC catches it.
        let mut mangled = buf.clone();
        let last = mangled.len() - 1;
        mangled[last] ^= 1;
        assert!(matches!(
            read_frame(&mut &mangled[..]),
            Err(ProtocolError::ChecksumMismatch)
        ));
        // An oversized length prefix is rejected before any allocation.
        let mut huge = (u32::MAX).to_be_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
        // Truncation is a typed I/O error, not a panic.
        assert!(matches!(
            read_frame(&mut &buf[..buf.len() - 2]),
            Err(ProtocolError::Io(_))
        ));
    }

    #[test]
    fn malformed_payloads_fail_typed() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_response(&[0xFF; 3]).is_err());
        // Unknown request tag.
        let mut w = BitWriter::new();
        PROTOCOL_VERSION.encode_state(&mut w);
        10u32.encode_state(&mut w);
        200u8.encode_state(&mut w);
        assert!(decode_request(&w.finish()).is_err());
    }
}
