//! The daemon: a TCP accept loop in front of a bounded admission queue
//! and a small worker pool, reading results from the background solve.
//!
//! Robustness invariants:
//!
//! * **Bounded memory.** The admission queue is a fixed-depth
//!   `sync_channel`; when it is full the connection thread answers
//!   [`Response::Overloaded`] with a retry-after hint instead of
//!   buffering. Frames are length-capped before they are buffered.
//! * **Deadlines.** Every admitted request carries its client deadline;
//!   the connection thread waits at most that long for the worker and
//!   then answers a typed [`Response::Timeout`]. Workers drop requests
//!   whose deadline already expired in the queue.
//! * **No silent staleness.** Every served value carries [`SloFlags`]
//!   derived from the solve's `DegradationReport` plus the
//!   resumed-from-checkpoint bit.
//! * **Clean drain.** `Drain`/`Shutdown` stop admission, flush a final
//!   solve checkpoint, close the JSONL trace, and unblock the accept
//!   loop so the process exits. Clients connected before the drain,
//!   including those still in the listen backlog, get a typed
//!   [`Response::Draining`] rather than a closed socket.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use congest_sim::{FlightRecorder, TraceEvent};

use crate::metrics::DaemonMetrics;
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, DaemonState, HealthReport,
    MetricsReport, ProtocolError, Request, RequestEnvelope, Response, ServeStats, SloFlags,
};
use crate::slo::{SloConfig, SloTracker};
use crate::solver::{BackgroundSolver, SolveSnapshot, SolverConfig, SolverHooks};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Admission-queue depth — the load-shedding knob.
    pub queue_depth: usize,
    /// Worker threads answering admitted queries.
    pub workers: usize,
    /// Deadline applied when a request asks for none (0 on the wire).
    pub default_deadline_ms: u32,
    /// Retry-after hint attached to `Overloaded` / `NotReady`.
    pub retry_after_ms: u32,
    /// Test hook: each worker sleeps this long per request, so overload
    /// and deadline paths can be exercised deterministically.
    pub work_delay_ms: u64,
    /// Latency / availability objectives the burn-rate tracker scores
    /// admitted queries against.
    pub slo: SloConfig,
    /// Flight-recorder dump path (conventionally next to the
    /// checkpoint); `None` disables periodic dumps, the in-memory ring
    /// still records.
    pub flight_path: Option<PathBuf>,
    /// Milliseconds between periodic flight dumps. The periodic cadence
    /// is what makes dumps crash-safe: `kill -9` cannot be hooked, so
    /// the newest dump is at most this stale.
    pub flight_dump_every_ms: u64,
    /// The background solve.
    pub solver: SolverConfig,
}

impl ServeConfig {
    /// Loopback defaults around the given solve.
    pub fn new(solver: SolverConfig) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 64,
            workers: 2,
            default_deadline_ms: 1000,
            retry_after_ms: 10,
            work_delay_ms: 0,
            slo: SloConfig::default(),
            flight_path: None,
            flight_dump_every_ms: 500,
            solver,
        }
    }
}

struct Counters {
    served: AtomicU64,
    overloaded: AtomicU64,
    timed_out: AtomicU64,
}

struct Shared {
    config: ServeConfig,
    counters: Counters,
    draining: AtomicBool,
    shutdown: AtomicBool,
    started: Instant,
    solver: Mutex<BackgroundSolver>,
    addr: SocketAddr,
    metrics: DaemonMetrics,
    slo: SloTracker,
    flight: FlightRecorder,
}

impl Shared {
    /// Spawns the background solve and the state every daemon thread
    /// shares, for a listener bound at `addr`.
    fn new(config: ServeConfig, addr: SocketAddr) -> Shared {
        // One clock for everything time-shaped: deadlines, uptime, SLO
        // buckets, and checkpoint ages all subtract from this instant.
        let started = Instant::now();
        let metrics = DaemonMetrics::new();
        let flight = FlightRecorder::default();
        let solver = BackgroundSolver::spawn_with(
            config.solver.clone(),
            SolverHooks {
                epoch: started,
                metrics: Some(metrics.clone()),
                flight: Some(flight.clone()),
            },
        );
        let slo = SloTracker::new(config.slo);
        Shared {
            counters: Counters {
                served: AtomicU64::new(0),
                overloaded: AtomicU64::new(0),
                timed_out: AtomicU64::new(0),
            },
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            started,
            solver: Mutex::new(solver),
            addr,
            metrics,
            slo,
            flight,
            config,
        }
    }

    fn snapshot(&self) -> SolveSnapshot {
        self.solver.lock().expect("solver handle lock").snapshot()
    }

    /// Milliseconds since the daemon started — the uptime clock, which
    /// is also what deadlines, SLO buckets, and checkpoint ages use.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Age of the newest checkpoint on the uptime clock.
    fn checkpoint_age_ms(&self, snapshot: &SolveSnapshot) -> Option<u64> {
        snapshot
            .last_checkpoint_at_ms
            .map(|at| self.now_ms().saturating_sub(at))
    }

    /// One event into the serve-subsystem flight ring.
    fn flight_serve(&self, key: &str, value: u64) {
        self.flight.record(
            "serve",
            TraceEvent::App {
                round: 0,
                node: 0,
                key: key.to_string(),
                value,
            },
        );
    }

    /// Dumps the flight ring if a dump path is configured.
    fn dump_flight(&self) {
        if let Some(path) = &self.config.flight_path {
            if self.flight.dump_to(path).is_ok() {
                self.metrics.serve.flight_dumps_total.inc();
            }
        }
    }

    fn metrics_report(&self) -> MetricsReport {
        let snapshot = self.snapshot();
        let now_ms = self.now_ms();
        let (burn_fast, burn_slow) = self.slo.burn_rates(now_ms);
        MetricsReport {
            snapshot: self.metrics.registry.snapshot(),
            uptime_ms: now_ms,
            last_checkpoint_age_ms: self.checkpoint_age_ms(&snapshot),
            burn_fast,
            burn_slow,
        }
    }

    fn slo_flags(snapshot: &SolveSnapshot) -> SloFlags {
        match &snapshot.result {
            Some(run) => SloFlags {
                degraded: !run.degradation.is_clean(),
                resumed: snapshot.resumed,
                walks_lost: run.degradation.walks_lost,
                count_cells_missing: run.degradation.count_cells_missing,
            },
            None => SloFlags {
                resumed: snapshot.resumed,
                ..SloFlags::default()
            },
        }
    }

    fn health(&self) -> HealthReport {
        let snapshot = self.snapshot();
        let state = if self.draining.load(Ordering::SeqCst) {
            DaemonState::Draining
        } else if snapshot.result.is_some() {
            DaemonState::Serving
        } else {
            DaemonState::Solving
        };
        let now_ms = self.now_ms();
        let (burn_fast, burn_slow) = self.slo.burn_rates(now_ms);
        HealthReport {
            state,
            ready: snapshot.result.is_some() && !self.draining.load(Ordering::SeqCst),
            phase: snapshot.phase,
            rounds_completed: snapshot.rounds_completed,
            slo: Shared::slo_flags(&snapshot),
            uptime_ms: now_ms,
            last_checkpoint_age_ms: self.checkpoint_age_ms(&snapshot),
            burn_fast,
            burn_slow,
        }
    }

    fn stats(&self) -> ServeStats {
        let snapshot = self.snapshot();
        ServeStats {
            requests_served: self.counters.served.load(Ordering::Relaxed),
            requests_overloaded: self.counters.overloaded.load(Ordering::Relaxed),
            requests_timed_out: self.counters.timed_out.load(Ordering::Relaxed),
            solve_rounds: snapshot.rounds_completed,
            checkpoints_written: snapshot.checkpoints_written,
            checkpoint_overhead_us: snapshot.checkpoint_overhead_us,
            uptime_ms: self.now_ms(),
            last_checkpoint_age_ms: self.checkpoint_age_ms(&snapshot),
        }
    }

    /// Answers an admitted query from the published solve snapshot.
    fn answer(&self, request: &Request) -> Response {
        let snapshot = self.snapshot();
        // Service counters are answerable in every state — they are how
        // an operator watches the solve make progress.
        if matches!(request, Request::Stats) {
            return Response::Stats(self.stats());
        }
        if let Some(e) = &snapshot.error {
            return Response::Error {
                reason: format!("solve failed: {e}"),
            };
        }
        let slo = Shared::slo_flags(&snapshot);
        let Some(run) = &snapshot.result else {
            return Response::NotReady {
                retry_after_ms: self.config.retry_after_ms,
            };
        };
        match request {
            Request::Centrality { node } => {
                if *node >= run.centrality.len() {
                    Response::Error {
                        reason: format!("node {node} out of range (n={})", run.centrality.len()),
                    }
                } else {
                    Response::Value {
                        node: *node,
                        value: run.centrality[*node],
                        slo,
                    }
                }
            }
            Request::TopK { k } => {
                let nodes = run.centrality.top_k((*k).min(run.centrality.len()));
                let top = nodes.into_iter().map(|v| (v, run.centrality[v])).collect();
                Response::Ranking { top, slo }
            }
            // Stats answered above; health and admin never reach the
            // queue.
            _ => Response::Error {
                reason: "request not answerable by a worker".to_string(),
            },
        }
    }
}

struct Job {
    env: RequestEnvelope,
    admitted: Instant,
    reply: SyncSender<Response>,
}

/// A running daemon.
pub struct Daemon {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    flight_watcher: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener, spawns the solver, the workers, the accept
    /// loop, and (when a flight path is configured) the periodic
    /// flight-dump watcher.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServeConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(Shared::new(config, listener.local_addr()?));

        let (tx, rx) = mpsc::sync_channel::<Job>(shared.config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::new();
        for _ in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            workers.push(std::thread::spawn(move || worker_loop(&shared, &rx)));
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener, &tx))
        };

        let flight_watcher = shared.config.flight_path.as_ref().map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || flight_watch_loop(&shared))
        });

        Ok(Daemon {
            shared,
            acceptor: Some(acceptor),
            workers,
            flight_watcher,
        })
    }

    /// The live-metrics bundle (the same registry `Request::Metrics`
    /// snapshots) — for embedding hosts and tests.
    pub fn metrics(&self) -> &DaemonMetrics {
        &self.shared.metrics
    }

    /// The flight recorder — for embedding hosts that want to dump on
    /// their own triggers (e.g. a panic hook).
    pub fn flight(&self) -> &FlightRecorder {
        &self.shared.flight
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until an admin drain/shutdown stops the daemon, then joins
    /// every thread.
    pub fn wait(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.flight_watcher.take() {
            let _ = handle.join();
        }
    }

    /// Initiates a drain as if an admin request had arrived.
    pub fn drain(&self) {
        initiate_drain(&self.shared);
    }
}

/// Flips the daemon into draining, flushes the solve (final checkpoint +
/// trace close), and wakes the accept loop so it can exit. Idempotent.
fn initiate_drain(shared: &Arc<Shared>) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.flight_serve("drain", shared.now_ms());
    shared.solver.lock().expect("solver handle lock").drain();
    shared.shutdown.store(true, Ordering::SeqCst);
    // Final flight dump with the drain event and the solver's terminal
    // events in the rings.
    shared.dump_flight();
    // Self-connect to unblock the blocking accept.
    let _ = TcpStream::connect(shared.addr);
}

/// Periodic flight dumps until shutdown. This cadence — not the drain
/// hook — is what survives `kill -9`.
fn flight_watch_loop(shared: &Arc<Shared>) {
    let every = Duration::from_millis(shared.config.flight_dump_every_ms.max(50));
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(every);
        shared.dump_flight();
    }
}

fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = rx.lock().expect("worker queue lock");
            guard.recv_timeout(Duration::from_millis(50))
        };
        match job {
            Ok(job) => {
                shared.metrics.serve.queue_depth.dec();
                let deadline = Duration::from_millis(u64::from(job.env.deadline_ms));
                // Expired while queued: answer the typed timeout rather
                // than serving a result the client stopped waiting for.
                if job.admitted.elapsed() >= deadline {
                    let _ = job.reply.try_send(Response::Timeout {
                        deadline_ms: job.env.deadline_ms,
                    });
                    continue;
                }
                if shared.config.work_delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(shared.config.work_delay_ms));
                }
                let response = shared.answer(&job.env.request);
                if matches!(response, Response::Value { .. } | Response::Ranking { .. }) {
                    shared.counters.served.fetch_add(1, Ordering::Relaxed);
                }
                let _ = job.reply.try_send(response);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, tx: &SyncSender<Job>) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        spawn_connection(shared, stream, tx);
        if shared.shutdown.load(Ordering::SeqCst) {
            // Clients whose connect finished before the drain may still
            // wait in the listen backlog. Serve them too — `dispatch`
            // answers their queries `Draining` — rather than closing
            // them unanswered, then stop accepting.
            if listener.set_nonblocking(true).is_ok() {
                while let Ok((stream, _)) = listener.accept() {
                    if stream.set_nonblocking(false).is_ok() {
                        spawn_connection(shared, stream, tx);
                    }
                }
            }
            return;
        }
    }
}

fn spawn_connection(shared: &Arc<Shared>, stream: TcpStream, tx: &SyncSender<Job>) {
    let shared = Arc::clone(shared);
    let tx = tx.clone();
    std::thread::spawn(move || {
        let _ = handle_connection(&shared, stream, &tx);
    });
}

/// Serves one client connection: a loop of request frames answered in
/// order. Returns on socket close or a fatal protocol error.
fn handle_connection(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    tx: &SyncSender<Job>,
) -> Result<(), ProtocolError> {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(payload) => payload,
            // Clean close or half-open teardown: just drop the
            // connection. Anything else is answered typed below.
            Err(ProtocolError::Io(_)) => return Ok(()),
            Err(e) => {
                let reason = e.to_string();
                let _ = write_frame(&mut stream, &encode_response(&Response::Error { reason }));
                return Err(e);
            }
        };
        let env = match decode_request(&payload) {
            Ok(env) => env,
            Err(e) => {
                let reason = e.to_string();
                write_frame(&mut stream, &encode_response(&Response::Error { reason }))?;
                continue;
            }
        };
        let response = dispatch(shared, env, tx);
        let exit = matches!(response, Response::AdminOk);
        write_frame(&mut stream, &encode_response(&response))?;
        if exit && shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// Routes one request: admin, health, and metrics inline, queries
/// through the bounded queue with deadline enforcement.
///
/// The four `serve_requests_*` counters partition exactly: every query
/// that reaches the queueing path below increments `requests_total` and
/// exactly one of `answered` / `timed_out` / `shed` — the invariant the
/// CI smoke test asserts on a live daemon.
fn dispatch(shared: &Arc<Shared>, mut env: RequestEnvelope, tx: &SyncSender<Job>) -> Response {
    match env.request {
        Request::Health => return Response::Health(shared.health()),
        Request::Metrics => return Response::Metrics(Box::new(shared.metrics_report())),
        Request::Drain | Request::Shutdown => {
            initiate_drain(shared);
            return Response::AdminOk;
        }
        _ => {}
    }
    if shared.draining.load(Ordering::SeqCst) {
        return Response::Draining;
    }
    if env.deadline_ms == 0 {
        env.deadline_ms = shared.config.default_deadline_ms;
    }
    let m = &shared.metrics.serve;
    m.requests_total.inc();
    let deadline_ms = env.deadline_ms;
    let t0 = Instant::now();
    let finish = |response: Response| {
        let latency_us = t0.elapsed().as_micros() as u64;
        m.latency_us.record(latency_us);
        let timed_out = matches!(response, Response::Timeout { .. });
        let shed = matches!(response, Response::Overloaded { .. } | Response::Draining);
        if timed_out {
            m.timed_out_total.inc();
        } else if shed {
            m.shed_total.inc();
        } else {
            m.answered_total.inc();
        }
        match &response {
            Response::Value { slo, .. } | Response::Ranking { slo, .. } if slo.degraded => {
                m.degraded_served_total.inc();
            }
            _ => {}
        }
        // An SLO error: the client did not get an answer, or got it
        // slower than the latency objective.
        let error = timed_out || shed || latency_us / 1000 > shared.config.slo.latency_objective_ms;
        shared.slo.record(shared.now_ms(), error);
        if timed_out {
            shared.flight_serve("timeout", u64::from(deadline_ms));
        } else if shed {
            shared.flight_serve("shed", 1);
        }
        response
    };
    let deadline = Duration::from_millis(u64::from(env.deadline_ms));
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Response>(1);
    let job = Job {
        env,
        admitted: Instant::now(),
        reply: reply_tx,
    };
    // Inc before try_send: a worker may pop the job (and dec) the
    // instant it lands, and the gauge saturates at zero, so inc-after
    // would leak one permanently per race.
    shared.metrics.serve.queue_depth.inc();
    if let Err(e) = tx.try_send(job) {
        shared.metrics.serve.queue_depth.dec();
        return match e {
            // Queue full: shed, never buffer.
            TrySendError::Full(_) => {
                shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                finish(Response::Overloaded {
                    retry_after_ms: shared.config.retry_after_ms,
                })
            }
            TrySendError::Disconnected(_) => finish(Response::Draining),
        };
    }
    match reply_rx.recv_timeout(deadline) {
        Ok(response) => {
            if matches!(response, Response::Timeout { .. }) {
                shared.counters.timed_out.fetch_add(1, Ordering::Relaxed);
            }
            finish(response)
        }
        Err(_) => {
            // Worker still busy past the deadline (or gone): typed
            // timeout; the worker's late reply lands in a dead channel.
            shared.counters.timed_out.fetch_add(1, Ordering::Relaxed);
            finish(Response::Timeout { deadline_ms })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlogged_client_gets_the_typed_refusal_after_drain() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let shared = Arc::new(Shared::new(
            ServeConfig::new(SolverConfig::new(16, 1)),
            addr,
        ));
        // The client's connect completes before the drain, but nothing
        // accepts it until after the flag flips: it waits in the backlog.
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        initiate_drain(&shared);
        let (tx, _rx) = mpsc::sync_channel(1);
        accept_loop(&shared, &listener, &tx);
        let request = RequestEnvelope {
            deadline_ms: 100,
            request: Request::Stats,
        };
        write_frame(&mut client, &crate::protocol::encode_request(&request)).expect("send");
        let payload = read_frame(&mut client).expect("a typed answer, not a closed socket");
        assert_eq!(
            crate::protocol::decode_response(&payload).expect("decodes"),
            Response::Draining
        );
    }
}
