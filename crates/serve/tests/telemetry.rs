//! Live telemetry over the wire — the observability contract: a
//! daemon under load answers `Request::Metrics` inline (never queued,
//! never shed), the request counters partition exactly, `Stats`,
//! `Health`, `Metrics` and `rwbc-top` read one account, SLO burn rates
//! respond to deadline pressure, and a drain leaves a flight-recorder
//! dump on disk that is a valid JSONL trace.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use congest_sim::trace::jsonl::decode_trace;
use congest_sim::TraceEvent;
use rwbc_serve::protocol::{
    decode_response, encode_request, read_frame, write_frame, MetricsReport, Request,
    RequestEnvelope, Response,
};
use rwbc_serve::top::render_frame;
use rwbc_serve::{Client, Daemon, HealthReport, ServeConfig, SolverConfig};

/// A daemon whose solve never finishes during the test (slow rounds) —
/// load-shedding behavior stays stable while we poke at it.
fn slow_daemon(mut config_fn: impl FnMut(&mut ServeConfig)) -> Daemon {
    let mut solver = SolverConfig::new(64, 5);
    solver.slow_ms = 1000;
    let mut config = ServeConfig::new(solver);
    config.retry_after_ms = 5;
    config_fn(&mut config);
    Daemon::start(config).expect("bind loopback")
}

/// Raw exchange: one request frame, one response frame, no retries.
fn raw_request(addr: std::net::SocketAddr, request: Request, deadline_ms: u32) -> Response {
    let env = RequestEnvelope {
        deadline_ms,
        request,
    };
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, &encode_request(&env)).expect("send");
    let payload = read_frame(&mut stream).expect("receive");
    decode_response(&payload).expect("decode")
}

fn scrape(addr: std::net::SocketAddr) -> Box<MetricsReport> {
    let client = Client::new(addr.to_string());
    match client.metrics().expect("metrics scrape") {
        Response::Metrics(report) => report,
        other => panic!("expected Metrics, got {other:?}"),
    }
}

fn stats(addr: std::net::SocketAddr) -> rwbc_serve::ServeStats {
    match raw_request(addr, Request::Stats, 5_000) {
        Response::Stats(stats) => stats,
        other => panic!("expected Stats, got {other:?}"),
    }
}

fn wait_until_ready(addr: std::net::SocketAddr) -> HealthReport {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Response::Health(h) = raw_request(addr, Request::Health, 1_000) {
            if h.ready {
                return h;
            }
        }
        assert!(Instant::now() < deadline, "daemon did not become ready");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn counters_partition_exactly_under_mixed_load() {
    // Queue depth 1 and one worker busy 300 ms per request: a long-
    // deadline request is answered, a short-deadline one times out, and
    // with the worker pinned + queue full a third is shed.
    let daemon = slow_daemon(|c| {
        c.queue_depth = 1;
        c.workers = 1;
        c.work_delay_ms = 300;
    });
    let addr = daemon.local_addr();

    // Answered: generous deadline, nothing else in flight.
    let answered = raw_request(addr, Request::Stats, 5_000);
    assert!(matches!(answered, Response::Stats(_)), "{answered:?}");

    // Timed out: 30 ms deadline against a 300 ms worker.
    let timed_out = raw_request(addr, Request::Stats, 30);
    assert!(matches!(timed_out, Response::Timeout { .. }));

    // Shed: occupy the worker and the single queue slot, then one more.
    let mut busy = Vec::new();
    for _ in 0..2 {
        busy.push(std::thread::spawn(move || {
            raw_request(addr, Request::Stats, 3_000)
        }));
        std::thread::sleep(Duration::from_millis(80));
    }
    let mut shed_seen = false;
    for _ in 0..4 {
        if matches!(
            raw_request(addr, Request::Stats, 3_000),
            Response::Overloaded { .. }
        ) {
            shed_seen = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(shed_seen, "queue depth 1 with a pinned worker must shed");
    for handle in busy {
        let _ = handle.join().expect("busy thread");
    }

    // Let in-flight `finish` paths land before scraping.
    std::thread::sleep(Duration::from_millis(50));
    let report = scrape(addr);
    let snap = &report.snapshot;
    let total = snap.counter("serve_requests_total").unwrap_or(0);
    let answered = snap.counter("serve_requests_answered_total").unwrap_or(0);
    let timed_out = snap.counter("serve_requests_timed_out_total").unwrap_or(0);
    let shed = snap.counter("serve_requests_shed_total").unwrap_or(0);
    assert!(answered >= 1, "at least one answered request");
    assert!(timed_out >= 1, "at least one timed-out request");
    assert!(shed >= 1, "at least one shed request");
    assert_eq!(
        total,
        answered + timed_out + shed,
        "every admitted request finishes as exactly one of answered/timed_out/shed"
    );
    // Every finished request recorded one latency sample.
    let latency = snap
        .histogram("serve_request_latency_us")
        .expect("latency histogram registered");
    assert_eq!(latency.samples(), total);

    // Timeouts and sheds are SLO errors: the fast burn window reacts.
    assert!(
        report.burn_fast > 0.0,
        "deadline pressure must show up in the fast burn rate, got {}",
        report.burn_fast
    );
    assert!(report.uptime_ms > 0);

    daemon.drain();
    daemon.wait();
}

#[test]
fn metrics_scrape_is_never_shed() {
    // Worker pinned, queue full: Stats sheds, but Metrics (like Health)
    // is answered inline — an overloaded daemon is exactly when the
    // scraper must still see it.
    let daemon = slow_daemon(|c| {
        c.queue_depth = 1;
        c.workers = 1;
        c.work_delay_ms = 500;
    });
    let addr = daemon.local_addr();
    let mut busy = Vec::new();
    for _ in 0..2 {
        busy.push(std::thread::spawn(move || {
            raw_request(addr, Request::Stats, 3_000)
        }));
        std::thread::sleep(Duration::from_millis(80));
    }
    for _ in 0..3 {
        let report = scrape(addr);
        assert!(report.uptime_ms > 0);
    }
    for handle in busy {
        let _ = handle.join().expect("busy thread");
    }
    daemon.drain();
    daemon.wait();
}

#[test]
fn drain_dumps_a_valid_flight_trace() {
    let dir = std::env::temp_dir().join(format!("rwbc-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let flight_path = dir.join("flight.jsonl");
    let daemon = slow_daemon(|c| {
        c.flight_path = Some(flight_path.clone());
        c.flight_dump_every_ms = 100;
    });
    let addr = daemon.local_addr();
    let stats = raw_request(addr, Request::Stats, 2_000);
    assert!(matches!(stats, Response::Stats(_)));
    daemon.drain();
    daemon.wait();

    let text = std::fs::read_to_string(&flight_path).expect("flight dump written on drain");
    let events = decode_trace(&text).expect("dump is a valid JSONL trace");
    assert!(
        matches!(events.first(), Some(TraceEvent::Meta { .. })),
        "dump opens with a Meta header"
    );
    // The drain itself was recorded by the serve subsystem.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::App { key, .. } if key == "drain")),
        "serve ring records the drain request"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_query_that_times_out_is_not_counted_as_served() {
    // The solve finishes quickly; the one worker takes 300 ms per
    // request, so a 30 ms query times out while its worker is still
    // computing the answer.
    let mut config = ServeConfig::new(SolverConfig::new(32, 3));
    config.workers = 1;
    config.work_delay_ms = 300;
    let daemon = Daemon::start(config).expect("bind loopback");
    let addr = daemon.local_addr();
    wait_until_ready(addr);
    assert_eq!(
        raw_request(addr, Request::Centrality { node: 0 }, 30),
        Response::Timeout { deadline_ms: 30 }
    );
    // `Stats` queues behind the late answer, so the worker has finished
    // it by the time `Stats` is read.
    let stats = stats(addr);
    assert_eq!(stats.requests_served, 0, "the client received no value");
    assert_eq!(stats.requests_timed_out, 1);
    let report = scrape(addr);
    let get = |name: &str| report.snapshot.counter(name).unwrap_or(0);
    assert_eq!(get("serve_requests_served_total"), 0);
    assert_eq!(
        get("serve_requests_total"),
        get("serve_requests_answered_total")
            + get("serve_requests_timed_out_total")
            + get("serve_requests_shed_total")
    );
    daemon.drain();
    daemon.wait();
}

#[test]
fn every_view_reads_one_account_after_a_resume() {
    let dir = std::env::temp_dir().join(format!("rwbc-account-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("solve.ckpt");
    let solver = |slow_ms: u64| {
        let mut solver = SolverConfig::new(48, 11);
        solver.checkpoint_path = Some(ckpt.clone());
        solver.checkpoint_every_rounds = 4;
        solver.slow_ms = slow_ms;
        solver
    };

    // Drain the first daemon after its first checkpoint.
    let first = Daemon::start(ServeConfig::new(solver(5))).expect("bind loopback");
    let deadline = Instant::now() + Duration::from_secs(60);
    while first.metrics().serve.checkpoints_total.get() == 0 {
        assert!(Instant::now() < deadline, "no checkpoint landed");
        std::thread::sleep(Duration::from_millis(2));
    }
    first.drain();
    first.wait();

    // The second resumes from the image and finishes.
    let daemon = Daemon::start(ServeConfig::new(solver(0))).expect("bind loopback");
    let addr = daemon.local_addr();
    let health = wait_until_ready(addr);
    assert!(health.slo.resumed);
    let stats = stats(addr);
    let report = scrape(addr);
    let snap = &report.snapshot;
    let rounds = health.rounds_completed;
    assert_eq!(stats.solve_rounds, rounds);
    assert_eq!(snap.gauge("solver_rounds_completed"), Some(rounds));
    // The frame's `solver` line reads the whole solve's rounds, and no
    // tally of this process's engine alone beside them.
    let frame = render_frame(&addr.to_string(), &report, None);
    let solver_line = frame
        .lines()
        .find(|line| line.starts_with("solver "))
        .expect("a solver line");
    assert!(
        solver_line.contains(&format!(" rounds={rounds} ")),
        "{frame}"
    );
    assert!(!solver_line.contains("msgs="), "{frame}");
    assert!(
        snap.counter("engine_rounds_total").unwrap_or(0) < rounds,
        "the resumed solve ran only the rounds after its image"
    );
    assert_eq!(
        Some(stats.checkpoints_written),
        snap.counter("solver_checkpoints_total")
    );
    let durations = snap
        .histogram("solver_checkpoint_duration_us")
        .expect("duration histogram registered");
    assert_eq!(u128::from(stats.checkpoint_overhead_us), durations.sum());
    daemon.drain();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
