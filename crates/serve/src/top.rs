//! `rwbc-top` — a live plain-terminal dashboard over a running daemon.
//!
//! Polls [`Request::Metrics`](crate::protocol::Request::Metrics) at a
//! fixed cadence and renders rates (from counter deltas between
//! scrapes), latency quantiles, solver progress, and SLO burn rates as
//! plain text — no terminal library, just an optional ANSI
//! clear-and-home so it works in a pipe, a CI log, or a real terminal
//! alike.

use std::io::Write;
use std::time::Duration;

use crate::client::Client;
use crate::protocol::{phase_name, MetricsReport, Response};

/// Dashboard configuration.
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Daemon address.
    pub addr: String,
    /// Milliseconds between scrapes.
    pub interval_ms: u64,
    /// Ticks to render before exiting; 0 runs until the daemon or the
    /// reader goes away.
    pub iterations: u64,
    /// Emit ANSI clear-and-home before each frame (off for pipes/CI).
    pub clear_screen: bool,
}

impl Default for TopOptions {
    fn default() -> TopOptions {
        TopOptions {
            addr: String::new(),
            interval_ms: 1000,
            iterations: 0,
            clear_screen: true,
        }
    }
}

/// Human-ish duration: `12.3s`, `4m02s`.
fn fmt_ms(ms: u64) -> String {
    if ms < 60_000 {
        format!("{:.1}s", ms as f64 / 1000.0)
    } else {
        format!("{}m{:02}s", ms / 60_000, (ms % 60_000) / 1000)
    }
}

/// Microseconds with a sensible unit.
fn fmt_us(us: u64) -> String {
    if us < 1000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Per-second rate of a counter delta over `elapsed_ms`.
fn rate(prev: u64, now: u64, elapsed_ms: u64) -> f64 {
    if elapsed_ms == 0 {
        return 0.0;
    }
    now.saturating_sub(prev) as f64 * 1000.0 / elapsed_ms as f64
}

/// Renders one dashboard frame. `prev` (the previous scrape and the
/// milliseconds since it) turns monotonic counters into rates.
pub fn render_frame(
    addr: &str,
    report: &MetricsReport,
    prev: Option<(&MetricsReport, u64)>,
) -> String {
    let snap = &report.snapshot;
    let get = |name: &str| snap.counter(name).unwrap_or(0);
    let prev_get = |name: &str| -> u64 {
        prev.and_then(|(p, _)| p.snapshot.counter(name))
            .unwrap_or(0)
    };
    let elapsed_ms = prev.map_or(0, |(_, ms)| ms);
    let rates = |name: &str| -> String {
        if prev.is_some() {
            format!("{:.1}/s", rate(prev_get(name), get(name), elapsed_ms))
        } else {
            "-".to_string()
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "rwbc-top {addr}  uptime {}  burn fast={:.2} slow={:.2}\n",
        fmt_ms(report.uptime_ms),
        report.burn_fast,
        report.burn_slow,
    ));
    out.push_str(&format!(
        "solver   phase={} rounds={} checkpoints={} age={}\n",
        phase_name(snap.gauge("solver_phase").unwrap_or(3)),
        snap.gauge("solver_rounds_completed").unwrap_or(0),
        get("solver_checkpoints_total"),
        report
            .last_checkpoint_age_ms
            .map_or_else(|| "-".to_string(), fmt_ms),
    ));
    out.push_str(&format!(
        "requests total={} ({}) answered={} timed_out={} shed={} queue={}\n",
        get("serve_requests_total"),
        rates("serve_requests_total"),
        get("serve_requests_answered_total"),
        get("serve_requests_timed_out_total"),
        get("serve_requests_shed_total"),
        snap.gauge("serve_queue_depth").unwrap_or(0),
    ));
    if let Some(latency) = snap.histogram("serve_request_latency_us") {
        out.push_str(&format!(
            "latency  p50={} p99={} max={} (n={})\n",
            fmt_us(latency.quantile(0.50)),
            fmt_us(latency.quantile(0.99)),
            fmt_us(latency.max()),
            latency.samples(),
        ));
    }
    out
}

/// Ends the dashboard on a failed write or flush: a reader that went
/// away (`BrokenPipe`) is a clean exit, any other error is returned.
fn write_failed(e: std::io::Error) -> Result<(), String> {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        Ok(())
    } else {
        Err(format!("writing the dashboard failed: {e}"))
    }
}

/// Polls the daemon and writes frames to `out` until the iteration
/// budget is spent, the daemon becomes unreachable, or a write to `out`
/// fails.
///
/// # Errors
///
/// A scrape failure before the *first* frame (nothing ever rendered) is
/// an error; after that the dashboard reports the disconnect and exits
/// cleanly — a drained daemon is a normal way for `top` to end. The
/// first failed write or flush ends it too: cleanly when its reader is
/// gone (`BrokenPipe`), with the error otherwise.
pub fn run<W: Write>(opts: &TopOptions, out: &mut W) -> Result<(), String> {
    let client = Client::new(opts.addr.clone());
    let mut prev: Option<MetricsReport> = None;
    let mut tick = 0u64;
    loop {
        let report = match client.metrics() {
            Ok(Response::Metrics(report)) => *report,
            Ok(other) => return Err(format!("unexpected metrics response: {other:?}")),
            Err(e) if prev.is_none() => return Err(format!("scrape failed: {e}")),
            Err(e) => {
                return writeln!(out, "daemon went away ({e}); exiting")
                    .and_then(|()| out.flush())
                    .or_else(write_failed);
            }
        };
        let mut frame = String::new();
        if opts.clear_screen {
            frame.push_str("\x1b[2J\x1b[H");
        }
        frame.push_str(&render_frame(
            &opts.addr,
            &report,
            prev.as_ref().map(|p| (p, opts.interval_ms)),
        ));
        if let Err(e) = out.write_all(frame.as_bytes()).and_then(|()| out.flush()) {
            return write_failed(e);
        }
        prev = Some(report);
        tick += 1;
        if opts.iterations > 0 && tick >= opts.iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms.max(50)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Daemon, ServeConfig, SolverConfig};
    use congest_sim::Registry;

    fn report(requests: u64, uptime_ms: u64) -> MetricsReport {
        let registry = Registry::new();
        registry.counter("serve_requests_total").add(requests);
        registry.gauge("solver_rounds_completed").set(640);
        registry.gauge("solver_phase").set(1);
        registry.histogram("serve_request_latency_us").record(900);
        MetricsReport {
            snapshot: registry.snapshot(),
            uptime_ms,
            last_checkpoint_age_ms: Some(1500),
            burn_fast: 2.5,
            burn_slow: 0.5,
        }
    }

    #[test]
    fn frame_shows_rates_once_a_previous_scrape_exists() {
        let first = report(100, 10_000);
        let second = report(150, 11_000);
        let cold = render_frame("127.0.0.1:9", &first, None);
        assert!(cold.contains("total=100 (-)"), "{cold}");
        assert!(cold.contains("phase=count rounds=640"), "{cold}");
        assert!(cold.contains("burn fast=2.50 slow=0.50"), "{cold}");
        assert!(cold.contains("age=1.5s"), "{cold}");
        let warm = render_frame("127.0.0.1:9", &second, Some((&first, 1000)));
        assert!(warm.contains("total=150 (50.0/s)"), "{warm}");
        assert!(warm.contains("p50=900us"), "{warm}");
    }

    /// A writer whose every write and flush fails with `kind`; it counts
    /// the attempts.
    struct Failing {
        kind: std::io::ErrorKind,
        attempts: usize,
    }

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.attempts += 1;
            Err(self.kind.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.attempts += 1;
            Err(self.kind.into())
        }
    }

    #[test]
    fn the_first_failed_write_ends_the_dashboard() {
        let daemon = Daemon::start(ServeConfig::new(SolverConfig::new(16, 1))).expect("bind");
        let opts = TopOptions {
            addr: daemon.local_addr().to_string(),
            interval_ms: 50,
            iterations: 3,
            clear_screen: true,
        };
        // A reader that went away is a clean exit; any other failure is
        // returned.
        for (kind, clean) in [
            (std::io::ErrorKind::BrokenPipe, true),
            (std::io::ErrorKind::PermissionDenied, false),
        ] {
            let mut out = Failing { kind, attempts: 0 };
            assert_eq!(run(&opts, &mut out).is_ok(), clean, "{kind:?}");
            assert_eq!(out.attempts, 1, "{kind:?}: written after a failed write");
        }
        daemon.drain();
        daemon.wait();
    }

    #[test]
    fn units_render_readably() {
        assert_eq!(fmt_ms(1500), "1.5s");
        assert_eq!(fmt_ms(125_000), "2m05s");
        assert_eq!(fmt_us(999), "999us");
        assert_eq!(fmt_us(2500), "2.5ms");
        assert_eq!(fmt_us(3_000_000), "3.00s");
    }
}
