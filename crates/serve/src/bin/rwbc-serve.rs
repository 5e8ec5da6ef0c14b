//! `rwbc-serve` — run and poke the centrality daemon.
//!
//! ```text
//! rwbc-serve run    [--addr A] [--n N] [--seed S] [--walks K] [--length L]
//!                   [--threads T] [--granularity G] [--sketch-precision P]
//!                   [--checkpoint FILE] [--checkpoint-every R] [--trace FILE]
//!                   [--flight FILE] [--flight-every-ms MS] [--queue-depth D] [--workers W]
//!                   [--deadline-ms MS] [--retry-after-ms MS] [--slow-ms MS] [--work-delay-ms MS]
//!                   [--slo-latency-ms MS] [--slo-availability F]
//! rwbc-serve query  --addr A (--node V | --topk K | --stats)
//!                   [--deadline-ms MS] [--attempts N]
//! rwbc-serve health --addr A
//! rwbc-serve metrics --addr A [--format json|prometheus]
//! rwbc-serve top    --addr A [--interval-ms MS] [--iterations N] [--no-clear]
//! rwbc-serve drain  --addr A
//! rwbc-serve check  --checkpoint FILE --n N --seed S [--walks K] [--length L]
//! ```
//!
//! `run` prints `rwbc-serve listening on ADDR` once the socket is bound
//! (so harnesses binding port 0 can discover the port) and blocks until
//! an admin drain. `check` restores a checkpoint image offline and
//! reports its phase/round — the CI gate for "the final checkpoint is
//! valid".

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use congest_sim::{outln, print_stdout};
use rwbc::distributed::StepSolver;
use rwbc_serve::protocol::Request;
use rwbc_serve::top::{self, TopOptions};
use rwbc_serve::{Client, Daemon, RequestEnvelope, Response, ServeConfig, SloConfig, SolverConfig};

struct Options {
    command: String,
    addr: Option<String>,
    n: usize,
    seed: u64,
    walks: usize,
    length: usize,
    threads: usize,
    granularity: usize,
    sketch_precision: u8,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    trace: Option<PathBuf>,
    flight: Option<PathBuf>,
    flight_every_ms: u64,
    queue_depth: usize,
    workers: usize,
    deadline_ms: u32,
    retry_after_ms: u32,
    slow_ms: u64,
    work_delay_ms: u64,
    slo_latency_ms: u64,
    slo_availability: f64,
    node: Option<usize>,
    topk: Option<usize>,
    stats: bool,
    attempts: u32,
    format: String,
    interval_ms: u64,
    iterations: u64,
    no_clear: bool,
}

fn usage() -> &'static str {
    "usage: rwbc-serve run    [--addr A] [--n N] [--seed S] [--walks K] [--length L]\n       \
     \t[--threads T] [--granularity G] [--sketch-precision P]\n       \
     \t[--checkpoint FILE] [--checkpoint-every R] [--trace FILE]\n       \
     \t[--flight FILE] [--flight-every-ms MS] [--queue-depth D] [--workers W]\n       \
     \t[--deadline-ms MS] [--retry-after-ms MS] [--slow-ms MS] [--work-delay-ms MS]\n       \
     \t[--slo-latency-ms MS] [--slo-availability F]\n       \
     rwbc-serve query  --addr A (--node V | --topk K | --stats) [--deadline-ms MS] [--attempts N]\n       \
     rwbc-serve health --addr A\n       \
     rwbc-serve metrics --addr A [--format json|prometheus]\n       \
     rwbc-serve top    --addr A [--interval-ms MS] [--iterations N] [--no-clear]\n       \
     rwbc-serve drain  --addr A\n       \
     rwbc-serve check  --checkpoint FILE --n N --seed S [--walks K] [--length L]"
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(|| usage().to_string())?;
    let mut opts = Options {
        command,
        addr: None,
        n: 256,
        seed: 42,
        walks: 4,
        length: 64,
        threads: 1,
        granularity: 0,
        sketch_precision: 0,
        checkpoint: None,
        checkpoint_every: 64,
        trace: None,
        flight: None,
        flight_every_ms: 500,
        queue_depth: 64,
        workers: 2,
        deadline_ms: 1000,
        retry_after_ms: 10,
        slow_ms: 0,
        work_delay_ms: 0,
        slo_latency_ms: SloConfig::default().latency_objective_ms,
        slo_availability: SloConfig::default().availability_target,
        node: None,
        topk: None,
        stats: false,
        attempts: 6,
        format: "json".to_string(),
        interval_ms: 1000,
        iterations: 0,
        no_clear: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        fn num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("{flag}: bad value `{raw}`"))
        }
        match arg.as_str() {
            "--addr" => opts.addr = Some(value("--addr")?),
            "--n" => opts.n = num("--n", &value("--n")?)?,
            "--seed" => opts.seed = num("--seed", &value("--seed")?)?,
            "--walks" => opts.walks = num("--walks", &value("--walks")?)?,
            "--length" => opts.length = num("--length", &value("--length")?)?,
            "--threads" => opts.threads = num("--threads", &value("--threads")?)?,
            "--granularity" => opts.granularity = num("--granularity", &value("--granularity")?)?,
            "--sketch-precision" => {
                opts.sketch_precision = num("--sketch-precision", &value("--sketch-precision")?)?;
            }
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--checkpoint-every" => {
                opts.checkpoint_every = num("--checkpoint-every", &value("--checkpoint-every")?)?;
            }
            "--trace" => opts.trace = Some(PathBuf::from(value("--trace")?)),
            "--flight" => opts.flight = Some(PathBuf::from(value("--flight")?)),
            "--flight-every-ms" => {
                opts.flight_every_ms = num("--flight-every-ms", &value("--flight-every-ms")?)?;
            }
            "--slo-latency-ms" => {
                opts.slo_latency_ms = num("--slo-latency-ms", &value("--slo-latency-ms")?)?;
            }
            "--slo-availability" => {
                opts.slo_availability = num("--slo-availability", &value("--slo-availability")?)?;
            }
            "--format" => opts.format = value("--format")?,
            "--interval-ms" => opts.interval_ms = num("--interval-ms", &value("--interval-ms")?)?,
            "--iterations" => opts.iterations = num("--iterations", &value("--iterations")?)?,
            "--no-clear" => opts.no_clear = true,
            "--queue-depth" => opts.queue_depth = num("--queue-depth", &value("--queue-depth")?)?,
            "--workers" => opts.workers = num("--workers", &value("--workers")?)?,
            "--deadline-ms" => opts.deadline_ms = num("--deadline-ms", &value("--deadline-ms")?)?,
            "--retry-after-ms" => {
                opts.retry_after_ms = num("--retry-after-ms", &value("--retry-after-ms")?)?;
            }
            "--slow-ms" => opts.slow_ms = num("--slow-ms", &value("--slow-ms")?)?,
            "--work-delay-ms" => {
                opts.work_delay_ms = num("--work-delay-ms", &value("--work-delay-ms")?)?;
            }
            "--node" => opts.node = Some(num("--node", &value("--node")?)?),
            "--topk" => opts.topk = Some(num("--topk", &value("--topk")?)?),
            "--stats" => opts.stats = true,
            "--attempts" => opts.attempts = num("--attempts", &value("--attempts")?)?,
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(opts)
}

fn solver_config(opts: &Options) -> SolverConfig {
    let mut config = SolverConfig::new(opts.n, opts.seed);
    config.walks = opts.walks;
    config.length = opts.length;
    config.threads = opts.threads;
    config.granularity = opts.granularity;
    config.sketch_precision = opts.sketch_precision;
    config.checkpoint_path = opts.checkpoint.clone();
    config.checkpoint_every_rounds = opts.checkpoint_every;
    config.trace_path = opts.trace.clone();
    config.slow_ms = opts.slow_ms;
    config
}

/// Set by the raw SIGTERM handler; a watcher thread turns it into a
/// clean drain. The handler itself only flips the flag — the only thing
/// that is async-signal-safe to do.
static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: std::os::raw::c_int) {
    SIGTERM_SEEN.store(true, Ordering::SeqCst);
}

/// Registers the SIGTERM handler via the raw libc binding (the
/// workspace vendors no signal crate). SIGTERM is 15 on every platform
/// we build for.
#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: std::os::raw::c_int, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let mut config = ServeConfig::new(solver_config(opts));
    if let Some(addr) = &opts.addr {
        config.addr = addr.clone();
    }
    config.queue_depth = opts.queue_depth;
    config.workers = opts.workers;
    config.default_deadline_ms = opts.deadline_ms;
    config.retry_after_ms = opts.retry_after_ms;
    config.work_delay_ms = opts.work_delay_ms;
    config.slo = SloConfig {
        latency_objective_ms: opts.slo_latency_ms,
        availability_target: opts.slo_availability,
    };
    // Flight dumps land next to the checkpoint unless pointed elsewhere.
    config.flight_path = opts.flight.clone().or_else(|| {
        opts.checkpoint
            .as_ref()
            .map(|p| p.with_extension("flight.jsonl"))
    });
    config.flight_dump_every_ms = opts.flight_every_ms;
    let flight_path = config.flight_path.clone();
    let daemon = Daemon::start(config).map_err(|e| format!("bind failed: {e}"))?;

    // A panicking thread leaves a final flight dump before the default
    // hook aborts/unwinds — the post-mortem the recorder exists for.
    if let Some(path) = flight_path {
        let flight = daemon.flight().clone();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = flight.dump_to(&path);
            previous(info);
        }));
    }

    // SIGTERM → clean drain (final checkpoint + flight dump), same as an
    // admin Drain request. SIGKILL is covered by the periodic dumps.
    install_sigterm_handler();
    let addr = daemon.local_addr();
    std::thread::spawn(move || loop {
        std::thread::sleep(std::time::Duration::from_millis(100));
        if SIGTERM_SEEN.load(Ordering::SeqCst) {
            let _ = Client::new(addr.to_string()).drain();
            return;
        }
    });

    // A supervisor may close our stdout after reading the banner; a
    // daemon must not die over it, so ignore write failures here.
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "rwbc-serve listening on {addr}");
    let _ = stdout.flush();
    daemon.wait();
    let _ = writeln!(stdout, "rwbc-serve drained cleanly");
    Ok(())
}

fn describe(response: &Response) -> String {
    match response {
        Response::Value { node, value, slo } => {
            format!(
                "node {node}: {value:.6}{}",
                if slo.degraded {
                    format!(
                        "  [DEGRADED walks_lost={} cells_missing={}]",
                        slo.walks_lost, slo.count_cells_missing
                    )
                } else {
                    String::new()
                }
            )
        }
        Response::Ranking { top, slo } => {
            let mut out = String::new();
            for (rank, (node, value)) in top.iter().enumerate() {
                out.push_str(&format!("{:>3}. node {node}: {value:.6}\n", rank + 1));
            }
            if slo.degraded {
                out.push_str("[DEGRADED]\n");
            }
            out.trim_end().to_string()
        }
        Response::Stats(s) => format!(
            "served={} overloaded={} timed_out={} rounds={} checkpoints={} \
             checkpoint_overhead_us={} uptime_ms={} checkpoint_age_ms={}",
            s.requests_served,
            s.requests_overloaded,
            s.requests_timed_out,
            s.solve_rounds,
            s.checkpoints_written,
            s.checkpoint_overhead_us,
            s.uptime_ms,
            s.last_checkpoint_age_ms
                .map_or_else(|| "none".to_string(), |v| v.to_string())
        ),
        Response::Health(h) => format!(
            "state={} ready={} phase={} rounds={} resumed={} degraded={} uptime_ms={} \
             checkpoint_age_ms={} burn_fast={:.3} burn_slow={:.3}",
            h.state.as_str(),
            h.ready,
            h.phase,
            h.rounds_completed,
            h.slo.resumed,
            h.slo.degraded,
            h.uptime_ms,
            h.last_checkpoint_age_ms
                .map_or_else(|| "none".to_string(), |v| v.to_string()),
            h.burn_fast,
            h.burn_slow
        ),
        other => format!("{other:?}"),
    }
}

fn cmd_query(opts: &Options) -> Result<(), String> {
    let addr = opts.addr.as_ref().ok_or("query needs --addr")?;
    let client = Client::new(addr.clone()).with_max_attempts(opts.attempts);
    let request = if let Some(node) = opts.node {
        Request::Centrality { node }
    } else if let Some(k) = opts.topk {
        Request::TopK { k }
    } else if opts.stats {
        Request::Stats
    } else {
        return Err("query needs one of --node, --topk, --stats".to_string());
    };
    let response = client
        .request(&RequestEnvelope {
            deadline_ms: opts.deadline_ms,
            request,
        })
        .map_err(|e| e.to_string())?;
    outln!("{}", describe(&response));
    match response {
        Response::Error { .. } | Response::Timeout { .. } => Err("request failed".to_string()),
        _ => Ok(()),
    }
}

fn cmd_health(opts: &Options) -> Result<(), String> {
    let addr = opts.addr.as_ref().ok_or("health needs --addr")?;
    let response = Client::new(addr.clone())
        .health()
        .map_err(|e| e.to_string())?;
    outln!("{}", describe(&response));
    Ok(())
}

fn cmd_metrics(opts: &Options) -> Result<(), String> {
    let addr = opts.addr.as_ref().ok_or("metrics needs --addr")?;
    let response = Client::new(addr.clone())
        .metrics()
        .map_err(|e| e.to_string())?;
    let Response::Metrics(report) = response else {
        return Err(format!("unexpected metrics response: {response:?}"));
    };
    match opts.format.as_str() {
        "json" => outln!("{}", report.to_json().to_json()),
        "prometheus" | "prom" => {
            let text = report.to_prometheus();
            // Lint before printing: a scrape that would poison a real
            // Prometheus ingester exits non-zero instead.
            congest_sim::metrics::lint_prometheus(&text)
                .map_err(|e| format!("invalid Prometheus exposition: {e}"))?;
            print_stdout(&text);
        }
        other => {
            return Err(format!(
                "--format must be json or prometheus, got `{other}`"
            ))
        }
    }
    Ok(())
}

fn cmd_top(opts: &Options) -> Result<(), String> {
    let addr = opts.addr.as_ref().ok_or("top needs --addr")?;
    let top_opts = TopOptions {
        addr: addr.clone(),
        interval_ms: opts.interval_ms,
        iterations: opts.iterations,
        clear_screen: !opts.no_clear,
    };
    top::run(&top_opts, &mut std::io::stdout())
}

fn cmd_drain(opts: &Options) -> Result<(), String> {
    let addr = opts.addr.as_ref().ok_or("drain needs --addr")?;
    let response = Client::new(addr.clone())
        .drain()
        .map_err(|e| e.to_string())?;
    match response {
        Response::AdminOk => {
            outln!("drain acknowledged");
            Ok(())
        }
        other => Err(format!("unexpected drain response: {other:?}")),
    }
}

fn cmd_check(opts: &Options) -> Result<(), String> {
    let path = opts.checkpoint.as_ref().ok_or("check needs --checkpoint")?;
    let image = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    // Offline age: how stale the image on disk is (the live counterpart
    // is `last_checkpoint_age_ms` in Health/Stats/Metrics replies).
    let age_ms = std::fs::metadata(path)
        .ok()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.elapsed().ok())
        .map(|d| d.as_millis() as u64);
    let config = solver_config(opts);
    let graph = config.graph.build();
    let solver = StepSolver::restore(&graph, config.distributed_config(), &image)
        .map_err(|e| format!("invalid checkpoint: {e}"))?;
    outln!(
        "checkpoint ok: phase={:?} rounds={} bytes={} age_ms={}",
        solver.phase(),
        solver.rounds_completed(),
        image.len(),
        age_ms.map_or_else(|| "unknown".to_string(), |v| v.to_string())
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.command.as_str() {
        "run" => cmd_run(&opts),
        "query" => cmd_query(&opts),
        "health" => cmd_health(&opts),
        "metrics" => cmd_metrics(&opts),
        "top" => cmd_top(&opts),
        "drain" => cmd_drain(&opts),
        "check" => cmd_check(&opts),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
