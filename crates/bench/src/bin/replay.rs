//! `rwbc-replay` — load-replay a running (or self-hosted) `rwbc-serve`
//! daemon and emit a `BENCH_serve-*.json` artifact.
//!
//! ```text
//! rwbc-replay --spawn [--n N] [--seed S] [--threads T] [--checkpoint FILE]
//!             [--mode closed|open] [--clients C] [--rate-hz R]
//!             [--duration-s SEC] [--deadline-ms MS] [--out-dir DIR] [--tag TAG]
//! rwbc-replay --addr A --n N [load flags as above] [--out-dir DIR] [--tag TAG]
//! rwbc-replay --validate FILE...
//! ```
//!
//! `--spawn` hosts the daemon in-process (checkpointing to a scratch
//! file so the artifact's checkpoint-overhead fields are populated),
//! waits for readiness, replays, drains, and writes
//! `BENCH_[<tag>-]serve-er-n<N>-t<T>.json`. `--addr` replays an
//! external daemon instead. `--validate` checks existing artifacts
//! against the schema.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use congest_sim::trace::json::Json;
use rwbc_bench::outln;
use rwbc_bench::perf::bench_filename;
use rwbc_bench::serve_load::{
    run_replay, validate_serve_bench_json, ReplayConfig, ReplayMode, ServeBenchResult,
};
use rwbc_serve::{Client, Daemon, Response, ServeConfig, SolverConfig};

struct Options {
    spawn: bool,
    addr: Option<String>,
    n: usize,
    seed: u64,
    threads: usize,
    checkpoint: Option<PathBuf>,
    mode: String,
    clients: usize,
    rate_hz: f64,
    duration_s: f64,
    deadline_ms: u32,
    metrics_every_ms: u64,
    out_dir: PathBuf,
    tag: String,
    validate: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: rwbc-replay --spawn [--n N] [--seed S] [--threads T] [--checkpoint FILE]\n       \
     \t[--mode closed|open] [--clients C] [--rate-hz R] [--duration-s SEC]\n       \
     \t[--deadline-ms MS] [--metrics-every-ms MS] [--out-dir DIR] [--tag TAG]\n       \
     rwbc-replay --addr A --n N [load flags] [--out-dir DIR] [--tag TAG]\n       \
     rwbc-replay --validate FILE..."
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        spawn: false,
        addr: None,
        n: 1024,
        seed: 42,
        threads: 1,
        checkpoint: None,
        mode: "closed".to_string(),
        clients: 4,
        rate_hz: 200.0,
        duration_s: 3.0,
        deadline_ms: 1000,
        metrics_every_ms: 250,
        out_dir: PathBuf::from("."),
        tag: String::new(),
        validate: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        fn num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("{flag}: bad value `{raw}`"))
        }
        match arg.as_str() {
            "--spawn" => opts.spawn = true,
            "--addr" => opts.addr = Some(value("--addr")?),
            "--n" => opts.n = num("--n", &value("--n")?)?,
            "--seed" => opts.seed = num("--seed", &value("--seed")?)?,
            "--threads" => opts.threads = num("--threads", &value("--threads")?)?,
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--mode" => opts.mode = value("--mode")?,
            "--clients" => opts.clients = num("--clients", &value("--clients")?)?,
            "--rate-hz" => opts.rate_hz = num("--rate-hz", &value("--rate-hz")?)?,
            "--duration-s" => opts.duration_s = num("--duration-s", &value("--duration-s")?)?,
            "--deadline-ms" => opts.deadline_ms = num("--deadline-ms", &value("--deadline-ms")?)?,
            "--metrics-every-ms" => {
                opts.metrics_every_ms = num("--metrics-every-ms", &value("--metrics-every-ms")?)?;
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value("--out-dir")?),
            "--tag" => opts.tag = value("--tag")?,
            "--validate" => {
                opts.validate.extend(args.by_ref().map(PathBuf::from));
                if opts.validate.is_empty() {
                    return Err("--validate expects at least one file".into());
                }
            }
            "--help" | "-h" => {
                outln!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(opts)
}

fn run_validate(paths: &[PathBuf]) -> ExitCode {
    for path in paths {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
            .and_then(|doc| {
                validate_serve_bench_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
            });
        match outcome {
            Ok(()) => outln!("{}: ok", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn wait_ready(addr: &str) -> Result<(), String> {
    // Poll health on a wall-clock budget rather than riding the client's
    // backoff loop: the n=1024 solve runs tens of thousands of CONGEST
    // rounds, which takes minutes, far past any sane retry count.
    let deadline = std::time::Instant::now() + Duration::from_secs(900);
    let client = Client::new(addr);
    loop {
        match client.health() {
            Ok(Response::Health(h)) if h.ready => return Ok(()),
            Ok(Response::Health(_)) | Ok(Response::NotReady { .. }) => {}
            Ok(other) => return Err(format!("daemon not serving: {other:?}")),
            Err(e) if std::time::Instant::now() >= deadline => {
                return Err(format!("daemon never became ready: {e}"));
            }
            Err(_) => {}
        }
        if std::time::Instant::now() >= deadline {
            return Err("daemon never became ready within 900 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let mode = match opts.mode.as_str() {
        "closed" => ReplayMode::Closed,
        "open" => {
            if !(opts.rate_hz.is_finite() && opts.rate_hz > 0.0) {
                return Err("--rate-hz must be positive for open-loop replay".into());
            }
            ReplayMode::Open {
                rate_hz: opts.rate_hz,
            }
        }
        other => return Err(format!("unknown --mode `{other}` (closed|open)")),
    };

    // Self-hosted daemon, unless an external address was given.
    let mut hosted: Option<Daemon> = None;
    let scratch_ckpt;
    let addr = match &opts.addr {
        Some(addr) => addr.clone(),
        None => {
            if !opts.spawn {
                return Err(format!("need --spawn or --addr\n{}", usage()));
            }
            let mut solver = SolverConfig::new(opts.n, opts.seed);
            solver.threads = opts.threads;
            // Checkpoint by default so the artifact's checkpoint-overhead
            // fields measure the real periodic-checkpoint cost.
            solver.checkpoint_path = Some(match &opts.checkpoint {
                Some(path) => path.clone(),
                None => {
                    scratch_ckpt = std::env::temp_dir().join(format!(
                        "rwbc-replay-{}-n{}.ckpt",
                        std::process::id(),
                        opts.n
                    ));
                    scratch_ckpt.clone()
                }
            });
            solver.checkpoint_every_rounds = 16;
            let daemon =
                Daemon::start(ServeConfig::new(solver)).map_err(|e| format!("bind failed: {e}"))?;
            let addr = daemon.local_addr().to_string();
            hosted = Some(daemon);
            addr
        }
    };

    wait_ready(&addr)?;
    let config = ReplayConfig {
        addr,
        mode,
        clients: opts.clients.max(1),
        duration: Duration::from_secs_f64(opts.duration_s.max(0.1)),
        deadline_ms: opts.deadline_ms,
        seed: opts.seed,
        n: opts.n,
        metrics_every: Some(Duration::from_millis(opts.metrics_every_ms.max(1))),
    };
    let report = run_replay(&config);

    if let Some(daemon) = hosted {
        daemon.drain();
        daemon.wait();
    }

    let scenario = format!("serve-er-n{}-t{}", opts.n, opts.threads);
    let result = ServeBenchResult {
        scenario: scenario.clone(),
        n: opts.n,
        threads: opts.threads,
        walks: 4,
        length: 64,
        seed: opts.seed,
        report,
    };
    let doc = result.to_json();
    validate_serve_bench_json(&doc)
        .map_err(|e| format!("emitted JSON failed self-validation: {e}"))?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join(bench_filename(&opts.tag, &scenario));
    let mut text = doc.to_json();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;

    let report = &result.report;
    let o = &report.outcomes;
    outln!(
        "{scenario:<22} {:>8.1} req/s  p50 {:>7} us  p99 {:>7} us  served {:>6}  shed {:>4}  \
         timeout {:>4}  -> {}",
        report.throughput_rps(),
        report.p50_us(),
        report.p99_us(),
        o.served,
        o.overloaded,
        o.timed_out,
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !opts.validate.is_empty() {
        return run_validate(&opts.validate);
    }
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
