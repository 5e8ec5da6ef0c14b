//! `rwbc-bench` — end-to-end perf scenarios with JSON output.
//!
//! ```text
//! rwbc-bench [--list] [--smoke] [--sweep] [--threads LIST]
//!            [--allow-oversubscribe] [--scenario NAME]... [--trials T]
//!            [--warmup W] [--out-dir DIR] [--tag TAG]
//! rwbc-bench --validate FILE...
//! rwbc-bench --compare BASELINE.json CURRENT.json
//! ```
//!
//! Each selected scenario is run with warmup + timed trials and its
//! result is written to `<out-dir>/BENCH_[<tag>-]<scenario>.json` (see
//! `rwbc_bench::perf` for the schema). `--validate` checks existing
//! files against the schema and exits non-zero on the first failure;
//! `--compare` prints the median-wall-clock speedup of the second file
//! relative to the first, whether their `(rounds, total_messages,
//! total_bits)` fingerprints and phase breakdowns are identical, and both
//! peak RSS values with their ratio. A fingerprint difference is reported,
//! not an error.
//!
//! `--sweep` runs the threads-sweep matrix (`clean-er` at n = 4096, or
//! n = 128 combined with `--smoke`) once per thread count in `--threads`
//! (default `1,2,4,8`) and then checks that every workload's
//! deterministic fingerprint is bit-identical across thread counts.
//! Requesting
//! more threads than the host exposes is an error unless
//! `--allow-oversubscribe` is passed, in which case the artifact records
//! `oversubscribed: true`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use congest_sim::trace::json::Json;
use rwbc_bench::outln;
use rwbc_bench::perf::{
    bench_filename, check_sweep_fingerprints, default_matrix, host_parallelism, run_scenario,
    smoke_matrix, smoke_sweep_matrix, sweep_matrix, validate_bench_json, Mode, Scenario, Topology,
};

struct Options {
    list: bool,
    smoke: bool,
    sweep: bool,
    allow_oversubscribe: bool,
    threads: Option<Vec<usize>>,
    scenarios: Vec<String>,
    trials: Option<usize>,
    warmup: usize,
    out_dir: PathBuf,
    tag: String,
    validate: Vec<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> &'static str {
    "usage: rwbc-bench [--list] [--smoke] [--sweep] [--threads LIST] \
     [--allow-oversubscribe] [--scenario NAME]... [--trials T] \
     [--warmup W] [--out-dir DIR] [--tag TAG]\n       rwbc-bench --validate FILE...\n       \
     rwbc-bench --compare BASELINE.json CURRENT.json"
}

fn parse_threads_list(raw: &str) -> Result<Vec<usize>, String> {
    let list: Vec<usize> = raw
        .split(',')
        .map(|part| part.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| "--threads expects a comma-separated list of positive integers".to_string())?;
    if list.is_empty() || list.contains(&0) {
        return Err("--threads expects a comma-separated list of positive integers".into());
    }
    Ok(list)
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        list: false,
        smoke: false,
        sweep: false,
        allow_oversubscribe: false,
        threads: None,
        scenarios: Vec::new(),
        trials: None,
        warmup: 1,
        out_dir: PathBuf::from("."),
        tag: String::new(),
        validate: Vec::new(),
        compare: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--list" => opts.list = true,
            "--smoke" => opts.smoke = true,
            "--sweep" => opts.sweep = true,
            "--allow-oversubscribe" => opts.allow_oversubscribe = true,
            "--threads" => opts.threads = Some(parse_threads_list(&value("--threads")?)?),
            "--scenario" => opts.scenarios.push(value("--scenario")?),
            "--trials" => {
                opts.trials = Some(
                    value("--trials")?
                        .parse()
                        .map_err(|_| "--trials expects a positive integer".to_string())?,
                );
            }
            "--warmup" => {
                opts.warmup = value("--warmup")?
                    .parse()
                    .map_err(|_| "--warmup expects a non-negative integer".to_string())?;
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value("--out-dir")?),
            "--tag" => opts.tag = value("--tag")?,
            "--validate" => {
                opts.validate.extend(args.by_ref().map(PathBuf::from));
                if opts.validate.is_empty() {
                    return Err("--validate expects at least one file".into());
                }
            }
            "--compare" => {
                let a = PathBuf::from(value("--compare")?);
                let b = args
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--compare expects two files")?;
                opts.compare = Some((a, b));
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

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn median_of(doc: &Json, path: &Path) -> Result<f64, String> {
    match doc.get("wall_clock_ms").and_then(|w| w.get("median")) {
        Some(Json::Float(f)) => Ok(*f),
        Some(Json::Int(i)) => Ok(*i as f64),
        _ => Err(format!("{}: missing wall_clock_ms.median", path.display())),
    }
}

/// Warns — loudly, on stderr — when two artifacts were produced in
/// different execution environments: a wall-clock ratio between a run
/// on a 4-core box and one on a 64-core box (or between an honest run
/// and an oversubscribed one) measures the machines, not the code.
fn warn_environment_mismatch(base_doc: &Json, cur_doc: &Json, baseline: &Path, current: &Path) {
    let host = |doc: &Json| doc.get("host_parallelism").and_then(Json::as_u64);
    let oversub = |doc: &Json| doc.get("oversubscribed").and_then(Json::as_bool);
    if let (Some(b), Some(c)) = (host(base_doc), host(cur_doc)) {
        if b != c {
            eprintln!(
                "WARNING: host_parallelism differs: {} ran on {b} hardware threads, \
                 {} on {c}; the speedup below compares machines, not code",
                baseline.display(),
                current.display()
            );
        }
    }
    if let (Some(b), Some(c)) = (oversub(base_doc), oversub(cur_doc)) {
        if b != c {
            eprintln!(
                "WARNING: oversubscription differs: {}={b}, {}={c}; the oversubscribed \
                 side measured scheduler time-slicing, not parallel speedup",
                baseline.display(),
                current.display()
            );
        }
    }
}

fn run_compare(baseline: &Path, current: &Path) -> Result<(), String> {
    let (base_doc, cur_doc) = (load_json(baseline)?, load_json(current)?);
    validate_bench_json(&base_doc).map_err(|e| format!("{}: {e}", baseline.display()))?;
    validate_bench_json(&cur_doc).map_err(|e| format!("{}: {e}", current.display()))?;
    warn_environment_mismatch(&base_doc, &cur_doc, baseline, current);
    let (base, cur) = (
        median_of(&base_doc, baseline)?,
        median_of(&cur_doc, current)?,
    );
    let speedup = base / cur.max(f64::MIN_POSITIVE);
    outln!(
        "baseline {:>10.2} ms  current {:>10.2} ms  speedup {speedup:.2}x",
        base,
        cur
    );
    // The validators guarantee every field read below.
    let fingerprint = |doc: &Json| {
        let field = |key| doc.get(key).and_then(Json::as_u64).unwrap_or_default();
        (
            field("rounds"),
            field("total_messages"),
            field("total_bits"),
        )
    };
    let (base_fp, cur_fp) = (fingerprint(&base_doc), fingerprint(&cur_doc));
    if base_fp == cur_fp {
        outln!("fingerprint (rounds, total_messages, total_bits): identical {base_fp:?}");
    } else {
        outln!(
            "fingerprint (rounds, total_messages, total_bits): baseline {base_fp:?}  \
             current {cur_fp:?}"
        );
    }
    let same_phases = base_doc.get("phase_breakdown") == cur_doc.get("phase_breakdown");
    outln!(
        "phase_breakdown: {}",
        if same_phases { "identical" } else { "differs" }
    );
    let peak = |doc: &Json| doc.get("peak_rss_bytes").and_then(Json::as_u64);
    match (peak(&base_doc), peak(&cur_doc)) {
        (Some(b), Some(c)) => outln!(
            "peak_rss_bytes: baseline {b}  current {c}  current/baseline {:.3}",
            c as f64 / b.max(1) as f64
        ),
        _ => outln!("peak_rss_bytes: n/a"),
    }
    Ok(())
}

fn select(opts: &Options) -> Result<Vec<Scenario>, String> {
    let matrix = if opts.sweep {
        let threads = opts.threads.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
        if opts.smoke {
            smoke_sweep_matrix(&threads)
        } else {
            sweep_matrix(&threads)
        }
    } else if opts.smoke {
        smoke_matrix()
    } else if let Some(threads) = &opts.threads {
        // An explicit --threads list is honored verbatim: the base
        // matrix plus one n = 4096 parallel scenario per t > 1 (never
        // silently clamped to the host's core count).
        let mut m = default_matrix(1);
        m.extend(
            threads
                .iter()
                .filter(|&&t| t > 1)
                .map(|&t| Scenario::new(Mode::Clean, Topology::Er, 4096, t)),
        );
        m
    } else {
        // No explicit list: size the one parallel scenario to the host.
        let threads_n = std::thread::available_parallelism().map_or(1, |p| p.get().min(8));
        default_matrix(threads_n)
    };
    if opts.scenarios.is_empty() {
        return Ok(matrix);
    }
    let mut picked = Vec::new();
    for want in &opts.scenarios {
        let found = matrix
            .iter()
            .find(|s| &s.name() == want)
            .ok_or_else(|| format!("unknown scenario `{want}` (try --list)"))?;
        picked.push(found.clone());
    }
    Ok(picked)
}

/// Rejects scenarios whose requested thread count exceeds the host's —
/// loudly, instead of silently measuring time-slicing — unless the user
/// opted in with `--allow-oversubscribe`.
fn check_oversubscription(scenarios: &[Scenario], opts: &Options) -> Result<(), String> {
    if opts.allow_oversubscribe {
        return Ok(());
    }
    let Some(host) = host_parallelism() else {
        return Ok(());
    };
    if let Some(s) = scenarios.iter().find(|s| s.threads as u64 > host) {
        return Err(format!(
            "scenario `{}` requests {} threads but this machine exposes {host}; \
             pass --allow-oversubscribe to run it anyway (the artifact will \
             record oversubscribed=true)",
            s.name(),
            s.threads
        ));
    }
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
        for path in &opts.validate {
            match load_json(path).and_then(|doc| {
                validate_bench_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
            }) {
                Ok(()) => outln!("{}: ok", path.display()),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    if let Some((baseline, current)) = &opts.compare {
        return match run_compare(baseline, current) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let scenarios = match select(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.list {
        for s in &scenarios {
            outln!("{}", s.name());
        }
        return ExitCode::SUCCESS;
    }

    if let Err(e) = check_oversubscription(&scenarios, &opts) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("error: creating {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }

    let (warmup, smoke) = if opts.smoke {
        (0, true)
    } else {
        (opts.warmup, false)
    };
    let mut results = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        let trials = opts
            .trials
            .unwrap_or_else(|| if smoke { 1 } else { scenario.default_trials() });
        let result = run_scenario(scenario, warmup, trials);
        let path = opts
            .out_dir
            .join(bench_filename(&opts.tag, &scenario.name()));
        let doc = result.to_json();
        if let Err(e) = validate_bench_json(&doc) {
            eprintln!("error: emitted JSON failed self-validation: {e}");
            return ExitCode::FAILURE;
        }
        let mut text = doc.to_json();
        text.push('\n');
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        outln!(
            "{:<24} median {:>9.2} ms  p95 {:>9.2} ms  rounds {:>6}  msgs {:>12}  -> {}",
            scenario.name(),
            result.median_ms(),
            result.p95_ms(),
            result.rounds,
            result.total_messages,
            path.display()
        );
        results.push(result);
    }
    // Every run doubles as a determinism gate: workloads that appear at
    // more than one thread count must fingerprint identically. Outside
    // a sweep the groups are singletons and this is a no-op.
    if let Err(e) = check_sweep_fingerprints(&results) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if opts.sweep {
        outln!("sweep fingerprints bit-identical across thread counts");
    }
    ExitCode::SUCCESS
}
