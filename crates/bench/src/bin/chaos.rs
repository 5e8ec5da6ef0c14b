//! `rwbc-chaos` — data-integrity chaos tooling.
//!
//! ```text
//! rwbc-chaos run    (--preset NAME | --plan FILE) [--reliable] [--n N] [--seed S]
//! rwbc-chaos fuzz   [--seed S] [--budget CASES]
//! rwbc-chaos shrink (--preset NAME | --plan FILE) [--property P]
//!                   [--reliable] [--max-tests T] [--out FILE]
//! rwbc-chaos replay --plan FILE [--property P] [--reliable]
//! rwbc-chaos presets
//! ```
//!
//! `run` executes the full RWBC pipeline on a small deterministic graph
//! under a fault plan and prints the degradation report. `fuzz` mutates
//! real encoded artifacts and feeds them to every decoder in the repo,
//! failing if any decode panics or if a whole checkpoint image restores
//! after a change (the CI gates). `shrink` minimizes a
//! failing plan to the smallest schedule that still violates the chosen
//! property (`walks-lost`, `not-clean`, or `run-error`) and writes the
//! repro as JSON. `replay` re-checks a previously shrunk plan file.

use std::path::PathBuf;
use std::process::ExitCode;

use congest_sim::trace::json::Json;
use rwbc_bench::chaos::{
    fuzz_all_codecs, plan_from_json, plan_to_json, preset, shrink_plan, ChaosProperty,
    ChaosWorkload, PRESET_NAMES,
};
use rwbc_bench::{outln, print_stdout};

struct Options {
    command: String,
    preset: Option<String>,
    plan: Option<PathBuf>,
    property: ChaosProperty,
    reliable: bool,
    n: Option<usize>,
    seed: u64,
    budget: usize,
    max_tests: usize,
    out: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: rwbc-chaos run    (--preset NAME | --plan FILE) [--reliable] [--n N] [--seed S]\n       \
     rwbc-chaos fuzz   [--seed S] [--budget CASES]\n       \
     rwbc-chaos shrink (--preset NAME | --plan FILE) [--property P] [--reliable] \
     [--max-tests T] [--out FILE]\n       \
     rwbc-chaos replay --plan FILE [--property P] [--reliable]\n       \
     rwbc-chaos presets\n\n\
     properties: walks-lost (default), not-clean, run-error"
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(|| usage().to_string())?;
    let mut opts = Options {
        command,
        preset: None,
        plan: None,
        property: ChaosProperty::WalksLost,
        reliable: false,
        n: None,
        seed: 0x000C_4A05,
        budget: 400,
        max_tests: 600,
        out: None,
    };
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--preset" => opts.preset = Some(value("--preset")?),
            "--plan" => opts.plan = Some(PathBuf::from(value("--plan")?)),
            "--property" => {
                let name = value("--property")?;
                opts.property = ChaosProperty::from_str_opt(&name)
                    .ok_or_else(|| format!("unknown property `{name}`"))?;
            }
            "--reliable" => opts.reliable = true,
            "--n" => {
                opts.n = Some(
                    value("--n")?
                        .parse()
                        .map_err(|_| "--n expects a positive integer".to_string())?,
                );
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer".to_string())?;
            }
            "--budget" => {
                opts.budget = value("--budget")?
                    .parse()
                    .map_err(|_| "--budget expects a positive integer".to_string())?;
            }
            "--max-tests" => {
                opts.max_tests = value("--max-tests")?
                    .parse()
                    .map_err(|_| "--max-tests expects a positive integer".to_string())?;
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--help" | "-h" => {
                outln!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(opts)
}

fn load_plan(opts: &Options) -> Result<congest_sim::FaultPlan, String> {
    if let Some(name) = &opts.preset {
        let (plan, _) = preset(name)
            .ok_or_else(|| format!("unknown preset `{name}` (try `rwbc-chaos presets`)"))?;
        return Ok(plan);
    }
    let path = opts
        .plan
        .as_ref()
        .ok_or("expected --preset NAME or --plan FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    plan_from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload(opts: &Options) -> ChaosWorkload {
    let mut w = ChaosWorkload {
        reliable: opts.reliable,
        ..ChaosWorkload::default()
    };
    if let Some(n) = opts.n {
        w.n = n;
    }
    w
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let plan = load_plan(opts)?;
    let w = workload(opts);
    let graph = w.build_graph();
    let cfg = w.build_config(&plan);
    let run =
        rwbc::distributed::approximate(&graph, &cfg).map_err(|e| format!("run failed: {e}"))?;
    let d = &run.degradation;
    // The chaos workload's reliable transport always seals its frames.
    outln!(
        "n {}  reliable {}  checksums {}",
        w.n,
        w.reliable,
        w.reliable
    );
    outln!(
        "clean {}  walks_lost {}  relaunched {}  subphases {}  cells_missing {}",
        d.is_clean(),
        d.walks_lost,
        d.walks_relaunched,
        d.walk_subphases,
        d.count_cells_missing
    );
    outln!(
        "corrupt_frames_detected {}  links_quarantined {}  target_redraws {}",
        d.corrupt_frames_detected,
        d.links_quarantined,
        d.target_redraws
    );
    Ok(())
}

fn cmd_fuzz(opts: &Options) -> Result<(), String> {
    let report = fuzz_all_codecs(opts.seed, opts.budget);
    outln!(
        "fuzz seed {:#x}  budget {} cases/codec",
        report.seed,
        opts.budget
    );
    for codec in &report.codecs {
        outln!(
            "{:<12} cases {:>6}  unchanged {:>4}  accepted {:>6}  rejected {:>6}  panics {}",
            codec.name,
            codec.cases,
            codec.unchanged,
            codec.accepted,
            codec.rejected,
            codec.panics.len()
        );
        for msg in &codec.panics {
            eprintln!("  PANIC: {msg}");
        }
    }
    let lenient: Vec<&str> = report.lenient_images().map(|c| c.name).collect();
    if !report.is_clean() {
        Err("decoder panicked on mutated input".into())
    } else if !lenient.is_empty() {
        Err(format!(
            "changed whole checkpoint images restored: {}",
            lenient.join(", ")
        ))
    } else {
        outln!(
            "{} cases, zero panics, no changed whole image restored",
            report.total_cases()
        );
        Ok(())
    }
}

fn cmd_shrink(opts: &Options) -> Result<(), String> {
    let plan = load_plan(opts)?;
    let w = workload(opts);
    if !w.fails(&plan, opts.property) {
        return Err(format!(
            "input plan does not fail `{}` on this workload; nothing to shrink",
            opts.property.as_str()
        ));
    }
    let outcome = shrink_plan(&w, &plan, opts.property, opts.max_tests);
    for step in &outcome.steps {
        outln!("  - {step}");
    }
    outln!(
        "shrunk in {} steps ({} pipeline runs), property `{}` still fails",
        outcome.steps.len(),
        outcome.tests,
        opts.property.as_str()
    );
    let mut text = plan_to_json(&outcome.plan).to_json();
    text.push('\n');
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
            outln!("minimal repro written to {}", path.display());
        }
        None => print_stdout(&text),
    }
    Ok(())
}

fn cmd_replay(opts: &Options) -> Result<(), String> {
    let plan = load_plan(opts)?;
    let w = workload(opts);
    if w.fails(&plan, opts.property) {
        outln!("plan still fails `{}`", opts.property.as_str());
        Ok(())
    } else {
        Err(format!(
            "plan no longer fails `{}` — repro is stale",
            opts.property.as_str()
        ))
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match opts.command.as_str() {
        "run" => cmd_run(&opts),
        "fuzz" => cmd_fuzz(&opts),
        "shrink" => cmd_shrink(&opts),
        "replay" => cmd_replay(&opts),
        "presets" => {
            for name in PRESET_NAMES {
                let (_, desc) = preset(name).expect("preset table out of sync");
                outln!("{name:<12} {desc}");
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
