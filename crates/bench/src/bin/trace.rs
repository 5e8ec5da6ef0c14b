//! `rwbc-trace` — record and inspect CONGEST simulator traces.
//!
//! ```text
//! rwbc-trace record OUT.jsonl [--preset NAME] [--seed S] [--quick]
//! rwbc-trace summarize FILE.jsonl
//! rwbc-trace timeline FILE.jsonl [--limit N]
//! rwbc-trace hot-edges FILE.jsonl [--top K]
//! rwbc-trace diff A.jsonl B.jsonl
//! rwbc-trace validate FILE.jsonl
//!
//! presets:
//!   clean  (default)  fault-free approximation run on the Fig. 1 graph
//!   chaos             5% Bernoulli drops behind reliable transport (E11)
//!   kills             permanent node crash + partition-tolerant recovery (E12)
//!   cut               exact collection on the lower-bound gadget, cut metered (E6)
//! ```
//!
//! Traces are line-delimited JSON with a stable schema (see the
//! `congest_sim::trace::jsonl` module docs). Everything except the
//! `elapsed_us` wall-clock field of `phase_end` lines is deterministic in
//! `(preset, seed)`; `diff` ignores that field.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use congest_sim::trace::jsonl::{decode_event, decode_trace, encode_event};
use congest_sim::trace::TRACE_SCHEMA_VERSION;
use congest_sim::{FaultPlan, JsonlTracer, NodeCrash, SimConfig, TraceEvent};
use rwbc::distributed::{
    approximate_traced, collect_and_solve_traced, DistributedConfig, Transport,
};
use rwbc::lower_bound::LowerBoundInstance;
use rwbc::monte_carlo::TargetStrategy;
use rwbc_bench::suite::e6::m_for;
use rwbc_bench::{outln, print_stdout};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rwbc-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(format!("missing subcommand\n{USAGE}"));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "record" => record(rest),
        "summarize" => summarize(rest),
        "timeline" => timeline(rest),
        "hot-edges" => hot_edges(rest),
        "diff" => diff(rest),
        "validate" => validate(rest),
        "--help" | "-h" | "help" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    }
}

const USAGE: &str = "usage:
  rwbc-trace record OUT.jsonl [--preset clean|chaos|kills|cut] [--seed S] [--quick]
  rwbc-trace summarize FILE.jsonl
  rwbc-trace timeline FILE.jsonl [--limit N]
  rwbc-trace hot-edges FILE.jsonl [--top K]
  rwbc-trace diff A.jsonl B.jsonl
  rwbc-trace validate FILE.jsonl";

/// Pulls `--flag VALUE` out of `args`, returning the remaining
/// positional arguments.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

// ---------------------------------------------------------------- record

fn record(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let preset = take_flag(&mut args, "--preset")?.unwrap_or_else(|| "clean".to_string());
    let seed: u64 = take_flag(&mut args, "--seed")?
        .map(|s| s.parse().map_err(|_| format!("bad seed '{s}'")))
        .transpose()?
        .unwrap_or(42);
    let quick = take_switch(&mut args, "--quick");
    let [out_path] = args.as_slice() else {
        return Err(format!("record takes exactly one output path\n{USAGE}"));
    };

    let file = File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    let mut tracer = JsonlTracer::new(BufWriter::new(file));
    let summary = match preset.as_str() {
        "clean" => record_approximate(&mut tracer, seed, quick, FaultPlan::default(), false, false),
        "chaos" => record_approximate(
            &mut tracer,
            seed,
            quick,
            FaultPlan::default().with_drop_probability(0.05),
            true,
            false,
        ),
        "kills" => record_approximate(&mut tracer, seed, quick, FaultPlan::default(), false, true),
        "cut" => record_cut(&mut tracer, seed, quick),
        other => return Err(format!("unknown preset '{other}' (clean|chaos|kills|cut)")),
    }?;
    let lines = tracer.lines();
    let mut out = tracer
        .finish()
        .map_err(|e| format!("write {out_path}: {e}"))?;
    out.flush().map_err(|e| format!("flush {out_path}: {e}"))?;
    outln!("wrote {lines} events to {out_path} (preset {preset}, seed {seed})");
    outln!("{summary}");
    Ok(())
}

fn record_approximate(
    tracer: &mut dyn congest_sim::Tracer,
    seed: u64,
    quick: bool,
    faults: FaultPlan,
    reliable: bool,
    kills: bool,
) -> Result<String, String> {
    let (g, labels) = rwbc_graph::generators::fig1_graph(3).expect("fig1 graph");
    let (k, l) = if quick { (60, 30) } else { (300, 60) };
    let mut cfg = DistributedConfig::builder()
        .walks(k)
        .length(l)
        .seed(seed)
        .target(TargetStrategy::Fixed(0))
        .transport(if reliable {
            Transport::Reliable { checksums: false }
        } else {
            Transport::default()
        })
        .build()
        .map_err(|e| e.to_string())?;
    let mut faults = faults;
    if kills {
        // E12-style standing damage: a clique member dies for good
        // mid-walk; the partition-tolerant pipeline detects, patches, and
        // relaunches.
        faults = faults.with_node_crash(NodeCrash {
            node: labels.left[1],
            crash_round: 30,
            recover_round: None,
        });
        cfg.transport = Transport::PartitionTolerant { retries: 3 };
    }
    cfg.sim = SimConfig::default()
        .with_seed(seed)
        .with_bandwidth_coeff(16)
        .with_faults(faults);
    let run = approximate_traced(&g, &cfg, tracer).map_err(|e| e.to_string())?;
    let mut s = String::new();
    s.push_str(&format!(
        "target {}  total rounds {}  compliant {}\n",
        run.target,
        run.total_rounds(),
        run.congest_compliant()
    ));
    s.push_str("walk phase:\n");
    s.push_str(&run.walk_stats.summary());
    s.push_str("count phase:\n");
    s.push_str(&run.count_stats.summary());
    Ok(s)
}

fn record_cut(
    tracer: &mut dyn congest_sim::Tracer,
    seed: u64,
    quick: bool,
) -> Result<String, String> {
    let n_subsets = if quick { 2 } else { 4 };
    let m = m_for(n_subsets);
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = LowerBoundInstance::random(m, n_subsets, &mut rng);
    let (graph, labels) = inst.build();
    let cut = labels.alice_bob_cut();
    let sim = SimConfig::default().with_seed(seed).with_cut(cut.clone());
    let run = collect_and_solve_traced(&graph, labels.p, sim, tracer).map_err(|e| e.to_string())?;
    let mut s = String::new();
    s.push_str(&format!(
        "gadget N={n_subsets} M={m}: {} nodes, {} cut edges, {} edges collected\n",
        graph.node_count(),
        cut.len(),
        run.edges_collected
    ));
    s.push_str(&run.stats.summary());
    Ok(s)
}

// ------------------------------------------------------------- inspection

fn load_trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("read {path}: {e}"))?;
    decode_trace(&text).map_err(|e| format!("{path}: {e}"))
}

fn summarize(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err(format!("summarize takes exactly one trace path\n{USAGE}"));
    };
    let events = load_trace(path)?;
    let p = congest_sim::trace::TraceProfile::from_events(&events);
    outln!("{path}: schema {}, {} events", p.schema, p.events);
    outln!();
    outln!(
        "  {:<16} {:>8} {:>12} {:>14} {:>12} {:>10}",
        "phase",
        "rounds",
        "messages",
        "bits",
        "cut bits",
        "ms"
    );
    for ph in &p.phases {
        outln!(
            "  {:<16} {:>8} {:>12} {:>14} {:>12} {:>10.1}",
            ph.name,
            ph.rounds,
            ph.messages,
            ph.bits,
            ph.cut_bits,
            ph.elapsed_us as f64 / 1000.0
        );
    }
    outln!();
    outln!(
        "  totals: {} messages, {} bits over {} traced rounds",
        p.total_messages(),
        p.total_bits(),
        p.rounds.len()
    );
    let t = &p.totals;
    outln!(
        "  faults: {} dropped, {} duplicated, {} delayed, {} node-down, {} node-up",
        t.dropped,
        t.duplicated,
        t.delayed,
        t.node_down,
        t.node_up
    );
    outln!(
        "  delivery: {} retransmissions, {} duplicates suppressed, {} dead links",
        t.retransmissions,
        t.duplicates_suppressed,
        t.dead_links
    );
    outln!();
    outln!("  bits per round:");
    print_stdout(&p.bits_per_round.render(40));
    if !p.edges.is_empty() {
        outln!();
        outln!("  hottest edges:");
        for ((from, to), e) in p.hottest_edges(5) {
            outln!(
                "    {from:>4} -> {to:<4} {:>12} bits  {:>8} msgs  peak {:>6} bits/round{}",
                e.bits,
                e.messages,
                e.max_bits_round,
                if e.cut { "  [cut]" } else { "" }
            );
        }
    }
    Ok(())
}

fn timeline(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let limit: usize = take_flag(&mut args, "--limit")?
        .map(|s| s.parse().map_err(|_| format!("bad limit '{s}'")))
        .transpose()?
        .unwrap_or(50);
    let [path] = args.as_slice() else {
        return Err(format!("timeline takes exactly one trace path\n{USAGE}"));
    };
    let events = load_trace(path)?;
    let p = congest_sim::trace::TraceProfile::from_events(&events);
    let peak = p.rounds.iter().map(|r| r.bits).max().unwrap_or(0);
    outln!(
        "  {:<16} {:>6} {:>10} {:>12} {:>9} {:>7} {:>8} {:>5}",
        "phase",
        "round",
        "messages",
        "bits",
        "cut bits",
        "drops",
        "retrans",
        "dead"
    );
    for r in p.rounds.iter().take(limit) {
        let bar = if peak == 0 {
            0
        } else {
            ((r.bits as f64 / peak as f64) * 24.0).ceil() as usize
        };
        outln!(
            "  {:<16} {:>6} {:>10} {:>12} {:>9} {:>7} {:>8} {:>5}  {}",
            p.phases[r.phase].name,
            r.round,
            r.messages,
            r.bits,
            r.cut_bits,
            r.dropped,
            r.retransmissions,
            r.dead_links,
            "#".repeat(bar)
        );
    }
    if p.rounds.len() > limit {
        outln!(
            "  ... {} more rounds (raise --limit)",
            p.rounds.len() - limit
        );
    }
    let cut = p.cut_timeline();
    if !cut.is_empty() {
        let total: u64 = cut.iter().map(|&(_, _, b)| b).sum();
        outln!();
        outln!(
            "  cut traffic: {} bits over {} rounds (first at {} round {}, last at {} round {})",
            total,
            cut.len(),
            cut[0].0,
            cut[0].1,
            cut[cut.len() - 1].0,
            cut[cut.len() - 1].1,
        );
    }
    Ok(())
}

fn hot_edges(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let top: usize = take_flag(&mut args, "--top")?
        .map(|s| s.parse().map_err(|_| format!("bad top '{s}'")))
        .transpose()?
        .unwrap_or(10);
    let [path] = args.as_slice() else {
        return Err(format!("hot-edges takes exactly one trace path\n{USAGE}"));
    };
    let events = load_trace(path)?;
    let p = congest_sim::trace::TraceProfile::from_events(&events);
    if p.edges.is_empty() {
        return Err("trace has no per-edge samples (recorded without edge traffic?)".to_string());
    }
    outln!(
        "  {:>6} {:>6} {:>14} {:>10} {:>16} {:>5}",
        "from",
        "to",
        "bits",
        "messages",
        "peak bits/round",
        "cut"
    );
    for ((from, to), e) in p.hottest_edges(top) {
        outln!(
            "  {from:>6} {to:>6} {:>14} {:>10} {:>16} {:>5}",
            e.bits,
            e.messages,
            e.max_bits_round,
            if e.cut { "yes" } else { "" }
        );
    }
    Ok(())
}

fn diff(args: &[String]) -> Result<(), String> {
    let [path_a, path_b] = args else {
        return Err(format!("diff takes exactly two trace paths\n{USAGE}"));
    };
    let mut a = load_trace(path_a)?;
    let mut b = load_trace(path_b)?;
    for e in a.iter_mut().chain(b.iter_mut()) {
        e.strip_wall_clock();
    }
    let mut divergence = None;
    for (i, (ea, eb)) in a.iter().zip(&b).enumerate() {
        if ea != eb {
            divergence = Some(i);
            break;
        }
    }
    match divergence {
        None if a.len() == b.len() => {
            outln!(
                "traces identical: {} events (wall-clock fields ignored)",
                a.len()
            );
            Ok(())
        }
        None => {
            let (longer, shorter) = if a.len() > b.len() {
                (path_a, path_b)
            } else {
                (path_b, path_a)
            };
            Err(format!(
                "{shorter} is a strict prefix of {longer}: {} vs {} events",
                a.len().min(b.len()),
                a.len().max(b.len())
            ))
        }
        Some(i) => Err(format!(
            "first divergence at event {i}:\n  {path_a}: {}\n  {path_b}: {}",
            encode_event(&a[i]),
            encode_event(&b[i])
        )),
    }
}

fn validate(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err(format!("validate takes exactly one trace path\n{USAGE}"));
    };
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("read {path}: {e}"))?;
    let mut checked = 0u64;
    let mut schema = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = decode_event(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        // Canonical round-trip: re-encoding the decoded event and
        // decoding again must reproduce it exactly.
        let reencoded = encode_event(&event);
        let again = decode_event(&reencoded)
            .map_err(|e| format!("{path}:{}: re-decode failed: {e}", lineno + 1))?;
        if again != event {
            return Err(format!(
                "{path}:{}: round-trip mismatch:\n  decoded:  {event:?}\n  re-coded: {again:?}",
                lineno + 1
            ));
        }
        if let TraceEvent::Meta { schema: s } = event {
            schema = Some(s);
        }
        checked += 1;
    }
    match schema {
        Some(s) if s <= TRACE_SCHEMA_VERSION => {
            outln!("{path}: {checked} lines valid (schema {s})");
            Ok(())
        }
        Some(s) => Err(format!(
            "{path}: schema {s} is newer than this tool supports ({TRACE_SCHEMA_VERSION})"
        )),
        None => Err(format!("{path}: no meta header line")),
    }
}
