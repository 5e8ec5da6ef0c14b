//! Chaos tooling behind the `rwbc-chaos` binary: a deterministic decode
//! fuzzer and a minimal-repro shrinker for fault schedules.
//!
//! # Decode fuzzing
//!
//! Every byte the repo decodes — JSONL trace lines, JSON documents,
//! `BENCH_*.json` schemas, walk/count message payloads, checkpoint
//! images, `rwbc-serve` request/response frames and mid-solve
//! `StepSolver` images — must yield a typed error on malformed input,
//! never a panic.
//! [`fuzz_all_codecs`] checks exactly that: it builds a *valid* corpus
//! for each codec (structure-aware, so mutations land near real field
//! boundaries instead of dying in framing), applies seeded byte/bit
//! mutations, and runs every decoder under `catch_unwind`. The whole
//! harness is deterministic: same seed, same corpus, same mutations,
//! same verdict — a CI panic is reproducible locally with
//! `rwbc-chaos fuzz --seed <s>`.
//!
//! # Chaos shrinking
//!
//! When a fault schedule makes the pipeline misbehave, the plan that
//! found the bug is rarely the plan you want in the bug report.
//! [`shrink_plan`] greedily minimizes a failing [`FaultPlan`] — zeroing
//! probabilities, dropping scheduled faults, narrowing windows — while
//! re-checking the failure after each candidate step, and returns the
//! smallest plan it could still make fail. Plans round-trip through a
//! hand-rolled JSON codec ([`plan_to_json`] / [`plan_from_json`]) so
//! repros are diffable, committable artifacts.

use std::panic::{catch_unwind, AssertUnwindSafe};

use congest_sim::algorithms::Flood;
use congest_sim::trace::json::Json;
use congest_sim::trace::jsonl::{decode_event, decode_trace, encode_event};
use congest_sim::wire::{read_section, BitReader, BitWriter};
use congest_sim::{
    FaultPlan, LinkCorruption, LinkOutage, MemoryTracer, Message, NodeCrash, Registry, Reliable,
    SimConfig, Simulator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rwbc::distributed::messages::{CountMsg, WalkBatch, WalkToken};
use rwbc::distributed::{approximate, CountMode, DistributedConfig, SketchCountMsg, Transport};
use rwbc::monte_carlo::TargetStrategy;
use rwbc_graph::generators::connected_gnp;
use rwbc_graph::Graph;
use rwbc_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    DaemonState, HealthReport, MetricsReport, Request as ServeRequest, RequestEnvelope,
    Response as ServeResponse, SloFlags,
};

use crate::perf::validate_bench_json;

// ---------------------------------------------------------------------
// Decode fuzzing
// ---------------------------------------------------------------------

/// Outcome of fuzzing one codec.
#[derive(Debug, Clone)]
pub struct CodecReport {
    /// Codec name (`jsonl`, `jsonl-trace`, `json`, `bench-json`,
    /// `walk-batch`, `count-msg`, `checkpoint`, `serve-request`,
    /// `serve-response`, `serve-frame`, `serve-step-checkpoint`,
    /// `exact-step-checkpoint`, `sketch-count-msg`,
    /// `sketch-step-checkpoint`, the `-resealed` variants of the four
    /// checkpoint codecs, `exact-mid-count-checkpoint-resealed` and
    /// `step-sections-resealed`).
    pub name: &'static str,
    /// Mutated inputs, `unchanged` ones included.
    pub cases: usize,
    /// Mutations that left the corpus item as it was (a byte replaced by
    /// itself, a truncation at the end): not fed to the decoder, and
    /// neither accepts nor rejects.
    pub unchanged: usize,
    /// Changed inputs the decoder still accepted (mutation landed in
    /// slack).
    pub accepted: usize,
    /// Inputs rejected with a typed error — the expected outcome.
    pub rejected: usize,
    /// Panic messages, one per panicking input: always a bug.
    pub panics: Vec<String>,
}

/// The codecs that restore whole checkpoint images as they are written.
/// Every byte of such an image is its prelude or a sealed section that
/// its decoder reads to the end, so every change to it must be refused.
pub const WHOLE_IMAGE_CODECS: [&str; 4] = [
    "checkpoint",
    "serve-step-checkpoint",
    "exact-step-checkpoint",
    "sketch-step-checkpoint",
];

/// Outcome of a full fuzzing run; `is_clean` and an empty
/// `lenient_images` are the CI gates.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The seed the whole run derives from.
    pub seed: u64,
    /// Per-codec outcomes.
    pub codecs: Vec<CodecReport>,
}

impl FuzzReport {
    /// True when no decoder panicked on any mutated input.
    pub fn is_clean(&self) -> bool {
        self.codecs.iter().all(|c| c.panics.is_empty())
    }

    /// Total mutated inputs across all codecs.
    pub fn total_cases(&self) -> usize {
        self.codecs.iter().map(|c| c.cases).sum()
    }

    /// The [`WHOLE_IMAGE_CODECS`] that accepted a changed image.
    pub fn lenient_images(&self) -> impl Iterator<Item = &CodecReport> {
        self.codecs
            .iter()
            .filter(|c| WHOLE_IMAGE_CODECS.contains(&c.name) && c.accepted > 0)
    }
}

/// Applies 1–4 seeded mutations (bit flip, byte substitution, range
/// deletion, random insertion, truncation, chunk duplication) to a
/// corpus item.
fn mutate(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let ops = 1 + rng.gen_range(0..4u64) as usize;
    for _ in 0..ops {
        if out.is_empty() {
            out.push(rng.gen_range(0..256u64) as u8);
            continue;
        }
        match rng.gen_range(0..6u64) {
            0 => {
                let bit = rng.gen_range(0..(out.len() as u64 * 8)) as usize;
                out[bit / 8] ^= 0x80 >> (bit % 8);
            }
            1 => {
                let i = rng.gen_range(0..out.len() as u64) as usize;
                out[i] = rng.gen_range(0..256u64) as u8;
            }
            2 => {
                let i = rng.gen_range(0..out.len() as u64) as usize;
                let len = (rng.gen_range(0..8u64) as usize + 1).min(out.len() - i);
                out.drain(i..i + len);
            }
            3 => {
                let i = rng.gen_range(0..=out.len() as u64) as usize;
                let extra: Vec<u8> = (0..rng.gen_range(1..6u64))
                    .map(|_| rng.gen_range(0..256u64) as u8)
                    .collect();
                out.splice(i..i, extra);
            }
            4 => {
                let keep = rng.gen_range(0..=out.len() as u64) as usize;
                out.truncate(keep);
            }
            _ => {
                let i = rng.gen_range(0..out.len() as u64) as usize;
                let len = (rng.gen_range(0..8u64) as usize + 1).min(out.len() - i);
                let chunk: Vec<u8> = out[i..i + len].to_vec();
                out.splice(i..i, chunk);
            }
        }
    }
    out
}

/// Runs `decode` on `budget` `mutator` mutations of `corpus` items,
/// counting accepts/rejects and catching panics; a mutation that left
/// its item as it was is only counted as unchanged. The default panic
/// hook is suppressed for the duration so expected rejections stay
/// quiet.
fn fuzz_codec(
    name: &'static str,
    corpus: &[Vec<u8>],
    budget: usize,
    rng: &mut StdRng,
    mutator: fn(&[u8], &mut StdRng) -> Vec<u8>,
    mut decode: impl FnMut(&[u8]) -> bool,
) -> CodecReport {
    let mut report = CodecReport {
        name,
        cases: 0,
        unchanged: 0,
        accepted: 0,
        rejected: 0,
        panics: Vec::new(),
    };
    assert!(!corpus.is_empty(), "codec {name} has an empty corpus");
    for case in 0..budget {
        let item = &corpus[case % corpus.len()];
        let mangled = mutator(item, rng);
        report.cases += 1;
        if mangled == *item {
            report.unchanged += 1;
            continue;
        }
        match catch_unwind(AssertUnwindSafe(|| decode(&mangled))) {
            Ok(true) => report.accepted += 1,
            Ok(false) => report.rejected += 1,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                report.panics.push(format!("{name} case {case}: {msg}"));
            }
        }
    }
    report
}

/// A checkpoint image taken apart: its 16-byte prelude and each sealed
/// section's payload, to the end of the image.
struct Sealed<'a> {
    prelude: &'a [u8],
    sections: Vec<&'a [u8]>,
}

impl<'a> Sealed<'a> {
    /// Splits a corpus image.
    fn split(image: &'a [u8]) -> Sealed<'a> {
        let (prelude, rest) = image.split_at(16);
        let mut r = BitReader::new(rest);
        let mut sections = Vec::new();
        while r.remaining_bits() > 0 {
            sections.push(read_section(&mut r, "corpus").expect("corpus image section"));
        }
        Sealed { prelude, sections }
    }

    /// The image with section `at`'s payload replaced by `payload`, each
    /// section under a fresh checksum.
    fn reseal(&self, at: usize, payload: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bytes(self.prelude);
        for (i, &section) in self.sections.iter().enumerate() {
            w.section(|w| w.write_bytes(if i == at { payload } else { section }));
        }
        w.finish()
    }

    /// Mutates the payload of one of the first `among` sections and
    /// re-seals the image.
    fn mutate_one(&self, among: usize, rng: &mut StdRng) -> Vec<u8> {
        let at = rng.gen_range(0..among as u64) as usize;
        self.reseal(at, &mutate(self.sections[at], rng))
    }
}

/// Mutates one section payload of an engine image (header, stats, rngs,
/// programs, pending or delayed) and re-seals it, so the damage reaches
/// the decoder behind the checksum.
fn mutate_engine_section(image: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let sealed = Sealed::split(image);
    sealed.mutate_one(sealed.sections.len(), rng)
}

/// [`mutate_engine_section`] on the engine image nested in a
/// `StepSolver` image (the header, phase metadata and engine-image
/// sections), re-sealing the engine-image section around it too.
fn mutate_step_engine_section(image: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let sealed = Sealed::split(image);
    sealed.reseal(2, &mutate_engine_section(sealed.sections[2], rng))
}

/// Mutates a `StepSolver` image's own header or phase-metadata section
/// (not the nested engine image) and re-seals it.
fn mutate_step_section(image: &[u8], rng: &mut StdRng) -> Vec<u8> {
    Sealed::split(image).mutate_one(2, rng)
}

/// A small faulty traced run whose artifacts feed the corpora: real
/// JSONL lines and a mid-run checkpoint image (plus the graph/config
/// that image decodes against).
fn corpus_run(seed: u64) -> (Vec<Vec<u8>>, Vec<u8>, Graph, SimConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = connected_gnp(12, 0.4, 50, &mut rng).expect("corpus graph");
    let faults = FaultPlan::default()
        .with_drop_probability(0.2)
        .with_duplicate_probability(0.1)
        .with_delay_probability(0.1)
        .with_corrupt_probability(0.2)
        .with_link_outage(LinkOutage {
            u: 0,
            v: 1,
            from_round: 1,
            until_round: 3,
        })
        .with_node_crash(NodeCrash {
            node: 2,
            crash_round: 2,
            recover_round: Some(4),
        });
    let cfg = SimConfig::default()
        .with_seed(seed)
        .with_bandwidth_coeff(48)
        .with_faults(faults);
    let mut tracer = MemoryTracer::new();
    let mut sim = Simulator::new(&g, cfg.clone(), |v| {
        Reliable::new(Flood::new(v, 0)).with_checksums()
    })
    .with_tracer(&mut tracer);
    sim.run().expect("corpus run");
    drop(sim);
    let lines: Vec<Vec<u8>> = tracer
        .into_events()
        .iter()
        .map(|e| encode_event(e).into_bytes())
        .collect();

    // A second, unwrapped run cut mid-flight for the checkpoint corpus
    // (checkpointing requires the program itself to be `WireState`, so
    // this one floods without the reliable adapter).
    let mut sim = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
    for _ in 0..3 {
        if sim.step().expect("corpus checkpoint run") {
            break;
        }
    }
    let image = sim.checkpoint();
    (lines, image, g, cfg)
}

/// Fuzzes every decode surface with `budget` mutated inputs each,
/// deterministically from `seed`. The acceptance bars are zero panics
/// and no changed image accepted by a [`WHOLE_IMAGE_CODECS`] codec; the
/// other accept/reject splits are informational.
pub fn fuzz_all_codecs(seed: u64, budget: usize) -> FuzzReport {
    let (jsonl_lines, image, corpus_graph, corpus_cfg) = corpus_run(seed ^ 0x00C0_FFEE);
    let mut rng = StdRng::seed_from_u64(seed);
    // Quiet the panic hook: a caught decoder panic is *reported*, not
    // printed mid-run.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut codecs = Vec::new();

    codecs.push(fuzz_codec(
        "jsonl",
        &jsonl_lines,
        budget,
        &mut rng,
        mutate,
        |b| decode_event(&String::from_utf8_lossy(b)).is_ok(),
    ));

    let whole_trace: Vec<Vec<u8>> = vec![jsonl_lines.join(&b"\n"[..])];
    codecs.push(fuzz_codec(
        "jsonl-trace",
        &whole_trace,
        budget,
        &mut rng,
        mutate,
        |b| decode_trace(&String::from_utf8_lossy(b)).is_ok(),
    ));

    let json_corpus: Vec<Vec<u8>> = vec![
        plan_to_json(&preset("blizzard").expect("preset").0)
            .to_json()
            .into_bytes(),
        br#"{"a":[1,2.5,null,true,"xA\n"],"b":{"c":[[]]}}"#.to_vec(),
        br#"[{"deep":{"deeper":{"deepest":[1,2,3]}}},"tail"]"#.to_vec(),
    ];
    codecs.push(fuzz_codec(
        "json",
        &json_corpus,
        budget,
        &mut rng,
        mutate,
        |b| Json::parse(&String::from_utf8_lossy(b)).is_ok(),
    ));

    let bench_corpus: Vec<Vec<u8>> = vec![br#"{"schema_version":3,"scenario":"clean-er-n128-t1","mode":"clean","topology":"er","n":128,"threads":1,"params":{"walks":4,"length":64,"seed":42},"warmup":0,"trials":1,"wall_clock_ms":{"median":1.5,"p95":1.5,"min":1.5,"max":1.5,"samples":[1.5]},"rounds":100,"total_messages":1000,"total_bits":9000,"peak_rss_bytes":null,"host_parallelism":1,"effective_threads":1,"granularity":16,"oversubscribed":false,"count_mode":"exact","sketch_suppressed":0,"phase_breakdown":{"walk":{"rounds":60,"messages":800,"bits":7000},"count":{"rounds":40,"messages":200,"bits":2000},"collect":null}}"#.to_vec()];
    codecs.push(fuzz_codec(
        "bench-json",
        &bench_corpus,
        budget,
        &mut rng,
        mutate,
        |b| match Json::parse(&String::from_utf8_lossy(b)) {
            Ok(doc) => validate_bench_json(&doc).is_ok(),
            Err(_) => false,
        },
    ));

    let n = 300;
    let len_bits = 7;
    let batch_corpus: Vec<Vec<u8>> = (0..4)
        .map(|i| {
            let tokens: Vec<WalkToken> = (0..=i)
                .map(|t| WalkToken {
                    source: (37 * (t + 1) + i) % n,
                    remaining: (1 + 13 * t as u32) & 0x7F,
                })
                .collect();
            WalkBatch::new(&tokens, len_bits as u8)
                .expect("at most four tokens")
                .encode(n)
        })
        .collect();
    codecs.push(fuzz_codec(
        "walk-batch",
        &batch_corpus,
        budget,
        &mut rng,
        mutate,
        |b| WalkBatch::decode(b, n, len_bits as u8).is_some(),
    ));

    let count_corpus: Vec<Vec<u8>> = [1u64, 255, 4097]
        .iter()
        .map(|&scaled| {
            CountMsg {
                scaled,
                value_bits: 13,
            }
            .encode(n)
        })
        .collect();
    codecs.push(fuzz_codec(
        "count-msg",
        &count_corpus,
        budget,
        &mut rng,
        mutate,
        |b| CountMsg::decode(b, 13).is_some(),
    ));

    let checkpoint_corpus = vec![image];
    let restore_flood =
        |b: &[u8]| Simulator::<Flood>::restore(&corpus_graph, corpus_cfg.clone(), b).is_ok();
    codecs.push(fuzz_codec(
        "checkpoint",
        &checkpoint_corpus,
        budget,
        &mut rng,
        mutate,
        restore_flood,
    ));

    // --- rwbc-serve wire surfaces -----------------------------------

    let request_corpus: Vec<Vec<u8>> = [
        RequestEnvelope {
            deadline_ms: 250,
            request: ServeRequest::Centrality { node: 17 },
        },
        RequestEnvelope {
            deadline_ms: 0,
            request: ServeRequest::TopK { k: 8 },
        },
        RequestEnvelope {
            deadline_ms: 1000,
            request: ServeRequest::Stats,
        },
        RequestEnvelope {
            deadline_ms: 0,
            request: ServeRequest::Drain,
        },
        RequestEnvelope {
            deadline_ms: 0,
            request: ServeRequest::Metrics,
        },
    ]
    .iter()
    .map(encode_request)
    .collect();
    codecs.push(fuzz_codec(
        "serve-request",
        &request_corpus,
        budget,
        &mut rng,
        mutate,
        |b| decode_request(b).is_ok(),
    ));

    // A populated telemetry report: one instrument of each kind, so
    // the nested `MetricsSnapshot` codec (names, counters, gauges,
    // histogram bucket arrays, f64 burn rates) is in the mutation
    // corpus, not just empty-registry frames.
    fn metrics_report_corpus() -> MetricsReport {
        let registry = Registry::default();
        registry.counter("serve_requests_total").add(17);
        registry.gauge("serve_queue_depth").set(3);
        registry.histogram("serve_request_latency_us").record(800);
        MetricsReport {
            snapshot: registry.snapshot(),
            uptime_ms: 98_765,
            last_checkpoint_age_ms: None,
            burn_fast: 2.5,
            burn_slow: 0.125,
        }
    }

    let response_corpus: Vec<Vec<u8>> = [
        ServeResponse::Value {
            node: 17,
            value: 0.125,
            slo: SloFlags {
                degraded: true,
                resumed: true,
                walks_lost: 3,
                count_cells_missing: 1,
            },
        },
        ServeResponse::Ranking {
            top: vec![(4, 0.9), (2, 0.5), (0, 0.25)],
            slo: SloFlags::default(),
        },
        ServeResponse::Health(HealthReport {
            state: DaemonState::Serving,
            ready: true,
            phase: 2,
            rounds_completed: 321,
            slo: SloFlags::default(),
            uptime_ms: 12_345,
            last_checkpoint_age_ms: Some(678),
            burn_fast: 0.25,
            burn_slow: 0.03125,
        }),
        ServeResponse::Metrics(Box::new(metrics_report_corpus())),
        ServeResponse::Overloaded { retry_after_ms: 10 },
        ServeResponse::Error {
            reason: "node 999 out of range (n=64)".to_string(),
        },
    ]
    .iter()
    .map(encode_response)
    .collect();
    codecs.push(fuzz_codec(
        "serve-response",
        &response_corpus,
        budget,
        &mut rng,
        mutate,
        |b| decode_response(b).is_ok(),
    ));

    // The framing layer itself: length prefix + CRC + payload, mutated
    // whole. `read_frame` must reject torn/oversized/mismatched frames
    // typed, never panic or over-allocate.
    let framed_corpus: Vec<Vec<u8>> = request_corpus
        .iter()
        .map(|payload| {
            let mut framed = Vec::new();
            write_frame(&mut framed, payload).expect("framing into a Vec");
            framed
        })
        .collect();
    codecs.push(fuzz_codec(
        "serve-frame",
        &framed_corpus,
        budget,
        &mut rng,
        mutate,
        |b| read_frame(&mut &b[..]).is_ok(),
    ));

    // A mid-solve StepSolver image — the daemon's crash-recovery
    // surface. Any mutation must yield a typed error, never a panic or
    // a silently-different resume.
    let step_cfg = DistributedConfig::builder()
        .walks(2)
        .length(16)
        .seed(seed ^ 0x51E9)
        .target(TargetStrategy::Fixed(0))
        .build()
        .expect("step corpus params");
    let mut step_solver =
        rwbc::distributed::StepSolver::new(&corpus_graph, step_cfg.clone()).expect("step solver");
    for _ in 0..3 {
        if step_solver.step().expect("step corpus run") {
            break;
        }
    }
    let step_corpus = vec![step_solver.checkpoint().expect("step corpus image")];
    let restore_step = |b: &[u8]| {
        rwbc::distributed::StepSolver::restore(&corpus_graph, step_cfg.clone(), b).is_ok()
    };
    codecs.push(fuzz_codec(
        "serve-step-checkpoint",
        &step_corpus,
        budget,
        &mut rng,
        mutate,
        restore_step,
    ));

    // A mid-count exact StepSolver image: phase tag 1 and a
    // CountProgram engine image holding the program's own pairs and
    // cells as it stores them.
    let mut exact_solver =
        rwbc::distributed::StepSolver::new(&corpus_graph, step_cfg.clone()).expect("step solver");
    while exact_solver.phase() != rwbc::distributed::SolvePhase::Count {
        exact_solver.step().expect("exact corpus run");
    }
    exact_solver.step().expect("exact corpus run");
    let exact_step_corpus = vec![exact_solver.checkpoint().expect("exact corpus image")];
    codecs.push(fuzz_codec(
        "exact-step-checkpoint",
        &exact_step_corpus,
        budget,
        &mut rng,
        mutate,
        restore_step,
    ));

    // --- sketch count-phase surfaces --------------------------------

    // The per-round sketch frame (bucket index + scaled magnitude).
    // Its fields are fixed-width, so every mutation still parses — the
    // bar here is purely "never panic, never over-read".
    let sketch_msg_corpus: Vec<Vec<u8>> = [(0u32, 1u64), (7, 255), (255, 40_961)]
        .iter()
        .map(|&(bucket, scaled)| {
            SketchCountMsg {
                bucket,
                scaled,
                precision: 8,
                value_bits: 17,
            }
            .encode(n)
        })
        .collect();
    codecs.push(fuzz_codec(
        "sketch-count-msg",
        &sketch_msg_corpus,
        budget,
        &mut rng,
        mutate,
        |b| SketchCountMsg::decode(b, 8, 17).is_some(),
    ));

    // A mid-count sketch-mode StepSolver image: phase tag 3 and a
    // SketchCountProgram engine image.
    let sketch_cfg = DistributedConfig::builder()
        .walks(2)
        .length(16)
        .seed(seed ^ 0x5CE7)
        .target(TargetStrategy::Fixed(0))
        .count_mode(CountMode::Sketch { precision: 3 })
        .build()
        .expect("sketch corpus params");
    let mut sketch_solver = rwbc::distributed::StepSolver::new(&corpus_graph, sketch_cfg.clone())
        .expect("sketch solver");
    while sketch_solver.phase() != rwbc::distributed::SolvePhase::Count {
        sketch_solver.step().expect("sketch corpus run");
    }
    sketch_solver.step().expect("sketch corpus run");
    let sketch_step_corpus = vec![sketch_solver.checkpoint().expect("sketch corpus image")];
    let restore_sketch = |b: &[u8]| {
        rwbc::distributed::StepSolver::restore(&corpus_graph, sketch_cfg.clone(), b).is_ok()
    };
    codecs.push(fuzz_codec(
        "sketch-step-checkpoint",
        &sketch_step_corpus,
        budget,
        &mut rng,
        mutate,
        restore_sketch,
    ));

    // --- re-sealed checkpoint sections ------------------------------

    // A whole-image mutation almost always fails a section checksum, so
    // it rarely reaches the program decoders behind `read_section`.
    // These four mutate one section payload and re-seal it. They come
    // last, so the codecs above keep their share of the RNG stream.
    codecs.push(fuzz_codec(
        "checkpoint-resealed",
        &checkpoint_corpus,
        budget,
        &mut rng,
        mutate_engine_section,
        restore_flood,
    ));
    codecs.push(fuzz_codec(
        "serve-step-checkpoint-resealed",
        &step_corpus,
        budget,
        &mut rng,
        mutate_step_engine_section,
        restore_step,
    ));
    codecs.push(fuzz_codec(
        "exact-step-checkpoint-resealed",
        &exact_step_corpus,
        budget,
        &mut rng,
        mutate_step_engine_section,
        restore_step,
    ));
    codecs.push(fuzz_codec(
        "sketch-step-checkpoint-resealed",
        &sketch_step_corpus,
        budget,
        &mut rng,
        mutate_step_engine_section,
        restore_sketch,
    ));
    // An exact image halfway through the count phase, so the cell lists
    // behind the re-sealed section hold half of every column, not one
    // round of cells. It comes after the four above for the same reason.
    for _ in 0..corpus_graph.node_count() / 2 - 1 {
        exact_solver.step().expect("exact corpus run");
    }
    let mid_count_corpus = vec![exact_solver.checkpoint().expect("mid-count corpus image")];
    codecs.push(fuzz_codec(
        "exact-mid-count-checkpoint-resealed",
        &mid_count_corpus,
        budget,
        &mut rng,
        mutate_step_engine_section,
        restore_step,
    ));
    // The step image's own header and phase metadata, re-sealed, in a
    // walk-phase, a mid-count and a finished image: the plan, phase-tag
    // and count-mode checks and the done image's centrality, stats and
    // degradation decoders.
    exact_solver.run_to_completion().expect("exact corpus run");
    let step_sections_corpus = vec![
        step_corpus[0].clone(),
        mid_count_corpus[0].clone(),
        exact_solver.checkpoint().expect("done corpus image"),
    ];
    codecs.push(fuzz_codec(
        "step-sections-resealed",
        &step_sections_corpus,
        budget,
        &mut rng,
        mutate_step_section,
        restore_step,
    ));

    std::panic::set_hook(hook);
    FuzzReport { seed, codecs }
}

// ---------------------------------------------------------------------
// FaultPlan <-> JSON
// ---------------------------------------------------------------------

fn round_to_json(round: usize) -> Json {
    if round == usize::MAX {
        // `null` marks "forever" — usize::MAX has no i64 representation.
        Json::Null
    } else {
        Json::Int(round as i64)
    }
}

fn round_from_json(v: Option<&Json>, what: &str) -> Result<usize, String> {
    match v {
        None | Some(Json::Null) => Ok(usize::MAX),
        Some(j) => j
            .as_u64()
            .map(|r| r as usize)
            .ok_or_else(|| format!("`{what}` is not a round number or null")),
    }
}

fn prob_from_json(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        None => Ok(0.0),
        Some(Json::Int(i)) if *i >= 0 => Ok(*i as f64),
        Some(Json::Float(f)) => Ok(*f),
        Some(_) => Err(format!("`{key}` is not a probability")),
    }
}

/// Serializes a fault plan to the committable repro format.
pub fn plan_to_json(plan: &FaultPlan) -> Json {
    let outages = plan
        .outages
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("u".into(), Json::Int(o.u as i64)),
                ("v".into(), Json::Int(o.v as i64)),
                ("from_round".into(), round_to_json(o.from_round)),
                ("until_round".into(), round_to_json(o.until_round)),
            ])
        })
        .collect();
    let corruptions = plan
        .corruptions
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("u".into(), Json::Int(c.u as i64)),
                ("v".into(), Json::Int(c.v as i64)),
                ("from_round".into(), round_to_json(c.from_round)),
                ("until_round".into(), round_to_json(c.until_round)),
            ])
        })
        .collect();
    let crashes = plan
        .crashes
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("node".into(), Json::Int(c.node as i64)),
                ("crash_round".into(), round_to_json(c.crash_round)),
                (
                    "recover_round".into(),
                    match c.recover_round {
                        Some(r) => round_to_json(r),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "drop_probability".into(),
            Json::Float(plan.drop_probability),
        ),
        (
            "duplicate_probability".into(),
            Json::Float(plan.duplicate_probability),
        ),
        (
            "delay_probability".into(),
            Json::Float(plan.delay_probability),
        ),
        (
            "corrupt_probability".into(),
            Json::Float(plan.corrupt_probability),
        ),
        ("outages".into(), Json::Arr(outages)),
        ("corruptions".into(), Json::Arr(corruptions)),
        ("crashes".into(), Json::Arr(crashes)),
    ])
}

/// Parses a fault plan from its JSON repro format.
///
/// # Errors
///
/// A human-readable description of the first malformed field.
pub fn plan_from_json(doc: &Json) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::default()
        .with_drop_probability(prob_from_json(doc, "drop_probability")?)
        .with_duplicate_probability(prob_from_json(doc, "duplicate_probability")?)
        .with_delay_probability(prob_from_json(doc, "delay_probability")?)
        .with_corrupt_probability(prob_from_json(doc, "corrupt_probability")?);
    let node = |item: &Json, key: &str| -> Result<usize, String> {
        item.get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("`{key}` is not a node id"))
    };
    let list = |key: &str| -> Result<Vec<Json>, String> {
        match doc.get(key) {
            None => Ok(Vec::new()),
            Some(Json::Arr(items)) => Ok(items.clone()),
            Some(_) => Err(format!("`{key}` is not an array")),
        }
    };
    for item in list("outages")? {
        plan = plan.with_link_outage(LinkOutage {
            u: node(&item, "u")?,
            v: node(&item, "v")?,
            from_round: round_from_json(item.get("from_round"), "from_round")?,
            until_round: round_from_json(item.get("until_round"), "until_round")?,
        });
    }
    for item in list("corruptions")? {
        plan = plan.with_link_corruption(LinkCorruption {
            u: node(&item, "u")?,
            v: node(&item, "v")?,
            from_round: round_from_json(item.get("from_round"), "from_round")?,
            until_round: round_from_json(item.get("until_round"), "until_round")?,
        });
    }
    for item in list("crashes")? {
        let recover = match item.get("recover_round") {
            None | Some(Json::Null) => None,
            Some(j) => Some(
                j.as_usize()
                    .ok_or("`recover_round` is not a round number or null")?,
            ),
        };
        plan = plan.with_node_crash(NodeCrash {
            node: node(&item, "node")?,
            crash_round: round_from_json(item.get("crash_round"), "crash_round")?,
            recover_round: recover,
        });
    }
    Ok(plan)
}

// ---------------------------------------------------------------------
// Presets, properties, and the shrinker
// ---------------------------------------------------------------------

/// Named fault plans for `rwbc-chaos run/shrink`.
pub fn preset(name: &str) -> Option<(FaultPlan, &'static str)> {
    match name {
        "drops" => Some((
            FaultPlan::default().with_drop_probability(0.05),
            "5% Bernoulli drops",
        )),
        "corrupt" => Some((
            FaultPlan::default()
                .with_corrupt_probability(0.05)
                .with_drop_probability(0.01),
            "5% payload corruption + 1% drops",
        )),
        "quarantine" => Some((
            FaultPlan::default().with_link_corruption(LinkCorruption {
                u: 0,
                v: 1,
                from_round: 0,
                until_round: usize::MAX,
            }),
            "permanently corrupting link 0-1 (drives detector escalation)",
        )),
        "blizzard" => Some((
            FaultPlan::default()
                .with_drop_probability(0.08)
                .with_duplicate_probability(0.04)
                .with_delay_probability(0.08)
                .with_corrupt_probability(0.05)
                .with_link_outage(LinkOutage {
                    u: 0,
                    v: 1,
                    from_round: 0,
                    until_round: usize::MAX,
                })
                .with_link_corruption(LinkCorruption {
                    u: 1,
                    v: 2,
                    from_round: 4,
                    until_round: 40,
                })
                .with_node_crash(NodeCrash {
                    node: 3,
                    crash_round: 12,
                    recover_round: Some(20),
                }),
            "everything at once: drops/dups/delays/corruption + outage + crash",
        )),
        _ => None,
    }
}

/// All preset names, for `--list` and error messages.
pub const PRESET_NAMES: [&str; 4] = ["drops", "corrupt", "quarantine", "blizzard"];

/// What "failing" means to the shrinker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProperty {
    /// `approximate` returns an error (budget blown, round cap hit, …).
    RunError,
    /// The run completes but the degradation report is not clean.
    NotClean,
    /// The run completes but at least one walk was lost to faults.
    WalksLost,
}

impl ChaosProperty {
    /// The CLI name (`run-error` / `not-clean` / `walks-lost`).
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosProperty::RunError => "run-error",
            ChaosProperty::NotClean => "not-clean",
            ChaosProperty::WalksLost => "walks-lost",
        }
    }

    /// Parses a CLI name.
    pub fn from_str_opt(s: &str) -> Option<ChaosProperty> {
        match s {
            "run-error" => Some(ChaosProperty::RunError),
            "not-clean" => Some(ChaosProperty::NotClean),
            "walks-lost" => Some(ChaosProperty::WalksLost),
            _ => None,
        }
    }
}

/// The fixed pipeline workload a plan is judged against: small enough
/// that a shrink run's dozens of re-checks stay fast, deterministic so
/// failure is a pure function of the plan.
#[derive(Debug, Clone)]
pub struct ChaosWorkload {
    /// Node count of the connected G(n, p) instance.
    pub n: usize,
    /// Master seed (graph + pipeline).
    pub seed: u64,
    /// Walks per node.
    pub walks: usize,
    /// Walk truncation length.
    pub length: usize,
    /// Run both phases behind the (checksummed) reliable adapter.
    pub reliable: bool,
}

impl Default for ChaosWorkload {
    fn default() -> ChaosWorkload {
        // Seed chosen so the default graph contains edges 0-1 and 1-2 —
        // the links the presets schedule faults on must actually exist.
        ChaosWorkload {
            n: 24,
            seed: 10,
            walks: 6,
            length: 24,
            reliable: false,
        }
    }
}

impl ChaosWorkload {
    /// Builds the workload's graph deterministically.
    pub fn build_graph(&self) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x6AF7);
        connected_gnp(self.n, 0.25, 100, &mut rng).expect("chaos workload graph")
    }

    /// Builds the pipeline config with `plan` installed.
    pub fn build_config(&self, plan: &FaultPlan) -> DistributedConfig {
        let mut cfg = DistributedConfig::builder()
            .walks(self.walks)
            .length(self.length)
            .seed(self.seed)
            .target(TargetStrategy::Fixed(0))
            .transport(if self.reliable {
                Transport::Reliable { checksums: true }
            } else {
                Transport::default()
            })
            .build()
            .expect("chaos workload params");
        cfg.sim = SimConfig::default()
            .with_bandwidth_coeff(24)
            .with_max_rounds(50_000)
            .with_faults(plan.clone());
        cfg
    }

    /// Runs the workload under `plan` and reports whether `property`
    /// holds (i.e. the plan still "fails").
    pub fn fails(&self, plan: &FaultPlan, property: ChaosProperty) -> bool {
        let graph = self.build_graph();
        let cfg = self.build_config(plan);
        match approximate(&graph, &cfg) {
            Err(_) => true, // an error is the strongest failure of all
            Ok(run) => match property {
                ChaosProperty::RunError => false,
                ChaosProperty::NotClean => !run.degradation.is_clean(),
                ChaosProperty::WalksLost => run.degradation.walks_lost > 0,
            },
        }
    }
}

/// Result of a shrink: the minimal failing plan plus the trail that
/// got there.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The smallest plan that still fails the property.
    pub plan: FaultPlan,
    /// Accepted simplification steps, in order.
    pub steps: Vec<String>,
    /// Total pipeline runs spent (accepted + rejected candidates).
    pub tests: usize,
}

/// Rebuilds a plan with one Bernoulli probability replaced.
type ProbSetter = fn(FaultPlan, f64) -> FaultPlan;

/// Candidate simplifications of `plan`, most aggressive first. Each is
/// strictly simpler, so the greedy loop terminates.
fn candidates(plan: &FaultPlan) -> Vec<(String, FaultPlan)> {
    let mut out = Vec::new();
    let probs: [(&str, f64, ProbSetter); 4] = [
        ("drop", plan.drop_probability, |p, v| {
            p.with_drop_probability(v)
        }),
        ("duplicate", plan.duplicate_probability, |p, v| {
            p.with_duplicate_probability(v)
        }),
        ("delay", plan.delay_probability, |p, v| {
            p.with_delay_probability(v)
        }),
        ("corrupt", plan.corrupt_probability, |p, v| {
            p.with_corrupt_probability(v)
        }),
    ];
    for (name, value, set) in probs {
        if value > 0.0 {
            out.push((
                format!("zero {name}_probability (was {value})"),
                set(plan.clone(), 0.0),
            ));
        }
        if value > 0.01 {
            out.push((
                format!("halve {name}_probability ({value} -> {})", value / 2.0),
                set(plan.clone(), value / 2.0),
            ));
        }
    }
    for i in 0..plan.outages.len() {
        let mut p = plan.clone();
        let o = p.outages.remove(i);
        out.push((format!("drop outage {}-{}", o.u, o.v), p));
    }
    for i in 0..plan.corruptions.len() {
        let mut p = plan.clone();
        let c = p.corruptions.remove(i);
        out.push((format!("drop corruption {}-{}", c.u, c.v), p));
    }
    for i in 0..plan.crashes.len() {
        let mut p = plan.clone();
        let c = p.crashes.remove(i);
        out.push((format!("drop crash of node {}", c.node), p));
    }
    // Window narrowing: halve bounded windows from the back.
    for i in 0..plan.outages.len() {
        let o = &plan.outages[i];
        if o.until_round != usize::MAX && o.until_round > o.from_round + 1 {
            let mid = o.from_round + (o.until_round - o.from_round) / 2;
            let mut p = plan.clone();
            p.outages[i].until_round = mid;
            out.push((format!("narrow outage {}-{} to round {mid}", o.u, o.v), p));
        }
    }
    for i in 0..plan.corruptions.len() {
        let c = &plan.corruptions[i];
        if c.until_round != usize::MAX && c.until_round > c.from_round + 1 {
            let mid = c.from_round + (c.until_round - c.from_round) / 2;
            let mut p = plan.clone();
            p.corruptions[i].until_round = mid;
            out.push((
                format!("narrow corruption {}-{} to round {mid}", c.u, c.v),
                p,
            ));
        }
    }
    out
}

/// Greedily minimizes a failing plan: keep applying the first candidate
/// simplification that still fails, until none does (or `max_tests`
/// pipeline runs are spent). The input plan must itself fail, or the
/// result is just the input.
pub fn shrink_plan(
    workload: &ChaosWorkload,
    plan: &FaultPlan,
    property: ChaosProperty,
    max_tests: usize,
) -> ShrinkOutcome {
    let mut current = plan.clone();
    let mut steps = Vec::new();
    let mut tests = 0;
    'outer: loop {
        for (desc, candidate) in candidates(&current) {
            if tests >= max_tests {
                break 'outer;
            }
            tests += 1;
            if workload.fails(&candidate, property) {
                steps.push(desc);
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkOutcome {
        plan: current,
        steps,
        tests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzing_every_codec_panics_nowhere() {
        let report = fuzz_all_codecs(0xF422, 60);
        assert_eq!(report.codecs.len(), 20);
        for codec in &report.codecs {
            assert!(
                codec.panics.is_empty(),
                "codec {} panicked: {:?}",
                codec.name,
                codec.panics
            );
            assert_eq!(codec.cases, 60);
            // A codec that accepts everything isn't being stressed.
            assert!(codec.rejected > 0, "codec {} rejected nothing", codec.name);
            // A re-sealed mutation that never decodes is stopped by a
            // checksum, not by the decoder behind it.
            if codec.name.ends_with("-resealed") {
                assert!(codec.accepted > 0, "codec {} accepted nothing", codec.name);
            }
        }
        assert!(report.is_clean());
        assert_eq!(report.total_cases(), 20 * 60);
    }

    #[test]
    fn fuzzing_is_deterministic() {
        let a = fuzz_all_codecs(99, 30);
        let b = fuzz_all_codecs(99, 30);
        for (x, y) in a.codecs.iter().zip(&b.codecs) {
            assert_eq!(x.unchanged, y.unchanged);
            assert_eq!(x.accepted, y.accepted);
            assert_eq!(x.rejected, y.rejected);
        }
    }

    /// Every byte of a whole checkpoint image is checked, so no change
    /// to one restores.
    #[test]
    fn whole_images_accept_no_change() {
        let report = fuzz_all_codecs(0x5EA1, 200);
        let lenient: Vec<_> = report.lenient_images().map(|c| c.name).collect();
        assert!(lenient.is_empty(), "changed images restored: {lenient:?}");
    }

    #[test]
    fn plan_json_round_trips() {
        let (plan, _) = preset("blizzard").unwrap();
        let doc = plan_to_json(&plan);
        let back = plan_from_json(&Json::parse(&doc.to_json()).unwrap()).unwrap();
        assert_eq!(back, plan);
        // `null` means forever on both sides.
        assert_eq!(back.outages[0].until_round, usize::MAX);
    }

    #[test]
    fn plan_json_rejects_malformed_fields() {
        let doc = Json::parse(r#"{"drop_probability":"lots"}"#).unwrap();
        assert!(plan_from_json(&doc).is_err());
        let doc = Json::parse(r#"{"outages":[{"u":0}]}"#).unwrap();
        assert!(plan_from_json(&doc).is_err());
        let doc =
            Json::parse(r#"{"crashes":[{"node":1,"crash_round":2,"recover_round":"x"}]}"#).unwrap();
        assert!(plan_from_json(&doc).is_err());
    }

    #[test]
    fn shrinking_a_blizzard_leaves_a_minimal_repro() {
        // Several blizzard ingredients lose walks on the raw transport
        // all by themselves, so the greedy fixpoint must land on exactly
        // ONE surviving cause (whichever the pass order reaches last) —
        // everything else shrinks away.
        let workload = ChaosWorkload::default();
        let (plan, _) = preset("blizzard").unwrap();
        assert!(workload.fails(&plan, ChaosProperty::WalksLost));
        let outcome = shrink_plan(&workload, &plan, ChaosProperty::WalksLost, 600);
        assert!(workload.fails(&outcome.plan, ChaosProperty::WalksLost));
        assert!(!outcome.steps.is_empty());
        let p = &outcome.plan;
        let live_probs = [
            p.drop_probability,
            p.duplicate_probability,
            p.delay_probability,
            p.corrupt_probability,
        ]
        .iter()
        .filter(|&&v| v > 0.0)
        .count();
        let causes = live_probs + p.outages.len() + p.corruptions.len() + p.crashes.len();
        assert_eq!(causes, 1, "not minimal: {p:?}");
    }

    #[test]
    fn quarantine_preset_fails_not_clean_under_checksums() {
        let workload = ChaosWorkload {
            reliable: true,
            ..ChaosWorkload::default()
        };
        let (plan, _) = preset("quarantine").unwrap();
        assert!(workload.fails(&plan, ChaosProperty::NotClean));
        // And an empty plan is clean — the property is about the plan.
        assert!(!workload.fails(&FaultPlan::default(), ChaosProperty::NotClean));
    }
}
