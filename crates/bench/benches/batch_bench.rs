//! Wall-clock of the async batched-oracle loop vs the step-driven loop
//! under simulated oracle latency (0 / 10 / 100 ms per answer), at batch
//! sizes 1, 4 and 16.
//!
//! The step-driven reference is `Darwin::run` against a synchronous
//! oracle that sleeps the simulated latency inside every `ask` — the
//! paper's annotator loop, which serializes on each answer. The async
//! rows drive `Darwin::run_async` through `SimulatedLatency`, which
//! answers a whole wave one round-trip after submission — so a wave of k
//! questions costs ~1 latency instead of k. Batch 1 is asserted
//! trace-identical to the step-driven reference (same questions, same
//! answers) before any timing is reported; the bench is meaningless
//! otherwise.
//!
//! Besides the criterion report, running this bench rewrites
//! `BENCH_batch.json` at the repo root (see BENCHES.md for the schema).

use criterion::{criterion_group, criterion_main, Criterion};
use darwin_core::batch::{BatchPolicy, SimulatedLatency};
use darwin_core::{Darwin, DarwinConfig, GroundTruthOracle, Oracle, RunResult, Seed};
use darwin_datasets::directions;
use darwin_grammar::Heuristic;
use darwin_index::{IndexConfig, IndexSet};
use darwin_text::embed::EmbedConfig;
use darwin_text::{Corpus, Embeddings};
use std::time::{Duration, Instant};

const N: usize = 2_000;
const BUDGET: usize = 24;
const K_CANDIDATES: usize = 1_500;

/// A synchronous oracle that takes `latency` to answer — the step-driven
/// loop blocks in every `ask`, which is exactly what the async loop is
/// built to avoid.
struct SlowOracle<O> {
    inner: O,
    latency: Duration,
}

impl<O: Oracle> Oracle for SlowOracle<O> {
    fn ask(&mut self, corpus: &Corpus, rule: &Heuristic, coverage: &[u32]) -> bool {
        std::thread::sleep(self.latency);
        self.inner.ask(corpus, rule, coverage)
    }

    fn queries(&self) -> usize {
        self.inner.queries()
    }
}

struct Fixture {
    d: darwin_datasets::Dataset,
    index: IndexSet,
    emb: Embeddings,
}

fn fixture() -> Fixture {
    let d = directions::generate(N, 42);
    let index = IndexSet::build(
        &d.corpus,
        &IndexConfig {
            max_phrase_len: 4,
            min_count: 2,
            ..Default::default()
        },
    );
    let emb = Embeddings::train(
        &d.corpus,
        &EmbedConfig {
            seed: 42,
            ..Default::default()
        },
    );
    Fixture { d, index, emb }
}

fn cfg(batch: BatchPolicy) -> DarwinConfig {
    DarwinConfig {
        budget: BUDGET,
        n_candidates: K_CANDIDATES,
        batch,
        ..DarwinConfig::fast()
    }
}

fn darwin<'a>(f: &'a Fixture, batch: BatchPolicy) -> Darwin<'a> {
    Darwin::with_embeddings(&f.d.corpus, &f.index, cfg(batch), f.emb.clone())
}

fn seed(f: &Fixture) -> Seed {
    Seed::Rule(Heuristic::phrase(&f.d.corpus, f.d.seed_rules[0]).unwrap())
}

fn assert_same_questions(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.trace.len(), b.trace.len(), "{label}: question counts");
    for (x, y) in a.trace.iter().zip(&b.trace) {
        assert_eq!(x.rule, y.rule, "{label}: q{} rule", x.question);
        assert_eq!(x.answer, y.answer, "{label}: q{} answer", x.question);
    }
}

struct Row {
    label: String,
    wall_ns: u128,
    questions: usize,
    waves: usize,
    retrains: usize,
    peak_in_flight: usize,
    cost_cents: usize,
}

fn bench_batch(c: &mut Criterion) {
    let f = fixture();
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // Criterion entries: driver overhead at zero latency (batching cannot
    // win here — the entry guards against the async loop costing more
    // than the step loop when there is no latency to hide).
    let mut g = c.benchmark_group("batch_driver_0ms");
    g.sample_size(10);
    g.bench_function("step_driven", |b| {
        b.iter(|| {
            let mut o = GroundTruthOracle::new(&f.d.labels, 0.8);
            darwin(&f, BatchPolicy::Fixed(1)).run(seed(&f), &mut o)
        })
    });
    g.bench_function("async_batch4", |b| {
        b.iter(|| {
            let mut o =
                SimulatedLatency::new(GroundTruthOracle::new(&f.d.labels, 0.8), Duration::ZERO);
            darwin(&f, BatchPolicy::Fixed(4)).run_async(seed(&f), &mut o)
        })
    });
    g.finish();

    let mut blocks = Vec::new();
    let mut speedup_100ms_b4 = 0.0f64;
    for latency_ms in [0u64, 10, 100] {
        let latency = Duration::from_millis(latency_ms);

        // Step-driven reference: one blocking ask per question.
        let t = Instant::now();
        let mut slow = SlowOracle {
            inner: GroundTruthOracle::new(&f.d.labels, 0.8),
            latency,
        };
        let step = darwin(&f, BatchPolicy::Fixed(1)).run(seed(&f), &mut slow);
        let step_ns = t.elapsed().as_nanos();
        assert_eq!(step.questions(), BUDGET, "fixture must sustain the budget");

        let policies: [(String, BatchPolicy); 3] = [
            ("1".into(), BatchPolicy::Fixed(1)),
            ("4".into(), BatchPolicy::Fixed(4)),
            ("16".into(), BatchPolicy::Fixed(16)),
        ];
        let mut rows = Vec::new();
        for (label, policy) in policies {
            let mut oracle =
                SimulatedLatency::new(GroundTruthOracle::new(&f.d.labels, 0.8), latency);
            let out = darwin(&f, policy).run_async(seed(&f), &mut oracle);
            if label == "1" {
                // The signature invariant, re-proven on the bench fixture:
                // batch 1 asks the step loop's exact questions.
                assert_same_questions(&step, &out.run, "batch=1 vs step-driven");
            }
            let speedup = step_ns as f64 / out.report.wall_ns as f64;
            if latency_ms == 100 && label == "4" {
                speedup_100ms_b4 = speedup;
            }
            println!(
                "latency {latency_ms:>3} ms  batch {label:>2}  wall {:>9}  waves {:>2}  speedup {speedup:.2}x",
                darwin_eval::fmt_ns(out.report.wall_ns),
                out.report.waves
            );
            rows.push(Row {
                label,
                wall_ns: out.report.wall_ns,
                questions: out.run.questions(),
                waves: out.report.waves,
                retrains: out.report.retrains,
                peak_in_flight: out.report.peak_in_flight,
                cost_cents: out.report.cost.cents,
            });
        }

        let row_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "        {{\"batch\": \"{}\", \"wall_ns\": {}, \"questions\": {}, \"waves\": {}, \"retrains\": {}, \"peak_in_flight\": {}, \"cost_cents\": {}, \"speedup_vs_step\": {:.2}}}",
                    r.label,
                    r.wall_ns,
                    r.questions,
                    r.waves,
                    r.retrains,
                    r.peak_in_flight,
                    r.cost_cents,
                    step_ns as f64 / r.wall_ns as f64
                )
            })
            .collect();
        blocks.push(format!(
            "    {{\n      \"oracle_latency_ms\": {latency_ms},\n      \"step_driven_wall_ns\": {step_ns},\n      \"rows\": [\n{}\n      ]\n    }}",
            row_json.join(",\n")
        ));
    }

    assert!(
        speedup_100ms_b4 >= 3.0,
        "acceptance bar: batch 4 must hide ≥ 3x wall-clock at 100 ms latency, got {speedup_100ms_b4:.2}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"batch_latency_hiding\",\n  \"host_threads\": {host_threads},\n  \"corpus_sentences\": {N},\n  \"budget\": {BUDGET},\n  \"batch1_trace_equals_step_driven\": true,\n  \"latencies\": [\n{}\n  ]\n}}\n",
        blocks.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    std::fs::write(path, &json).expect("write BENCH_batch.json");
    println!("batch_bench: recorded BENCH_batch.json");
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
