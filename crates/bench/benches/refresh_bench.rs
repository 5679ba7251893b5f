//! The score-refresh hot path after the blocked-kernel rewrite: full-pass
//! throughput on the 20k directions corpus across thread counts, a
//! dense-scalar baseline replaying the pre-kernel scoring wall, and a
//! million-sentence full refresh over the streamed professions corpus.
//!
//! `threads` is the one split of `ScoreCache::refresh`: that many scoped
//! workers, one contiguous id chunk each, whatever the host has — so rows
//! above the host's available parallelism measure oversubscription, not
//! speed-up. The JSON records `host_threads` so the numbers can be read
//! accordingly.
//!
//! Besides the criterion report, running this bench rewrites
//! `BENCH_refresh.json` at the repo root. Scores are asserted
//! bit-identical across every configuration before any timing — the bench
//! is meaningless otherwise.

use criterion::{criterion_group, criterion_main, Criterion};
use darwin_classifier::adam::sigmoid;
use darwin_classifier::features::{logreg_dim, logreg_features};
use darwin_classifier::{ClassifierKind, ScoreCache, TextClassifier};
use darwin_datasets::{directions, professions};
use darwin_grammar::Heuristic;
use darwin_index::IdSet;
use darwin_text::embed::EmbedConfig;
use darwin_text::{Corpus, Embeddings};
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The scoring wall this PR tore down: one dense feature vector per
/// sentence, scored with a sequential scalar dot over the full feature
/// dimension (mean embedding + 4096 mostly-zero BoW buckets + bias).
/// Weight *values* don't change its cost, so an arbitrary deterministic
/// weight vector measures the real thing.
struct DenseScalarLogReg {
    w: Vec<f32>,
}

impl DenseScalarLogReg {
    fn new(emb: &Embeddings) -> DenseScalarLogReg {
        let dim = logreg_dim(emb);
        DenseScalarLogReg {
            w: (0..dim).map(|i| ((i % 13) as f32 - 6.0) * 0.01).collect(),
        }
    }

    fn score(&self, f: &[f32]) -> f32 {
        let mut z = 0.0f32;
        for (a, b) in self.w.iter().zip(f) {
            z += a * b;
        }
        sigmoid(z)
    }
}

impl TextClassifier for DenseScalarLogReg {
    fn fit(&mut self, _c: &Corpus, _e: &Embeddings, _p: &[u32], _n: &[u32]) {}

    fn predict_batch(&self, corpus: &Corpus, emb: &Embeddings, ids: &[u32], out: &mut Vec<f32>) {
        let mut f = vec![0.0f32; self.w.len()];
        for &id in ids {
            logreg_features(corpus, emb, id, &mut f);
            out.push(self.score(&f));
        }
    }
}

/// Median wall-clock of `f` over `iters` runs, in nanoseconds.
fn median_ns<R>(iters: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            criterion::black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn trained_logreg(corpus: &Corpus, emb: &Embeddings, seed_rule: &str) -> Box<dyn TextClassifier> {
    let n = corpus.len();
    let seed = Heuristic::phrase(corpus, seed_rule).unwrap();
    let pos = seed.coverage(corpus);
    let p = IdSet::from_ids(&pos, n);
    let neg: Vec<u32> = (0..n as u32)
        .filter(|id| !p.contains(*id))
        .step_by(7)
        .take(pos.len() * 3)
        .collect();
    let mut clf = ClassifierKind::logreg().build(emb, 42);
    clf.fit(corpus, emb, &pos, &neg);
    clf
}

fn bench_refresh(c: &mut Criterion) {
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // ---- 20k corpus: kernel path vs the dense-scalar wall --------------
    let d = directions::generate(20_000, 42);
    let n = d.len();
    let emb = Embeddings::train(
        &d.corpus,
        &EmbedConfig {
            seed: 42,
            ..Default::default()
        },
    );
    let clf = trained_logreg(&d.corpus, &emb, d.seed_rules[0]);
    println!("refresh_bench fixture: {n} sentences, {host_threads} host threads");

    // Bit-identity across every thread count first.
    let mut reference = ScoreCache::full_only(n);
    reference.refresh(&*clf, &d.corpus, &emb);
    for threads in THREAD_COUNTS {
        let mut cache = ScoreCache::full_only(n).with_threads(threads);
        cache.refresh(&*clf, &d.corpus, &emb);
        assert_eq!(
            cache.scores(),
            reference.scores(),
            "threads={threads}: scores diverged"
        );
    }

    let baseline = DenseScalarLogReg::new(&emb);
    let baseline_ns = {
        let mut cache = ScoreCache::full_only(n);
        median_ns(5, || cache.refresh(&baseline, &d.corpus, &emb))
    };
    let baseline_tp = n as f64 / (baseline_ns as f64 / 1e9);
    println!("dense-scalar baseline: {baseline_ns} ns ({baseline_tp:.0} sentences/s)");

    let mut g = c.benchmark_group("refresh_20k");
    g.sample_size(10);
    let mut rows = Vec::new();
    for threads in THREAD_COUNTS {
        let full_ns = {
            let mut cache = ScoreCache::full_only(n).with_threads(threads);
            g.bench_function(&format!("full_refresh_t{threads}"), |b| {
                b.iter(|| cache.refresh(&*clf, &d.corpus, &emb))
            });
            let mut cache = ScoreCache::full_only(n).with_threads(threads);
            median_ns(10, || cache.refresh(&*clf, &d.corpus, &emb))
        };
        let tp = n as f64 / (full_ns as f64 / 1e9);
        let speedup = baseline_ns as f64 / full_ns as f64;
        println!(
            "threads={threads}: full {full_ns} ns ({tp:.0} sentences/s, {speedup:.2}x vs dense-scalar)"
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"full_refresh_ns\": {full_ns}, \"full_refresh_sentences_per_s\": {tp:.0}, \"speedup_vs_dense_scalar\": {speedup:.2}}}"
        ));
    }
    g.finish();

    // ---- 1M corpus: streamed generation + full refresh ------------------
    println!("generating 1M-sentence professions corpus (streamed)...");
    let big = professions::generate_streamed(1_000_000, 42);
    let big_n = big.len();
    let big_emb = Embeddings::train(
        &big.corpus,
        &EmbedConfig {
            seed: 42,
            ..Default::default()
        },
    );
    let big_clf = trained_logreg(&big.corpus, &big_emb, big.seed_rules[0]);
    let mut million_rows = Vec::new();
    for threads in [1usize, 2, 8] {
        let full_ns = {
            let mut cache = ScoreCache::full_only(big_n).with_threads(threads);
            median_ns(3, || cache.refresh(&*big_clf, &big.corpus, &big_emb))
        };
        let tp = big_n as f64 / (full_ns as f64 / 1e9);
        println!("1M full refresh, threads={threads}: {full_ns} ns ({tp:.0} sentences/s)");
        million_rows.push(format!(
            "    {{\"sentences\": {big_n}, \"threads\": {threads}, \"full_refresh_ns\": {full_ns}, \"full_refresh_sentences_per_s\": {tp:.0}}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"refresh\",\n  \"corpus_sentences\": {n},\n  \"host_threads\": {host_threads},\n  \"dense_scalar_baseline_ns\": {baseline_ns},\n  \"dense_scalar_baseline_sentences_per_s\": {baseline_tp:.0},\n  \"per_thread_count\": [\n{}\n  ],\n  \"million_scale\": [\n{}\n  ],\n  \"scores_bit_identical_across_configs\": true\n}}\n",
        rows.join(",\n"),
        million_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_refresh.json");
    std::fs::write(path, &json).expect("write BENCH_refresh.json");
    println!("refresh_bench: recorded BENCH_refresh.json");
}

criterion_group!(benches, bench_refresh);
criterion_main!(benches);
