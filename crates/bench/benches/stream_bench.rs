//! Sustained-ingest throughput for the append-delta layer (ISSUE 9).
//!
//! Three paths, batched appends repeated until a sentence quota is met:
//!
//! * `corpus_index_phrase` — the raw ingest pipeline with a phrase-only
//!   (TokensRegex) index: `Corpus::append_texts` (tokenize, tag, parse)
//!   plus `IndexSet::append` delta growth. This is the sustained-ingest
//!   number the acceptance gate reads (`sustained_sentences_per_sec` ≥
//!   100k/s on a release build).
//! * `corpus_index_tree` — the same pipeline with the TreeMatch hierarchy
//!   enabled. Sketch enumeration plus pattern interning keeps this within
//!   ~3.5× of the phrase path; it is reported alongside rather than
//!   gating, with its own CI floor (≥ 80k/s).
//! * `live_session` — appends folded into a live [`StreamSession`]
//!   between wave barriers: everything above plus embedding zero-pad,
//!   score-cache growth, benefit-store fold and hierarchy regeneration.
//!
//! Besides the criterion report, running this bench rewrites
//! `BENCH_stream.json` at the repo root (schema in BENCHES.md).

use criterion::{criterion_group, criterion_main, Criterion};
use darwin_core::stream::StreamSession;
use darwin_core::{BatchPolicy, DarwinConfig, GroundTruthOracle, Immediate, Seed};
use darwin_datasets::directions;
use darwin_index::{IndexConfig, IndexSet};
use std::time::Instant;

const SEED: u64 = 42;
const BASE_SENTENCES: usize = 2000;

fn min1() -> IndexConfig {
    IndexConfig {
        max_phrase_len: 4,
        min_count: 1,
        ..Default::default()
    }
}

fn phrase_min1() -> IndexConfig {
    IndexConfig {
        enable_tree: false,
        ..min1()
    }
}

/// Deterministic synthetic arrivals: transport-intent phrasing with a
/// rolling numeral so every batch brings some fresh vocabulary.
fn arrivals(offset: usize, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let k = offset + i;
            match k % 3 {
                0 => format!("is there a bus to the airport at {k}"),
                1 => format!("order a pizza with {k} toppings to the room"),
                _ => format!("the gym closes at {k} tonight"),
            }
        })
        .collect()
}

struct Row {
    path: &'static str,
    batch_sentences: usize,
    batches: usize,
    total_sentences: usize,
    total_ns: u64,
    sentences_per_sec: f64,
}

fn row(path: &'static str, batch: usize, batches: usize, total_ns: u64) -> Row {
    let total = batch * batches;
    Row {
        path,
        batch_sentences: batch,
        batches,
        total_sentences: total,
        total_ns,
        sentences_per_sec: total as f64 / (total_ns as f64 / 1e9),
    }
}

/// Raw ingest: corpus analysis + index delta growth, no session.
fn measure_corpus_index(
    path: &'static str,
    icfg: &IndexConfig,
    threads: usize,
    batch: usize,
    batches: usize,
) -> Row {
    let d = directions::generate(BASE_SENTENCES, SEED);
    let mut corpus = d.corpus;
    let mut index = IndexSet::build(&corpus, icfg);
    let t = Instant::now();
    for b in 0..batches {
        let texts = arrivals(b * batch, batch);
        corpus.append_texts(texts.iter(), threads);
        index.append(&corpus).expect("min_count == 1 index grows");
    }
    let total_ns = t.elapsed().as_nanos() as u64;
    assert_eq!(corpus.len(), BASE_SENTENCES + batch * batches);
    row(path, batch, batches, total_ns)
}

/// Appends into a live session: the full reconcile path.
fn measure_live_session(threads: usize, batch: usize, batches: usize) -> Row {
    let d = directions::generate(BASE_SENTENCES, SEED);
    let index = IndexSet::build(&d.corpus, &min1());
    let cfg = DarwinConfig {
        budget: 4,
        n_candidates: 400,
        threads,
        batch: BatchPolicy::Fixed(3),
        ..DarwinConfig::fast()
    };
    let labels: Vec<bool> = d
        .labels
        .iter()
        .copied()
        .chain(std::iter::repeat(false))
        .take(BASE_SENTENCES + batch * batches)
        .collect();
    let mut session = StreamSession::new(d.corpus, index, cfg, Seed::Positives(vec![0]));
    let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
    session.drive(&mut oracle, Some(1));
    let t = Instant::now();
    for b in 0..batches {
        let texts = arrivals(b * batch, batch);
        session.append(texts).expect("append at barrier");
    }
    let total_ns = t.elapsed().as_nanos() as u64;
    row("live_session", batch, batches, total_ns)
}

fn bench_stream(c: &mut Criterion) {
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = host_threads.min(4);

    let mut g = c.benchmark_group("stream_append");
    g.sample_size(10);
    g.bench_function("corpus_index_1k", |b| {
        b.iter(|| {
            criterion::black_box(measure_corpus_index(
                "corpus_index_phrase",
                &phrase_min1(),
                threads,
                1000,
                2,
            ))
        })
    });
    g.finish();

    let rows = [
        measure_corpus_index("corpus_index_phrase", &phrase_min1(), threads, 1000, 40),
        measure_corpus_index("corpus_index_phrase", &phrase_min1(), threads, 5000, 8),
        measure_corpus_index("corpus_index_tree", &min1(), threads, 1000, 40),
        measure_corpus_index("corpus_index_tree", &min1(), threads, 5000, 8),
        measure_live_session(threads, 1000, 5),
    ];
    let sustained = rows
        .iter()
        .filter(|r| r.path == "corpus_index_phrase")
        .map(|r| r.sentences_per_sec)
        .fold(0.0f64, f64::max);

    let mut blocks = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            blocks.push_str(",\n");
        }
        blocks.push_str(&format!(
            "    {{\n      \"path\": \"{}\",\n      \"batch_sentences\": {},\n      \"batches\": {},\n      \"total_sentences\": {},\n      \"total_ns\": {},\n      \"sentences_per_sec\": {:.0}\n    }}",
            r.path, r.batch_sentences, r.batches, r.total_sentences, r.total_ns, r.sentences_per_sec
        ));
        println!(
            "stream_bench {} batch={}: {:.0} sentences/s",
            r.path, r.batch_sentences, r.sentences_per_sec
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"stream_append\",\n  \"base_sentences\": {BASE_SENTENCES},\n  \"host_threads\": {host_threads},\n  \"append_threads\": {threads},\n  \"sustained_sentences_per_sec\": {sustained:.0},\n  \"rows\": [\n{blocks}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    std::fs::write(path, &json).expect("write BENCH_stream.json");
    println!(
        "stream_bench: sustained ingest {sustained:.0} sentences/s, recorded in BENCH_stream.json"
    );
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
