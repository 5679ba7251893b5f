//! Criterion benches: corpus analysis, sketching and index construction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use darwin_datasets::directions;
use darwin_index::{IndexConfig, IndexSet, PhraseIndex, TreeIndex, TreeSketchConfig};
use darwin_text::Corpus;

fn texts(n: usize) -> Vec<String> {
    let d = directions::generate(n, 42);
    (0..d.len() as u32).map(|i| d.corpus.text(i)).collect()
}

fn bench_analysis(c: &mut Criterion) {
    let t = texts(2000);
    let mut g = c.benchmark_group("text");
    g.sample_size(10);
    g.bench_function("analyze_2k_sentences", |b| {
        b.iter(|| Corpus::from_texts(t.iter()));
    });
    g.finish();
}

fn bench_index(c: &mut Criterion) {
    let t = texts(5000);
    let corpus = Corpus::from_texts(t.iter());
    let mut g = c.benchmark_group("index");
    g.sample_size(10);
    g.bench_function("phrase_build_5k_depth6", |b| {
        b.iter(|| PhraseIndex::build(&corpus, 6));
    });
    g.bench_function("tree_build_5k", |b| {
        b.iter(|| TreeIndex::build(&corpus, &TreeSketchConfig::default()));
    });
    let idx = PhraseIndex::build(&corpus, 6);
    let phrase: Vec<_> = {
        let d = directions::generate(100, 42);
        drop(d);
        ["best", "way", "to"]
            .iter()
            .map(|t| corpus.vocab().get(t).unwrap())
            .collect()
    };
    g.bench_function("phrase_lookup", |b| {
        b.iter(|| idx.lookup(&phrase));
    });
    // The whole ingest routine (phrase + tree, no pruning) through the
    // public constructor; `threads` only moves the tree-sketch enumeration.
    for threads in [1, 2] {
        let cfg = IndexConfig {
            max_phrase_len: 6,
            min_count: 1,
            threads,
            ..Default::default()
        };
        g.bench_function(&format!("index_build_5k_threads{threads}"), |b| {
            b.iter(|| IndexSet::build(&corpus, &cfg));
        });
    }
    g.bench_function("incremental_add", |b| {
        b.iter_batched(
            || PhraseIndex::new(6),
            |mut idx| {
                for s in corpus.sentences().iter().take(100) {
                    idx.add_sentence(s);
                }
                idx
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_prune(c: &mut Criterion) {
    let t = texts(5000);
    let corpus = Corpus::from_texts(t.iter());
    let mut g = c.benchmark_group("index_prune");
    g.sample_size(10);
    g.bench_function("build_with_min_count2", |b| {
        b.iter(|| {
            IndexSet::build(
                &corpus,
                &IndexConfig {
                    max_phrase_len: 6,
                    min_count: 2,
                    enable_tree: false,
                    ..Default::default()
                },
            )
        });
    });
    g.finish();
}

criterion_group!(benches, bench_analysis, bench_index, bench_prune);
criterion_main!(benches);
