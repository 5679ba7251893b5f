//! Criterion benches: heuristic matching and candidate generation.

use criterion::{criterion_group, criterion_main, Criterion};
use darwin_core::candidates;
use darwin_datasets::directions;
use darwin_grammar::{Heuristic, PhrasePattern, TreePattern};
use darwin_index::{IdSet, IndexConfig, IndexSet};

fn bench_matching(c: &mut Criterion) {
    let d = directions::generate(3000, 42);
    let corpus = &d.corpus;
    let contiguous = PhrasePattern::parse(corpus.vocab(), "best way to get").unwrap();
    let gapped = PhrasePattern::parse(corpus.vocab(), "best * get + to").unwrap();
    let tree = TreePattern::parse(corpus.vocab(), "get/to & get//NOUN").unwrap();

    let mut g = c.benchmark_group("matching");
    g.bench_function("phrase_contiguous_3k", |b| {
        b.iter(|| {
            corpus
                .sentences()
                .filter(|&s| contiguous.matches(s))
                .count()
        });
    });
    g.bench_function("phrase_gapped_3k", |b| {
        b.iter(|| corpus.sentences().filter(|&s| gapped.matches(s)).count());
    });
    g.bench_function("tree_pattern_3k", |b| {
        b.iter(|| corpus.sentences().filter(|&s| tree.matches(s)).count());
    });
    g.finish();
}

fn bench_candidates(c: &mut Criterion) {
    let d = directions::generate(5000, 42);
    let index = IndexSet::build(
        &d.corpus,
        &IndexConfig {
            max_phrase_len: 6,
            min_count: 2,
            ..Default::default()
        },
    );
    let seed = Heuristic::phrase(&d.corpus, "best way to get to").unwrap();
    let p = IdSet::from_ids(&seed.coverage(&d.corpus), d.len());

    let mut g = c.benchmark_group("candidates");
    g.sample_size(20);
    g.bench_function("algorithm2_k1000", |b| {
        b.iter(|| candidates::generate(&index, &p, 1000, usize::MAX));
    });
    g.bench_function("hierarchy_k1000_with_cleanup", |b| {
        b.iter(|| candidates::generate_hierarchy(&index, &p, 1000, d.len() / 2));
    });
    g.finish();
}

criterion_group!(benches, bench_matching, bench_candidates);
criterion_main!(benches);
