//! Local span stores vs. shard count: benefit-store rebuild and merged
//! selection over `S` in-memory partitions, on a ≥20k-sentence corpus.
//!
//! The shard count names benefit-store partitions only — score refresh is
//! split by `threads` alone and is measured in `refresh_bench`. Each local
//! partition gets the whole worker budget (the host's available
//! parallelism, recorded as `host_threads`) for its own chunking, so the
//! rows read as the cost of partitioning: `S` scans of `1/S` of each
//! coverage on rebuild, an `S`-way fragment merge on selection.
//!
//! Besides the criterion report, running this bench rewrites
//! `BENCH_shard.json` at the repo root. Merged benefits are asserted
//! identical across all shard counts — the bench is meaningless otherwise.

use criterion::{criterion_group, criterion_main, Criterion};
use darwin_classifier::{ClassifierKind, ScoreCache};
use darwin_core::candidates::generate_hierarchy;
use darwin_core::traversal::{Ctx, Strategy, UniversalSearch};
use darwin_core::ShardedBenefitStore;
use darwin_datasets::directions;
use darwin_grammar::Heuristic;
use darwin_index::fx::FxHashSet;
use darwin_index::{IdSet, IndexConfig, IndexSet, ShardMap};
use darwin_text::embed::EmbedConfig;
use darwin_text::Embeddings;
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Fixture {
    index: IndexSet,
    p: IdSet,
    /// One full refresh of a LogReg trained on the seed rule's coverage.
    scores: Vec<f32>,
    n: usize,
    host_threads: usize,
}

fn fixture() -> Fixture {
    let d = directions::generate(20_000, 42);
    let n = d.len();
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
    let seed = Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap();
    let pos = seed.coverage(&d.corpus);
    let p = IdSet::from_ids(&pos, n);
    let neg: Vec<u32> = (0..n as u32)
        .filter(|id| !p.contains(*id))
        .step_by(7)
        .take(pos.len() * 3)
        .collect();
    let mut clf = ClassifierKind::logreg().build(&emb, 42);
    clf.fit(&d.corpus, &emb, &pos, &neg);
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut cache = ScoreCache::full_only(n).with_threads(host_threads);
    cache.refresh(&*clf, &d.corpus, &emb);
    Fixture {
        index,
        p,
        scores: cache.scores().to_vec(),
        n,
        host_threads,
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

fn bench_sharded(c: &mut Criterion) {
    let f = fixture();
    println!(
        "shard_bench fixture: {} sentences, {} host threads, |P| = {}",
        f.n,
        f.host_threads,
        f.p.len()
    );

    let scores = &f.scores[..];
    let hierarchy = generate_hierarchy(&f.index, &f.p, 2000, f.n / 2);
    let queried = FxHashSet::default();

    let mut g = c.benchmark_group("shard_store_20k");
    g.sample_size(10);
    let mut rows = Vec::new();
    let mut picks = Vec::new();
    for s in SHARD_COUNTS {
        // Benefit partition rebuild + merged selection.
        let mut store = ShardedBenefitStore::new(ShardMap::new(f.n, s));
        store
            .track(hierarchy.rules(), &f.index, &f.p, scores, f.host_threads)
            .unwrap();
        let (index, p, threads) = (&f.index, &f.p, f.host_threads);
        g.bench_function(&format!("store_rebuild_s{s}"), |b| {
            b.iter(|| store.rebuild(index, p, scores, threads).unwrap())
        });
        let rebuild_ns = median_ns(10, || store.rebuild(index, p, scores, threads).unwrap());
        let select_ns = {
            let ctx = Ctx {
                index: &f.index,
                hierarchy: &hierarchy,
                p: &f.p,
                scores,
                queried: &queried,
                benefit_threshold: 0.5,
                store: Some(&store),
            };
            let mut us = UniversalSearch::new();
            picks.push(us.select(&ctx).expect("nothing selectable"));
            median_ns(50, || us.select(&ctx))
        };
        println!("S={s}: rebuild {rebuild_ns} ns, select {select_ns} ns");
        rows.push(format!(
            "    {{\"shards\": {s}, \"store_rebuild_ns\": {rebuild_ns}, \"select_ns\": {select_ns}}}"
        ));
    }
    g.finish();
    assert!(
        picks.windows(2).all(|w| w[0] == w[1]),
        "selection diverged across shard counts"
    );

    let json = format!(
        "{{\n  \"bench\": \"shard_store_20k\",\n  \"corpus_sentences\": {},\n  \"candidate_rules\": {},\n  \"host_threads\": {},\n  \"per_shard_count\": [\n{}\n  ],\n  \"selection_identical_across_shard_counts\": true\n}}\n",
        f.n,
        hierarchy.len(),
        f.host_threads,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(path, &json).expect("write BENCH_shard.json");
    println!("shard_bench: recorded BENCH_shard.json");
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
