//! Per-question selection cost: incremental benefit aggregates vs. the
//! full-rescan baseline, on a ~5k-sentence synthetic corpus.
//!
//! The rescan path recomputes `benefit()` over every candidate's coverage
//! on every question (O(|rules| × |coverage|)); the incremental engine
//! reads delta-maintained aggregates (O(|rules|)). Both select the same
//! rule — the equivalence is asserted here too, not just in the tests.
//!
//! Besides the criterion report, running this bench rewrites
//! `BENCH_engine.json` at the repo root with median timings and the
//! measured speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use darwin_core::candidates::generate_hierarchy;
use darwin_core::traversal::{Ctx, Strategy, UniversalSearch};
use darwin_core::ShardedBenefitStore;
use darwin_datasets::directions;
use darwin_grammar::Heuristic;
use darwin_index::fx::FxHashSet;
use darwin_index::{IdSet, IndexConfig, IndexSet};
use std::time::Instant;

struct Fixture {
    corpus: darwin_text::Corpus,
    index: IndexSet,
    p: IdSet,
    scores: Vec<f32>,
    queried: FxHashSet<darwin_index::RuleRef>,
    hierarchy: darwin_core::hierarchy::Hierarchy,
    store: ShardedBenefitStore,
    n: usize,
}

fn fixture() -> Fixture {
    let d = directions::generate(5000, 42);
    let n = d.len();
    let index = IndexSet::build(
        &d.corpus,
        &IndexConfig {
            max_phrase_len: 5,
            min_count: 2,
            ..Default::default()
        },
    );
    let seed = Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap();
    let p = IdSet::from_ids(&seed.coverage(&d.corpus), n);
    let hierarchy = generate_hierarchy(&index, &p, 2000, n / 2);
    // Synthetic but structured scores (what a trained classifier produces).
    let scores: Vec<f32> = (0..n)
        .map(|i| (i as f32 * 0.137).fract() * 0.6 + 0.2)
        .collect();
    let mut store = ShardedBenefitStore::local();
    store
        .track(hierarchy.rules(), &index, &p, &scores, 1)
        .unwrap();
    Fixture {
        corpus: d.corpus,
        index,
        p,
        scores,
        queried: FxHashSet::default(),
        hierarchy,
        store,
        n,
    }
}

fn ctx<'a>(f: &'a Fixture, incremental: bool) -> Ctx<'a> {
    Ctx {
        index: &f.index,
        hierarchy: &f.hierarchy,
        p: &f.p,
        scores: &f.scores,
        queried: &f.queried,
        benefit_threshold: 0.5,
        store: incremental.then_some(&f.store),
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

fn bench_selection(c: &mut Criterion) {
    let mut f = fixture();
    println!(
        "engine_bench fixture: {} sentences, {} candidate rules, {} tracked aggregates",
        f.n,
        f.hierarchy.len(),
        f.store.len()
    );

    // Both paths must pick the same rule — the bench is meaningless
    // otherwise.
    let mut us = UniversalSearch::new();
    let rescan_pick = us.select(&ctx(&f, false));
    let incremental_pick = us.select(&ctx(&f, true));
    assert_eq!(rescan_pick, incremental_pick, "selection paths diverged");
    assert!(rescan_pick.is_some(), "nothing selectable in the fixture");

    let mut g = c.benchmark_group("engine_select_5k");
    g.sample_size(20);
    g.bench_function("rescan", |b| {
        let mut us = UniversalSearch::new();
        let ctx = ctx(&f, false);
        b.iter(|| us.select(&ctx));
    });
    g.bench_function("incremental", |b| {
        let mut us = UniversalSearch::new();
        let ctx = ctx(&f, true);
        b.iter(|| us.select(&ctx));
    });
    g.finish();

    // JSON record: per-question selection medians, the per-delta patch
    // cost, and the full-epoch rebuild the patches amortize away.
    let rescan_ns = median_ns(30, || {
        let mut us = UniversalSearch::new();
        us.select(&ctx(&f, false))
    });
    let incremental_ns = median_ns(200, || {
        let mut us = UniversalSearch::new();
        us.select(&ctx(&f, true))
    });
    let speedup = rescan_ns as f64 / incremental_ns as f64;

    // Patch cost: absorb a 25-entry score-change journal (a typical
    // incremental re-score round) into the aggregates. Sums drift across
    // repetitions but the per-call work is identical.
    let journal: Vec<(u32, f32, f32)> = (0..f.n as u32)
        .filter(|&s| !f.p.contains(s))
        .take(25)
        .map(|s| (s, f.scores[s as usize], 1.0 - f.scores[s as usize]))
        .collect();
    let patch_ns = {
        let store = &mut f.store;
        let p = &f.p;
        let (corpus, index) = (&f.corpus, &f.index);
        median_ns(100, || {
            store.on_scores_changed(&journal, p, corpus, index).unwrap()
        })
    };
    let rebuild_ns = {
        let store = &mut f.store;
        let (index, p, scores) = (&f.index, &f.p, &f.scores);
        median_ns(10, || store.rebuild(index, p, scores, 1).unwrap())
    };

    let json = format!(
        "{{\n  \"bench\": \"engine_select_5k\",\n  \"corpus_sentences\": {},\n  \"candidate_rules\": {},\n  \"rescan_select_ns\": {},\n  \"incremental_select_ns\": {},\n  \"speedup\": {:.2},\n  \"score_journal_patch_ns\": {},\n  \"full_rebuild_ns\": {},\n  \"selection_agrees\": true\n}}\n",
        f.n,
        f.hierarchy.len(),
        rescan_ns,
        incremental_ns,
        speedup,
        patch_ns,
        rebuild_ns
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("engine_bench: speedup {speedup:.2}x (recorded in BENCH_engine.json)");
    assert!(
        speedup >= 5.0,
        "incremental selection must be ≥5x faster, got {speedup:.2}x"
    );
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
