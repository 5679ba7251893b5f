//! The incremental engine's defining guarantee: delta-maintained benefit
//! aggregates and the persistent candidate frontier select the *exact
//! same rule sequence* as the sequential reference, on every traversal
//! strategy and on the baseline selectors — and for *every shard count*:
//! shard workers' fragments merged in the fixed-point domain are
//! bit-identical to the local store's sums, so `DarwinConfig::shards` can
//! never change a trace. Shards exist only as workers, so every cell with
//! S > 1 deploys that many InProc shard workers
//! (`darwin_testkit::inproc_shards`); a local run ignores the count.
//!
//! The reference is the harness's stepped loop
//! (`darwin_testkit::step_reference`), which checks every aggregate, mirror
//! and hierarchy against its from-scratch function after each update — so
//! a run that replays it also replays a per-question rescan.
//!
//! `DARWIN_TEST_THREADS` (CI runs 1 and 4) sets the worker-thread count
//! every run in this suite uses — determinism across thread counts is part
//! of the contract under test.

use darwin::baselines::{HighC, HighP};
use darwin::classifier::{LogReg, LogRegConfig, ScoreCache};
use darwin::prelude::*;
use darwin::text::embed::EmbedConfig;
use darwin_core::{AnnotatorPool, DarwinConfig, RunResult};
use darwin_testkit::strategies::corpus_texts as corpus_strategy;
use darwin_testkit::{
    assert_equivalent, directions_fixture, indexed, inproc_shards, step_reference,
    step_reference_with, test_threads,
};
use proptest::prelude::*;

/// How a suite cell drives its run: the audited stepped reference, or
/// the wave driver through `Darwin::run` / `run_with`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Drive {
    Stepped,
    Run,
}

fn run_sharded(
    drive: Drive,
    kind: TraversalKind,
    make: Option<MakeStrategy>,
    shards: usize,
) -> RunResult {
    run_cfg(drive, kind, make, shards, test_threads())
}

fn run_cfg(
    drive: Drive,
    kind: TraversalKind,
    make: Option<MakeStrategy>,
    shards: usize,
    threads: usize,
) -> RunResult {
    let (d, index) = directions_fixture(800, 42);
    let cfg = DarwinConfig {
        budget: 20,
        n_candidates: 1500,
        shards,
        threads,
        ..DarwinConfig::fast().with_traversal(kind)
    };
    let darwin = inproc_shards(Darwin::new(&d.corpus, &index, cfg));
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
    match (drive, make) {
        (Drive::Stepped, None) => step_reference(&darwin, seed, &mut oracle),
        (Drive::Stepped, Some(f)) => step_reference_with(&darwin, seed, &mut oracle, |_| f()),
        (Drive::Run, None) => darwin.run(seed, &mut oracle),
        (Drive::Run, Some(f)) => darwin.run_with(seed, &mut oracle, |_| f()),
    }
}

#[test]
fn traversals_select_identical_sequences() {
    for kind in [
        TraversalKind::Local,
        TraversalKind::Universal,
        TraversalKind::Hybrid,
    ] {
        let reference = run_sharded(Drive::Stepped, kind, None, 1);
        let run = run_sharded(Drive::Run, kind, None, 1);
        assert!(
            reference.questions() > 0,
            "{kind:?}: reference run asked nothing"
        );
        assert_equivalent(&reference, &run, &format!("{kind:?}"));
    }
}

/// Sharding is an execution detail: on every traversal strategy, S ∈
/// {2, 4, 7} shard workers must replay the local trace byte for byte (and
/// the local trace already equals the audited reference, by the test
/// above).
#[test]
fn shard_counts_select_identical_sequences() {
    for kind in [
        TraversalKind::Local,
        TraversalKind::Universal,
        TraversalKind::Hybrid,
    ] {
        let reference = run_sharded(Drive::Run, kind, None, 1);
        assert!(
            reference.questions() > 0,
            "{kind:?}: reference run asked nothing"
        );
        for shards in [2usize, 4, 7] {
            let sharded = run_sharded(Drive::Run, kind, None, shards);
            assert_equivalent(&reference, &sharded, &format!("{kind:?} S={shards}"));
        }
    }
}

/// The incremental candidate frontier is a regeneration detail: replaying
/// the best-first walk from the pool's memoized statistics must produce the
/// exact trace of the from-scratch walk, across the S × threads execution
/// matrix. The reference is the audited stepped loop, which holds the
/// hierarchy to the full root-to-frontier walk at every barrier; one
/// reference suffices because shard and thread counts provably never
/// change a trace (tests above).
#[test]
fn frontier_regeneration_selects_identical_sequences() {
    let reference = run_cfg(Drive::Stepped, TraversalKind::Hybrid, None, 1, 1);
    assert!(reference.questions() > 0, "reference run asked nothing");
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let pooled = run_cfg(Drive::Run, TraversalKind::Hybrid, None, shards, threads);
            assert_equivalent(
                &reference,
                &pooled,
                &format!("frontier S={shards} T={threads}"),
            );
        }
    }
}

/// Warm-start retraining is pure buffer reuse: a run with
/// `DarwinConfig::warm_start` on must replay the cold-start reference
/// trace (and final scores) bit for bit, across the shards × threads
/// execution matrix.
#[test]
fn warm_start_selects_identical_sequences() {
    let run_warm = |warm: bool, shards: usize, threads: usize| {
        let (d, index) = directions_fixture(800, 42);
        let cfg = DarwinConfig {
            budget: 20,
            n_candidates: 1500,
            warm_start: warm,
            shards,
            threads,
            ..DarwinConfig::fast()
        };
        let darwin = inproc_shards(Darwin::new(&d.corpus, &index, cfg));
        let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
        let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
        darwin.run(seed, &mut oracle)
    };
    let cold = run_warm(false, 1, 1);
    assert!(cold.questions() > 0, "cold reference run asked nothing");
    for shards in [1usize, 4] {
        for threads in [1usize, test_threads().max(2)] {
            let warm = run_warm(true, shards, threads);
            assert_equivalent(&cold, &warm, &format!("warm S={shards} T={threads}"));
        }
    }
}

/// The same invariant on the paper's classifier: at `DarwinConfig::paper()`
/// (the Kim CNN) a session is one trace, one positive set and one score
/// vector whatever `threads`, `shards` and `warm_start` say — refresh
/// threads each score their ids through an activation table of their own,
/// and a table can only ever hold what the kernel computed.
#[test]
fn cnn_sessions_are_invariant_under_threads_shards_and_warm_start() {
    let d = darwin::datasets::professions::generate(2_000, 42);
    let index = indexed(&d.corpus, 4);
    let positives: Vec<u32> = (0..d.len() as u32)
        .filter(|&id| d.labels[id as usize])
        .take(2)
        .collect();
    let run = |threads: usize, shards: usize, warm: bool| {
        let cfg = DarwinConfig {
            budget: 6,
            threads,
            shards,
            warm_start: warm,
            ..DarwinConfig::paper()
        };
        let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
        inproc_shards(Darwin::new(&d.corpus, &index, cfg))
            .run(Seed::Positives(positives.clone()), &mut oracle)
    };
    let reference = run(1, 1, false);
    assert!(
        !reference.accepted.is_empty() && reference.positives.len() > positives.len(),
        "reference run accepted no rule: nothing was retrained on"
    );
    for threads in [1usize, 2] {
        for shards in [1usize, 2] {
            for warm in [true, false] {
                if (threads, shards, warm) == (1, 1, false) {
                    continue; // the reference cell itself
                }
                let got = run(threads, shards, warm);
                let label = format!("cnn T={threads} S={shards} warm={warm}");
                assert_equivalent(&reference, &got, &label);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..Default::default() })]

    /// The classifier scoring matrix on random corpora: calls of every
    /// chunk size, sharded and threaded refreshes — and warm-started
    /// refits — must reproduce the one-id cold-start scores bit for bit. An empty
    /// sentence is pinned into every corpus (the kernel edge case: its
    /// score is bias-only).
    #[test]
    fn scoring_paths_agree_across_batch_shards_threads(
        texts in corpus_strategy(),
        batch in 1usize..6,
        shards in 1usize..5,
        threads in 1usize..5,
    ) {
        let mut texts = texts;
        texts.push(String::new()); // empty sentence: bias-only score
        let corpus = Corpus::from_texts(texts.iter());
        let n = corpus.len();
        let emb = Embeddings::train(&corpus, &EmbedConfig { dim: 8, seed: 3, ..Default::default() });
        let pos: Vec<u32> = (0..n as u32).step_by(2).collect();
        let neg: Vec<u32> = (1..n as u32).step_by(2).collect();
        let pos2: Vec<u32> = pos.iter().copied().skip(1).collect();

        let fit_rounds = |warm: bool| {
            let cfg = LogRegConfig { warm_start: warm, ..Default::default() };
            let mut clf = LogReg::new(&emb, cfg, 7);
            clf.fit(&corpus, &emb, &pos, &neg);
            if !pos2.is_empty() {
                clf.fit(&corpus, &emb, &pos2, &neg);
            }
            clf
        };
        let cold = fit_rounds(false);
        let warm = fit_rounds(true);

        // One-id calls: the reference every other path must match.
        let one_id = |clf: &LogReg, id: u32| {
            let mut out = Vec::new();
            clf.predict_batch(&corpus, &emb, &[id], &mut out);
            out[0].to_bits()
        };
        let reference: Vec<u32> = (0..n as u32).map(|id| one_id(&cold, id)).collect();

        // Warm refit ≡ cold refit, per id.
        for id in 0..n as u32 {
            prop_assert_eq!(one_id(&warm, id), reference[id as usize],
                "warm≠cold at id {}", id);
        }

        // Calls in arbitrary chunk sizes ≡ one-id calls.
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut batched = Vec::new();
        for chunk in ids.chunks(batch) {
            cold.predict_batch(&corpus, &emb, chunk, &mut batched);
        }
        let batched_bits: Vec<u32> = batched.iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(&batched_bits, &reference, "batch={}", batch);

        // Sharded + threaded cache refresh ≡ one-id calls.
        let mut cache = ScoreCache::full_only(n).with_shards(shards).with_threads(threads);
        cache.refresh(&warm, &corpus, &emb);
        let cache_bits: Vec<u32> = cache.scores().iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(&cache_bits, &reference, "shards={} threads={}", shards, threads);
    }
}

type MakeStrategy = fn() -> Box<dyn darwin_core::Strategy>;

#[test]
fn baseline_selectors_select_identical_sequences() {
    let cases: [(&str, MakeStrategy); 2] =
        [("HighP", || Box::new(HighP)), ("HighC", || Box::new(HighC))];
    for (label, make) in cases {
        let reference = run_sharded(Drive::Stepped, TraversalKind::Hybrid, Some(make), 1);
        let run = run_sharded(Drive::Run, TraversalKind::Hybrid, Some(make), 1);
        assert_equivalent(&reference, &run, label);
        // The baselines ride the same sharded engine — shard count must
        // not change their traces either.
        let sharded = run_sharded(Drive::Run, TraversalKind::Hybrid, Some(make), 4);
        assert_equivalent(&reference, &sharded, &format!("{label} S=4"));
    }
}

/// Three annotators in rounds — waves of three over an `AnnotatorPool`,
/// one retrain per round: the wave refill ranks by the same merged
/// aggregates, so S ∈ {2, 4} shard workers replay the local rounds. (The
/// wave-barrier audit of those aggregates against their from-scratch
/// values lives beside the driver, in `darwin_core::batch`'s tests.)
#[test]
fn parallel_rounds_select_identical_sequences() {
    let run = |shards: usize| {
        let (d, index) = directions_fixture(600, 7);
        let cfg = DarwinConfig {
            budget: 12,
            n_candidates: 1200,
            shards,
            threads: test_threads(),
            batch: BatchPolicy::Fixed(3),
            ..DarwinConfig::fast()
        };
        let darwin = inproc_shards(Darwin::new(&d.corpus, &index, cfg));
        let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
        let mut pool = AnnotatorPool::new(vec![
            GroundTruthOracle::new(&d.labels, 0.8),
            GroundTruthOracle::new(&d.labels, 0.8),
            GroundTruthOracle::new(&d.labels, 0.8),
        ]);
        let done = darwin.run_async(seed, &mut pool);
        assert!(done.report.peak_in_flight > 1, "rounds never batched");
        done.run
    };
    let reference = run(1);
    assert!(reference.questions() > 3, "reference run asked nothing");
    for shards in [2usize, 4] {
        assert_equivalent(&reference, &run(shards), &format!("parallel S={shards}"));
    }
}

/// The audited stepped loop never sees the delta-maintained aggregates
/// drift mid-run: after every record and retrain, the local store equals a
/// from-scratch recomputation and four shard workers' mirrors equal the
/// workers; at every barrier the hierarchy equals the full walk.
#[test]
fn aggregates_stay_consistent_through_a_run() {
    for shards in [1usize, 4] {
        let (d, index) = directions_fixture(500, 11);
        let cfg = DarwinConfig {
            budget: 15,
            n_candidates: 1000,
            shards,
            threads: test_threads(),
            ..DarwinConfig::fast()
        };
        let darwin = inproc_shards(Darwin::new(&d.corpus, &index, cfg));
        let seed = || Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
        let remote = darwin.engine(seed()).store().unwrap().is_remote();
        assert_eq!(remote, shards > 1, "S={shards}: wrong deployment");
        let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
        let run = step_reference(&darwin, seed(), &mut oracle);
        assert!(run.wire_error.is_none(), "S={shards}: {:?}", run.wire_error);
        assert!(
            run.questions() > 3 && run.trace.iter().any(|t| t.answer),
            "S={shards}: run ended suspiciously early"
        );
    }
}

/// A local run is one full-span store whatever `DarwinConfig::shards`
/// says: at `shards: 4` without workers the engine holds a single local
/// store, and the run replays the `shards: 1` trace, positives and scores
/// bit for bit.
#[test]
fn local_run_is_one_full_span_store_at_any_shard_count() {
    let (d, index) = directions_fixture(500, 11);
    let cfg = |shards| DarwinConfig {
        budget: 15,
        n_candidates: 1000,
        shards,
        threads: test_threads(),
        ..DarwinConfig::fast()
    };
    let seed = || Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let four = Darwin::new(&d.corpus, &index, cfg(4));
    {
        let engine = four.engine(seed());
        let store = engine.store().expect("a local engine always holds a store");
        assert_eq!(store.shards(), 1);
        assert!(!store.is_remote());
        assert_eq!(store.as_local().map(|b| b.span()), Some((0, u32::MAX)));
    }
    let run = |darwin: &Darwin<'_>| darwin.run(seed(), &mut GroundTruthOracle::new(&d.labels, 0.8));
    let reference = run(&Darwin::new(&d.corpus, &index, cfg(1)));
    assert!(reference.questions() > 3, "reference run ended early");
    assert_equivalent(&reference, &run(&four), "local S=4 vs S=1");
}

/// Brute-force tree matching replays the index postings the engine reads.
/// A full session is run twice (the traces must already be identical),
/// and then every tree rule the trace selected — plus a broad sample of
/// indexed tree rules — has its coverage recomputed by the plain recursive
/// matcher and compared against the index postings.
#[test]
fn match_kernels_replay_reference_trace() {
    let a = run_sharded(Drive::Run, TraversalKind::Hybrid, None, 1);
    let b = run_sharded(Drive::Run, TraversalKind::Hybrid, None, 1);
    assert_equivalent(&a, &b, "match trace replay");
    assert!(a.questions() > 0, "run asked nothing");

    let (d, index) = directions_fixture(800, 42);
    let tree = index.tree_index().expect("the fixture indexes tree rules");
    let mut checked = 0usize;
    let traced: Vec<&Heuristic> = a.trace.iter().map(|t| &t.rule).collect();
    let sampled: Vec<Heuristic> = index
        .all_rules()
        .map(|r| index.heuristic(r))
        .filter(|h| matches!(h, Heuristic::Tree(_)))
        .take(300)
        .collect();
    for h in traced.into_iter().chain(sampled.iter()) {
        let Heuristic::Tree(p) = h else { continue };
        let Some(id) = tree.lookup(p) else { continue };
        assert_eq!(
            tree.postings(id),
            &h.coverage(&d.corpus)[..],
            "recursive matcher vs postings: {}",
            p.display(d.corpus.vocab())
        );
        checked += 1;
    }
    assert!(checked >= 100, "too few tree rules exercised: {checked}");
}
