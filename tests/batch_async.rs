//! The question loop's defining contracts (`darwin_core::batch`):
//!
//! 1. **Synchronous replay.** With `BatchPolicy::Fixed(1)` and the
//!    `Immediate` adapter, the wave driver (`Darwin::run_async`, and
//!    `Darwin::run`/`run_with`, which are that configuration) replays the
//!    sequential reference — the harness's audited stepped loop over the
//!    engine's verbs, which shares no code with the driver — byte for
//!    byte, at every shard count (S > 1
//!    runs over InProc shard workers), thread count and answer-arrival
//!    schedule (one question in flight means a schedule can only delay,
//!    never reorder).
//! 2. **Arrival invariance.** For any fixed batch size, the *final* state
//!    (positives, scores, question set, accepted set) is invariant under
//!    the answer-arrival schedule and the S × threads execution matrix:
//!    wave membership is fixed before any of the wave's answers apply,
//!    and everything an answer mutates commutes (`P` union, fixed-point
//!    benefit sums, one retrain per drained wave).
//!
//! `DARWIN_TEST_BATCH` (CI runs 1 and 8) sets the wave size the
//! env-driven check runs with, mirroring `DARWIN_TEST_THREADS`.

use darwin::baselines::HighP;
use darwin::prelude::*;
use darwin_core::batch::ScriptedArrival;
use darwin_core::{AnnotatorPool, AsyncRunResult};
use darwin_testkit::{
    assert_equivalent, assert_same_final, directions_fixture, indexed, inproc_shards,
    step_reference, step_reference_with, test_batch, test_threads, transport, NoisyOracle,
    ScriptedOracle,
};
use proptest::prelude::*;

fn cfg(batch: BatchPolicy, shards: usize, threads: usize) -> DarwinConfig {
    DarwinConfig {
        budget: 15,
        n_candidates: 1200,
        shards,
        threads,
        batch,
        ..DarwinConfig::fast()
    }
}

/// The sequential reference: the audited stepped loop, not a `Darwin` run
/// entry (those all go through the driver under test).
fn run_sync(n: usize, dseed: u64, shards: usize, threads: usize) -> RunResult {
    let (d, index) = directions_fixture(n, dseed);
    let darwin = Darwin::new(
        &d.corpus,
        &index,
        cfg(BatchPolicy::Fixed(1), shards, threads),
    );
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut oracle = GroundTruthOracle::new(&d.labels, 0.8);
    step_reference(&darwin, seed, &mut oracle)
}

fn run_async(
    n: usize,
    dseed: u64,
    batch: BatchPolicy,
    holds: &[usize],
    shards: usize,
    threads: usize,
) -> AsyncRunResult {
    let (d, index) = directions_fixture(n, dseed);
    let darwin = inproc_shards(Darwin::new(&d.corpus, &index, cfg(batch, shards, threads)));
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut oracle = ScriptedArrival::new(GroundTruthOracle::new(&d.labels, 0.8), holds.to_vec());
    darwin.run_async(seed, &mut oracle)
}

/// Contract 1, pinned on the suite fixture: batch 1 + immediate answers =
/// the stepped sequential loop, byte for byte, across the shard matrix at
/// the env-configured thread count.
#[test]
fn batch1_immediate_replays_synchronous_trace() {
    let threads = test_threads();
    let reference = run_sync(600, 42, 1, threads);
    assert!(reference.questions() > 5, "reference run asked nothing");
    for shards in [1usize, 2, 4] {
        let done = run_async(600, 42, BatchPolicy::Fixed(1), &[], shards, threads);
        assert_equivalent(
            &reference,
            &done.run,
            &format!("batch=1 S={shards} T={threads}"),
        );
        assert_eq!(done.report.peak_in_flight, 1);
        assert_eq!(done.report.submitted, reference.questions());
        assert_eq!(
            done.report.cost.cents,
            reference.questions() * 6,
            "§4.3: 3 members × 2¢ per question"
        );
    }
}

/// Contract 2, adversarial schedule: a wave's first-submitted question is
/// answered last, with the rest arriving staggered — the final state must
/// match the immediate-delivery run of the same batch size exactly.
#[test]
fn adversarial_out_of_order_delivery_matches_immediate() {
    let batch = BatchPolicy::Fixed(4);
    let reference = run_async(600, 42, batch.clone(), &[], 1, 1);
    assert!(
        reference.report.peak_in_flight > 1,
        "fixture must actually pipeline"
    );
    // Submission i held for holds[i % len] polls: within a 4-wave the
    // first submission lands last, the second second-to-last, etc.
    for holds in [vec![3usize, 2, 1, 0], vec![7, 0, 3, 1], vec![1, 5, 0, 2]] {
        let scrambled = run_async(600, 42, batch.clone(), &holds, 1, 1);
        assert_same_final(
            &reference.run,
            &scrambled.run,
            &format!("adversarial schedule {holds:?}"),
        );
        assert_eq!(
            scrambled.report.submitted,
            scrambled.run.questions(),
            "every submitted question answered exactly once"
        );
        assert_eq!(scrambled.report.retrains, reference.report.retrains);
    }
}

/// The env-driven matrix cell (CI: DARWIN_TEST_BATCH ∈ {1, 8} ×
/// DARWIN_TEST_THREADS ∈ {1, 4}): the configured batch size must be
/// schedule-invariant, and at batch 1 equal the synchronous loop.
#[test]
fn env_batch_is_schedule_invariant() {
    let (batch, threads) = (test_batch(), test_threads());
    let policy = BatchPolicy::Fixed(batch);
    let immediate = run_async(600, 42, policy.clone(), &[], 1, threads);
    let scrambled = run_async(600, 42, policy, &[2, 0, 4, 1, 3], 1, threads);
    assert_same_final(
        &immediate.run,
        &scrambled.run,
        &format!("batch={batch} T={threads}"),
    );
    if batch == 1 {
        let sync = run_sync(600, 42, 1, threads);
        assert_equivalent(&sync, &immediate.run, "batch=1 vs synchronous");
    }
}

/// The adaptive policies must complete and actually batch. BenefitDecay is
/// deterministic (no wall-clock input), so it must also be
/// schedule-invariant; LatencyTargeted sizes wave from measurements, so
/// only its outcome sanity is asserted.
#[test]
fn adaptive_policies_drive_the_loop() {
    let decay = BatchPolicy::BenefitDecay {
        max: 8,
        cutoff: 0.5,
    };
    let a = run_async(600, 42, decay.clone(), &[], 1, 1);
    let b = run_async(600, 42, decay, &[1, 3, 0, 2], 1, 1);
    assert_same_final(&a.run, &b.run, "benefit-decay schedule invariance");
    assert!(a.report.peak_in_flight > 1, "decay policy never batched");

    let lat = run_async(600, 42, BatchPolicy::LatencyTargeted { max: 8 }, &[], 1, 1);
    assert!(lat.run.questions() > 5);
    assert!(!lat.run.accepted.is_empty());
    assert!(lat.report.peak_in_flight <= 8);
}

/// Scripted answers are selection-independent, so they hold the question
/// *sequence* fixed across loop flavors: on the transport fixture, a
/// scripted YES/NO interleaving through the async loop at batch 1 must
/// replay the synchronous run byte for byte — including the YES-flood
/// prefix that floods `P` through the out-of-order application path.
#[test]
fn scripted_answers_replay_identically_through_the_async_loop() {
    let (corpus, _labels) = transport();
    let index = indexed(&corpus, 4);
    let script = [true, true, false, true, false, false, true, false];
    let make_cfg = || cfg(BatchPolicy::Fixed(1), 1, 1);
    let seed = || Seed::Rule(Heuristic::phrase(&corpus, "shuttle to the airport").unwrap());

    let sync = {
        let mut oracle = ScriptedOracle::new(script);
        step_reference(
            &Darwin::new(&corpus, &index, make_cfg()),
            seed(),
            &mut oracle,
        )
    };
    let done = {
        let mut oracle = Immediate::new(ScriptedOracle::new(script));
        Darwin::new(&corpus, &index, make_cfg()).run_async(seed(), &mut oracle)
    };
    assert!(sync.questions() > 3, "scripted run stalled");
    assert_equivalent(&sync, &done.run, "scripted batch=1 vs synchronous");
}

/// A custom strategy rides the same driver: `run_with(HighP)` — and the
/// default `run`, at a batch policy both must ignore — replay the stepped
/// loop byte for byte.
#[test]
fn run_and_run_with_replay_the_step_loop() {
    let (d, index) = directions_fixture(600, 42);
    let darwin = Darwin::new(&d.corpus, &index, cfg(BatchPolicy::Fixed(3), 1, 1));
    let seed = || Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let oracle = || GroundTruthOracle::new(&d.labels, 0.8);

    let stepped = step_reference_with(&darwin, seed(), &mut oracle(), |_| Box::new(HighP));
    let driven = darwin.run_with(seed(), &mut oracle(), |_| Box::new(HighP));
    assert!(stepped.questions() > 5, "HighP reference run asked nothing");
    assert_equivalent(&stepped, &driven, "run_with(HighP) vs step loop");

    let stepped = step_reference(&darwin, seed(), &mut oracle());
    let driven = darwin.run(seed(), &mut oracle());
    assert_equivalent(&stepped, &driven, "run at Fixed(3) vs step loop");
}

/// §4.3 accounting against noisy annotators — three of them in an
/// `AnnotatorPool`, waves of three: the report prices every asked
/// question at members × 2¢ regardless of answer quality, the question
/// count reconciles with the per-annotator ask counts, and a 10%
/// answer-flip rate doesn't stall discovery.
#[test]
fn noisy_crowd_run_reconciles_with_cost_report() {
    let (d, index) = directions_fixture(600, 42);
    let darwin = Darwin::new(&d.corpus, &index, cfg(BatchPolicy::Fixed(3), 1, 1));
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut pool = AnnotatorPool::new(vec![
        NoisyOracle::new(&d.labels, 0.1, 1),
        NoisyOracle::new(&d.labels, 0.1, 2),
        NoisyOracle::new(&d.labels, 0.1, 3),
    ]);
    let AsyncRunResult { run, report } = darwin.run_async(seed, &mut pool);
    assert!(run.questions() > 3, "noisy crowd run stalled");
    assert!(report.peak_in_flight <= 3 && report.abandoned == 0);
    assert_eq!(report.cost, CostModel::paper().report(run.questions()));
    assert_eq!(report.cost.judgments, run.questions() * 3);
    assert_eq!(
        report.cost.cents,
        run.questions() * 6,
        "3 members × 2¢ a question"
    );
    let asked: Vec<usize> = pool.annotators().iter().map(|a| a.queries()).collect();
    assert_eq!(
        asked.iter().sum::<usize>(),
        run.questions(),
        "every question went to exactly one annotator"
    );
    assert!(
        asked.iter().all(|&q| q > 0),
        "every annotator worked: {asked:?}"
    );
    let distinct: std::collections::HashSet<_> = run.trace.iter().map(|t| &t.rule).collect();
    assert_eq!(distinct.len(), run.questions(), "a rule was asked twice");
    assert!(
        run.positives.len() > run.p_size_after(0),
        "10% flips must not stop P from growing"
    );
}

/// An annotator pool with nobody in it is caller input, not a bug in this
/// program: no panic — the driver sees an oracle that cannot answer,
/// abandons the first wave at once and returns the (seed-only) run.
#[test]
fn empty_annotator_pool_abandons_instead_of_panicking() {
    let (d, index) = directions_fixture(600, 42);
    let darwin = Darwin::new(&d.corpus, &index, cfg(BatchPolicy::Fixed(3), 1, 1));
    let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
    let mut nobody = AnnotatorPool::<GroundTruthOracle<'_>>::new(Vec::new());
    assert!(!nobody.healthy());
    let done = darwin.run_async(seed, &mut nobody);
    assert_eq!(done.report.waves, 1, "gave up on the first wave");
    assert_eq!(done.report.abandoned, done.report.submitted);
    assert!(done.report.abandoned > 0 && done.report.abandoned <= 3);
    assert_eq!(done.run.questions(), 0, "nothing was answered");
    assert_eq!(done.run.positives.len(), done.run.p_size_after(0));
    assert!(done.run.wire_error.is_none());
}

/// The async loop under a noisy oracle: §4.3 pricing rides the report
/// (the paper's model; any other is one `CostModel::report` call), and
/// determinism holds (same noise seed ⇒ same trace) even with batching.
#[test]
fn noisy_async_run_is_deterministic_and_priced() {
    let (d, index) = directions_fixture(600, 42);
    let run = || {
        let darwin = Darwin::new(&d.corpus, &index, cfg(BatchPolicy::Fixed(4), 1, 1));
        let seed = Seed::Rule(Heuristic::phrase(&d.corpus, d.seed_rules[0]).unwrap());
        let mut oracle = darwin_core::Immediate::new(NoisyOracle::new(&d.labels, 0.15, 7));
        darwin.run_async(seed, &mut oracle)
    };
    let x = run();
    let y = run();
    assert_equivalent(&x.run, &y.run, "noisy async determinism");
    assert_eq!(x.report.cost.cents, x.run.questions() * 6);
    let single = CostModel::single().report(x.run.questions());
    assert_eq!(single.cents, x.run.questions() * 2);
    assert_eq!(single.judgments, x.run.questions());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..Default::default() })]

    /// The full (batch, arrival schedule, S, threads) matrix against the
    /// synchronous reference: batch 1 replays it byte for byte; every
    /// batch size is invariant in final state under schedule, shards and
    /// threads.
    #[test]
    fn batch_matrix_against_synchronous_reference(
        n in 220usize..300,
        dseed in 0u64..500,
        batch in prop::sample::select(vec![1usize, 2, 4, 8]),
        holds in prop::collection::vec(0usize..5, 1..8),
        shards in prop::sample::select(vec![1usize, 2, 4]),
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let sync = run_sync(n, dseed, 1, 1);
        let policy = BatchPolicy::Fixed(batch);
        // The cell under test: scripted schedule, sharded, threaded.
        let cell = run_async(n, dseed, policy.clone(), &holds, shards, threads);
        // Its immediate-delivery, unsharded sibling.
        let reference = run_async(n, dseed, policy, &[], 1, 1);

        prop_assert_eq!(
            cell.run.positives.clone(),
            reference.run.positives.clone(),
            "batch={} holds={:?} S={} T={}: final P differs from immediate sibling",
            batch, &holds, shards, threads
        );
        prop_assert_eq!(
            cell.run.scores.clone(),
            reference.run.scores.clone(),
            "batch={} S={} T={}: final scores differ from immediate sibling",
            batch, shards, threads
        );
        prop_assert_eq!(cell.run.questions(), reference.run.questions());
        if batch == 1 {
            // One in flight: the async loop IS the synchronous loop.
            prop_assert_eq!(
                cell.run.positives.clone(), sync.positives.clone(),
                "batch=1 must replay the synchronous positives"
            );
            prop_assert_eq!(cell.run.scores.clone(), sync.scores.clone());
            for (x, y) in cell.run.trace.iter().zip(&sync.trace) {
                prop_assert_eq!(&x.rule, &y.rule, "q{}: rule differs from sync", x.question);
                prop_assert_eq!(x.answer, y.answer);
                prop_assert_eq!(&x.new_positive_ids, &y.new_positive_ids);
            }
        }
    }
}
