//! Trace-capture assertions shared by the equivalence suites.

use darwin_core::candidates::{generate_hierarchy_pooled, generate_hierarchy_scored};
use darwin_core::traversal::{HybridSearch, LocalSearch, UniversalSearch};
use darwin_core::{Darwin, FrontierPool, Oracle, RunResult, Seed, Strategy, TraversalKind};
use darwin_index::{IdSet, IndexSet, RuleRef};
use darwin_text::Corpus;

/// The sequential reference run: Algorithm 1 as a plain loop of
/// `Engine::step` — select, ask, record, feed back, retrain on YES —
/// until the budget is spent or nothing is left to ask. Every run entry
/// of `Darwin` goes through the wave driver; the equivalence suites
/// compare them against this loop, which shares no code with it (the
/// configured-traversal mapping below is the harness's own copy).
pub fn step_reference(darwin: &Darwin<'_>, seed: Seed, oracle: &mut dyn Oracle) -> RunResult {
    let cfg = darwin.config();
    step_reference_with(darwin, seed, oracle, |seeds| match cfg.traversal {
        TraversalKind::Local => Box::new(LocalSearch::new(seeds.to_vec())),
        TraversalKind::Universal => Box::new(UniversalSearch::new()),
        TraversalKind::Hybrid => Box::new(HybridSearch::new(seeds.to_vec(), cfg.tau)),
    })
}

/// [`step_reference`] with a custom selection strategy — the stepped twin
/// of `Darwin::run_with`.
pub fn step_reference_with(
    darwin: &Darwin<'_>,
    seed: Seed,
    oracle: &mut dyn Oracle,
    make_strategy: impl FnOnce(&[RuleRef]) -> Box<dyn Strategy>,
) -> RunResult {
    let mut engine = darwin.engine(seed);
    let mut strategy = make_strategy(engine.seed_refs());
    for _ in 0..darwin.config().budget {
        if !engine.step(&mut *strategy, oracle) {
            break;
        }
    }
    engine.finish()
}

/// Assert two runs are byte-for-byte equivalent: same question sequence,
/// same answers, same per-step `P` growth, same final positives and
/// scores. The backbone of every execution-layer equivalence claim
/// (incremental vs rescan, shard counts, thread counts, async batch 1 vs
/// the synchronous loop).
pub fn assert_equivalent(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(
        a.trace.len(),
        b.trace.len(),
        "{label}: question counts differ"
    );
    for (x, y) in a.trace.iter().zip(&b.trace) {
        assert_eq!(
            x.rule, y.rule,
            "{label}: question {} asked a different rule",
            x.question
        );
        assert_eq!(
            x.answer, y.answer,
            "{label}: question {} got a different answer",
            x.question
        );
        assert_eq!(
            x.new_positive_ids, y.new_positive_ids,
            "{label}: question {} grew P differently",
            x.question
        );
    }
    assert_eq!(
        a.positives, b.positives,
        "{label}: final positive sets differ"
    );
    assert_eq!(a.scores, b.scores, "{label}: final scores differ");
}

/// Assert two runs land in the same *final* state — positives, scores and
/// the accepted rule set as a set — without constraining per-step trace
/// order. This is the async loop's arrival-schedule invariance: answers of
/// one wave may apply in any order (reordering trace steps within the
/// wave), but the drained wave always leaves identical state.
pub fn assert_same_final(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(
        a.positives, b.positives,
        "{label}: final positive sets differ"
    );
    assert_eq!(a.scores, b.scores, "{label}: final scores differ");
    assert_eq!(
        a.trace.len(),
        b.trace.len(),
        "{label}: question counts differ"
    );
    let rules = |r: &RunResult| {
        let mut v: Vec<String> = r.trace.iter().map(|t| format!("{:?}", t.rule)).collect();
        v.sort();
        v
    };
    assert_eq!(rules(a), rules(b), "{label}: question sets differ");
    let accepted = |r: &RunResult| {
        let mut v: Vec<String> = r.accepted.iter().map(|h| format!("{h:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(accepted(a), accepted(b), "{label}: accepted sets differ");
}

/// Assert a [`FrontierPool`]-backed hierarchy regeneration reproduces the
/// from-scratch walk exactly: same rule pool, same candidate statistics.
pub fn assert_same_pool(
    corpus: &Corpus,
    idx: &IndexSet,
    p: &IdSet,
    k: usize,
    pool: &mut FrontierPool,
    label: &str,
) {
    let (pooled_h, pooled_c) = generate_hierarchy_pooled(corpus, idx, p, k, usize::MAX, pool);
    let (scratch_h, scratch_c) = generate_hierarchy_scored(idx, p, k, usize::MAX);
    assert_eq!(
        pooled_h.rules(),
        scratch_h.rules(),
        "{label}: rule pools differ"
    );
    assert_eq!(
        pooled_c.len(),
        scratch_c.len(),
        "{label}: candidate counts differ"
    );
    for (a, b) in pooled_c.iter().zip(&scratch_c) {
        assert_eq!(
            (a.rule, a.overlap, a.count),
            (b.rule, b.overlap, b.count),
            "{label}: candidate statistics differ"
        );
    }
}
