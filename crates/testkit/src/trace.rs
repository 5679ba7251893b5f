//! The audited sequential reference and the trace-capture assertions
//! shared by the equivalence suites.

use darwin_core::benefit::benefit;
use darwin_core::candidates::{generate_hierarchy_pooled, generate_hierarchy_scored};
use darwin_core::traversal::{HybridSearch, LocalSearch, UniversalSearch};
use darwin_core::{Darwin, Engine, FrontierPool, Oracle, RunResult, Seed, Strategy, TraversalKind};
use darwin_index::{IdSet, IndexSet, RuleRef};
use darwin_text::Corpus;

/// The sequential reference run: Algorithm 1 as a plain loop over the
/// engine's verbs — select, ask, record, feed back, retrain and
/// regenerate on YES — until the budget is spent or nothing is left to
/// ask. Every run entry of `Darwin` goes through the wave driver; the
/// equivalence suites compare them against this loop, which shares no
/// code with it (the configured-traversal mapping below is the harness's
/// own copy).
///
/// The loop is also the audit of every delta-maintained structure: after
/// each `record` and each `retrain_and_sync` the benefit store, the remote
/// mirrors and every candidate's benefit must equal their from-scratch
/// values, and after each question (a barrier) the hierarchy must equal
/// the full candidate walk. A drift panics naming the question and the
/// point it was caught at.
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
    audit_benefits(&mut engine, "before the first question");
    audit_hierarchy(darwin, &engine, "before the first question");
    for _ in 0..darwin.config().budget {
        let Some(rule) = engine.select(&mut *strategy) else {
            break;
        };
        let index = darwin.index();
        let answer = oracle.ask(
            darwin.corpus(),
            &index.heuristic(rule),
            index.coverage(rule),
        );
        engine.record(rule, answer);
        let q = engine.questions();
        audit_benefits(&mut engine, &format!("question {q}, after record"));
        // The strategy observes the answer after `record` applied it, as
        // the wave driver's barrier does.
        strategy.feedback(rule, answer, &engine.ctx());
        if answer {
            engine.retrain_and_sync();
            audit_benefits(&mut engine, &format!("question {q}, after retrain"));
            engine.regen_hierarchy();
        }
        audit_hierarchy(darwin, &engine, &format!("question {q}, at the barrier"));
    }
    engine.finish()
}

/// Hold the benefit side of `engine` to its from-scratch functions: the
/// local store's tracked aggregates, the remote mirrors against their
/// workers, and every hierarchy rule's selection-time benefit against
/// [`benefit`] over its coverage, `P` and the current scores.
fn audit_benefits(engine: &mut Engine<'_>, at: &str) {
    assert!(engine.store_is_consistent(), "{at}: local store drifted");
    assert_eq!(
        engine.audit_remote_store(),
        Ok(true),
        "{at}: remote mirrors drifted"
    );
    let ctx = engine.ctx();
    for &r in engine.hierarchy().rules() {
        let scratch = benefit(ctx.index.coverage(r), ctx.p, ctx.scores);
        assert_eq!(ctx.benefit(r), scratch, "{at}: benefit of {r:?}");
    }
}

/// Hold `engine`'s candidate hierarchy to the full candidate walk over
/// the current `P` (what the frontier pool's incremental regeneration
/// must reproduce at every barrier).
fn audit_hierarchy(darwin: &Darwin<'_>, engine: &Engine<'_>, at: &str) {
    let cfg = darwin.config();
    let max_count = (cfg.max_coverage_frac * darwin.corpus().len() as f64).ceil() as usize;
    let (scratch, _) =
        generate_hierarchy_scored(darwin.index(), &engine.state.p, cfg.n_candidates, max_count);
    assert_eq!(
        engine.hierarchy().rules(),
        scratch.rules(),
        "{at}: hierarchy differs from the full walk"
    );
}

/// Assert two runs are byte-for-byte equivalent: same question sequence,
/// same answers, same per-step `P` growth, same final positives and
/// scores. The backbone of every execution-layer equivalence claim
/// (the wave driver vs the audited stepped reference, shard counts,
/// thread counts, async batch 1 vs the synchronous loop).
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
