//! Edge cases of incremental-frontier invalidation: the pool's contract is
//! "byte-for-byte the from-scratch walk, whatever happens to `P`" — these
//! tests drive the paths where that is easiest to get wrong: a
//! regeneration with *no* dirty ids (must not re-score anything), a YES
//! that exhausts/empties the expansion heap and the candidate pool, and an
//! epoch-stale pool (positives grown behind its back) that must be
//! rejected, not patched.

use darwin::core::candidates::generate_hierarchy_pooled;
use darwin::core::{Darwin, DarwinConfig, FrontierPool, GroundTruthOracle, Seed, TraversalKind};
use darwin::grammar::Heuristic;
use darwin::index::IdSet;
use darwin_testkit::{
    assert_equivalent, assert_same_pool, step_reference, tiny_transport as setup,
};

/// A regeneration with an empty dirty set (e.g. the loop regenerates after
/// a NO, or twice in a row) must apply no deltas and re-score nothing —
/// and still reproduce the from-scratch output.
#[test]
fn empty_dirty_set_rescores_nothing() {
    let (c, idx) = setup();
    let p = IdSet::from_ids(&[0, 1], c.len());
    let mut pool = FrontierPool::new();
    assert_same_pool(&c, &idx, &p, 500, &mut pool, "first generation");
    let after_first = pool.stats();
    assert_same_pool(&c, &idx, &p, 500, &mut pool, "regeneration, nothing dirty");
    let after_second = pool.stats();
    assert_eq!(after_second.delta_batches, after_first.delta_batches);
    assert_eq!(after_second.rules_rescored, after_first.rules_rescored);
    assert_eq!(after_second.full_rebuilds, 0, "nothing warranted a rebuild");
    assert_eq!(
        after_second.fresh_nodes, after_first.fresh_nodes,
        "every statistic must be a memo hit the second time"
    );
    assert_eq!(after_second.generations, 2);
}

/// A YES can exhaust the walk: once `P` touches every sentence, every rule
/// is fully covered (`count == overlap`), the §3.2.1 cleanup drops the
/// entire pool and the open heap runs dry. The pooled path must land in
/// the same empty hierarchy — and recover if regeneration keeps being
/// asked for.
#[test]
fn pool_emptying_yes_matches_full_regeneration() {
    let (c, idx) = setup();
    let n = c.len();
    let mut pool = FrontierPool::new();
    let mut p = IdSet::from_ids(&[0, 1], n);
    assert_same_pool(&c, &idx, &p, 10_000, &mut pool, "before the flood");

    // The flood: every remaining sentence turns positive at once.
    let rest: Vec<u32> = (0..n as u32).filter(|&id| !p.contains(id)).collect();
    pool.note_positives(&rest);
    p.extend_from_slice(&rest);
    assert_same_pool(&c, &idx, &p, 10_000, &mut pool, "after the flood");
    let (h, _) = generate_hierarchy_pooled(&c, &idx, &p, 10_000, usize::MAX, &mut pool);
    assert!(
        h.is_empty(),
        "P covers the corpus: every candidate is fully covered and cleaned away"
    );
    // Asking again (empty pool, empty dirty set) stays correct and cheap.
    assert_same_pool(
        &c,
        &idx,
        &p,
        10_000,
        &mut pool,
        "regeneration after the flood",
    );
    assert_eq!(pool.stats().full_rebuilds, 0, "deltas covered everything");
}

/// Reusing a pool whose epoch stamp no longer matches `|P|` — positives
/// grew without `note_positives`, or were reported incompletely — must be
/// rejected: the cached statistics are dropped and the walk rebuilds from
/// scratch rather than serving stale overlaps.
#[test]
fn epoch_stale_pool_reuse_is_rejected() {
    let (c, idx) = setup();
    let n = c.len();
    let mut pool = FrontierPool::new();
    let mut p = IdSet::from_ids(&[0], n);
    assert_same_pool(&c, &idx, &p, 500, &mut pool, "initial");
    assert_eq!(pool.epoch(), 1);

    // P grows behind the pool's back.
    p.extend_from_slice(&[1, 2]);
    assert_ne!(pool.epoch(), p.len(), "the pool is now provably stale");
    assert_same_pool(&c, &idx, &p, 500, &mut pool, "after unreported growth");
    assert_eq!(pool.stats().full_rebuilds, 1, "stale reuse must rebuild");
    assert_eq!(pool.epoch(), p.len(), "rebuild re-stamps the epoch");

    // Incomplete reporting (one of two new ids) is just as stale.
    pool.note_positives(&[3]);
    p.extend_from_slice(&[3, 4]);
    assert_same_pool(&c, &idx, &p, 500, &mut pool, "after partial report");
    assert_eq!(pool.stats().full_rebuilds, 2);

    // Back under contract: correctly reported growth patches by delta.
    pool.note_positives(&[5]);
    p.insert(5);
    assert_same_pool(&c, &idx, &p, 500, &mut pool, "back under contract");
    assert_eq!(
        pool.stats().full_rebuilds,
        2,
        "no rebuild once honest again"
    );
}

/// A compensating contract violation — a double-reported id masking a
/// missed one, or an already-positive id reported as new — keeps `|P|`
/// and the journal length in agreement, so the epoch stamp alone cannot
/// tell; the reflected-id check must reject it anyway.
#[test]
fn compensating_journal_violations_are_rejected() {
    let (c, idx) = setup();
    let n = c.len();
    let mut pool = FrontierPool::new();
    let mut p = IdSet::from_ids(&[0], n);
    assert_same_pool(&c, &idx, &p, 500, &mut pool, "initial");

    // P gains {1, 2}, but the caller reports [1, 1].
    pool.note_positives(&[1, 1]);
    p.extend_from_slice(&[1, 2]);
    assert_eq!(pool.epoch(), p.len(), "the |P| stamp alone cannot tell");
    assert_same_pool(&c, &idx, &p, 500, &mut pool, "after double-report");
    assert_eq!(pool.stats().full_rebuilds, 1, "must reject, not patch");

    // P gains {3}, but the caller reports the long-positive id 0.
    pool.note_positives(&[0]);
    p.insert(3);
    assert_eq!(pool.epoch(), p.len());
    assert_same_pool(&c, &idx, &p, 500, &mut pool, "after stale-id report");
    assert_eq!(pool.stats().full_rebuilds, 2);
}

/// Engine-level smoke over the same edges: a run whose oracle accepts
/// everything floods `P` until the hierarchy empties. The audited stepped
/// loop holds the frontier's hierarchy to the full regeneration at every
/// barrier through it, and the wave driver replays the stepped trace.
#[test]
fn engine_traces_identical_through_pool_exhaustion() {
    let (c, idx) = setup();
    let labels = vec![true; c.len()];
    let cfg = DarwinConfig {
        budget: 12,
        n_candidates: 400,
        max_coverage_frac: 1.0,
        ..DarwinConfig::fast().with_traversal(TraversalKind::Universal)
    };
    let darwin = Darwin::new(&c, &idx, cfg);
    let seed = || Seed::Rule(Heuristic::phrase(&c, "shuttle").unwrap());
    let stepped = step_reference(&darwin, seed(), &mut GroundTruthOracle::new(&labels, 0.0));
    let run = darwin.run(seed(), &mut GroundTruthOracle::new(&labels, 0.0));
    assert_equivalent(&stepped, &run, "through pool exhaustion");
    assert_eq!(
        stepped.positives.len(),
        c.len(),
        "the run must flood P until the pool empties"
    );
}
