//! The incremental question-loop engine.
//!
//! The state one run of Algorithm 1 evolves — positives, classifier,
//! scores, candidate hierarchy — and the verbs the question loop
//! ([`crate::batch::Session`]) composes: select, record, retrain,
//! regenerate. Recomputing `benefit()` over every candidate's full
//! coverage on every oracle question is an O(|rules| × |coverage|) rescan;
//! the engine instead maintains per-rule benefit aggregates *by delta*:
//!
//! * when `P` gains sentence ids, only the rules covering those ids change
//!   benefit — each loses the ids' score contributions;
//! * when the classifier re-scores a few sentences incrementally, the
//!   `(id, old, new)` journal from [`ScoreCache::last_changes`] patches the
//!   same way.
//!
//!   Both folds pick one of two exact routes by size: a few moved ids
//!   recompute their covering rules ([`IndexSet::covering_rules`]), a
//!   larger batch walks every tracked rule's postings once;
//! * when the classifier does a *full* re-score ([`ScoreCache::epoch`]
//!   bumps), sums are rebuilt from scratch — in parallel when
//!   [`crate::DarwinConfig::threads`] > 1.
//!
//! A local run keeps the aggregates in one full-span [`BenefitStore`].
//! With remote shard workers ([`crate::Darwin::with_remote_shards`]) the
//! engine is a *coordinator*: each worker keeps the fragments of one
//! contiguous id range, deltas go to the worker whose span holds the
//! sentence, and selection reads fragments merged by
//! [`ShardedBenefitStore`] — see [`crate::shard`] for why the merge is
//! exact.
//!
//! Selection then reads cached aggregates — O(|rules|) per question
//! (times the worker count when remote) instead of
//! O(|rules| × |coverage|). Because sums are kept in the fixed-point
//! domain of [`crate::benefit::quantize`], the aggregates are *bit-equal*
//! to a from-scratch [`crate::benefit::benefit`] call at every step, so
//! selection asks the exact question sequence a per-question rescan
//! would, in every deployment. There is no rescan mode: the test
//! harness's stepped loop audits the store, the remote mirrors and the
//! candidate hierarchy against their from-scratch functions after every
//! update instead.
//!
//! The engine holds its [`Darwin`] lent or owned ([`Held`]). An engine
//! that owns its system, corpus and index included, can grow it at a
//! wave barrier: [`crate::batch::Session::append`] grows the corpus, the
//! index and the embeddings, and the engine folds the appended ids into
//! every structure above in the same call.

use crate::benefit::{quantize, Benefit};
use crate::candidates::generate_hierarchy_pooled;
use crate::frontier::FrontierPool;
use crate::hierarchy::Hierarchy;
use crate::oracle::QuestionId;
use crate::pipeline::{Darwin, Held, RunResult, Seed, TraceStep};
use crate::shard::ShardedBenefitStore;
use crate::traversal::{Ctx, Strategy};
use darwin_classifier::{ScoreCache, TextClassifier};
use darwin_grammar::Heuristic;
use darwin_index::fx::{FxHashMap, FxHashSet};
use darwin_index::{AppendDelta, AppendError, IdSet, IndexSet, RuleRef, ShardMap};
use darwin_text::fanout::map_chunks;
use darwin_text::Corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Order-sensitive hash of a sorted coverage set (coverage-duplicate
/// detection: rules with identical coverage get identical oracle answers).
pub(crate) fn coverage_hash(cov: &[u32]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = darwin_index::fx::FxHasher::default();
    cov.hash(&mut h);
    h.finish()
}

/// Canonical form for alias detection across grammars: a TreeMatch bare
/// token terminal matches exactly the sentences containing that token, the
/// same set as the one-token phrase.
pub(crate) fn canonical(h: Heuristic) -> Heuristic {
    use darwin_grammar::{PhrasePattern, TreePattern, TreeTerm};
    match &h {
        Heuristic::Tree(TreePattern::Term(TreeTerm::Tok(t))) => {
            Heuristic::Phrase(PhrasePattern::from_tokens([*t]))
        }
        _ => h,
    }
}

/// Delta-maintained benefit aggregate for one rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenefitAgg {
    /// `|C_r ∩ P|` — covered sentences already positive.
    pub covered_pos: usize,
    /// `|C_r \ P|` — new instances the rule would add.
    pub new_instances: usize,
    /// `Σ quantize(p_s)` over `C_r \ P` (fixed-point, order-independent).
    pub sum_q: i64,
}

impl BenefitAgg {
    /// The aggregate as a [`Benefit`] (what selection compares).
    pub fn benefit(&self) -> Benefit {
        Benefit {
            sum_q: self.sum_q,
            new_instances: self.new_instances,
        }
    }
}

/// Per-rule benefit aggregates, patched by delta as `P` grows and scores
/// move, rebuilt only on full re-score epochs.
///
/// A store covers a *span* of sentence ids: the default ([`BenefitStore::new`])
/// spans the whole corpus and its aggregates are the global benefit — what
/// a local run selects from. [`BenefitStore::for_span`] builds the store a
/// shard worker ([`crate::remote::serve_shard`]) keeps: its aggregates
/// count only the span's slice of each rule's coverage, and
/// [`crate::shard::ShardedBenefitStore`] merges those fragments back into
/// the global benefit exactly (integer fixed-point sums).
pub struct BenefitStore {
    pub(crate) aggs: FxHashMap<RuleRef, BenefitAgg>,
    /// Owned id span `[lo, hi)`. The full-span marker is `(0, u32::MAX)`,
    /// which skips posting-list slicing entirely.
    lo: u32,
    hi: u32,
}

impl Default for BenefitStore {
    fn default() -> BenefitStore {
        BenefitStore::new()
    }
}

impl BenefitStore {
    /// A full-span store: aggregates are the global benefit.
    pub fn new() -> BenefitStore {
        BenefitStore {
            aggs: FxHashMap::default(),
            lo: 0,
            hi: u32::MAX,
        }
    }

    /// A shard-local store owning ids in `[lo, hi)`: every aggregate is the
    /// benefit fragment contributed by that range alone.
    pub fn for_span(lo: u32, hi: u32) -> BenefitStore {
        BenefitStore {
            aggs: FxHashMap::default(),
            lo,
            hi,
        }
    }

    /// The owned id span.
    pub fn span(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }

    fn full_span(&self) -> bool {
        self.lo == 0 && self.hi == u32::MAX
    }

    #[inline]
    fn owns(&self, id: u32) -> bool {
        self.lo <= id && id < self.hi
    }

    /// This store's slice of a rule's (sorted) posting list.
    fn coverage_slice<'a>(&self, index: &'a IndexSet, r: RuleRef) -> &'a [u32] {
        let cov = index.coverage(r);
        if self.full_span() {
            cov
        } else {
            darwin_index::shard_slice(cov, self.lo, self.hi)
        }
    }

    /// Number of tracked rules.
    pub fn len(&self) -> usize {
        self.aggs.len()
    }

    /// Whether no rule is tracked.
    pub fn is_empty(&self) -> bool {
        self.aggs.is_empty()
    }

    /// Whether `r` has a tracked aggregate.
    pub fn contains(&self, r: RuleRef) -> bool {
        self.aggs.contains_key(&r)
    }

    /// The cached aggregate for `r`, if tracked.
    pub fn agg(&self, r: RuleRef) -> Option<&BenefitAgg> {
        self.aggs.get(&r)
    }

    /// The cached benefit for `r`, if tracked.
    pub fn benefit_of(&self, r: RuleRef) -> Option<Benefit> {
        self.aggs.get(&r).map(BenefitAgg::benefit)
    }

    pub(crate) fn compute(
        &self,
        index: &IndexSet,
        p: &IdSet,
        scores: &[f32],
        r: RuleRef,
    ) -> BenefitAgg {
        let mut agg = BenefitAgg {
            covered_pos: 0,
            new_instances: 0,
            sum_q: 0,
        };
        for &s in self.coverage_slice(index, r) {
            if p.contains(s) {
                agg.covered_pos += 1;
            } else {
                agg.new_instances += 1;
                agg.sum_q += quantize(scores[s as usize]);
            }
        }
        agg
    }

    /// [`BenefitStore::compute`] seeded from the candidate-generation
    /// statistics (`overlap` = global `|C_r ∩ P|`, `count` = `|C_r|`),
    /// which best-first search already paid for: a full-span store takes
    /// both counters straight from the statistics — only `sum_q` still
    /// needs the coverage walk. (A span store can't localize the global
    /// counts and falls back to the span scan; generation never emits
    /// `overlap == 0` candidates, so there is no zero-overlap shortcut to
    /// take.)
    pub(crate) fn compute_scored(
        &self,
        index: &IndexSet,
        p: &IdSet,
        scores: &[f32],
        c: &crate::candidates::Candidate,
    ) -> BenefitAgg {
        if self.full_span() {
            let mut sum_q = 0i64;
            for &s in self.coverage_slice(index, c.rule) {
                if !p.contains(s) {
                    sum_q += quantize(scores[s as usize]);
                }
            }
            return BenefitAgg {
                covered_pos: c.overlap,
                new_instances: c.count - c.overlap,
                sum_q,
            };
        }
        self.compute(index, p, scores, c.rule)
    }

    /// Ensure every rule in `rules` has an aggregate, computing missing
    /// ones from scratch (in parallel when `threads > 1`).
    pub fn track<I>(
        &mut self,
        rules: I,
        index: &IndexSet,
        p: &IdSet,
        scores: &[f32],
        threads: usize,
    ) where
        I: IntoIterator<Item = RuleRef>,
    {
        let missing: Vec<RuleRef> = rules
            .into_iter()
            .filter(|r| !self.aggs.contains_key(r))
            .collect();
        let computed = parallel_batch(&missing, threads, |&r| {
            (r, self.compute(index, p, scores, r))
        });
        self.aggs.extend(computed);
    }

    /// [`BenefitStore::track`] for freshly generated candidates, seeding
    /// aggregates from the search statistics (`compute_scored`) instead of
    /// recomputing `covered_pos` from scratch.
    pub fn track_scored(
        &mut self,
        cands: &[crate::candidates::Candidate],
        index: &IndexSet,
        p: &IdSet,
        scores: &[f32],
        threads: usize,
    ) {
        let missing: Vec<crate::candidates::Candidate> = cands
            .iter()
            .filter(|c| !self.aggs.contains_key(&c.rule))
            .copied()
            .collect();
        let computed = parallel_batch(&missing, threads, |c| {
            (c.rule, self.compute_scored(index, p, scores, c))
        });
        self.aggs.extend(computed);
    }

    /// Recompute every tracked aggregate from scratch (after a full
    /// re-score epoch, when patching would touch nearly every sentence
    /// anyway).
    pub fn rebuild(&mut self, index: &IndexSet, p: &IdSet, scores: &[f32], threads: usize) {
        let mut rules: Vec<RuleRef> = self.aggs.keys().copied().collect();
        rules.sort_unstable();
        let computed = parallel_batch(&rules, threads, |&r| (r, self.compute(index, p, scores, r)));
        self.aggs.extend(computed);
    }

    /// Drop aggregates for rules not satisfying `keep` (rules evicted from
    /// the candidate pool). Safe at any time: untracked rules fall back to
    /// a from-scratch scan in [`crate::traversal::Ctx::benefit`], which
    /// returns the same value the aggregate held.
    pub fn retain(&mut self, keep: impl Fn(RuleRef) -> bool) {
        self.aggs.retain(|&r, _| keep(r));
    }

    /// The tracked rules and their aggregates (diagnostics, benches).
    pub fn tracked(&self) -> impl Iterator<Item = (RuleRef, &BenefitAgg)> {
        self.aggs.iter().map(|(&r, agg)| (r, agg))
    }

    /// `P` grew by `new_ids` (distinct, none previously positive): every
    /// tracked rule covering one of them absorbs it — the id's score
    /// contribution moves out of the benefit sum. Must be called with the
    /// scores the sums currently reflect (i.e. *before* the post-answer
    /// retrain). Ids outside this store's span are ignored (they belong to
    /// a sibling shard). Returns the rules whose aggregate moved, sorted.
    pub fn on_positives_added(
        &mut self,
        new_ids: &[u32],
        corpus: &Corpus,
        index: &IndexSet,
        scores: &[f32],
    ) -> Vec<RuleRef> {
        let moves = self.positive_moves(new_ids, scores);
        self.fold(corpus, index, &moves, true, None)
    }

    /// The classifier incrementally re-scored some sentences (`changes`
    /// holds one entry per id, like the journal): patch every tracked rule
    /// covering a moved id that is still outside `P`. Ids outside this
    /// store's span, ids in `P` and movements that quantize to nothing are
    /// ignored. Returns the rules whose aggregate moved, sorted.
    pub fn on_scores_changed(
        &mut self,
        changes: &[(u32, f32, f32)],
        p: &IdSet,
        corpus: &Corpus,
        index: &IndexSet,
    ) -> Vec<RuleRef> {
        let moves = self.score_moves(changes, p);
        self.fold(corpus, index, &moves, false, None)
    }

    /// `(id, −quantize(score))` for each owned new positive.
    fn positive_moves(&self, new_ids: &[u32], scores: &[f32]) -> Vec<(u32, i64)> {
        let owned = new_ids.iter().filter(|&&id| self.owns(id));
        owned
            .map(|&id| (id, -quantize(scores[id as usize])))
            .collect()
    }

    /// `(id, Δquantize)` for each owned id outside `P` whose movement
    /// survives quantization.
    fn score_moves(&self, changes: &[(u32, f32, f32)], p: &IdSet) -> Vec<(u32, i64)> {
        let owned = changes
            .iter()
            .filter(|&&(id, ..)| self.owns(id) && !p.contains(id));
        let moves = owned.map(|&(id, old, new)| (id, quantize(new) - quantize(old)));
        moves.filter(|&(_, dq)| dq != 0).collect()
    }

    /// Fold `moves` — `(id, Δsum_q)`, distinct owned ids — into
    /// every tracked aggregate whose coverage holds one of the ids; with
    /// `positives` each hit also moves one new instance to `covered_pos`.
    /// The rows route recomputes each id's covering rules; the walk route
    /// reads every tracked rule's postings, clipped to the ids' range,
    /// against a dense per-id delta. Both visit the same (rule, id) hits
    /// and add integers, so aggregates and the returned moved rules
    /// (sorted) are identical. `by_rows: None` picks by [`rows_pay`],
    /// against a walk over the tracked rules' `Σ count(r)` postings.
    fn fold(
        &mut self,
        corpus: &Corpus,
        index: &IndexSet,
        moves: &[(u32, i64)],
        positives: bool,
        by_rows: Option<bool>,
    ) -> Vec<RuleRef> {
        let apply = |agg: &mut BenefitAgg, hits: usize, dq: i64| {
            if positives {
                agg.covered_pos += hits;
                agg.new_instances -= hits;
            }
            agg.sum_q += dq;
        };
        let mut moved = Vec::new();
        let ids = || moves.iter().map(|&(id, _)| id);
        let (Some(lo), Some(last)) = (ids().min(), ids().max()) else {
            return moved;
        };
        let walk_postings = || self.aggs.keys().map(|&r| index.count(r) as u64).sum();
        if by_rows.unwrap_or_else(|| rows_pay(moves.len(), walk_postings())) {
            let mut row = Vec::new();
            for &(id, dq) in moves {
                index.covering_rules(corpus.sentence(id), &mut row);
                for r in &row {
                    if let Some(agg) = self.aggs.get_mut(r) {
                        apply(agg, 1, dq);
                        moved.push(*r);
                    }
                }
            }
            moved.sort_unstable();
            moved.dedup();
            return moved;
        }
        const UNMOVED: i64 = i64::MIN;
        let mut delta = vec![UNMOVED; (last - lo + 1) as usize];
        for &(id, dq) in moves {
            delta[(id - lo) as usize] = dq;
        }
        for (&r, agg) in &mut self.aggs {
            let (mut hits, mut sum) = (0, 0);
            for &s in darwin_index::shard_slice(index.coverage(r), lo, last + 1) {
                let dq = delta[(s - lo) as usize];
                if dq != UNMOVED {
                    hits += 1;
                    sum += dq;
                }
            }
            if hits > 0 {
                apply(agg, hits, sum);
                moved.push(r);
            }
        }
        moved.sort_unstable();
        moved
    }

    /// The corpus grew: ids in `appended` were appended (none positive, all
    /// scored — the neutral prior until the next retrain). Every tracked
    /// rule covering an owned appended id gains it as a new instance.
    /// `extend_span` must be called first when the store is the last shard's
    /// fragment, so ownership covers the appended tail.
    ///
    /// Appended ids are a suffix of the id space, so each tracked rule's
    /// new postings are one contiguous run of its sorted posting list,
    /// clipped to the owned span and found by two binary searches: the
    /// fold costs `O(tracked · log |C_r|)` plus the postings it adds,
    /// never a covering-rules row per appended id. Returns the rules whose
    /// aggregate moved, sorted.
    pub fn on_ids_appended(
        &mut self,
        appended: Range<u32>,
        index: &IndexSet,
        scores: &[f32],
    ) -> Vec<RuleRef> {
        let lo = appended.start.max(self.lo);
        let hi = appended.end.min(self.hi);
        let mut moved = Vec::new();
        if lo >= hi {
            return moved;
        }
        for (&r, agg) in &mut self.aggs {
            let tail = darwin_index::shard_slice(index.coverage(r), lo, hi);
            if tail.is_empty() {
                continue;
            }
            agg.new_instances += tail.len();
            for &s in tail {
                agg.sum_q += quantize(scores[s as usize]);
            }
            moved.push(r);
        }
        moved.sort_unstable();
        moved
    }

    /// Extend the owned span to `[lo, new_hi)` — the epoch growth rule for
    /// the *last* shard's fragment, mirroring [`darwin_index::ShardMap::grow`].
    /// A full-span store already owns every id and is left untouched.
    pub fn extend_span(&mut self, new_hi: u32) {
        if self.full_span() {
            return;
        }
        assert!(new_hi >= self.hi, "BenefitStore span cannot shrink");
        self.hi = new_hi;
    }
}

/// What one moved id costs a fold's rows route, counted in the postings
/// its walk route reads for the same time. Measured in-session on the four
/// benchmark workloads (2-thread host): a row — recomputing a sentence's
/// covering rules ([`IndexSet::covering_rules`]) plus one probe per rule —
/// took 7–15 µs, a walked posting 1–2 ns (1–5 ns per `Σ count` bound in
/// the frontier's intersection sweep).
const ROW_COST: u64 = 4096;

/// Whether recomputing `moved` ids' covering rules costs no more than
/// walking `postings` postings — the route rule of every delta fold.
pub(crate) fn rows_pay(moved: usize, postings: u64) -> bool {
    moved as u64 * ROW_COST <= postings
}

/// Map `f` over `items`, one chunk per worker when `threads > 1` and the
/// batch is big enough (64 items) to amortize thread spawns. Output
/// preserves input order (the engine's determinism guarantee leans on
/// this).
fn parallel_batch<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_chunks(items, threads, 64, |part| part.iter().map(&f).collect())
}

/// The mutable run state the loop and every strategy share.
pub struct EngineState {
    /// The discovered positive set `P`.
    pub p: IdSet,
    /// Rules already submitted to the oracle (or skipped as duplicates).
    pub queried: FxHashSet<RuleRef>,
    /// Rules the oracle confirmed (includes the seed rule when given).
    pub accepted: Vec<Heuristic>,
    /// Rules the oracle rejected.
    pub rejected: Vec<Heuristic>,
    /// Per-question history.
    pub trace: Vec<TraceStep>,
    asked: FxHashSet<Heuristic>,
    asked_coverages: FxHashSet<u64>,
}

impl EngineState {
    /// Canonical heuristics already asked (alias dedup) — snapshot capture.
    pub(crate) fn asked(&self) -> &FxHashSet<Heuristic> {
        &self.asked
    }

    /// Coverage hashes already asked (duplicate dedup) — snapshot capture.
    pub(crate) fn asked_coverages(&self) -> &FxHashSet<u64> {
        &self.asked_coverages
    }
}

/// The step-driven question loop: owns the classifier, score cache,
/// hierarchy and benefit aggregates; strategies pull questions from it.
/// It holds its system lent (`&Darwin`, as [`Darwin::engine`] and every
/// run entry build it) or owned (a `Darwin` moved in), and only an owned
/// system can grow under it ([`crate::batch::Session::append`]).
pub struct Engine<'a> {
    darwin: Held<'a, Darwin<'a>>,
    /// Shared run state (positives, queried, accepted/rejected, trace).
    pub state: EngineState,
    clf: Box<dyn TextClassifier>,
    cache: ScoreCache,
    rng: StdRng,
    hierarchy: Hierarchy,
    /// `None` only until construction attaches it, or for good when remote
    /// shard workers failed to connect (the run then aborts via
    /// `wire_abort`).
    store: Option<ShardedBenefitStore>,
    /// Persistent best-first expansion state for hierarchy regeneration.
    frontier: FrontierPool,
    /// Questions submitted to an async oracle and not yet answered
    /// ([`crate::batch`]): selection keeps proposing around them, answers
    /// resolve them in any order.
    pending: Vec<(QuestionId, RuleRef)>,
    seed_refs: Vec<RuleRef>,
    max_count: usize,
    /// First wire failure of a distributed run: set when a remote-shard
    /// operation fails (the store is poisoned at the same moment), after
    /// which selection refuses and the run winds down cleanly.
    wire_abort: Option<darwin_wire::WireError>,
}

impl<'a> Engine<'a> {
    /// Build the engine: apply the seed, train the initial classifier and
    /// generate the first hierarchy (Algorithm 1 lines 1–6).
    pub fn new(darwin: impl Into<Held<'a, Darwin<'a>>>, seed: Seed) -> Engine<'a> {
        let darwin = darwin.into();
        let corpus = darwin.corpus();
        let index = darwin.index();
        let cfg = darwin.config();
        let n = corpus.len();

        let mut state = EngineState {
            p: IdSet::with_universe(n),
            queried: FxHashSet::default(),
            accepted: Vec::new(),
            rejected: Vec::new(),
            trace: Vec::new(),
            asked: FxHashSet::default(),
            asked_coverages: FxHashSet::default(),
        };
        let mut seed_refs: Vec<RuleRef> = Vec::new();

        match &seed {
            Seed::Rule(h) => {
                let cov: Vec<u32> = match index.resolve(h) {
                    Some(r) => {
                        seed_refs.push(r);
                        state.queried.insert(r);
                        index.coverage(r).to_vec()
                    }
                    None => h.coverage(corpus),
                };
                state.p.extend_from_slice(&cov);
                state.accepted.push(h.clone());
                state.asked.insert(canonical(h.clone()));
                if let Some(r) = seed_refs.first() {
                    state
                        .asked_coverages
                        .insert(coverage_hash(index.coverage(*r)));
                }
            }
            Seed::Positives(ids) => {
                for &id in ids.iter().filter(|&&id| (id as usize) < n) {
                    state.p.insert(id);
                }
            }
        }

        let cache = match cfg.incremental_scoring {
            true => ScoreCache::new(n),
            false => ScoreCache::full_only(n),
        };
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xDA);
        let mut engine = Engine::assemble(
            darwin,
            state,
            cache,
            rng,
            FrontierPool::new(),
            Vec::new(),
            seed_refs,
        );
        engine.retrain_and_sync();
        engine.attach_store()
    }

    /// Rebuild an engine at the state a [`crate::snapshot::Snapshot`]
    /// captured — the resume half of the durable-session contract.
    ///
    /// What is restored directly: the run state (`P`, queried/asked sets,
    /// accepted/rejected, trace), the score cache image (refreshed with
    /// *this* deployment's `threads` — a pure perf knob), the RNG at its
    /// exact captured words, the frontier memo, the in-flight
    /// question set and the seed handles. What is *re-derived*: the
    /// classifier (untrained — `fit` is a pure function of
    /// `(P, RNG draws, seed)`, so the next retrain reproduces the
    /// identical model; the restored scores are the model's output at the
    /// barrier), the candidate hierarchy (deterministic in `P`), and the
    /// benefit aggregates (recomputed from the restored `(P, scores)`,
    /// bit-equal to the suspended run's delta-maintained sums by the
    /// store-consistency invariant). Re-attaching remote shards replays
    /// `ShardInit` with the restored state through this `Darwin`'s
    /// connector, and [`Engine::regen_hierarchy`] doubles as the `Track`
    /// replay.
    ///
    /// Deliberately does **not** retrain: that would consume RNG words
    /// the uninterrupted reference never drew at this point.
    pub fn resume(
        darwin: impl Into<Held<'a, Darwin<'a>>>,
        snap: &crate::snapshot::Snapshot,
    ) -> Result<Engine<'a>, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let darwin = darwin.into();
        let n = darwin.corpus().len();
        if snap.n as usize != n || snap.cache.scores.len() != n {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot sized for {} sentences ({} scores), live corpus has {n}",
                snap.n,
                snap.cache.scores.len()
            )));
        }

        let state = EngineState {
            p: IdSet::from_ids(&snap.p, n),
            queried: snap.queried.iter().copied().collect(),
            accepted: snap.accepted.clone(),
            rejected: snap.rejected.clone(),
            trace: snap.trace.clone(),
            asked: snap.asked.iter().cloned().collect(),
            asked_coverages: snap.asked_coverages.iter().copied().collect(),
        };
        let frontier = match &snap.frontier {
            Some(img) => FrontierPool::import(img).map_err(SnapshotError::Corrupt)?,
            // No captured memo: a fresh pool's first regeneration is a full
            // walk — identical output, the memo was only ever a cost
            // optimization.
            None => FrontierPool::new(),
        };
        let pending = snap
            .pending
            .iter()
            .map(|&(q, r)| (QuestionId(q), r))
            .collect();
        let engine = Engine::assemble(
            darwin,
            state,
            ScoreCache::import(&snap.cache),
            StdRng::from_state(snap.rng),
            frontier,
            pending,
            snap.seed_refs.clone(),
        );
        Ok(engine.attach_store())
    }

    /// What [`Engine::new`] and [`Engine::resume`] share up to the first
    /// (possible) retrain: the classifier — untrained, local or behind
    /// this deployment's connector — around the given run state, with no
    /// benefit store or hierarchy yet.
    fn assemble(
        darwin: Held<'a, Darwin<'a>>,
        state: EngineState,
        cache: ScoreCache,
        rng: StdRng,
        frontier: FrontierPool,
        pending: Vec<(QuestionId, RuleRef)>,
        seed_refs: Vec<RuleRef>,
    ) -> Engine<'a> {
        let corpus = darwin.corpus();
        let cfg = darwin.config();
        // `warm_start` is a pure buffer-reuse knob (bit-identical weights),
        // applied here so the config default flows into whichever kind the
        // run configured. A remote classifier trains the identical recipe
        // in its worker; a connect failure falls back to the local build
        // and aborts the run via `wire_abort` before the first question.
        let kind = cfg.classifier.clone().with_warm_start(cfg.warm_start);
        let mut wire_abort: Option<darwin_wire::WireError> = None;
        let clf: Box<dyn TextClassifier> = match darwin.remote_classifier() {
            None => kind.build(darwin.embeddings(), cfg.seed),
            Some(spec) => match (spec.connect)().and_then(|t| {
                crate::remote::WireClassifier::connect(t, corpus, cfg.seed, &kind, cfg.seed)
            }) {
                Ok(wc) => Box::new(wc),
                Err(e) => {
                    wire_abort = Some(e);
                    kind.build(darwin.embeddings(), cfg.seed)
                }
            },
        };
        let cache = cache.with_threads(cfg.threads);
        let hierarchy = Hierarchy::new(darwin.index(), Vec::new());
        let max_count = (cfg.max_coverage_frac * corpus.len() as f64).ceil() as usize;
        Engine {
            darwin,
            state,
            clf,
            cache,
            rng,
            hierarchy,
            store: None,
            frontier,
            pending,
            seed_refs,
            max_count,
            wire_abort,
        }
    }

    /// The construction tail [`Engine::new`] and [`Engine::resume`] share:
    /// attach the benefit store over the current `(P, scores)` — one local
    /// store, or one worker per shard — and generate the hierarchy, which
    /// seeds the store from the candidate-search statistics (on resume it
    /// doubles as the `Track` replay).
    fn attach_store(mut self) -> Engine<'a> {
        let darwin = &*self.darwin;
        let cfg = darwin.config();
        match darwin.remote_shards() {
            None => self.store = Some(ShardedBenefitStore::local()),
            // Distributed deployment: one worker per shard, each
            // initialized with the corpus, the coordinator index's own
            // build recipe, and the current (P, scores) snapshot.
            Some(spec) => match ShardedBenefitStore::connect_remote(
                ShardMap::new(darwin.corpus().len(), cfg.shards),
                darwin.corpus(),
                darwin.index().config(),
                &self.state.p,
                self.cache.scores(),
                spec.connect.clone(),
                cfg.fanout,
            ) {
                Ok(store) => self.store = Some(store),
                Err(e) => self.wire_abort = Some(e),
            },
        }
        self.regen_hierarchy();
        self
    }

    /// The system this engine runs over.
    pub(crate) fn darwin(&self) -> &Darwin<'a> {
        &self.darwin
    }

    /// The score cache (snapshot capture).
    pub(crate) fn cache(&self) -> &ScoreCache {
        &self.cache
    }

    /// The raw RNG state (snapshot capture).
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// The wire failure that aborted a distributed run, if any. While set,
    /// selection returns nothing and the run winds down with the cleanly
    /// applied prefix of its state.
    pub fn wire_error(&self) -> Option<&darwin_wire::WireError> {
        self.wire_abort
            .as_ref()
            .or_else(|| self.store.as_ref().and_then(|s| s.wire_error()))
    }

    /// Audit every remote shard mirror against its worker (`Ok(true)` =
    /// exact; trivially true for local deployments). Test/diagnostic hook.
    pub fn audit_remote_store(&mut self) -> Result<bool, darwin_wire::WireError> {
        match &mut self.store {
            Some(store) => store.audit_remote(),
            None => Ok(true),
        }
    }

    /// The seed heuristics' rule handles (what strategies are seeded with).
    pub fn seed_refs(&self) -> &[RuleRef] {
        &self.seed_refs
    }

    /// Questions asked so far.
    pub fn questions(&self) -> usize {
        self.state.trace.len()
    }

    /// Current classifier scores.
    pub fn scores(&self) -> &[f32] {
        self.cache.scores()
    }

    /// The current candidate hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The sharded benefit aggregates (`None` only when remote shard
    /// workers failed to connect — see [`Engine::wire_error`]).
    pub fn store(&self) -> Option<&ShardedBenefitStore> {
        self.store.as_ref()
    }

    /// The persistent candidate frontier — always `Some`; the `Option`
    /// keeps the signature callers already match on.
    pub fn frontier(&self) -> Option<&FrontierPool> {
        Some(&self.frontier)
    }

    /// Read-only selection view over the current state.
    pub fn ctx(&self) -> Ctx<'_> {
        Ctx {
            index: self.darwin.index(),
            hierarchy: &self.hierarchy,
            p: &self.state.p,
            scores: self.cache.scores(),
            queried: &self.state.queried,
            benefit_threshold: self.darwin.config().benefit_threshold,
            store: self.store.as_ref(),
        }
    }

    /// Pull the next question from `strategy`, skipping cross-grammar
    /// aliases and coverage duplicates without consuming budget (Definition
    /// 4: the oracle's answer depends only on `C_r`, so asking two rules
    /// with identical coverage wastes a query).
    pub fn select(&mut self, strategy: &mut dyn Strategy) -> Option<RuleRef> {
        if self.wire_error().is_some() {
            return None; // distributed state is gone; stop asking
        }
        let index = self.darwin.index();
        // Every alias/duplicate skip marks a previously unqueried rule, so
        // the loop shrinks the pool and terminates on its own; the stall
        // counter only guards against a strategy that keeps re-proposing
        // rules already queried (which would otherwise spin forever).
        let mut stalls = 0;
        loop {
            let pick = {
                let ctx = self.ctx();
                strategy.select(&ctx).or_else(|| {
                    // Fallback: the most promising remaining candidate.
                    ctx.most_promising(self.hierarchy.rules().iter().copied())
                })
            };
            let r = pick?;
            if !self.state.queried.insert(r) {
                stalls += 1;
                if stalls >= 256 {
                    return None;
                }
                continue;
            }
            if !self.state.asked.insert(canonical(index.heuristic(r))) {
                continue;
            }
            if !self
                .state
                .asked_coverages
                .insert(coverage_hash(index.coverage(r)))
            {
                continue;
            }
            return Some(r);
        }
    }

    /// Number of questions currently in flight (submitted, unanswered).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The in-flight questions, in submission order.
    pub fn pending(&self) -> impl Iterator<Item = (QuestionId, RuleRef)> + '_ {
        self.pending.iter().copied()
    }

    /// Mark `rule` as in flight under `qid`: selection keeps avoiding it
    /// (it is already in `queried` — [`Engine::select`] and
    /// [`Engine::select_refill_batch`] put it there) and
    /// [`Engine::select_refill_batch`] additionally steers new proposals
    /// away from its uncovered sentences until the answer arrives.
    pub fn begin_question(&mut self, qid: QuestionId, rule: RuleRef) {
        debug_assert!(
            self.state.queried.contains(&rule),
            "begin_question on a rule selection never marked"
        );
        debug_assert!(
            self.pending.iter().all(|&(q, _)| q != qid),
            "duplicate QuestionId"
        );
        self.pending.push((qid, rule));
    }

    /// Apply an answer to an in-flight question — in *any* order relative
    /// to other submissions; a YES flows through the exact
    /// [`Engine::record`] path (benefit deltas, frontier YES-journal,
    /// trace). Returns the resolved rule, or `None` for an unknown id
    /// (already resolved, or never submitted).
    pub fn resolve(&mut self, qid: QuestionId, answer: bool) -> Option<RuleRef> {
        let at = self.pending.iter().position(|&(q, _)| q == qid)?;
        let (_, rule) = self.pending.remove(at);
        self.record(rule, answer);
        Some(rule)
    }

    /// Give up on every in-flight question (the oracle stopped
    /// delivering): the pending set empties, nothing is recorded, and the
    /// rules stay `queried` — their submissions were spent. Returns how
    /// many questions were abandoned.
    pub fn abandon_pending(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        n
    }

    /// Propose up to `want` further questions *while others are in
    /// flight*: the highest-ranked candidates under the traversals' gating
    /// (`rank_gated`) whose new coverage overlaps the union of in-flight
    /// and just-proposed questions' new coverage by at most half —
    /// annotators working concurrently should not review near-duplicates.
    /// The pool is ranked once per call, so a whole wave refill costs one
    /// scan + sort, not one per slot.
    ///
    /// Exact coverage duplicates and cross-grammar aliases of anything
    /// already asked are consumed without being proposed, like
    /// [`Engine::select`]; candidates merely *overlapping* an in-flight
    /// question stay available for later waves.
    pub fn select_refill_batch(&mut self, want: usize) -> Vec<RuleRef> {
        let mut picks = Vec::new();
        if want == 0 || self.wire_error().is_some() {
            return picks;
        }
        let index = self.darwin.index();
        // Union of new (≔ outside P) coverage across in-flight questions.
        let mut covered = IdSet::with_universe(self.darwin.corpus().len());
        for &(_, r) in &self.pending {
            for &s in index.coverage(r) {
                if !self.state.p.contains(s) {
                    covered.insert(s);
                }
            }
        }
        let ranked = {
            let ctx = self.ctx();
            rank_gated(&ctx)
        };
        for (r, ..) in ranked {
            if picks.len() == want {
                break;
            }
            let new: Vec<u32> = index
                .coverage(r)
                .iter()
                .copied()
                .filter(|&s| !self.state.p.contains(s))
                .collect();
            if new.is_empty() {
                continue;
            }
            let overlap = covered.count_in(&new);
            if overlap * 2 > new.len() {
                continue; // mostly duplicates an in-flight question
            }
            if !self.state.asked.insert(canonical(index.heuristic(r))) {
                self.state.queried.insert(r);
                continue;
            }
            if !self
                .state
                .asked_coverages
                .insert(coverage_hash(index.coverage(r)))
            {
                self.state.queried.insert(r);
                continue;
            }
            self.state.queried.insert(r);
            covered.extend_from_slice(&new);
            picks.push(r);
        }
        picks
    }

    /// Record an oracle answer: on YES grow `P`, patch the benefit
    /// aggregates by delta, and log the trace step. Does *not* retrain —
    /// the loop retrains once per wave that contained a YES. Returns the
    /// answer (what retraining is keyed on).
    pub fn record(&mut self, rule: RuleRef, answer: bool) -> bool {
        let index = self.darwin.index();
        let h = index.heuristic(rule);
        let cov = index.coverage(rule);
        let mut new_ids: Vec<u32> = Vec::new();
        if answer {
            new_ids = cov
                .iter()
                .copied()
                .filter(|&s| !self.state.p.contains(s))
                .collect();
            if let Some(store) = &mut self.store {
                // Scores are still pre-retrain here — exactly what the sums
                // reflect.
                let r = store.on_positives_added(
                    &new_ids,
                    self.darwin.corpus(),
                    index,
                    self.cache.scores(),
                );
                note_wire(&mut self.wire_abort, r);
            }
            // Journaled only — the pool re-scores its frontier lazily at
            // the next regeneration.
            self.frontier.note_positives(&new_ids);
            self.state.p.extend_from_slice(cov);
            self.state.accepted.push(h.clone());
        } else {
            self.state.rejected.push(h.clone());
        }
        self.state.trace.push(TraceStep {
            question: self.state.trace.len() + 1,
            rule: h,
            answer,
            new_positive_ids: new_ids,
            p_size: self.state.p.len(),
        });
        answer
    }

    /// Retrain the classifier on `P` vs. sampled presumed negatives,
    /// refresh the score cache, and bring the benefit aggregates back in
    /// sync — patched from the score journal after an incremental pass,
    /// rebuilt (in parallel when configured) after a full epoch.
    pub fn retrain_and_sync(&mut self) {
        let darwin = &*self.darwin;
        let corpus = darwin.corpus();
        let cfg = darwin.config();
        let pos: Vec<u32> = self.state.p.iter().collect();
        if pos.is_empty() {
            return;
        }
        let n = corpus.len() as u32;
        // Cap the sample at a third of the corpus: sampling presumed
        // negatives too densely would sweep in most undiscovered positives
        // and teach the classifier to reject exactly the sentences Darwin
        // still needs to find.
        let want = (pos.len() * cfg.neg_per_pos)
            .max(cfg.min_negatives)
            .min(corpus.len() / 3)
            .min(corpus.len().saturating_sub(pos.len()));
        let mut neg: Vec<u32> = Vec::with_capacity(want);
        let mut guard = 0;
        while neg.len() < want && guard < want * 20 {
            let id = self.rng.gen_range(0..n);
            if !self.state.p.contains(id) {
                neg.push(id);
            }
            guard += 1;
        }
        self.clf.fit(corpus, darwin.embeddings(), &pos, &neg);
        self.cache.refresh(&*self.clf, corpus, darwin.embeddings());

        if let Some(store) = &mut self.store {
            let r = if self.cache.last_refresh_was_full() {
                store.rebuild(
                    darwin.index(),
                    &self.state.p,
                    self.cache.scores(),
                    cfg.threads,
                )
            } else {
                store.on_scores_changed(
                    self.cache.last_changes(),
                    &self.state.p,
                    corpus,
                    darwin.index(),
                )
            };
            note_wire(&mut self.wire_abort, r);
        }
    }

    /// Regenerate the candidate hierarchy around the grown positive set
    /// (§3.7) and start tracking aggregates for rules new to the pool —
    /// seeded from the candidate search's own `overlap`/`count` statistics
    /// rather than recomputing `covered_pos` from scratch.
    /// Already-tracked rules keep their delta-maintained aggregates —
    /// `RuleRef`s are stable index handles, so nothing is recomputed for
    /// them.
    pub fn regen_hierarchy(&mut self) {
        let darwin = &*self.darwin;
        let cfg = darwin.config();
        // The pool drains the dirty-id journal `record` fed it, patches the
        // affected frontier statistics, and replays the walk from the
        // surviving state — the from-scratch walk's output, without its
        // root-to-frontier posting rescan.
        let (hierarchy, cands) = generate_hierarchy_pooled(
            darwin.corpus(),
            darwin.index(),
            &self.state.p,
            cfg.n_candidates,
            self.max_count,
            &mut self.frontier,
        );
        self.hierarchy = hierarchy;
        if let Some(store) = &mut self.store {
            // Evict rules that left the pool — without this the store (and
            // every full-epoch rebuild) grows with the union of all pools
            // ever generated. Rules that re-enter later are simply
            // recomputed; selection reads the same values either way.
            let hierarchy = &self.hierarchy;
            let r = store.retain(|r| hierarchy.contains(r)).and_then(|()| {
                store.track_scored(
                    &cands,
                    darwin.index(),
                    &self.state.p,
                    self.cache.scores(),
                    cfg.threads,
                )
            });
            note_wire(&mut self.wire_abort, r);
        }
    }

    /// Consume the engine into a [`RunResult`].
    pub fn finish(self) -> RunResult {
        let wire_error = self.wire_error().map(|e| e.to_string());
        RunResult {
            accepted: self.state.accepted,
            rejected: self.state.rejected,
            positives: self.state.p.iter().collect(),
            trace: self.state.trace,
            scores: self.cache.scores().to_vec(),
            wire_error,
        }
    }

    /// End the engine and shut its remote shard workers down in order:
    /// each releases its state, then acknowledges, before this returns.
    /// Dropping the engine ends them too, but each frees its state only
    /// once it notices the hang-up, while the caller has moved on. A
    /// poisoned store is just dropped.
    pub(crate) fn shut_down_workers(self) {
        if self.wire_error().is_none() {
            if let Some(store) = self.store {
                // On failure the workers still exit on the disconnect.
                let _ = store.shutdown();
            }
        }
    }

    /// Verify every tracked aggregate of the local store against a
    /// from-scratch recomputation (test/diagnostic hook; the property
    /// tests drive this). Remote mirrors are audited against their workers
    /// by [`Engine::audit_remote_store`] instead (that check needs the
    /// wire).
    pub fn store_is_consistent(&self) -> bool {
        let Some(local) = self.store.as_ref().and_then(ShardedBenefitStore::as_local) else {
            return true;
        };
        let index = self.darwin.index();
        let (p, scores) = (&self.state.p, self.cache.scores());
        local
            .tracked()
            .all(|(r, agg)| *agg == local.compute(index, p, scores, r))
    }

    /// Grow the system this engine owns by `texts` ([`Darwin::grow`]:
    /// corpus, index and embeddings) — data only, nothing reconciled. A
    /// lent system refuses with [`AppendError::Lent`], and every refusal
    /// comes before anything changes.
    pub(crate) fn grow(&mut self, texts: &[String]) -> Result<Option<AppendDelta>, AppendError> {
        match &mut self.darwin {
            Held::Owned(darwin) => darwin.grow(texts),
            Held::Lent(_) => Err(AppendError::Lent),
        }
    }

    /// Grow the system this engine owns by `texts` ([`Engine::grow`]) and
    /// reconcile every id-dimensioned structure with the growth — the
    /// wave-barrier append operation, reached through
    /// [`crate::batch::Session::append`]. Returns the number of sentences
    /// appended.
    ///
    /// The reconcile, in order:
    ///
    /// 1. the score cache grows — appended ids enter at the 0.5 neutral
    ///    prior and are journaled so the next incremental refresh scores
    ///    them with the live classifier;
    /// 2. the benefit store folds the appended ids into every tracked
    ///    aggregate at that prior
    ///    ([`ShardedBenefitStore::on_corpus_appended`] — remote shards get
    ///    the `CorpusAppend` frame, and the last one's span grows);
    /// 3. a corpus-mirroring classifier (wire worker) is forwarded the
    ///    growth;
    /// 4. the frontier memo folds the appended ids (the index's
    ///    [`AppendDelta`] carries the dense-id shift);
    /// 5. the coverage cap is recomputed for the grown `n` and the
    ///    hierarchy regenerated once.
    ///
    /// Deliberately does **not** retrain: appends are not oracle answers,
    /// and retraining here would consume RNG words a run started on the
    /// grown corpus (and any suspended twin of this run) never draws.
    pub(crate) fn append(&mut self, texts: &[String]) -> Result<usize, AppendError> {
        let Some(delta) = self.grow(texts)? else {
            return Ok(0);
        };
        let darwin = &*self.darwin;
        let corpus = darwin.corpus();
        let index = darwin.index();
        let n = corpus.len();
        self.cache.append(delta.sentences);
        if let Some(store) = &mut self.store {
            let r = store.on_corpus_appended(corpus, texts, index, self.cache.scores());
            note_wire(&mut self.wire_abort, r);
        }
        self.clf.corpus_appended(texts, n);
        self.frontier.append_ids(index, &delta);
        self.max_count = (darwin.config().max_coverage_frac * n as f64).ceil() as usize;
        self.regen_hierarchy();
        Ok(texts.len())
    }
}

/// Record a wire failure from a store operation in `abort` (first one
/// wins).
fn note_wire(abort: &mut Option<darwin_wire::WireError>, r: Result<(), darwin_wire::WireError>) {
    if let Err(e) = r {
        abort.get_or_insert(e);
    }
}

/// Rank unqueried pool candidates for a wave refill, with the same gating
/// as the sequential traversals: rules whose benefit per new instance
/// clears the threshold rank first (by total benefit); everything else
/// ranks by expected precision. Without this, waves fill with broad rules
/// the oracle is certain to reject. Benefits come from the engine's
/// delta-maintained aggregates via `ctx` — merged across shard workers
/// exactly, so wave composition is identical in every deployment.
/// Returns `(rule, qualified, sum_q, average)` tuples in rank order.
fn rank_gated(ctx: &Ctx<'_>) -> Vec<(RuleRef, bool, i64, f64)> {
    let mut scored: Vec<(RuleRef, bool, i64, f64)> = ctx
        .hierarchy
        .rules()
        .iter()
        .copied()
        .filter(|r| !ctx.queried.contains(r))
        .map(|r| {
            let b = ctx.benefit(r);
            (r, b.average() > ctx.benefit_threshold, b.sum_q, b.average())
        })
        .filter(|(_, _, sum_q, _)| *sum_q > 0)
        .collect();
    scored.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| {
                if a.1 {
                    b.2.cmp(&a.2)
                } else {
                    b.3.total_cmp(&a.3)
                }
            })
            .then_with(|| a.0.cmp(&b.0))
    });
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benefit::benefit;
    use darwin_index::{IndexConfig, IndexSet};
    use darwin_text::Corpus;

    fn setup() -> (Corpus, IndexSet) {
        let c = Corpus::from_texts([
            "the shuttle to the airport leaves hourly",
            "is there a shuttle to the airport tonight",
            "a bus to the airport runs daily",
            "order pizza to the room please",
            "the pool opens at nine daily",
        ]);
        let idx = IndexSet::build(&c, &IndexConfig::small());
        (c, idx)
    }

    fn scratch(index: &IndexSet, p: &IdSet, scores: &[f32], r: RuleRef) -> BenefitAgg {
        BenefitStore::new().compute(index, p, scores, r)
    }

    #[test]
    fn track_matches_scratch_benefit() {
        let (c, idx) = setup();
        let p = IdSet::from_ids(&[0, 1], c.len());
        let scores = vec![0.9, 0.9, 0.8, 0.2, 0.1];
        let mut store = BenefitStore::new();
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        store.track(rules.iter().copied(), &idx, &p, &scores, 1);
        for &r in &rules {
            assert_eq!(
                store.benefit_of(r).unwrap(),
                benefit(idx.coverage(r), &p, &scores)
            );
        }
    }

    #[test]
    fn positive_delta_matches_scratch() {
        let (c, idx) = setup();
        let mut p = IdSet::from_ids(&[0], c.len());
        let scores = vec![0.9, 0.9, 0.8, 0.2, 0.1];
        let mut store = BenefitStore::new();
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        store.track(rules.iter().copied(), &idx, &p, &scores, 1);

        // P gains sentences 1 and 2.
        let new_ids = [1u32, 2];
        store.on_positives_added(&new_ids, &c, &idx, &scores);
        p.extend_from_slice(&new_ids);

        for &r in &rules {
            assert_eq!(
                store.agg(r).copied().unwrap(),
                scratch(&idx, &p, &scores, r),
                "{:?}",
                idx.heuristic(r)
            );
        }
    }

    #[test]
    fn score_delta_matches_scratch() {
        let (c, idx) = setup();
        let p = IdSet::from_ids(&[0, 1], c.len());
        let mut scores = vec![0.9, 0.9, 0.8, 0.2, 0.1];
        let mut store = BenefitStore::new();
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        store.track(rules.iter().copied(), &idx, &p, &scores, 1);

        // Re-score: one id outside P, one inside P (must be ignored).
        let changes = [(2u32, 0.8f32, 0.3f32), (1u32, 0.9f32, 0.5f32)];
        store.on_scores_changed(&changes, &p, &c, &idx);
        scores[2] = 0.3;
        scores[1] = 0.5;

        for &r in &rules {
            assert_eq!(
                store.agg(r).copied().unwrap(),
                scratch(&idx, &p, &scores, r)
            );
        }
    }

    #[test]
    fn append_delta_matches_scratch_on_grown_corpus() {
        let (mut c, mut idx) = setup();
        let p = IdSet::from_ids(&[0, 1], c.len());
        let mut scores = vec![0.9, 0.9, 0.8, 0.2, 0.1];
        let mut full = BenefitStore::new();
        let mut span = BenefitStore::for_span(3, c.len() as u32);
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        full.track(rules.iter().copied(), &idx, &p, &scores, 1);
        span.track(rules.iter().copied(), &idx, &p, &scores, 1);

        let old_n = c.len();
        c.append_texts(
            ["the night shuttle to the airport is free", "pizza daily"].iter(),
            1,
        );
        idx.append(&c).unwrap();
        let appended = old_n as u32..c.len() as u32;
        scores.resize(c.len(), 0.5); // neutral prior until the next retrain

        full.on_ids_appended(appended.clone(), &idx, &scores);
        span.extend_span(c.len() as u32);
        span.on_ids_appended(appended, &idx, &scores);

        // Positives stay dimensioned for the grown universe.
        let p = IdSet::from_ids(&[0, 1], c.len());
        for &r in &rules {
            assert_eq!(
                full.agg(r).copied().unwrap(),
                scratch(&idx, &p, &scores, r),
                "full-span {:?}",
                idx.heuristic(r)
            );
            assert_eq!(
                span.agg(r).copied().unwrap(),
                BenefitStore::for_span(3, c.len() as u32).compute(&idx, &p, &scores, r),
                "span {:?}",
                idx.heuristic(r)
            );
        }
    }

    /// Whether sentence `id` is in `r`'s coverage — brute force over the
    /// forward postings, the oracle both fold routes answer to.
    fn covers(index: &IndexSet, r: RuleRef, id: u32) -> bool {
        index.coverage(r).binary_search(&id).is_ok()
    }

    /// The append fold one owned appended id at a time, on brute-force
    /// coverage: the oracle the range fold must reproduce.
    fn on_ids_appended_per_id(
        store: &mut BenefitStore,
        appended: Range<u32>,
        index: &IndexSet,
        scores: &[f32],
    ) -> Vec<RuleRef> {
        let mut moved = FxHashSet::default();
        for id in appended {
            if !store.owns(id) {
                continue;
            }
            let q = quantize(scores[id as usize]);
            for (&r, agg) in &mut store.aggs {
                if covers(index, r, id) {
                    agg.new_instances += 1;
                    agg.sum_q += q;
                    moved.insert(r);
                }
            }
        }
        let mut moved: Vec<RuleRef> = moved.into_iter().collect();
        moved.sort_unstable();
        moved
    }

    /// Both fold routes on the same inputs, for a full-span and a span
    /// store tracking every other rule: a YES, then a score journal with
    /// an id in `P`, an unowned id and a move that quantizes to nothing.
    /// After every step the two routes and the public entry
    /// points (which pick a route themselves) hold aggregates bit-equal to
    /// a scratch `compute`, and report the same moved set: exactly the
    /// tracked rules covering a moved id, which includes every aggregate
    /// that changed.
    #[test]
    fn fold_routes_agree_with_each_other_and_scratch() {
        let (c, idx) = setup();
        let n = c.len();
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        for span in [None, Some((1u32, 4u32))] {
            let mut p = IdSet::from_ids(&[0], n);
            let mut scores = vec![0.9f32, 0.35, 0.8, 0.2, 0.65];
            let make = || {
                let mut store = match span {
                    None => BenefitStore::new(),
                    Some((lo, hi)) => BenefitStore::for_span(lo, hi),
                };
                store.track(rules.iter().copied().step_by(2), &idx, &p, &scores, 1);
                store
            };
            // Rows route, walk route, public entry point.
            let mut stores = [make(), make(), make()];
            let journal = [
                (1u32, 0.35f32, 0.9f32), // in P after the YES
                (3, 0.2, 0.75),
                (4, 0.65, 0.65),
            ];
            for step in 0..2 {
                let positives = step == 0;
                let before: Vec<Option<BenefitAgg>> =
                    rules.iter().map(|&r| stores[0].agg(r).copied()).collect();
                let (moves, auto) = if positives {
                    let ids = [1u32, 2];
                    let moves = stores[0].positive_moves(&ids, &scores);
                    (moves, stores[2].on_positives_added(&ids, &c, &idx, &scores))
                } else {
                    let moves = stores[0].score_moves(&journal, &p);
                    (moves, stores[2].on_scores_changed(&journal, &p, &c, &idx))
                };
                let label = format!("span={span:?} positives={positives}");
                assert!(!moves.is_empty(), "{label}: nothing moved");
                let rows = stores[0].fold(&c, &idx, &moves, positives, Some(true));
                let walk = stores[1].fold(&c, &idx, &moves, positives, Some(false));
                assert_eq!(rows, walk, "{label}: moved sets");
                assert_eq!(auto, rows, "{label}: public entry point");
                let want: Vec<RuleRef> = rules
                    .iter()
                    .copied()
                    .filter(|&r| stores[0].contains(r))
                    .filter(|&r| moves.iter().any(|&(id, _)| covers(&idx, r, id)))
                    .collect();
                assert_eq!(rows, want, "{label}: moved = tracked rules covering a move");

                if positives {
                    p.extend_from_slice(&[1, 2]);
                } else {
                    for &(id, _, new) in &journal {
                        scores[id as usize] = new;
                    }
                }
                for (i, &r) in rules.iter().enumerate() {
                    let Some(&agg) = stores[0].agg(r) else {
                        continue;
                    };
                    assert_eq!(
                        agg,
                        stores[0].compute(&idx, &p, &scores, r),
                        "{label}: {r:?}"
                    );
                    assert_eq!(Some(&agg), stores[1].agg(r), "{label}: walk {r:?}");
                    assert_eq!(Some(&agg), stores[2].agg(r), "{label}: auto {r:?}");
                    if before[i] != Some(agg) {
                        assert!(rows.contains(&r), "{label}: {r:?} changed unreported");
                    }
                }
            }
        }
        // The size rule: rows while moved ids cost no more than the walk.
        assert!(rows_pay(1, ROW_COST) && !rows_pay(2, ROW_COST) && rows_pay(0, 0));
    }

    #[test]
    fn range_append_fold_matches_the_per_id_fold() {
        let (c, idx) = setup();
        let n = c.len() as u32;
        let p = IdSet::from_ids(&[0], c.len());
        let scores = vec![0.9, 0.35, 0.8, 0.2, 0.65];
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        let (span_lo, span_hi) = (1, 4);
        // Before, inside, straddling either edge of and past the span
        // [1, 4), the whole corpus, and empty ranges (one reversed).
        #[allow(clippy::reversed_empty_ranges)]
        let ranges = [0..1, 1..3, 2..4, 0..2, 3..n, 4..n, 0..n, 2..2, n..n, 3..1];
        let mut folds_that_moved = 0;
        for full_span in [true, false] {
            let make = || {
                let mut store = if full_span {
                    BenefitStore::new()
                } else {
                    BenefitStore::for_span(span_lo, span_hi)
                };
                // Track every other rule, so untracked rules stay unmoved.
                store.track(rules.iter().copied().step_by(2), &idx, &p, &scores, 1);
                store
            };
            for range in ranges.clone() {
                let (mut by_range, mut by_id) = (make(), make());
                let moved = by_range.on_ids_appended(range.clone(), &idx, &scores);
                let want = on_ids_appended_per_id(&mut by_id, range.clone(), &idx, &scores);
                assert_eq!(moved, want, "full_span={full_span} {range:?}: moved rules");
                folds_that_moved += usize::from(!moved.is_empty());
                for &r in &rules {
                    assert_eq!(
                        by_range.agg(r),
                        by_id.agg(r),
                        "full_span={full_span} {range:?}: {r:?}"
                    );
                }
            }
        }
        // Full span: the seven non-empty ranges; span [1, 4): five of them.
        assert_eq!(folds_that_moved, 7 + 5);
    }

    /// Direct harness for [`Engine::select_refill_batch`]: an engine over
    /// [`setup`] whose candidate pool, positive set and queried set the
    /// test sets by hand (no question asked), every sentence scored the
    /// neutral prior so gating never empties the pool.
    fn engine_over<'a>(darwin: &'a Darwin<'a>, pool: Vec<RuleRef>) -> Engine<'a> {
        let mut engine = Engine::new(darwin, Seed::Positives(Vec::new()));
        assert!(engine.state.p.is_empty() && engine.scores().iter().all(|&s| s == 0.5));
        engine.hierarchy = Hierarchy::new(darwin.index(), pool);
        engine
    }

    /// The diversity rule, stated directly: with one question in flight,
    /// asking for more than the pool holds returns every candidate whose
    /// coverage overlaps what is already out — in flight or picked
    /// earlier — by at most half, and nothing else.
    #[test]
    fn refill_with_want_beyond_candidate_count_returns_everything_diverse() {
        let (c, idx) = setup();
        let darwin = Darwin::new(&c, &idx, crate::DarwinConfig::fast());
        let all: Vec<RuleRef> = idx.all_rules().collect();
        let out_rule = idx
            .resolve(&Heuristic::phrase(&c, "shuttle").unwrap())
            .unwrap();
        let refill = |want: usize| {
            let mut engine = engine_over(&darwin, all.clone());
            engine.state.queried.insert(out_rule);
            engine.begin_question(QuestionId(0), out_rule);
            engine.select_refill_batch(want)
        };
        let picks = refill(all.len() + 50);
        assert!(!picks.is_empty());
        assert!(
            picks.len() < all.len() - 1,
            "overlap pruning must reject near-duplicates, not return the pool"
        );
        let mut out: Vec<u32> = idx.coverage(out_rule).to_vec();
        for &r in &picks {
            assert_ne!(r, out_rule, "the in-flight rule is never re-proposed");
            let cov = idx.coverage(r);
            let shared = cov.iter().filter(|s| out.contains(s)).count();
            assert!(shared * 2 <= cov.len(), "near-duplicate of a question out");
            out.extend_from_slice(cov);
        }
        let distinct: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(distinct.len(), picks.len(), "no rule proposed twice");
        // Asking for exactly what was returned changes nothing.
        assert_eq!(refill(picks.len()), picks);
    }

    #[test]
    fn refill_takes_one_of_identical_coverage_candidates() {
        let (c, idx) = setup();
        let darwin = Darwin::new(&c, &idx, crate::DarwinConfig::fast());
        // Find two indexed rules with identical coverage (alias pair).
        let all: Vec<RuleRef> = idx.all_rules().collect();
        let pair = all
            .iter()
            .enumerate()
            .find_map(|(i, &a)| {
                all[i + 1..]
                    .iter()
                    .find(|&&b| idx.coverage(a) == idx.coverage(b))
                    .map(|&b| (a, b))
            })
            .expect("tiny corpus has coverage-duplicate rules");
        let mut engine = engine_over(&darwin, vec![pair.0, pair.1]);
        let picks = engine.select_refill_batch(2);
        assert_eq!(
            picks.len(),
            1,
            "identical coverage = 100% overlap: exactly one survives"
        );
        assert!(picks[0] == pair.0 || picks[0] == pair.1);
    }

    #[test]
    fn refill_on_empty_frontier_is_empty() {
        let (c, idx) = setup();
        let darwin = Darwin::new(&c, &idx, crate::DarwinConfig::fast());
        assert!(engine_over(&darwin, Vec::new())
            .select_refill_batch(3)
            .is_empty());

        // A fully queried pool is as empty as an empty one.
        let all: Vec<RuleRef> = idx.all_rules().collect();
        let mut engine = engine_over(&darwin, all.clone());
        engine.state.queried.extend(all);
        assert!(engine.select_refill_batch(3).is_empty());
    }

    #[test]
    fn refill_skips_rules_with_no_new_coverage() {
        let (c, idx) = setup();
        let darwin = Darwin::new(&c, &idx, crate::DarwinConfig::fast());
        let mut engine = engine_over(&darwin, idx.all_rules().collect());
        // Everything already positive: no rule adds anything.
        for id in 0..c.len() as u32 {
            engine.state.p.insert(id);
        }
        assert!(engine.select_refill_batch(4).is_empty());
    }

    #[test]
    fn parallel_rebuild_equals_sequential() {
        let (c, idx) = setup();
        let p = IdSet::from_ids(&[0, 3], c.len());
        let scores = vec![0.6, 0.7, 0.8, 0.9, 0.4];
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        let mut seq = BenefitStore::new();
        seq.track(rules.iter().copied(), &idx, &p, &scores, 1);
        let mut par = BenefitStore::new();
        par.track(rules.iter().copied(), &idx, &p, &scores, 4);
        par.rebuild(&idx, &p, &scores, 4);
        for &r in &rules {
            assert_eq!(seq.agg(r), par.agg(r));
        }
    }
}
