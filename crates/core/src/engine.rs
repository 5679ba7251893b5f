//! The incremental question-loop engine.
//!
//! The state one run of Algorithm 1 evolves — positives, classifier,
//! scores, candidate hierarchy — and the verbs the question loop
//! ([`crate::batch::Session`]) composes: select, record, retrain,
//! regenerate. Recomputing `benefit()` over every candidate's full
//! coverage on every oracle question is an O(|rules| × |coverage|) rescan;
//! the engine instead maintains per-rule benefit aggregates *by delta*:
//!
//! * when `P` gains sentence ids, only the rules covering those ids (found
//!   via [`IndexSet::rules_covering`], the inverted postings) change
//!   benefit — each loses the ids' score contributions;
//! * when the classifier re-scores a few sentences incrementally, the
//!   `(id, old, new)` journal from [`ScoreCache::last_changes`] patches the
//!   same way;
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
//! the incremental engine asks the exact same question sequence as the
//! rescan path in every deployment
//! (`DarwinConfig { incremental_benefit: false, .. }` keeps that path alive
//! as an ablation and as the reference for the equivalence tests).

use crate::benefit::{quantize, Benefit};
use crate::candidates::{generate_hierarchy_pooled, generate_hierarchy_scored};
use crate::frontier::FrontierPool;
use crate::hierarchy::Hierarchy;
use crate::oracle::{Oracle, QuestionId};
use crate::pipeline::{Darwin, RunResult, Seed, TraceStep};
use crate::shard::ShardedBenefitStore;
use crate::traversal::{Ctx, Strategy};
use darwin_classifier::{ScoreCache, TextClassifier};
use darwin_grammar::Heuristic;
use darwin_index::fx::{FxHashMap, FxHashSet};
use darwin_index::{AppendDelta, IdSet, IndexSet, RuleRef, ShardMap};
use darwin_text::fanout::map_chunks;
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

    /// `P` grew by `new_ids` (none previously positive): every tracked rule
    /// covering one of them absorbs it — the id's score contribution moves
    /// out of the benefit sum. Must be called with the scores the sums
    /// currently reflect (i.e. *before* the post-answer retrain). Ids
    /// outside this store's span are ignored (they belong to a sibling
    /// shard).
    pub fn on_positives_added(&mut self, new_ids: &[u32], index: &IndexSet, scores: &[f32]) {
        for &id in new_ids {
            if !self.owns(id) {
                continue;
            }
            let q = quantize(scores[id as usize]);
            for r in index.rules_covering(id) {
                if let Some(agg) = self.aggs.get_mut(&r) {
                    agg.covered_pos += 1;
                    agg.new_instances -= 1;
                    agg.sum_q -= q;
                }
            }
        }
    }

    /// The classifier incrementally re-scored some sentences: patch every
    /// tracked rule covering a moved id that is still outside `P`. Ids
    /// outside this store's span are ignored.
    pub fn on_scores_changed(&mut self, changes: &[(u32, f32, f32)], p: &IdSet, index: &IndexSet) {
        for &(id, old, new) in changes {
            if !self.owns(id) || p.contains(id) {
                continue; // sibling shard's id, or contributes nothing
            }
            let dq = quantize(new) - quantize(old);
            if dq == 0 {
                continue;
            }
            for r in index.rules_covering(id) {
                if let Some(agg) = self.aggs.get_mut(&r) {
                    agg.sum_q += dq;
                }
            }
        }
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
    /// never a transpose row per appended id. Returns the rules whose
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
pub struct Engine<'a> {
    darwin: &'a Darwin<'a>,
    /// Shared run state (positives, queried, accepted/rejected, trace).
    pub state: EngineState,
    clf: Box<dyn TextClassifier>,
    cache: ScoreCache,
    rng: StdRng,
    hierarchy: Hierarchy,
    store: Option<ShardedBenefitStore>,
    /// Persistent best-first expansion state for hierarchy regeneration
    /// (`None` = the full-walk reference path,
    /// `DarwinConfig::incremental_frontier = false`).
    frontier: Option<FrontierPool>,
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
    pub fn new(darwin: &'a Darwin<'a>, seed: Seed) -> Engine<'a> {
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
                state.p.extend_from_slice(ids);
            }
        }

        let cache = match cfg.incremental_scoring {
            true => ScoreCache::new(n),
            false => ScoreCache::full_only(n),
        };
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xDA);
        let frontier = cfg.incremental_frontier.then(FrontierPool::new);
        let mut engine =
            Engine::assemble(darwin, state, cache, rng, frontier, Vec::new(), seed_refs);
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
        darwin: &'a Darwin<'a>,
        snap: &crate::snapshot::Snapshot,
    ) -> Result<Engine<'a>, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let cfg = darwin.config();
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
        let frontier = match (&snap.frontier, cfg.incremental_frontier) {
            (Some(img), true) => Some(FrontierPool::import(img).map_err(SnapshotError::Corrupt)?),
            // Resuming with the pool enabled but no captured memo: a fresh
            // pool's first regeneration is a full walk — identical output,
            // the memo was only ever a cost optimization.
            (None, true) => Some(FrontierPool::new()),
            _ => None,
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
        darwin: &'a Darwin<'a>,
        state: EngineState,
        cache: ScoreCache,
        rng: StdRng,
        frontier: Option<FrontierPool>,
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
        Engine {
            darwin,
            state,
            clf,
            cache: cache.with_threads(cfg.threads),
            rng,
            hierarchy: Hierarchy::new(darwin.index(), Vec::new()),
            store: None,
            frontier,
            pending,
            seed_refs,
            max_count: (cfg.max_coverage_frac * corpus.len() as f64).ceil() as usize,
            wire_abort,
        }
    }

    /// The construction tail [`Engine::new`] and [`Engine::resume`] share:
    /// attach the benefit store over the current `(P, scores)` — one local
    /// store, or one worker per shard — and generate the hierarchy, which
    /// seeds the store from the candidate-search statistics (on resume it
    /// doubles as the `Track` replay).
    fn attach_store(mut self) -> Engine<'a> {
        let darwin = self.darwin;
        let cfg = darwin.config();
        if cfg.incremental_benefit {
            match darwin.remote_shards() {
                None => self.store = Some(ShardedBenefitStore::local()),
                // Distributed deployment: one worker per shard, each
                // initialized with the corpus, the coordinator index's
                // own build recipe, and the current (P, scores) snapshot.
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
        } else if darwin.remote_shards().is_some() {
            // The rescan ablation has no distributed form: refusing
            // loudly beats silently running an in-process run the caller
            // believes is distributed.
            self.wire_abort = Some(darwin_wire::WireError::Protocol(
                "remote shards require DarwinConfig::incremental_benefit".into(),
            ));
        }
        self.regen_hierarchy();
        self
    }

    /// The system this engine runs over.
    pub(crate) fn darwin(&self) -> &'a Darwin<'a> {
        self.darwin
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

    /// Record a wire failure from a store operation (first one wins).
    fn note_wire(&mut self, r: Result<(), darwin_wire::WireError>) {
        if let Err(e) = r {
            self.wire_abort.get_or_insert(e);
        }
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

    /// The sharded benefit aggregates (`None` when running in rescan mode).
    pub fn store(&self) -> Option<&ShardedBenefitStore> {
        self.store.as_ref()
    }

    /// The persistent candidate frontier (`None` when
    /// `DarwinConfig::incremental_frontier` is off).
    pub fn frontier(&self) -> Option<&FrontierPool> {
        self.frontier.as_ref()
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

    /// Total benefit (fixed-point) of `r` under the current state — what
    /// the adaptive batcher's benefit-decay cutoff is anchored on.
    pub fn benefit_sum(&self, r: RuleRef) -> i64 {
        self.ctx().benefit(r).sum_q
    }

    /// Propose up to `want` further questions *while others are in
    /// flight*: the highest-ranked candidates under the traversals' gating
    /// (`rank_gated`) whose new coverage overlaps the union of in-flight
    /// and just-proposed questions' new coverage by at most half —
    /// annotators working concurrently should not review near-duplicates.
    /// The pool is ranked once per call, so a whole wave refill costs one
    /// scan + sort, not one per slot.
    ///
    /// `floor` (benefit-decay batching) ends the proposal scan — and with
    /// it the wave — at the first candidate whose total benefit fell
    /// below it: once benefit decays past the cutoff, nothing further
    /// down the proposal order extends the wave.
    ///
    /// Exact coverage duplicates and cross-grammar aliases of anything
    /// already asked are consumed without being proposed, like
    /// [`Engine::select`]; candidates merely *overlapping* an in-flight
    /// question stay available for later waves.
    pub fn select_refill_batch(&mut self, want: usize, floor: Option<i64>) -> Vec<RuleRef> {
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
        for (r, _, sum_q, _) in ranked {
            if picks.len() == want {
                break;
            }
            if floor.is_some_and(|f| sum_q < f) {
                break; // benefit decayed below the cutoff: the wave stops
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
                let r = store.on_positives_added(&new_ids, index, self.cache.scores());
                self.note_wire(r);
            }
            if let Some(pool) = &mut self.frontier {
                // Journaled only — the pool re-scores its frontier lazily
                // at the next regeneration.
                pool.note_positives(&new_ids);
            }
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
        let darwin = self.darwin;
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
                store.on_scores_changed(self.cache.last_changes(), &self.state.p, darwin.index())
            };
            self.note_wire(r);
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
        let darwin = self.darwin;
        let cfg = darwin.config();
        let (hierarchy, cands) = match &mut self.frontier {
            // The pool drains the dirty-id journal `record` fed it, patches
            // the affected frontier statistics, and replays the walk from
            // the surviving state — identical output, no root-to-frontier
            // posting rescan.
            Some(pool) => generate_hierarchy_pooled(
                darwin.index(),
                &self.state.p,
                cfg.n_candidates,
                self.max_count,
                pool,
            ),
            None => generate_hierarchy_scored(
                darwin.index(),
                &self.state.p,
                cfg.n_candidates,
                self.max_count,
            ),
        };
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
            self.note_wire(r);
        }
    }

    /// One sequential question: select, ask, apply, feed back (retraining
    /// and regenerating the hierarchy on YES). Returns `false` when the
    /// strategy has nothing left to ask.
    ///
    /// This is the *sequential reference*, not a run entry: no `Darwin`
    /// method calls it. It is Algorithm 1's loop body written out without
    /// waves, kept so the equivalence suites have an independent
    /// implementation to compare the driver ([`crate::batch::Session`])
    /// against, and for callers that inspect state between questions.
    ///
    /// The strategy observes the answer *after* [`Engine::record`] applied
    /// it — the `ctx` passed to [`Strategy::feedback`] already reflects
    /// the grown `P`. The driver runs the same order (answers record as
    /// they arrive, feedback at the wave barrier), so wave size 1 replays
    /// this step exactly, whatever a strategy reads in its feedback.
    pub fn step(&mut self, strategy: &mut dyn Strategy, oracle: &mut dyn Oracle) -> bool {
        let Some(rule) = self.select(strategy) else {
            return false;
        };
        let index = self.darwin.index();
        let h = index.heuristic(rule);
        let cov = index.coverage(rule);
        let answer = oracle.ask(self.darwin.corpus(), &h, cov);
        self.record(rule, answer);
        {
            let ctx = self.ctx();
            strategy.feedback(rule, answer, &ctx);
        }
        if answer {
            // Score update (§3.7): retrain, refresh scores, regenerate the
            // hierarchy around the grown positive set.
            self.retrain_and_sync();
            self.regen_hierarchy();
        }
        true
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

    /// Decompose the engine into its owned state, releasing the `Darwin`
    /// borrow — the suspend half of the streaming-session contract
    /// ([`crate::stream::StreamSession`]). Unlike a
    /// [`crate::snapshot::Snapshot`], nothing is serialized or re-derived:
    /// the live classifier (including a connected wire worker), the score
    /// cache, the RNG, the hierarchy, the benefit store (including remote
    /// shard sessions) and the frontier memo all move out intact, so
    /// [`Engine::from_parts`] against an *equal* corpus/index view
    /// continues the run as if the engine had never been taken apart.
    pub fn into_parts(self) -> EngineParts {
        EngineParts {
            state: self.state,
            clf: self.clf,
            cache: self.cache,
            rng: self.rng,
            hierarchy: self.hierarchy,
            store: self.store,
            frontier: self.frontier,
            pending: self.pending,
            seed_refs: self.seed_refs,
            max_count: self.max_count,
            wire_abort: self.wire_abort,
        }
    }

    /// Reassemble an engine from [`Engine::into_parts`] against a (possibly
    /// rebuilt) `Darwin` view. Pure reassembly: no reconnects, no retrain,
    /// no hierarchy regeneration — the caller guarantees `darwin` presents
    /// the same corpus/index the parts were taken from (or that corpus/
    /// index growth has been reconciled via [`Engine::apply_append`]
    /// immediately after reassembly).
    pub fn from_parts(darwin: &'a Darwin<'a>, parts: EngineParts) -> Engine<'a> {
        Engine {
            darwin,
            state: parts.state,
            clf: parts.clf,
            cache: parts.cache,
            rng: parts.rng,
            hierarchy: parts.hierarchy,
            store: parts.store,
            frontier: parts.frontier,
            pending: parts.pending,
            seed_refs: parts.seed_refs,
            max_count: parts.max_count,
            wire_abort: parts.wire_abort,
        }
    }

    /// Reconcile the engine with a corpus that grew from `old_n` sentences
    /// by `texts` — the wave-barrier append operation. The caller has
    /// already grown the corpus, the index (in place via
    /// [`IndexSet::append`], or rebuilt from scratch on the grown corpus —
    /// the two produce identical indexes) and the embeddings
    /// (zero-padded: appends never retrain embeddings), and `darwin` views
    /// the grown state.
    ///
    /// What happens here, in order:
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
    /// 4. the frontier memo folds the appended ids (`delta` carries the
    ///    dense-id shift; `None` means the index was rebuilt from scratch,
    ///    so the memo is reset and the next walk is a full one — identical
    ///    output, the memo is a cost optimization);
    /// 5. the coverage cap is recomputed for the grown `n` and the
    ///    hierarchy regenerated once.
    ///
    /// Deliberately does **not** retrain: appends are not oracle answers,
    /// and retraining here would consume RNG words the delta/rebuild
    /// equivalence (and any suspended twin of this run) depends on.
    pub fn apply_append(&mut self, old_n: u32, texts: &[String], delta: Option<&AppendDelta>) {
        let darwin = self.darwin;
        let corpus = darwin.corpus();
        let index = darwin.index();
        let cfg = darwin.config();
        let n = corpus.len();
        let added = n - old_n as usize;
        if added == 0 {
            return;
        }
        self.cache.append(added);
        if let Some(store) = &mut self.store {
            let mut r = store.on_corpus_appended(corpus, texts, index, self.cache.scores());
            if r.is_ok() && delta.is_none() {
                // Scratch-rebuild reference path: recompute every tracked
                // aggregate from the grown (P, scores) instead of trusting
                // the delta fold — this is what the append-equivalence
                // suites compare the fold against.
                r = store.rebuild(index, &self.state.p, self.cache.scores(), cfg.threads);
            }
            self.note_wire(r);
        }
        self.clf.corpus_appended(texts, n);
        match (&mut self.frontier, delta) {
            (Some(pool), Some(delta)) => pool.append_ids(index, delta),
            (Some(pool), None) => *pool = FrontierPool::new(),
            (None, _) => {}
        }
        self.max_count = (cfg.max_coverage_frac * n as f64).ceil() as usize;
        self.regen_hierarchy();
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

/// The owned state of a suspended-in-memory [`Engine`] — everything but
/// the `Darwin` borrow. Produced by [`Engine::into_parts`] at a wave
/// barrier, held across a corpus append (during which no engine exists and
/// the corpus/index are mutable), and consumed by [`Engine::from_parts`].
pub struct EngineParts {
    state: EngineState,
    clf: Box<dyn TextClassifier>,
    cache: ScoreCache,
    rng: StdRng,
    hierarchy: Hierarchy,
    store: Option<ShardedBenefitStore>,
    frontier: Option<FrontierPool>,
    pending: Vec<(QuestionId, RuleRef)>,
    seed_refs: Vec<RuleRef>,
    max_count: usize,
    wire_abort: Option<darwin_wire::WireError>,
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
        store.on_positives_added(&new_ids, &idx, &scores);
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
        store.on_scores_changed(&changes, &p, &idx);
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

    /// The append fold one transpose row per owned appended id: the
    /// oracle the range fold must reproduce.
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
            for r in index.rules_covering(id) {
                if let Some(agg) = store.aggs.get_mut(&r) {
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
            engine.select_refill_batch(want, None)
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
        let picks = engine.select_refill_batch(2, None);
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
            .select_refill_batch(3, None)
            .is_empty());

        // A fully queried pool is as empty as an empty one.
        let all: Vec<RuleRef> = idx.all_rules().collect();
        let mut engine = engine_over(&darwin, all.clone());
        engine.state.queried.extend(all);
        assert!(engine.select_refill_batch(3, None).is_empty());
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
        assert!(engine.select_refill_batch(4, None).is_empty());
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
