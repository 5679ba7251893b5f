//! Hierarchy traversal strategies (paper §3.3–3.6, Algorithms 3–5).
//!
//! A [`Strategy`] picks the next heuristic to submit to the oracle given
//! the current hierarchy, positive set and classifier scores, and receives
//! the oracle's answer as feedback:
//!
//! * [`LocalSearch`] keeps a frontier around accepted rules — YES moves to
//!   the rule's parents (generalize), NO to its children (specialize).
//! * [`UniversalSearch`] scans the whole hierarchy for the maximum-benefit
//!   rule, skipping rules whose benefit-per-instance is ≤ 0.5 (mostly
//!   expected negatives). Where Algorithm 4 as printed burns a query on a
//!   skipped rule, we filter before selecting — the published text's
//!   intent ("omits any heuristic for which the benefit per instance is
//!   smaller than 0.5") without the wasted budget.
//! * [`HybridSearch`] runs one of the two and toggles after `τ`
//!   consecutive failures (a NO answer, or nothing qualifying to ask).

use crate::benefit::{benefit, Benefit};
use crate::hierarchy::Hierarchy;
use crate::shard::ShardedBenefitStore;
use darwin_index::fx::FxHashSet;
use darwin_index::{IdSet, IndexSet, RuleRef};

/// Read-only view of the pipeline state a strategy selects from.
pub struct Ctx<'a> {
    /// The heuristic index the candidates live in.
    pub index: &'a IndexSet,
    /// The current candidate pool.
    pub hierarchy: &'a Hierarchy,
    /// The discovered positive set `P`.
    pub p: &'a IdSet,
    /// Current classifier scores, one per sentence.
    pub scores: &'a [f32],
    /// Rules already asked (or skipped as duplicates) — never re-offered.
    pub queried: &'a FxHashSet<RuleRef>,
    /// UniversalSearch's benefit-per-instance pruning bar (Algorithm 4).
    pub benefit_threshold: f64,
    /// Delta-maintained benefit aggregates. When present, [`Ctx::benefit`]
    /// is a lookup for tracked rules (an O(shards) fragment merge when the
    /// store is remote); when absent (rescan mode), it recomputes from raw
    /// coverage. Both paths return bit-identical values — see
    /// [`crate::benefit`] and [`crate::shard`].
    pub store: Option<&'a ShardedBenefitStore>,
}

impl Ctx<'_> {
    /// Benefit of a rule under the current state: cached aggregate when
    /// tracked, from-scratch coverage scan otherwise (off-pool rules
    /// LocalSearch walks to are the untracked case).
    pub fn benefit(&self, r: RuleRef) -> Benefit {
        if let Some(b) = self.store.and_then(|s| s.benefit_of(r)) {
            return b;
        }
        benefit(self.index.coverage(r), self.p, self.scores)
    }

    fn selectable(&self, r: RuleRef) -> bool {
        r != RuleRef::Root && !self.queried.contains(&r)
    }

    /// Max-total-benefit rule among `rules` (filtered to selectable ones
    /// that add at least one new instance).
    pub fn most_beneficial<I: IntoIterator<Item = RuleRef>>(&self, rules: I) -> Option<RuleRef> {
        rules
            .into_iter()
            .filter(|&r| self.selectable(r))
            .map(|r| (r, self.benefit(r)))
            .filter(|(_, b)| b.new_instances > 0)
            .max_by(|(ra, a), (rb, b)| a.sum_q.cmp(&b.sum_q).then_with(|| rb.cmp(ra)))
            .map(|(r, _)| r)
    }

    /// Max-*average*-benefit rule (highest expected precision on its new
    /// instances), tie-broken by total benefit. The pipeline's fallback
    /// when the active strategy has nothing to propose — asking the most
    /// *promising* rule rather than the broadest one.
    pub fn most_promising<I: IntoIterator<Item = RuleRef>>(&self, rules: I) -> Option<RuleRef> {
        rules
            .into_iter()
            .filter(|&r| self.selectable(r))
            .map(|r| (r, self.benefit(r)))
            .filter(|(_, b)| b.new_instances > 0)
            .max_by(|(ra, a), (rb, b)| {
                a.average()
                    .total_cmp(&b.average())
                    .then(a.sum_q.cmp(&b.sum_q))
                    .then_with(|| rb.cmp(ra))
            })
            .map(|(r, _)| r)
    }
}

/// Serializable traversal state, captured at a wave barrier for session
/// snapshots. Replaying `feedback` at resume time would *not* reproduce
/// this — feedback walks the hierarchy as it stood when the answer
/// arrived, and the hierarchy changes after every retrain — so the state
/// is exported explicitly instead.
///
/// The image is canonical: the frontier is sorted (the underlying set is
/// unordered and selection is order-independent), so equal states export
/// equal bytes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StrategyState {
    /// LocalSearch's frontier, in increasing rule order.
    pub local: Vec<RuleRef>,
    /// HybridSearch: whether universal mode is active.
    pub universal_mode: bool,
    /// HybridSearch: consecutive failed attempts of the active mode.
    pub attempts: u64,
}

/// A hierarchy-traversal policy.
pub trait Strategy: Send {
    /// Display name (experiment reports key on it).
    fn name(&self) -> &'static str;

    /// Choose the next rule to ask about, or `None` when out of ideas
    /// (the pipeline then falls back to the best remaining candidate).
    fn select(&mut self, ctx: &Ctx) -> Option<RuleRef>;

    /// Observe the oracle's answer for a rule this or any other policy
    /// queried. Called *after* the answer has been applied: `ctx` already
    /// reflects the grown `P` and patched benefit aggregates (the
    /// classifier retrain comes later still). The synchronous and async
    /// loops share this order, so strategies behave identically under
    /// both.
    fn feedback(&mut self, rule: RuleRef, answer: bool, ctx: &Ctx);

    /// Capture the strategy's mutable state for a session snapshot, or
    /// `None` when the implementation does not support snapshotting
    /// (custom strategies may opt out; the built-in three all opt in).
    fn export_state(&self) -> Option<StrategyState> {
        None
    }

    /// Restore state captured by [`Strategy::export_state`]. Returns
    /// `false` when the implementation does not support snapshotting.
    fn import_state(&mut self, _state: &StrategyState) -> bool {
        false
    }
}

/// Algorithm 3 — LocalSearch.
pub struct LocalSearch {
    local: FxHashSet<RuleRef>,
}

impl LocalSearch {
    /// `seeds` are the rule handles of the seed heuristics (may be empty —
    /// the frontier then bootstraps from the hierarchy's best candidate).
    pub fn new(seeds: Vec<RuleRef>) -> LocalSearch {
        LocalSearch {
            local: seeds.into_iter().collect(),
        }
    }

    fn bootstrap(&mut self, ctx: &Ctx) {
        if let Some(best) = ctx.most_beneficial(ctx.hierarchy.rules().iter().copied()) {
            self.local.insert(best);
        }
    }
}

impl Strategy for LocalSearch {
    fn name(&self) -> &'static str {
        "LocalSearch"
    }

    fn select(&mut self, ctx: &Ctx) -> Option<RuleRef> {
        // Seeds may start queried-out (the seed rule itself); expand them
        // so the frontier is never silently empty.
        if self.local.iter().all(|r| !ctx.selectable(*r)) {
            let stale: Vec<RuleRef> = self
                .local
                .iter()
                .copied()
                .filter(|&r| ctx.queried.contains(&r))
                .collect();
            for r in stale {
                for p in ctx.hierarchy.parents(ctx.index, r) {
                    self.local.insert(p);
                }
            }
        }
        // Prefer frontier rules that clear the benefit-per-instance bar
        // (they are expected to be mostly positive); among those take the
        // maximum total benefit. Without any qualifying rule, fall back to
        // the most promising frontier member — asking the broadest one
        // would burn budget on rules the oracle is certain to reject.
        let qualified = self
            .local
            .iter()
            .copied()
            .filter(|&r| ctx.benefit(r).average() > ctx.benefit_threshold);
        let pick = ctx
            .most_beneficial(qualified)
            .or_else(|| ctx.most_promising(self.local.iter().copied()));
        if pick.is_none() && self.local.len() < 2 {
            self.bootstrap(ctx);
            return ctx.most_promising(self.local.iter().copied());
        }
        pick
    }

    fn feedback(&mut self, rule: RuleRef, answer: bool, ctx: &Ctx) {
        self.local.remove(&rule);
        if answer {
            // Generalize (Algorithm 3 line 9) — and also expose the rule's
            // local structural variants: §3 describes LocalSearch as
            // "dropping and adding tokens (derivation rules in general)",
            // which is how `best way to the hotel` leads to sibling rules
            // like `shuttle to the hotel` via their shared parent.
            for r in ctx.hierarchy.parents(ctx.index, rule) {
                if r != RuleRef::Root {
                    self.local.insert(r);
                }
            }
            for r in ctx.hierarchy.children(ctx.index, rule) {
                self.local.insert(r);
            }
        } else {
            // Specialize: a noisy rule may have precise children.
            for r in ctx.hierarchy.children(ctx.index, rule) {
                self.local.insert(r);
            }
        }
    }

    fn export_state(&self) -> Option<StrategyState> {
        let mut local: Vec<RuleRef> = self.local.iter().copied().collect();
        local.sort_unstable();
        Some(StrategyState {
            local,
            ..StrategyState::default()
        })
    }

    fn import_state(&mut self, state: &StrategyState) -> bool {
        self.local = state.local.iter().copied().collect();
        true
    }
}

/// Algorithm 4 — UniversalSearch.
pub struct UniversalSearch;

impl UniversalSearch {
    /// A fresh (stateless) UniversalSearch.
    pub fn new() -> UniversalSearch {
        UniversalSearch
    }
}

impl Default for UniversalSearch {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for UniversalSearch {
    fn name(&self) -> &'static str {
        "UniversalSearch"
    }

    fn select(&mut self, ctx: &Ctx) -> Option<RuleRef> {
        // Rules expected to be mostly negative (avg benefit ≤ threshold)
        // are omitted; among the rest pick the maximum total benefit.
        let qualified = ctx
            .hierarchy
            .rules()
            .iter()
            .copied()
            .filter(|&r| ctx.benefit(r).average() > ctx.benefit_threshold);
        ctx.most_beneficial(qualified)
    }

    fn feedback(&mut self, _rule: RuleRef, _answer: bool, _ctx: &Ctx) {
        // Stateless: the shared `queried` set already excludes asked rules.
    }

    fn export_state(&self) -> Option<StrategyState> {
        Some(StrategyState::default()) // stateless, trivially snapshotted
    }

    fn import_state(&mut self, _state: &StrategyState) -> bool {
        true
    }
}

/// Algorithm 5 — HybridSearch.
pub struct HybridSearch {
    local: LocalSearch,
    universal: UniversalSearch,
    universal_mode: bool,
    attempts: usize,
    tau: usize,
}

impl HybridSearch {
    /// HybridSearch seeded like [`LocalSearch`], switching strategy after
    /// `tau` consecutive failed attempts (paper default: 5).
    pub fn new(seeds: Vec<RuleRef>, tau: usize) -> HybridSearch {
        HybridSearch {
            local: LocalSearch::new(seeds),
            universal: UniversalSearch::new(),
            universal_mode: true,
            attempts: 0,
            tau: tau.max(1),
        }
    }

    /// Which mode is active (diagnostics).
    pub fn in_universal_mode(&self) -> bool {
        self.universal_mode
    }

    fn toggle(&mut self) {
        self.universal_mode = !self.universal_mode;
        self.attempts = 0;
    }
}

impl Strategy for HybridSearch {
    fn name(&self) -> &'static str {
        "HybridSearch"
    }

    fn select(&mut self, ctx: &Ctx) -> Option<RuleRef> {
        if self.attempts >= self.tau {
            self.toggle();
        }
        let first = if self.universal_mode {
            self.universal.select(ctx)
        } else {
            self.local.select(ctx)
        };
        if first.is_some() {
            return first;
        }
        // Active mode has nothing to ask: that counts as a failed attempt
        // of the mode; try the other one immediately.
        self.toggle();
        if self.universal_mode {
            self.universal.select(ctx)
        } else {
            self.local.select(ctx)
        }
    }

    fn feedback(&mut self, rule: RuleRef, answer: bool, ctx: &Ctx) {
        // Both component strategies observe every answer (Algorithm 5
        // updates localCands and universalCands in either mode).
        self.local.feedback(rule, answer, ctx);
        self.universal.feedback(rule, answer, ctx);
        if answer {
            self.attempts = 0;
        } else {
            self.attempts += 1;
        }
    }

    fn export_state(&self) -> Option<StrategyState> {
        let mut state = self.local.export_state()?;
        state.universal_mode = self.universal_mode;
        state.attempts = self.attempts as u64;
        Some(state)
    }

    fn import_state(&mut self, state: &StrategyState) -> bool {
        self.local.import_state(state);
        self.universal_mode = state.universal_mode;
        self.attempts = state.attempts as usize;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_hierarchy;
    use darwin_grammar::Heuristic;
    use darwin_index::IndexConfig;
    use darwin_text::Corpus;

    struct Fixture {
        corpus: Corpus,
        index: IndexSet,
        p: IdSet,
        scores: Vec<f32>,
        queried: FxHashSet<RuleRef>,
    }

    fn fixture() -> Fixture {
        let corpus = Corpus::from_texts([
            "the shuttle to the airport leaves hourly",  // 0 pos
            "is there a shuttle to the airport tonight", // 1 pos
            "a bus to the airport runs daily",           // 2 pos (undiscovered)
            "order pizza to the room please",            // 3 neg
            "the pool opens at nine daily",              // 4 neg
        ]);
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let p = IdSet::from_ids(&[0, 1], corpus.len());
        // Classifier thinks sentence 2 is promising, 3–4 are not.
        let scores = vec![0.9, 0.9, 0.8, 0.1, 0.1];
        Fixture {
            corpus,
            index,
            p,
            scores,
            queried: FxHashSet::default(),
        }
    }

    fn ctx<'a>(f: &'a Fixture, h: &'a Hierarchy) -> Ctx<'a> {
        Ctx {
            index: &f.index,
            hierarchy: h,
            p: &f.p,
            scores: &f.scores,
            queried: &f.queried,
            benefit_threshold: 0.5,
            store: None,
        }
    }

    #[test]
    fn universal_picks_high_benefit_rule() {
        let f = fixture();
        let h = generate_hierarchy(&f.index, &f.p, 500, usize::MAX);
        let mut us = UniversalSearch::new();
        let pick = us.select(&ctx(&f, &h)).expect("something to ask");
        // The picked rule must cover sentence 2 (the only promising new one).
        assert!(
            f.index.coverage(pick).contains(&2),
            "{:?}",
            f.index.heuristic(pick)
        );
        let b = ctx(&f, &h).benefit(pick);
        assert!(b.average() > 0.5);
    }

    #[test]
    fn universal_respects_threshold() {
        let mut f = fixture();
        // Make everything look negative: no rule qualifies.
        f.scores = vec![0.1; 5];
        let h = generate_hierarchy(&f.index, &f.p, 500, usize::MAX);
        let mut us = UniversalSearch::new();
        assert!(us.select(&ctx(&f, &h)).is_none());
    }

    #[test]
    fn local_generalizes_on_yes_and_specializes_on_no() {
        let f = fixture();
        let h = generate_hierarchy(&f.index, &f.p, 500, usize::MAX);
        let shuttle_to = f
            .index
            .resolve(&Heuristic::phrase(&f.corpus, "shuttle to the").unwrap())
            .expect("indexed");
        let mut ls = LocalSearch::new(vec![shuttle_to]);
        let c = ctx(&f, &h);
        // YES -> parents enter the frontier.
        ls.feedback(shuttle_to, true, &c);
        let parent = f
            .index
            .resolve(&Heuristic::phrase(&f.corpus, "shuttle to").unwrap())
            .unwrap();
        assert!(ls.local.contains(&parent));
        assert!(!ls.local.contains(&shuttle_to));
        // NO on the parent -> children re-enter.
        ls.feedback(parent, false, &c);
        assert!(ls.local.contains(&shuttle_to));
    }

    #[test]
    fn local_bootstraps_from_hierarchy_when_unseeded() {
        let f = fixture();
        let h = generate_hierarchy(&f.index, &f.p, 500, usize::MAX);
        let mut ls = LocalSearch::new(vec![]);
        assert!(ls.select(&ctx(&f, &h)).is_some());
    }

    #[test]
    fn hybrid_toggles_after_tau_failures() {
        let f = fixture();
        let h = generate_hierarchy(&f.index, &f.p, 500, usize::MAX);
        let mut hs = HybridSearch::new(vec![], 2);
        assert!(hs.in_universal_mode());
        let c = ctx(&f, &h);
        let r1 = hs.select(&c).unwrap();
        hs.feedback(r1, false, &c);
        let r2 = hs.select(&c).unwrap();
        hs.feedback(r2, false, &c);
        // Two failures with tau=2: next select toggles to local mode.
        let _ = hs.select(&c);
        assert!(!hs.in_universal_mode());
    }

    #[test]
    fn hybrid_success_resets_failure_count() {
        let f = fixture();
        let h = generate_hierarchy(&f.index, &f.p, 500, usize::MAX);
        let mut hs = HybridSearch::new(vec![], 2);
        let c = ctx(&f, &h);
        let r1 = hs.select(&c).unwrap();
        hs.feedback(r1, false, &c);
        let r2 = hs.select(&c).unwrap();
        hs.feedback(r2, true, &c); // success resets
        let _ = hs.select(&c);
        assert!(hs.in_universal_mode(), "no toggle after a success");
    }

    #[test]
    fn queried_rules_are_never_reselected() {
        let f = fixture();
        let hier = generate_hierarchy(&f.index, &f.p, 500, usize::MAX);
        let mut queried = FxHashSet::default();
        let mut us = UniversalSearch::new();
        for _ in 0..50 {
            let c = Ctx {
                index: &f.index,
                hierarchy: &hier,
                p: &f.p,
                scores: &f.scores,
                queried: &queried,
                benefit_threshold: 0.5,
                store: None,
            };
            match us.select(&c) {
                Some(r) => assert!(queried.insert(r), "rule {r:?} re-asked"),
                None => break,
            }
        }
    }
}
