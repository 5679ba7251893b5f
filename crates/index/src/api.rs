//! Unified index facade consumed by the Darwin pipeline.

use crate::fx::FxHashSet;
use crate::phrase_index::{NodeId, PhraseIndex};
use crate::sketch::TreeSketchConfig;
use crate::tree_index::{PatId, TreeIndex};
use darwin_grammar::{Heuristic, PhrasePattern};
use darwin_text::fanout::grow_ordered;
use darwin_text::{Corpus, Sentence};

/// A handle to a heuristic materialized in the index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum RuleRef {
    /// The `*` heuristic matching every sentence (Algorithm 2 starts here).
    Root,
    /// A node of the TokensRegex trie.
    Phrase(NodeId),
    /// A pattern of the TreeMatch table.
    Tree(PatId),
}

/// Index construction parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexConfig {
    /// Maximum phrase length (the paper sets the maximum derivation depth
    /// to 10 for generating derivation sketches, §4.1).
    pub max_phrase_len: usize,
    /// Drop phrases occurring in fewer sentences than this (1 = keep all).
    pub min_count: usize,
    /// Also build the TreeMatch pattern index.
    pub enable_tree: bool,
    /// TreeMatch enumeration bounds.
    pub tree: TreeSketchConfig,
    /// Worker threads for index growth ([`IndexSet::build`] and the
    /// appends). A pure performance knob: workers only resolve new
    /// sentences to the trie nodes and pattern ids that already exist, and
    /// what is new is interned by one serial loop in sentence order, so
    /// rules are numbered in first-occurrence order for every thread count.
    pub threads: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            max_phrase_len: 10,
            min_count: 2,
            enable_tree: true,
            tree: TreeSketchConfig::default(),
            threads: 1,
        }
    }
}

impl IndexConfig {
    /// A configuration suited to unit tests and tiny corpora: short
    /// phrases, no pruning.
    pub fn small() -> IndexConfig {
        IndexConfig {
            max_phrase_len: 4,
            min_count: 1,
            ..Default::default()
        }
    }
}

/// Why an append was refused: by [`IndexSet::append`] itself, or by an
/// owner that grows a corpus and its index together (a labeling session),
/// which checks the pair before it changes either.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppendError {
    /// The index was built with `min_count > 1`: pruning renumbers trie
    /// nodes, so a delta-grown index could not reproduce the rule
    /// numbering of a scratch build on the grown corpus — and numbering
    /// is output-affecting (the best-first walk tie-breaks on dense ids).
    PrunedIndex {
        /// The offending `min_count` the index was built with.
        min_count: usize,
    },
    /// The corpus passed in is shorter than the indexed prefix — it is not
    /// a grown version of the corpus this index was built over.
    CorpusBehindIndex {
        /// Sentences in the corpus handed to `append`.
        corpus: usize,
        /// Sentences already indexed.
        indexed: usize,
    },
    /// The corpus holds sentences the index has not seen yet. An owner
    /// that grows the two together refuses: its state was sized to the
    /// corpus, so the unseen sentences would enter its rules' coverage
    /// without being folded in.
    IndexBehindCorpus {
        /// Sentences in the corpus.
        corpus: usize,
        /// Sentences indexed.
        indexed: usize,
    },
    /// The corpus and index are lent to their holder, which may read them
    /// but not grow them.
    Lent,
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::PrunedIndex { min_count } => write!(
                f,
                "cannot append to a pruned index (min_count = {min_count}): \
                 pruning renumbers rules; rebuild instead"
            ),
            AppendError::CorpusBehindIndex { corpus, indexed } => write!(
                f,
                "corpus has {corpus} sentences but {indexed} are already indexed"
            ),
            AppendError::IndexBehindCorpus { corpus, indexed } => write!(
                f,
                "corpus has {corpus} sentences but only {indexed} are indexed"
            ),
            AppendError::Lent => write!(f, "the corpus and index are lent, not owned"),
        }
    }
}

impl std::error::Error for AppendError {}

/// What [`IndexSet::append`] changed — the numbers a dense-keyed side
/// table needs to remap itself across the append.
///
/// Appending keeps every `RuleRef` stable (trie nodes and tree patterns
/// are numbered in first-occurrence order), but the **dense** numbering
/// lays phrases out before trees, so new phrase nodes shift every tree
/// rule's dense id up by `phrase_after - phrase_before`. A scratch build
/// on the grown corpus shifts identically — the delta and rebuild paths
/// agree — but any table keyed by pre-append dense ids must move its tree
/// slots by that amount.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendDelta {
    /// Sentences folded in.
    pub sentences: usize,
    /// `phrase_index().len()` before the append (trie nodes incl. root).
    pub phrase_before: usize,
    /// `phrase_index().len()` after.
    pub phrase_after: usize,
    /// [`IndexSet::dense_rules`] before the append.
    pub dense_before: usize,
    /// [`IndexSet::dense_rules`] after.
    pub dense_after: usize,
}

impl AppendDelta {
    /// How far tree rules' dense ids moved.
    pub fn tree_shift(&self) -> usize {
        self.phrase_after - self.phrase_before
    }
}

/// The combined heuristic index: one sub-index per registered grammar.
pub struct IndexSet {
    phrase: PhraseIndex,
    tree: Option<TreeIndex>,
    cfg: IndexConfig,
    all_ids: Vec<u32>,
}

/// Index growth gives each worker this many sentences per block. Workers
/// resolve a block against the index as it stood when the block started,
/// and the block's rows wait for the serial apply: bigger blocks pay fewer
/// spawn/join barriers, smaller ones buffer fewer rows (all a one-thread
/// build, which spawns nothing, adds to peak memory).
const WORKER_SENTENCES: usize = 4_096;

/// Blocks below this many sentences are resolved on the caller's thread.
const MIN_FAN_OUT: usize = 256;

/// One chunk of a growth block, resolved read-only by a worker: per
/// sentence, in order, the ids it touches that already existed, and the
/// misses the serial apply must intern.
pub(crate) struct Resolved<M> {
    /// Every sentence's row, back to back: an id, or a `fanout::miss` word.
    pub(crate) rows: Vec<u32>,
    /// The chunk's `j`-th row is `rows[ends[j - 1]..ends[j]]`.
    pub(crate) ends: Vec<u32>,
    /// What each miss word names.
    pub(crate) misses: Vec<M>,
}

impl<M> Resolved<M> {
    pub(crate) fn new() -> Self {
        Resolved {
            rows: Vec::new(),
            ends: Vec::new(),
            misses: Vec::new(),
        }
    }

    /// Close the current sentence's row.
    pub(crate) fn end_row(&mut self) {
        self.ends
            .push(u32::try_from(self.rows.len()).expect("chunk rows fit u32 ends"));
    }

    /// Hand the chunk's rows to `apply_row` in sentence order, the `corpus`
    /// sentences `ids` (the ids the chunk resolved) one row each.
    fn apply<I>(
        &self,
        index: &mut I,
        corpus: &Corpus,
        ids: &[u32],
        mut apply_row: impl FnMut(&mut I, Sentence<'_>, &[u32], &[M]),
    ) {
        let mut start = 0;
        for (&id, &end) in ids.iter().zip(&self.ends) {
            apply_row(
                index,
                corpus.sentence(id),
                &self.rows[start..end as usize],
                &self.misses,
            );
            start = end as usize;
        }
    }
}

impl IndexSet {
    /// Build all enabled sub-indexes over `corpus`: an empty index grown
    /// over every sentence by the routine [`IndexSet::append`] grows it
    /// with (which prunes the trie when `cfg.min_count > 1`).
    ///
    /// Trie nodes and tree patterns are numbered in first-occurrence order
    /// for every `cfg.threads` — and for every way of splitting the corpus
    /// between `build` and later appends — because there is one interning
    /// loop, serial in sentence order; threads only resolve what exists.
    pub fn build(corpus: &Corpus, cfg: &IndexConfig) -> IndexSet {
        let mut set = IndexSet {
            phrase: PhraseIndex::new(cfg.max_phrase_len),
            tree: cfg.enable_tree.then(TreeIndex::default),
            cfg: cfg.clone(),
            all_ids: Vec::new(),
        };
        set.grow(corpus, cfg.threads);
        set
    }

    /// The recipe this index was built with. Construction is
    /// deterministic given `(corpus, config)` — and independent of
    /// `config.threads` — so shipping this config plus the corpus texts
    /// lets a remote worker rebuild an index with identical [`RuleRef`]
    /// numbering.
    pub fn config(&self) -> &IndexConfig {
        &self.cfg
    }

    /// Grow the index over sentences appended to `corpus` since the build
    /// (ids `self.sentences()..corpus.len()`). Returns how many sentences
    /// were folded in.
    ///
    /// The delta-grown index **is** the index [`IndexSet::build`] makes of
    /// the grown corpus, not merely equal to it: `build` is this same
    /// growth applied to the empty index, so trie nodes and tree patterns
    /// are numbered in first-occurrence order by the one interning loop
    /// whatever the batch split or thread count, and the tree hierarchy is
    /// folded in incrementally by `finalize`. That identity is what lets
    /// streaming sessions prove append ≡ rebuild downstream.
    ///
    /// Refused for pruned indexes (`min_count > 1`): pruning renumbers
    /// nodes, so delta growth could not match a scratch rebuild.
    ///
    /// The returned [`AppendDelta`] records how the dense numbering moved;
    /// side tables keyed by dense ids (the frontier memo) remap with it.
    pub fn append(&mut self, corpus: &Corpus) -> Result<AppendDelta, AppendError> {
        self.append_with_threads(corpus, 1)
    }

    /// [`IndexSet::append`] with the new sentences resolved against the
    /// existing index on `threads` workers; only the interning of what is
    /// new stays serial. The result is bit-identical to the one-thread
    /// append for any thread count (see [`IndexConfig::threads`]).
    pub fn append_with_threads(
        &mut self,
        corpus: &Corpus,
        threads: usize,
    ) -> Result<AppendDelta, AppendError> {
        if self.cfg.min_count > 1 {
            return Err(AppendError::PrunedIndex {
                min_count: self.cfg.min_count,
            });
        }
        let old_n = self.all_ids.len();
        if corpus.len() < old_n {
            return Err(AppendError::CorpusBehindIndex {
                corpus: corpus.len(),
                indexed: old_n,
            });
        }
        let phrase_before = self.phrase.len();
        let dense_before = self.dense_rules();
        self.grow(corpus, threads);
        Ok(AppendDelta {
            sentences: corpus.len() - old_n,
            phrase_before,
            phrase_after: self.phrase.len(),
            dense_before,
            dense_after: self.dense_rules(),
        })
    }

    /// The one ingest routine behind [`IndexSet::build`] and
    /// [`IndexSet::append_with_threads`]: fold sentences
    /// `self.sentences()..corpus.len()` into every sub-index, one pass per
    /// sub-index (each table has the cache to itself, and a pruned build
    /// sheds its rare phrases before the tree index exists).
    ///
    /// Each pass is one [`grow_ordered`] run: a block's sentences are
    /// resolved in parallel against the index as it stood when the block
    /// started — existing trie nodes and pattern ids, read only — and then
    /// the serial fold walks the rows in sentence order, pushing postings
    /// and interning the misses. A miss that an earlier sentence of the
    /// block has since created is found by that intern, so ids come out in
    /// first-occurrence order exactly as the per-sentence `add_sentence`
    /// paths number them, at every thread count.
    fn grow(&mut self, corpus: &Corpus, threads: usize) {
        let old_n = self.all_ids.len();
        if corpus.len() == old_n {
            return;
        }
        self.all_ids.extend(old_n as u32..corpus.len() as u32);
        let new = &self.all_ids[old_n..];
        let block = WORKER_SENTENCES * threads.max(1);
        grow_ordered(
            &mut self.phrase,
            new,
            block,
            threads,
            MIN_FAN_OUT,
            |p, ids| p.resolve(corpus, ids),
            |p, ids, r| r.apply(p, corpus, ids, PhraseIndex::apply_row),
        );
        // Only a build can reach here with `min_count > 1` (appends to a
        // pruned index are refused), so the one span a pruned trie ever
        // sees is pruned before the tree index is grown beside it.
        self.phrase.prune(self.cfg.min_count);
        if let Some(tree) = &mut self.tree {
            let cfg = &self.cfg.tree;
            grow_ordered(
                tree,
                new,
                block,
                threads,
                MIN_FAN_OUT,
                |t, ids| t.resolve(corpus, ids, cfg),
                |t, ids, r| r.apply(t, corpus, ids, TreeIndex::apply_row),
            );
            tree.finalize();
        }
    }

    /// Write into `out` every indexed rule whose coverage holds the
    /// indexed sentence `s` (the root excluded), sorted in
    /// [`IndexSet::all_rules`] order and deduplicated: `s`'s row of the
    /// sentence → rules transpose, recomputed from the index instead of
    /// stored. When `P` gains `s` (or `s` is re-scored), exactly these
    /// rules' benefit aggregates move.
    ///
    /// Phrases are the trie walk along `s`'s n-grams; tree patterns are
    /// the interned ids of `s`'s sketch keys, enumerated with ingest's
    /// per-sentence dedup and `max_patterns` cap. Both are exact: a
    /// pruned phrase node goes with its whole subtree, tree postings are
    /// written only from a sentence's own key list, and `finalize` touches
    /// hierarchy edges only.
    pub fn covering_rules(&self, s: Sentence<'_>, out: &mut Vec<RuleRef>) {
        out.clear();
        self.phrase
            .walk(s, |n| out.push(RuleRef::Phrase(n)), |_, _| {});
        if let Some(tree) = &self.tree {
            // Sized for a typical sentence's keys: growing from empty
            // cost a quarter of the call.
            let mut seen = FxHashSet::with_capacity_and_hasher(128, Default::default());
            crate::sketch::for_each_tree_sketch(s, &self.cfg.tree, &mut |k| {
                let fresh = seen.insert(k);
                if fresh {
                    out.extend(tree.id_of(k).map(RuleRef::Tree));
                }
                fresh
            });
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The phrase sub-index.
    pub fn phrase_index(&self) -> &PhraseIndex {
        &self.phrase
    }

    /// The TreeMatch sub-index, if enabled.
    pub fn tree_index(&self) -> Option<&TreeIndex> {
        self.tree.as_ref()
    }

    /// Number of indexed sentences.
    pub fn sentences(&self) -> usize {
        self.all_ids.len()
    }

    /// Total number of indexed heuristics (excluding the root).
    pub fn rules(&self) -> usize {
        self.phrase.len() - 1 + self.tree.as_ref().map_or(0, |t| t.len())
    }

    /// Coverage set `C_r`: sorted ids of sentences satisfying the rule.
    pub fn coverage(&self, r: RuleRef) -> &[u32] {
        match r {
            RuleRef::Root => &self.all_ids,
            RuleRef::Phrase(n) => self.phrase.postings(n),
            RuleRef::Tree(p) => self.tree.as_ref().expect("tree index enabled").postings(p),
        }
    }

    /// `|C_r|` without materializing anything.
    pub fn count(&self, r: RuleRef) -> usize {
        match r {
            RuleRef::Root => self.all_ids.len(),
            RuleRef::Phrase(n) => self.phrase.count(n),
            RuleRef::Tree(p) => self.tree.as_ref().expect("tree index enabled").count(p),
        }
    }

    /// One-derivation-step specializations of `r`.
    pub fn children(&self, r: RuleRef) -> Vec<RuleRef> {
        let mut out = Vec::new();
        self.for_each_child(r, |c| out.push(c));
        out
    }

    /// Visit the one-derivation-step specializations of `r` without
    /// materializing them ([`IndexSet::children`] minus the `Vec` — the
    /// best-first walk expands enough nodes for the per-pop allocation to
    /// show up).
    pub fn for_each_child(&self, r: RuleRef, mut f: impl FnMut(RuleRef)) {
        match r {
            RuleRef::Root => {
                for c in self.phrase.children(crate::phrase_index::ROOT) {
                    f(RuleRef::Phrase(c));
                }
                if let Some(t) = &self.tree {
                    for &p in t.roots() {
                        f(RuleRef::Tree(p));
                    }
                }
            }
            RuleRef::Phrase(n) => {
                for c in self.phrase.children(n) {
                    f(RuleRef::Phrase(c));
                }
            }
            RuleRef::Tree(p) => {
                for &c in self.tree.as_ref().expect("tree index enabled").children(p) {
                    f(RuleRef::Tree(c));
                }
            }
        }
    }

    /// One-derivation-step generalizations of `r`.
    pub fn parents(&self, r: RuleRef) -> Vec<RuleRef> {
        match r {
            RuleRef::Root => Vec::new(),
            RuleRef::Phrase(n) => match self.phrase.parent(n) {
                Some(crate::phrase_index::ROOT) => vec![RuleRef::Root],
                Some(p) => vec![RuleRef::Phrase(p)],
                None => Vec::new(),
            },
            RuleRef::Tree(p) => {
                let t = self.tree.as_ref().expect("tree index enabled");
                let pars = t.parents(p);
                if pars.is_empty() {
                    vec![RuleRef::Root]
                } else {
                    pars.iter().map(|&q| RuleRef::Tree(q)).collect()
                }
            }
        }
    }

    /// Materialize the heuristic a ref denotes.
    pub fn heuristic(&self, r: RuleRef) -> Heuristic {
        match r {
            RuleRef::Root => Heuristic::Phrase(PhrasePattern { elems: Vec::new() }),
            RuleRef::Phrase(n) => {
                Heuristic::Phrase(PhrasePattern::from_tokens(self.phrase.phrase(n)))
            }
            RuleRef::Tree(p) => {
                Heuristic::Tree(self.tree.as_ref().expect("tree index enabled").pattern(p))
            }
        }
    }

    /// Find the indexed handle for a heuristic, if it is in index range
    /// (contiguous phrases within depth; enumerated tree patterns).
    pub fn resolve(&self, h: &Heuristic) -> Option<RuleRef> {
        match h {
            Heuristic::Phrase(p) if p.is_empty() => Some(RuleRef::Root),
            Heuristic::Phrase(p) if p.is_contiguous() => {
                let syms: Vec<_> = p.tokens().collect();
                self.phrase.lookup(&syms).map(RuleRef::Phrase)
            }
            Heuristic::Phrase(_) => None,
            Heuristic::Tree(t) => self.tree.as_ref()?.lookup(t).map(RuleRef::Tree),
        }
    }

    /// Whether `r` denotes a rule this index actually holds — the
    /// wire-boundary validity check. Every other accessor
    /// ([`IndexSet::coverage`], [`IndexSet::heuristic`], …) treats its
    /// handle as trusted and will panic on an out-of-range node or a tree
    /// ref against a treeless build; workers receiving handles from a
    /// peer check here first and refuse invalid ones cleanly.
    pub fn contains_rule(&self, r: RuleRef) -> bool {
        match r {
            RuleRef::Root => true,
            RuleRef::Phrase(n) => (n as usize) < self.phrase.len(),
            RuleRef::Tree(p) => self.tree.as_ref().is_some_and(|t| (p as usize) < t.len()),
        }
    }

    /// Size of the dense rule numbering ([`IndexSet::dense_id`]).
    pub fn dense_rules(&self) -> usize {
        self.phrase.len() + self.tree.as_ref().map_or(0, |t| t.len())
    }

    /// A dense `0..dense_rules()` numbering of the index: phrase trie
    /// nodes first (slot 0 is the trie root, which doubles as
    /// [`RuleRef::Root`] — no indexed rule occupies it), then tree
    /// patterns. Lets per-rule side tables and visited sets be flat arrays
    /// instead of hash maps — the frontier pool's memo and the best-first
    /// walk's seen-set are the hot consumers.
    pub fn dense_id(&self, r: RuleRef) -> u32 {
        match r {
            RuleRef::Root => 0,
            RuleRef::Phrase(n) => n,
            RuleRef::Tree(p) => self.phrase.len() as u32 + p,
        }
    }

    /// Inverse of [`IndexSet::dense_id`].
    pub fn rule_of_dense(&self, id: u32) -> RuleRef {
        let phrase_len = self.phrase.len() as u32;
        if id == 0 {
            RuleRef::Root
        } else if id < phrase_len {
            RuleRef::Phrase(id)
        } else {
            RuleRef::Tree(id - phrase_len)
        }
    }

    /// All rule handles (excluding the root), phrases first.
    pub fn all_rules(&self) -> impl Iterator<Item = RuleRef> + '_ {
        let phrases = self.phrase.node_ids().map(RuleRef::Phrase);
        let trees = self
            .tree
            .iter()
            .flat_map(|t| t.pat_ids())
            .map(RuleRef::Tree);
        phrases.chain(trees)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_text::sentence::MAX_TOKENS;
    use darwin_text::PosTag;

    fn corpus() -> Corpus {
        Corpus::from_texts([
            "what is the best way to get to sfo airport",
            "is there a bart from sfo to the hotel",
            "what is the best way to check in there",
            "the storm caused the outage",
            "lightning caused the fire downtown",
        ])
    }

    #[test]
    fn resolve_and_coverage_agree_with_brute_force() {
        let c = corpus();
        let idx = IndexSet::build(&c, &IndexConfig::small());
        let h = Heuristic::phrase(&c, "best way to").unwrap();
        let r = idx.resolve(&h).expect("indexed");
        assert_eq!(idx.coverage(r), &h.coverage(&c)[..]);
        assert_eq!(idx.count(r), 2);
    }

    #[test]
    fn root_matches_everything() {
        let c = corpus();
        let idx = IndexSet::build(&c, &IndexConfig::small());
        assert_eq!(idx.coverage(RuleRef::Root).len(), c.len());
        assert!(idx.parents(RuleRef::Root).is_empty());
        let h = idx.heuristic(RuleRef::Root);
        assert_eq!(idx.resolve(&h), Some(RuleRef::Root));
    }

    #[test]
    fn children_of_root_include_both_grammars() {
        let c = corpus();
        let idx = IndexSet::build(&c, &IndexConfig::small());
        let kids = idx.children(RuleRef::Root);
        assert!(kids.iter().any(|r| matches!(r, RuleRef::Phrase(_))));
        assert!(kids.iter().any(|r| matches!(r, RuleRef::Tree(_))));
    }

    #[test]
    fn parents_lead_back_to_root() {
        let c = corpus();
        let idx = IndexSet::build(&c, &IndexConfig::small());
        // Walk up from a deep phrase.
        let h = Heuristic::phrase(&c, "best way to").unwrap();
        let mut cur = idx.resolve(&h).unwrap();
        let mut steps = 0;
        while cur != RuleRef::Root {
            let pars = idx.parents(cur);
            assert!(!pars.is_empty());
            cur = pars[0];
            steps += 1;
            assert!(steps < 20, "must reach root");
        }
        assert_eq!(steps, 3);
    }

    #[test]
    fn heuristic_roundtrip_through_resolve() {
        let c = corpus();
        let idx = IndexSet::build(&c, &IndexConfig::small());
        for r in idx.all_rules().take(300) {
            let h = idx.heuristic(r);
            assert_eq!(idx.resolve(&h), Some(r), "{}", h.display(c.vocab()));
        }
    }

    #[test]
    fn gapped_phrase_is_not_indexed_but_matchable() {
        let c = corpus();
        let idx = IndexSet::build(&c, &IndexConfig::small());
        let h = Heuristic::phrase(&c, "caused + fire").unwrap();
        assert_eq!(idx.resolve(&h), None);
        assert_eq!(h.coverage(&c), vec![4]);
    }

    #[test]
    fn min_count_prunes_phrases() {
        let c = corpus();
        let pruned = IndexSet::build(
            &c,
            &IndexConfig {
                min_count: 2,
                ..IndexConfig::small()
            },
        );
        let h = Heuristic::phrase(&c, "bart").unwrap();
        assert_eq!(pruned.resolve(&h), None, "singleton phrase pruned");
        let h2 = Heuristic::phrase(&c, "caused the").unwrap();
        assert!(pruned.resolve(&h2).is_some(), "count-2 phrase kept");
    }

    #[test]
    fn phrase_only_config_disables_tree() {
        let c = corpus();
        let idx = IndexSet::build(
            &c,
            &IndexConfig {
                enable_tree: false,
                ..IndexConfig::small()
            },
        );
        assert!(idx.tree_index().is_none());
        assert!(idx
            .children(RuleRef::Root)
            .iter()
            .all(|r| matches!(r, RuleRef::Phrase(_))));
    }

    #[test]
    fn dense_numbering_roundtrips_and_is_injective() {
        let c = corpus();
        let idx = IndexSet::build(&c, &IndexConfig::small());
        let mut seen = vec![false; idx.dense_rules()];
        for r in idx.all_rules() {
            let d = idx.dense_id(r);
            assert!((d as usize) < idx.dense_rules());
            assert_ne!(d, 0, "slot 0 is reserved for the root");
            assert!(!seen[d as usize], "dense id {d} assigned twice");
            seen[d as usize] = true;
            assert_eq!(idx.rule_of_dense(d), r);
        }
        assert_eq!(
            idx.rule_of_dense(idx.dense_id(RuleRef::Root)),
            RuleRef::Root
        );
    }

    /// `s`'s covering rules by brute force over the forward postings.
    fn brute_row(idx: &IndexSet, s: u32) -> Vec<RuleRef> {
        idx.all_rules()
            .filter(|r| idx.coverage(*r).binary_search(&s).is_ok())
            .collect()
    }

    fn row(idx: &IndexSet, s: Sentence<'_>) -> Vec<RuleRef> {
        let mut out = vec![RuleRef::Root]; // stale contents are cleared
        idx.covering_rules(s, &mut out);
        out
    }

    /// The recomputed rows are the transpose of the forward postings —
    /// pruned and phrase-only builds, a sentence that repeats n-grams, and
    /// one whose enumeration hits `max_patterns` included.
    #[test]
    fn covering_rules_equal_brute_force() {
        let c = Corpus::from_texts([
            "to get to get to the airport to get there",
            "lightning caused the fire near the old airport",
            "what is the best way to get to sfo airport",
            "is there a bart from sfo to the hotel",
            "the storm caused the outage",
        ]);
        let capped = TreeSketchConfig {
            max_patterns: 12,
            ..TreeSketchConfig::default()
        };
        assert!(
            crate::sketch::tree_sketch(c.sentence(1), &TreeSketchConfig::default()).len() > 12,
            "sentence 1 must hit the cap"
        );
        let configs = [
            IndexConfig::small(),
            IndexConfig {
                min_count: 2,
                ..IndexConfig::small()
            },
            IndexConfig {
                tree: capped,
                ..IndexConfig::small()
            },
            IndexConfig {
                enable_tree: false,
                ..IndexConfig::small()
            },
        ];
        for cfg in configs {
            let idx = IndexSet::build(&c, &cfg);
            for s in c.sentences() {
                let want = brute_row(&idx, s.id());
                assert!(!want.is_empty());
                assert_eq!(row(&idx, s), want, "{cfg:?}: row {}", s.id());
            }
        }
    }

    /// The index-layer leg of the append-equivalence argument: a
    /// delta-grown index must be indistinguishable from a scratch build on
    /// the grown corpus — same rule set, numbering, coverage, hierarchy
    /// edges and covering rules.
    #[test]
    fn append_matches_scratch_build_on_grown_corpus() {
        let first: Vec<String> = (0..12)
            .map(|i| format!("sentence {i} takes the shuttle to the airport"))
            .collect();
        let extra = [
            "a brand new arrival orders pizza with extra cheese".to_string(),
            "the shuttle to the airport waits for the new arrival".to_string(),
            "pizza with extra cheese goes to the airport too".to_string(),
        ];
        let mut corpus = Corpus::from_texts(first.iter());
        let mut grown = IndexSet::build(&corpus, &IndexConfig::small());
        corpus.append_texts(extra.iter(), 1);
        let delta = grown.append(&corpus).unwrap();
        assert_eq!(delta.sentences, extra.len());
        assert_eq!(delta.dense_after, grown.dense_rules());
        assert_eq!(delta.tree_shift(), delta.phrase_after - delta.phrase_before);

        let scratch = IndexSet::build(&corpus, &IndexConfig::small());
        assert_eq!(grown.sentences(), scratch.sentences());
        assert_eq!(grown.rules(), scratch.rules());
        assert_eq!(grown.dense_rules(), scratch.dense_rules());
        let grown_rules: Vec<RuleRef> = grown.all_rules().collect();
        let scratch_rules: Vec<RuleRef> = scratch.all_rules().collect();
        assert_eq!(grown_rules, scratch_rules, "rule numbering diverged");
        for &r in &grown_rules {
            assert_eq!(grown.coverage(r), scratch.coverage(r), "{r:?} coverage");
            assert_eq!(grown.children(r), scratch.children(r), "{r:?} children");
            assert_eq!(grown.parents(r), scratch.parents(r), "{r:?} parents");
            assert_eq!(grown.dense_id(r), scratch.dense_id(r));
        }
        assert_eq!(
            grown.children(RuleRef::Root),
            scratch.children(RuleRef::Root)
        );
        // Covering rules: grown rows equal scratch rows and brute force.
        for s in corpus.sentences() {
            let want = brute_row(&scratch, s.id());
            assert_eq!(row(&scratch, s), want, "scratch row {}", s.id());
            assert_eq!(row(&grown, s), want, "grown row {}", s.id());
        }
        // Appending nothing is a no-op.
        assert_eq!(grown.append(&corpus).unwrap().sentences, 0);
    }

    /// `grow`'s trie and pattern table against the per-sentence
    /// `add_sentence` builds: every node's phrase, postings, parent and
    /// children order; every pattern's key, postings and hierarchy lists,
    /// and the roots.
    fn assert_matches_reference(idx: &IndexSet, c: &Corpus, cfg: &IndexConfig, label: &str) {
        let (got, want) = (
            idx.phrase_index(),
            &PhraseIndex::build(c, cfg.max_phrase_len),
        );
        assert_eq!(got.len(), want.len(), "{label}: trie nodes");
        assert_eq!(got.sentences(), want.sentences(), "{label}: trie sentences");
        for n in want.node_ids() {
            assert_eq!(got.phrase(n), want.phrase(n), "{label}: phrase of node {n}");
            assert_eq!(
                got.postings(n),
                want.postings(n),
                "{label}: postings of node {n}"
            );
            assert_eq!(got.parent(n), want.parent(n), "{label}: parent of node {n}");
        }
        for n in 0..want.len() as NodeId {
            let kids = |t: &PhraseIndex| t.children(n).collect::<Vec<_>>();
            assert_eq!(kids(got), kids(want), "{label}: children of node {n}");
        }
        let (got, want) = (idx.tree_index().unwrap(), &TreeIndex::build(c, &cfg.tree));
        assert_eq!(got.len(), want.len(), "{label}: patterns");
        assert_eq!(got.roots(), want.roots(), "{label}: roots");
        for p in want.pat_ids() {
            assert_eq!(got.key(p), want.key(p), "{label}: key of pattern {p}");
            assert_eq!(
                got.postings(p),
                want.postings(p),
                "{label}: postings of {p}"
            );
            assert_eq!(got.parents(p), want.parents(p), "{label}: parents of {p}");
            assert_eq!(
                got.children(p),
                want.children(p),
                "{label}: children of {p}"
            );
        }
    }

    /// Growth resolves blocks on workers and interns serially; whatever the
    /// thread count and batch split it must number, post and link exactly
    /// as the per-sentence reference. The 600-sentence block is past the
    /// fan-out threshold, and its fixtures are where a wrong miss path
    /// shows: phrases and patterns new to the block and seen again in the
    /// last worker's chunk ("zebra") or only there ("walrus"); a
    /// continuation an earlier start of the same sentence created ("to get
    /// to get to", where "to" exists and "to get" does not); a sentence
    /// whose capped key list mixes hits with a repeated miss; an empty and
    /// a punctuation-only sentence; and "walk", a noun before the block
    /// and a verb in it.
    #[test]
    fn grow_matches_the_per_sentence_reference() {
        let base = [
            "a walk in the park",
            "lightning caused the fire near the old airport",
            "a shuttle to the airport is fast",
        ];
        let capped_text = "thunder thunder caused the fire near the old airport";
        let fillers = ["red bus", "green train", "blue cab", "slow van", "old tram"];
        let mut block: Vec<String> = (0..600)
            .map(|i| format!("the {} goes to the airport", fillers[i % fillers.len()]))
            .collect();
        let zebra = "the zebra crossed the frozen river";
        for (at, text) in [
            (0, zebra),
            (1, "to get to get to the airport"),
            (2, ""),
            (3, "? !"),
            (4, "we walk to the park"),
            (5, capped_text),
            (300, zebra),
            (450, "a purple walrus sings to the zebra"),
            (599, zebra),
        ] {
            block[at] = text.to_string();
        }
        let texts: Vec<&str> = base
            .iter()
            .copied()
            .chain(block.iter().map(|t| t.as_str()))
            .collect();
        let whole = Corpus::from_texts(texts.iter());
        assert_eq!(whole.sentence(5).len(), 0, "empty sentence");
        let punct = whole.sentence(6);
        assert!(!punct.tags().is_empty() && punct.tags().iter().all(|&t| t == PosTag::Punct));
        let walk = whole.vocab().get("walk").unwrap();
        let tag_of = |id: u32| {
            let s = whole.sentence(id);
            s.tags()[s.tokens().iter().position(|&t| t == walk).unwrap()]
        };
        assert_ne!(
            tag_of(0),
            tag_of(7),
            "\"walk\" must flip its tag in the block"
        );

        const CAP: usize = 20;
        // The capped sentence's first CAP fresh keys hold hits on the base
        // index and a miss key enumerated twice.
        let base_idx = IndexSet::build(&Corpus::from_texts(base), &IndexConfig::small());
        let base_tree = base_idx.tree_index().unwrap();
        let (mut seen, mut hits, mut repeated_miss) = (Vec::new(), 0, false);
        crate::sketch::for_each_tree_sketch(
            whole.sentence(8),
            &TreeSketchConfig::default(),
            &mut |k| {
                let fresh = !seen.contains(&k);
                if seen.len() < CAP {
                    match base_tree.id_of(k) {
                        Some(_) => hits += fresh as usize,
                        None => repeated_miss |= !fresh,
                    }
                }
                if fresh {
                    seen.push(k);
                }
                fresh
            },
        );
        assert!(seen.len() > CAP, "the capped sentence must hit the cap");
        assert!(
            hits > 0 && repeated_miss,
            "hits {hits}, repeated miss {repeated_miss}"
        );

        let capped = IndexConfig {
            tree: TreeSketchConfig {
                max_patterns: CAP,
                ..TreeSketchConfig::default()
            },
            ..IndexConfig::small()
        };
        for cfg in [IndexConfig::small(), capped] {
            for threads in [1, 2, 3] {
                let cfg = IndexConfig {
                    threads,
                    ..cfg.clone()
                };
                let label = format!("build, {threads} threads, cap {}", cfg.tree.max_patterns);
                assert_matches_reference(&IndexSet::build(&whole, &cfg), &whole, &cfg, &label);
                for cuts in [&[3][..], &[3, 303], &[153, 453]] {
                    let mut corpus = Corpus::from_texts(&texts[..cuts[0]]);
                    let mut idx = IndexSet::build(&corpus, &cfg);
                    for (i, &from) in cuts.iter().enumerate() {
                        let to = cuts.get(i + 1).copied().unwrap_or(texts.len());
                        corpus.append_texts(&texts[from..to], 1);
                        idx.append_with_threads(&corpus, threads).unwrap();
                    }
                    let label = format!("appends at {cuts:?}, {threads} threads");
                    assert_matches_reference(&idx, &whole, &cfg, &label);
                }
            }
        }
    }

    /// A text of more than `MAX_TOKENS` tokens is one sentence capped at
    /// `MAX_TOKENS`, every head in range, and it indexes: past the cap a
    /// `u16` head would wrap into a cycle the tree walks never leave.
    #[test]
    fn over_long_text_is_capped_and_indexes() {
        let long = "7 , ".repeat(35_000);
        let texts = [
            "a shuttle to the airport",
            long.as_str(),
            "the bus to the airport",
        ];
        let corpus = Corpus::from_texts(texts);
        assert_eq!(corpus.len(), 3, "one sentence per text");
        let s = corpus.sentence(1);
        assert_eq!(s.len(), MAX_TOKENS);
        assert!(s.heads().iter().all(|&h| (h as usize) < s.len()));
        assert!(s.root().is_some());
        let idx = IndexSet::build(&corpus, &IndexConfig::small());
        assert_eq!(idx.sentences(), 3);
        let seven = RuleRef::Phrase(
            idx.phrase_index()
                .lookup(&[corpus.vocab().get("7").unwrap()])
                .unwrap(),
        );
        assert_eq!(idx.coverage(seven), &[1]);
    }

    #[test]
    fn append_refuses_pruned_indexes_and_shrunk_corpora() {
        let c = corpus();
        let mut pruned = IndexSet::build(
            &c,
            &IndexConfig {
                min_count: 2,
                ..IndexConfig::small()
            },
        );
        assert_eq!(
            pruned.append(&c),
            Err(AppendError::PrunedIndex { min_count: 2 })
        );
        let mut idx = IndexSet::build(&c, &IndexConfig::small());
        let shorter = Corpus::from_texts(["just one sentence"]);
        assert_eq!(
            idx.append(&shorter),
            Err(AppendError::CorpusBehindIndex {
                corpus: 1,
                indexed: 5
            })
        );
    }

    #[test]
    fn rules_count_is_consistent() {
        let c = corpus();
        let idx = IndexSet::build(&c, &IndexConfig::small());
        assert_eq!(idx.rules(), idx.all_rules().count());
        assert_eq!(idx.sentences(), 5);
    }
}
