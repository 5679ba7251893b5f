//! Pattern-table index over TreeMatch heuristics.
//!
//! The TreeMatch grammar generates exponentially many candidates, so the
//! compact derivation sketch is the dependency parse itself (paper §3.1);
//! we enumerate the bounded pattern family of [`crate::sketch::tree_sketch`]
//! and store each pattern with its inverted list, plus *generalization
//! edges* capturing the subset/superset structure the hierarchy needs:
//!
//! * `a/b` is a specialization of both `a` and `a//b`,
//! * `a//b` is a specialization of `a`,
//! * `p ∧ q` is a specialization of both `p` and `q`,
//! * `Term(tok)` is a specialization of `Term(POS-of-tok)` (evidence-based).

use crate::api::Resolved;
use crate::fx::{FxHashMap, FxHashSet};
use crate::intern::InternTable;
use crate::sketch::{
    for_each_tree_sketch, for_each_tree_sketch_with, term_generalizations, SketchKey,
    SketchScratch, TreeSketchConfig,
};
use darwin_grammar::{TreePattern, TreeTerm};
use darwin_text::fanout::{miss, miss_index};
use darwin_text::{Corpus, PosTag, Sentence, Sym};

/// Pattern id within a [`TreeIndex`].
pub type PatId = u32;

/// What a token's tag evidence says about its `Term(tok) → Term(POS)`
/// generalization edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TagEvidence {
    /// Token not seen yet.
    Unseen,
    /// Seen with exactly one tag so far.
    One(PosTag),
    /// Seen with more than one tag — the edge would not be
    /// coverage-monotone.
    Ambiguous,
}

/// Inverted index over the enumerated TreeMatch pattern family.
///
/// Patterns are stored as compact [`SketchKey`]s only — hierarchy
/// maintenance, interning and lookup all work on keys, and the boxed
/// [`TreePattern`] is materialized lazily by [`TreeIndex::pattern`]
/// (ingest never allocates a pattern).
///
/// The index starts empty ([`Default`]) and grows in sentence order —
/// one sentence at a time, or a block's resolved rows applied in order —
/// followed by a [`TreeIndex::finalize`] per batch.
#[derive(Default)]
pub struct TreeIndex {
    /// `keys[id]` is the compact identity of pattern `id`.
    keys: Vec<SketchKey>,
    /// Intern table, keyed by [`SketchKey::pack`] — a single-word-slot
    /// open-addressing table whose probes touch one cache line, which
    /// matters because ingest probes it once per enumerated key.
    ids: InternTable,
    postings: Vec<Vec<u32>>,
    parents: Vec<Vec<PatId>>,
    children: Vec<Vec<PatId>>,
    /// Terminal patterns — children of the root `*` heuristic.
    roots: Vec<PatId>,
    /// Observed token→tag evidence for terminal generalization edges,
    /// flat-indexed by [`Sym::index`] (symbols are dense vocabulary ids).
    tok_tags: Vec<TagEvidence>,
    /// Patterns `keys[..finalized]` have their hierarchy edges computed;
    /// later interns are folded in by the next [`TreeIndex::finalize`].
    finalized: usize,
    /// Candidate generalizations that were not interned when a child was
    /// finalized → the children waiting on them. If the candidate is
    /// interned later, the edges are added then (keeping append-grown
    /// hierarchies identical to a from-scratch build). Keyed by
    /// [`SketchKey::pack`], like `ids`.
    pending: FxHashMap<u128, Vec<PatId>>,
    /// Tokens whose tag evidence turned ambiguous since the last
    /// finalize, with the tag they held before — their `Term(tok) →
    /// Term(POS)` edge (or pending wait) must be retracted.
    flips: Vec<(Sym, PosTag)>,
}

impl TreeIndex {
    /// Grow an empty index over every sentence of `corpus`, in order.
    pub fn build(corpus: &Corpus, cfg: &TreeSketchConfig) -> TreeIndex {
        let mut idx = TreeIndex::default();
        for s in corpus.sentences() {
            idx.add_sentence(s, cfg);
        }
        idx.finalize();
        idx
    }

    /// Merge one sentence's sketch. Call [`TreeIndex::finalize`] after the
    /// last addition to (re)compute hierarchy edges.
    ///
    /// Interns each deduplicated key as it is enumerated. The per-sentence
    /// reference for index growth, which resolves a block's keys to the
    /// ids that already exist on workers (`TreeIndex::resolve`) and
    /// only interns the misses serially (`TreeIndex::apply_row`).
    pub fn add_sentence(&mut self, s: Sentence<'_>, cfg: &TreeSketchConfig) {
        let mut seen = FxHashSet::default();
        for_each_tree_sketch(s, cfg, &mut |k| {
            let fresh = seen.insert(k);
            if fresh {
                let id = self.intern(k);
                self.post(id, s.id());
            }
            fresh
        });
        self.observe_tags(s);
    }

    /// The worker half of growth: each `corpus` sentence of `ids` enumerated
    /// into a row of the pattern ids its keys already have, and [`miss`]
    /// words naming the keys that have none yet — each missing key named
    /// once per chunk, so a cold block buffers one word per key. Dedups
    /// exactly as [`TreeIndex::add_sentence`] does, since only fresh keys
    /// count against `max_patterns`: a hit or a miss is fresh unless it
    /// is already stamped with this sentence.
    pub(crate) fn resolve(
        &self,
        corpus: &Corpus,
        ids: &[u32],
        cfg: &TreeSketchConfig,
    ) -> Resolved<SketchKey> {
        let mut out = Resolved::new();
        let mut scratch = SketchScratch::default();
        // `stamp[id] == j + 1` once the chunk's `j`-th sentence listed
        // `id`; `miss_stamp` the same for the chunk's misses.
        let mut stamp = vec![0u32; self.keys.len()];
        let (mut missed, mut miss_stamp) = (FxHashMap::default(), Vec::new());
        for (j, &id) in ids.iter().enumerate() {
            let s = corpus.sentence(id);
            let mark = j as u32 + 1;
            for_each_tree_sketch_with(&mut scratch, s, cfg, &mut |k| {
                let (word, last) = match self.id_of(k) {
                    Some(id) => (id, &mut stamp[id as usize]),
                    None => {
                        let i = *missed.entry(k).or_insert_with(|| {
                            out.misses.push(k);
                            miss_stamp.push(0);
                            out.misses.len() as u32 - 1
                        });
                        (miss(i as usize), &mut miss_stamp[i as usize])
                    }
                };
                let fresh = std::mem::replace(last, mark) != mark;
                if fresh {
                    out.rows.push(word);
                }
                fresh
            });
            out.end_row();
        }
        out
    }

    /// The serial half of growth: post sentence `s` on its row's patterns,
    /// interning the misses in row order — a miss an earlier sentence of
    /// the block has interned since is found, not renumbered.
    pub(crate) fn apply_row(&mut self, s: Sentence<'_>, row: &[u32], misses: &[SketchKey]) {
        for &w in row {
            let id = match miss_index(w) {
                Some(i) => self.intern(misses[i]),
                None => w,
            };
            self.post(id, s.id());
        }
        self.observe_tags(s);
    }

    /// The id of `k`, interning it as the next id if it has none.
    fn intern(&mut self, k: SketchKey) -> PatId {
        let (keys, postings) = (&mut self.keys, &mut self.postings);
        let (id, _) = self.ids.get_or_insert_with(k.pack(), || {
            keys.push(k);
            postings.push(Vec::new());
            keys.len() as PatId - 1
        });
        id
    }

    /// Add `sid` to a pattern's postings unless it is already the tail.
    fn post(&mut self, id: PatId, sid: u32) {
        let p = &mut self.postings[id as usize];
        if p.last() != Some(&sid) {
            p.push(sid);
        }
    }

    fn observe_tags(&mut self, s: Sentence<'_>) {
        for (tok, tag) in term_generalizations(s) {
            let ix = tok.index();
            if ix >= self.tok_tags.len() {
                self.tok_tags.resize(ix + 1, TagEvidence::Unseen);
            }
            match self.tok_tags[ix] {
                TagEvidence::Unseen => self.tok_tags[ix] = TagEvidence::One(tag),
                TagEvidence::One(old) if old != tag => {
                    self.tok_tags[ix] = TagEvidence::Ambiguous;
                    self.flips.push((tok, old));
                }
                _ => {}
            }
        }
    }

    fn tag_evidence(&self, t: Sym) -> TagEvidence {
        self.tok_tags
            .get(t.index())
            .copied()
            .unwrap_or(TagEvidence::Unseen)
    }

    /// Fold patterns interned since the last call into the generalization
    /// hierarchy — **incremental**: only the new patterns (plus edge
    /// retractions forced by tokens whose tag evidence turned ambiguous)
    /// are visited, so an append-grown session pays O(delta) per batch,
    /// not O(total patterns).
    ///
    /// The result is identical — including the order of every adjacency
    /// list — to recomputing the hierarchy from scratch over the full
    /// table: parent lists and children lists are kept sorted by id
    /// (exactly what the scan in id order produces), a candidate
    /// generalization that is not interned yet is remembered in the
    /// pending-waiters map and wired up the moment a later batch
    /// interns it, and a `Term(tok) → Term(POS)` edge whose tag evidence
    /// is invalidated by later sentences is retracted.
    pub fn finalize(&mut self) {
        // Retract terminal edges whose single-tag evidence flipped.
        let flips = std::mem::take(&mut self.flips);
        for (tok, old_tag) in flips {
            if !old_tag.is_content() {
                continue;
            }
            let Some(c) = self.ids.get(SketchKey::Term(TreeTerm::Tok(tok)).pack()) else {
                continue;
            };
            let gen = SketchKey::Term(TreeTerm::Pos(old_tag)).pack();
            if (c as usize) >= self.finalized {
                // Interned but not yet finalized: it will be processed
                // below against the already-ambiguous evidence.
                continue;
            }
            match self.ids.get(gen) {
                Some(g) => {
                    remove_sorted(&mut self.parents[c as usize], g);
                    remove_sorted(&mut self.children[g as usize], c);
                    if self.parents[c as usize].is_empty() {
                        insert_sorted(&mut self.roots, c);
                    }
                }
                None => {
                    if let Some(w) = self.pending.get_mut(&gen) {
                        w.retain(|&x| x != c);
                        if w.is_empty() {
                            self.pending.remove(&gen);
                        }
                    }
                }
            }
        }
        // Wire up the patterns interned since the last finalize.
        let n = self.keys.len();
        self.parents.resize_with(n, Vec::new);
        self.children.resize_with(n, Vec::new);
        for id in self.finalized as PatId..n as PatId {
            let k = self.keys[id as usize];
            for q in self.parent_candidates(k).into_iter().flatten() {
                let q = q.pack();
                match self.ids.get(q) {
                    Some(g) => {
                        insert_sorted(&mut self.parents[id as usize], g);
                        insert_sorted(&mut self.children[g as usize], id);
                    }
                    None => self.pending.entry(q).or_default().push(id),
                }
            }
            if self.parents[id as usize].is_empty() {
                insert_sorted(&mut self.roots, id);
            }
            // Older patterns that were waiting for this generalization.
            if let Some(waiters) = self.pending.remove(&k.pack()) {
                for c in waiters {
                    if self.parents[c as usize].is_empty() {
                        remove_sorted(&mut self.roots, c);
                    }
                    insert_sorted(&mut self.parents[c as usize], id);
                    insert_sorted(&mut self.children[id as usize], c);
                }
            }
        }
        self.finalized = n;
    }

    /// Candidate parents (strict generalizations, one derivation step
    /// away) of the pattern `k` denotes, interned or not, deduplicated —
    /// at most two, returned without allocating (finalize visits every
    /// new pattern).
    fn parent_candidates(&self, k: SketchKey) -> [Option<SketchKey>; 2] {
        match k {
            SketchKey::Term(TreeTerm::Tok(t)) => {
                // Only unambiguous content tags yield a sound edge.
                if let TagEvidence::One(tag) = self.tag_evidence(t) {
                    if tag.is_content() {
                        return [Some(SketchKey::Term(TreeTerm::Pos(tag))), None];
                    }
                }
                [None, None]
            }
            SketchKey::Term(TreeTerm::Pos(_)) => [None, None],
            SketchKey::Child(a, b) => [Some(SketchKey::Term(a)), Some(SketchKey::Desc(a, b))],
            SketchKey::Desc(a, _) => [Some(SketchKey::Term(a)), None],
            SketchKey::And(h, b1, b2) => [
                Some(SketchKey::Child(h, b1)),
                (b1 != b2).then_some(SketchKey::Child(h, b2)),
            ],
        }
    }

    /// Number of indexed patterns.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no pattern is indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The pattern a [`PatId`] denotes, materialized on demand (the index
    /// stores only compact keys).
    pub fn pattern(&self, id: PatId) -> TreePattern {
        self.keys[id as usize].to_pattern()
    }

    /// The compact key of a pattern.
    pub fn key(&self, id: PatId) -> SketchKey {
        self.keys[id as usize]
    }

    /// Find the id of an (enumerated) pattern.
    pub fn lookup(&self, p: &TreePattern) -> Option<PatId> {
        SketchKey::of_pattern(p).and_then(|k| self.id_of(k))
    }

    /// The interned id of a key, if any.
    pub(crate) fn id_of(&self, k: SketchKey) -> Option<PatId> {
        self.ids.get(k.pack())
    }

    /// Sorted ids of sentences matching the pattern.
    pub fn postings(&self, id: PatId) -> &[u32] {
        &self.postings[id as usize]
    }

    /// `postings(id).len()` without borrowing the list.
    pub fn count(&self, id: PatId) -> usize {
        self.postings[id as usize].len()
    }

    /// One-step structural generalizations of the pattern.
    pub fn parents(&self, id: PatId) -> &[PatId] {
        &self.parents[id as usize]
    }

    /// One-step structural specializations of the pattern.
    pub fn children(&self, id: PatId) -> &[PatId] {
        &self.children[id as usize]
    }

    /// Terminal patterns (the children of the `*` root heuristic).
    pub fn roots(&self) -> &[PatId] {
        &self.roots
    }

    /// Iterate over all pattern ids.
    pub fn pat_ids(&self) -> impl Iterator<Item = PatId> {
        0..self.keys.len() as PatId
    }
}

/// Insert into a sorted id list, keeping it sorted (no-op if present).
fn insert_sorted(v: &mut Vec<PatId>, x: PatId) {
    if let Err(i) = v.binary_search(&x) {
        v.insert(i, x);
    }
}

/// Remove from a sorted id list (no-op if absent).
fn remove_sorted(v: &mut Vec<PatId>, x: PatId) {
    if let Ok(i) = v.binary_search(&x) {
        v.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::from_texts([
            "uber is the best way to our hotel",
            "his job is a teacher at the school",
            "the storm caused the outage in the city",
            "lightning caused the fire",
        ])
    }

    #[test]
    fn postings_are_correct_coverage() {
        let c = corpus();
        let idx = TreeIndex::build(&c, &TreeSketchConfig::default());
        // Every indexed pattern's postings equal its brute-force coverage.
        for id in idx.pat_ids().take(500) {
            let p = idx.pattern(id);
            let brute: Vec<u32> = c
                .sentences()
                .filter(|&s| p.matches(s))
                .map(|s| s.id())
                .collect();
            assert_eq!(idx.postings(id), &brute[..], "{}", p.display(c.vocab()));
        }
    }

    #[test]
    fn child_pattern_has_desc_and_head_parents() {
        let c = corpus();
        let idx = TreeIndex::build(&c, &TreeSketchConfig::default());
        let child = TreePattern::parse(c.vocab(), "caused/storm").unwrap();
        let id = idx.lookup(&child).expect("caused/storm indexed");
        let parents: Vec<TreePattern> = idx.parents(id).iter().map(|&p| idx.pattern(p)).collect();
        let head = TreePattern::parse(c.vocab(), "caused").unwrap();
        let desc = TreePattern::parse(c.vocab(), "caused//storm").unwrap();
        assert!(parents.contains(&head));
        assert!(parents.contains(&desc));
    }

    #[test]
    fn parent_coverage_superset_of_child() {
        let c = corpus();
        let idx = TreeIndex::build(&c, &TreeSketchConfig::default());
        for id in idx.pat_ids() {
            for &par in idx.parents(id) {
                let pp = idx.postings(par);
                for s in idx.postings(id) {
                    assert!(
                        pp.contains(s),
                        "{} should cover everything {} covers",
                        idx.pattern(par).display(c.vocab()),
                        idx.pattern(id).display(c.vocab())
                    );
                }
            }
        }
    }

    #[test]
    fn token_terminal_generalizes_to_pos() {
        let c = corpus();
        let idx = TreeIndex::build(&c, &TreeSketchConfig::default());
        let tok = TreePattern::parse(c.vocab(), "storm").unwrap();
        let id = idx.lookup(&tok).expect("storm indexed");
        let noun = TreePattern::term_pos(PosTag::Noun);
        let has_noun_parent = idx.parents(id).iter().any(|&p| idx.pattern(p) == noun);
        assert!(
            has_noun_parent,
            "Term(storm) should generalize to Term(NOUN)"
        );
    }

    #[test]
    fn roots_have_no_parents_and_children_inverse_holds() {
        let c = corpus();
        let idx = TreeIndex::build(&c, &TreeSketchConfig::default());
        assert!(!idx.roots().is_empty());
        for &r in idx.roots() {
            assert!(idx.parents(r).is_empty());
        }
        for id in idx.pat_ids() {
            for &p in idx.parents(id) {
                assert!(idx.children(p).contains(&id));
            }
        }
    }

    /// The incremental hierarchy contract: growing batch by batch (one
    /// finalize per batch) must reproduce the scratch build over the full
    /// corpus exactly — patterns, postings, every adjacency list in the
    /// same order, and the root list. The fixture forces the hard cases:
    /// a generalization interned batches after its specialization (the
    /// pending wait), and a token whose tag evidence turns ambiguous
    /// after its terminal edge was already wired (the flip retraction).
    #[test]
    fn batched_growth_matches_scratch_build() {
        let texts = [
            "the storm caused the outage in the city",
            "lightning caused the fire",
            "a walk in the park",
            "his job is a teacher at the school",
            "uber is the best way to our hotel",
            "we walk to the park", // "walk" NOUN→VERB flip
            "a shuttle to the airport is fast",
            "the best shuttle leaves at dawn",
        ];
        let cfg = TreeSketchConfig::default();
        let flip = Corpus::from_texts([texts[2], texts[5]]);
        assert_ne!(
            flip.sentence(0).tags()[1],
            flip.sentence(1).tags()[1],
            "walk flips"
        );
        for split in 1..texts.len() {
            let scratch_corpus = Corpus::from_texts(texts.iter().copied());
            let scratch = TreeIndex::build(&scratch_corpus, &cfg);

            let mut corpus = Corpus::from_texts(texts[..split].iter().copied());
            let mut grown = TreeIndex::build(&corpus, &cfg);
            for t in &texts[split..] {
                let base = corpus.len();
                corpus.append_texts([t], 1);
                for s in corpus.sentences().skip(base) {
                    grown.add_sentence(s, &cfg);
                }
                grown.finalize();
            }

            assert_eq!(grown.len(), scratch.len(), "split {split}: pattern count");
            assert_eq!(grown.roots, scratch.roots, "split {split}: roots");
            for id in scratch.pat_ids() {
                assert_eq!(
                    grown.pattern(id),
                    scratch.pattern(id),
                    "split {split}: pat {id}"
                );
                assert_eq!(
                    grown.postings(id),
                    scratch.postings(id),
                    "split {split}: postings of {id}"
                );
                assert_eq!(
                    grown.parents(id),
                    scratch.parents(id),
                    "split {split}: parents of {id}"
                );
                assert_eq!(
                    grown.children(id),
                    scratch.children(id),
                    "split {split}: children of {id}"
                );
            }
        }
    }

    #[test]
    fn shared_pattern_counts_both_sentences() {
        let c = corpus();
        let idx = TreeIndex::build(&c, &TreeSketchConfig::default());
        // "caused/NOUN-ish": both cause sentences have "caused" as root verb.
        let p = TreePattern::parse(c.vocab(), "caused").unwrap();
        let id = idx.lookup(&p).unwrap();
        assert_eq!(idx.count(id), 2);
    }
}
