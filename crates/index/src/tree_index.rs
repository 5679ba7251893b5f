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

use crate::fx::{FxHashMap, FxHashSet};
use crate::intern::InternTable;
use crate::sketch::{
    for_each_tree_sketch_with, term_generalizations, SketchKey, SketchScratch, TreeSketchConfig,
};
use darwin_grammar::{TreePattern, TreeTerm};
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
/// The index starts empty ([`Default`]) and grows one sentence at a time,
/// in sentence order, followed by a [`TreeIndex::finalize`] per batch.
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
    /// Reusable per-sentence enumeration scratch.
    scratch: SketchScratch,
    /// Reusable per-sentence key list + dedup set: [`TreeIndex::add_sentence`]
    /// enumerates into these before interning, so the intern loop can
    /// prefetch ahead over a known key list.
    key_buf: Vec<SketchKey>,
    seen: FxHashSet<SketchKey>,
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
    /// Two phases per sentence: enumerate the deduplicated key list into a
    /// reused buffer (first occurrence wins, matching the postings-tail
    /// dedup the intern probe used to provide), then intern the known list
    /// with prefetch-ahead — the same loop the batched path uses — so the
    /// table probe's cache-line pull overlaps earlier keys' work instead
    /// of stalling the enumeration.
    pub fn add_sentence(&mut self, s: &Sentence, cfg: &TreeSketchConfig) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut buf = std::mem::take(&mut self.key_buf);
        let mut seen = std::mem::take(&mut self.seen);
        buf.clear();
        seen.clear();
        for_each_tree_sketch_with(&mut scratch, s, cfg, &mut |k| {
            let fresh = seen.insert(k);
            if fresh {
                buf.push(k);
            }
            fresh
        });
        self.scratch = scratch;
        self.add_sentence_keys(s, &buf);
        self.key_buf = buf;
        self.seen = seen;
    }

    /// The key-list half of [`TreeIndex::add_sentence`], for batches whose
    /// enumeration was fanned out with [`crate::sketch::sketch_batch`]:
    /// `keys` must be sentence `s`'s deduplicated key list in enumeration
    /// order. Interning lists in sentence order reproduces the serial
    /// path's numbering exactly.
    pub fn add_sentence_keys(&mut self, s: &Sentence, sentence_keys: &[SketchKey]) {
        let sid = s.id;
        let ids = &mut self.ids;
        let keys = &mut self.keys;
        let postings = &mut self.postings;
        // Prefetch a few keys ahead: the key list is known up front, so
        // each slot's cache line is pulled while earlier keys are being
        // interned, hiding the probe latency the list order exposes.
        const LOOKAHEAD: usize = 8;
        for (i, &k) in sentence_keys.iter().enumerate() {
            if let Some(&ahead) = sentence_keys.get(i + LOOKAHEAD) {
                ids.prefetch(ahead.pack());
            }
            let (id, _) = ids.get_or_insert_with(k.pack(), || {
                let id = keys.len() as PatId;
                keys.push(k);
                postings.push(Vec::new());
                id
            });
            let p = &mut postings[id as usize];
            if p.last() != Some(&sid) {
                p.push(sid);
            }
        }
        self.observe_tags(s);
    }

    fn observe_tags(&mut self, s: &Sentence) {
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
        SketchKey::of_pattern(p).and_then(|k| self.ids.get(k.pack()))
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
                .iter()
                .filter(|s| p.matches(s))
                .map(|s| s.id)
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
            "his job is a teacher at the school",
            "uber is the best way to our hotel",
            "they fire the lazy teacher",     // "fire" NOUN→VERB flip
            "the storm will outage the grid", // "outage" flips too
            "a shuttle to the airport is fast",
            "the best shuttle leaves at dawn",
        ];
        let cfg = TreeSketchConfig::default();
        for split in 1..texts.len() {
            let scratch_corpus = Corpus::from_texts(texts.iter().copied());
            let scratch = TreeIndex::build(&scratch_corpus, &cfg);

            let mut corpus = Corpus::from_texts(texts[..split].iter().copied());
            let mut grown = TreeIndex::build(&corpus, &cfg);
            for t in &texts[split..] {
                let base = corpus.len();
                corpus.append_texts([t], 1);
                for s in &corpus.sentences()[base..] {
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
