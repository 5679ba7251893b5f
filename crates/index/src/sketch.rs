//! Derivation sketches (paper §3.1, Figure 5).
//!
//! A derivation sketch enumerates, for one sentence, the heuristics the
//! sentence satisfies, bounded by a fixed number of derivation steps. For
//! TokensRegex that is simply every contiguous n-gram up to the depth bound;
//! for TreeMatch the compact sketch is the dependency parse itself, from
//! which we enumerate a bounded pattern family (the full space is
//! exponential — paper §3.1 "TreeMatch Grammar").

use crate::fx::FxHashSet;
use darwin_grammar::{TreePattern, TreeTerm};
use darwin_text::{PosTag, Sentence, Sym};

/// Enumerate every contiguous n-gram of `sentence` with length in
/// `1..=max_len`, deduplicated (an n-gram occurring twice in a sentence is
/// reported once — the index counts sentences, not occurrences).
pub fn phrase_sketch(sentence: Sentence<'_>, max_len: usize) -> Vec<Vec<Sym>> {
    let toks = sentence.tokens();
    let mut seen: FxHashSet<&[Sym]> = FxHashSet::default();
    let mut out = Vec::new();
    for start in 0..toks.len() {
        for len in 1..=max_len.min(toks.len() - start) {
            let gram = &toks[start..start + len];
            if seen.insert(gram) {
                out.push(gram.to_vec());
            }
        }
    }
    out
}

/// Bounds for TreeMatch pattern enumeration.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeSketchConfig {
    /// Enumerate `a ∧ b` conjunctions of child constraints.
    pub include_and: bool,
    /// Skip punctuation nodes entirely.
    pub skip_punct: bool,
    /// Hard cap on patterns per sentence. This is a safety valve for
    /// pathological inputs only — if it ever truncates, index postings
    /// under-approximate true coverage, so it defaults far above what any
    /// real sentence produces (the paper caps derivation depth for the
    /// same reason).
    pub max_patterns: usize,
}

impl Default for TreeSketchConfig {
    fn default() -> Self {
        TreeSketchConfig {
            include_and: true,
            skip_punct: true,
            max_patterns: 4096,
        }
    }
}

/// Compact identity of one enumerated TreeMatch pattern — the closed
/// family [`tree_sketch`] produces. Interning and deduplicating by key
/// instead of by [`TreePattern`] keeps the hot ingest path free of
/// recursive hashing and per-pattern `Box` allocation; the full pattern
/// is materialized ([`SketchKey::to_pattern`]) only on demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SketchKey {
    /// `t`.
    Term(TreeTerm),
    /// `a / b`.
    Child(TreeTerm, TreeTerm),
    /// `a // b`.
    Desc(TreeTerm, TreeTerm),
    /// `(h/b1 ∧ h/b2)` with `b1 < b2` (the canonical enumeration order).
    And(TreeTerm, TreeTerm, TreeTerm),
}

impl SketchKey {
    /// Materialize the pattern this key denotes.
    pub fn to_pattern(self) -> TreePattern {
        match self {
            SketchKey::Term(t) => TreePattern::Term(t),
            SketchKey::Child(a, b) => {
                TreePattern::child(TreePattern::Term(a), TreePattern::Term(b))
            }
            SketchKey::Desc(a, b) => TreePattern::desc(TreePattern::Term(a), TreePattern::Term(b)),
            SketchKey::And(h, b1, b2) => TreePattern::and(
                TreePattern::child(TreePattern::Term(h), TreePattern::Term(b1)),
                TreePattern::child(TreePattern::Term(h), TreePattern::Term(b2)),
            ),
        }
    }

    /// Pack into a unique `u128` — the intern-map key of the hot ingest
    /// path. A [`TreeTerm`] needs 33 bits (32 payload bits plus a
    /// token/POS discriminant), so three terms and the 2-bit variant tag
    /// fit in 101 bits; hashing and comparing the packed word is a couple
    /// of ALU instructions instead of a 28-byte field walk. Injective for
    /// all inputs, so map identity is unchanged.
    #[inline]
    pub fn pack(self) -> u128 {
        #[inline]
        fn term(t: TreeTerm) -> u128 {
            match t {
                TreeTerm::Tok(s) => s.0 as u128,
                TreeTerm::Pos(p) => (1u128 << 32) | p.as_u8() as u128,
            }
        }
        match self {
            SketchKey::Term(a) => term(a) << 2,
            SketchKey::Child(a, b) => 1 | term(a) << 2 | term(b) << 35,
            SketchKey::Desc(a, b) => 2 | term(a) << 2 | term(b) << 35,
            SketchKey::And(h, b1, b2) => 3 | term(h) << 2 | term(b1) << 35 | term(b2) << 68,
        }
    }

    /// The key of a pattern, if it has the shape of the enumerated family
    /// (`None` otherwise — such a pattern is never interned).
    pub fn of_pattern(p: &TreePattern) -> Option<SketchKey> {
        let term = |q: &TreePattern| match q {
            TreePattern::Term(t) => Some(*t),
            _ => None,
        };
        match p {
            TreePattern::Term(t) => Some(SketchKey::Term(*t)),
            TreePattern::Child(a, b) => Some(SketchKey::Child(term(a)?, term(b)?)),
            TreePattern::Desc(a, b) => Some(SketchKey::Desc(term(a)?, term(b)?)),
            TreePattern::And(l, r) => match (&**l, &**r) {
                (TreePattern::Child(h1, b1), TreePattern::Child(h2, b2)) => {
                    let (h1, h2) = (term(h1)?, term(h2)?);
                    if h1 != h2 {
                        return None;
                    }
                    Some(SketchKey::And(h1, term(b1)?, term(b2)?))
                }
                _ => None,
            },
        }
    }
}

/// Enumerate the bounded TreeMatch pattern family satisfied by `sentence`:
///
/// * terminals: `tok`, and `POS` for content tags,
/// * one-edge patterns: `a/b` and `a//b` for each tree edge, with each side
///   a token or (content) POS terminal,
/// * two-edge descendants: `a//c` for grandparent pairs,
/// * conjunctions: `(x/b ∧ x/c)` for sibling child constraints.
///
/// Patterns are reported once each, in enumeration order; the `(token,
/// tag)` evidence for token→POS generalization edges comes separately
/// from [`term_generalizations`].
pub fn tree_sketch(sentence: Sentence<'_>, cfg: &TreeSketchConfig) -> Vec<TreePattern> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<SketchKey> = FxHashSet::default();
    for_each_tree_sketch(sentence, cfg, &mut |k| {
        let fresh = seen.insert(k);
        if fresh {
            out.push(k.to_pattern());
        }
        fresh
    });
    out
}

/// Reusable per-sentence enumeration scratch for
/// [`for_each_tree_sketch_with`]: the work lists hoisted out of the
/// per-sentence loop so a streaming ingest pays zero allocations per
/// sentence after warm-up.
#[derive(Default, Clone)]
pub struct SketchScratch {
    children: Vec<u16>,
    stack: Vec<u16>,
    child_terms: Vec<TreeTerm>,
}

/// [`tree_sketch`] without materializing patterns: calls `f` for each
/// enumerated key, in the exact order `tree_sketch` reports patterns.
/// **Deduplication is the callback's job**: `f` returns whether the key
/// was new for this sentence (only fresh keys count against
/// `max_patterns`), so every caller keeps its own per-sentence record of
/// the keys it has seen — a hash set here and in
/// [`crate::tree_index::TreeIndex::add_sentence`], stamps on interned ids
/// plus a set of the misses in index growth.
pub fn for_each_tree_sketch(
    sentence: Sentence<'_>,
    cfg: &TreeSketchConfig,
    f: &mut impl FnMut(SketchKey) -> bool,
) {
    for_each_tree_sketch_with(&mut SketchScratch::default(), sentence, cfg, f)
}

/// [`for_each_tree_sketch`] with caller-owned scratch — the
/// allocation-free primitive behind index growth's per-worker
/// enumeration.
pub fn for_each_tree_sketch_with(
    scratch: &mut SketchScratch,
    sentence: Sentence<'_>,
    cfg: &TreeSketchConfig,
    f: &mut impl FnMut(SketchKey) -> bool,
) {
    let n = sentence.len();
    let mut accepted = 0usize;
    let mut push = |k: SketchKey| {
        if accepted < cfg.max_patterns && f(k) {
            accepted += 1;
        }
    };

    let (tokens, tags) = (sentence.tokens(), sentence.tags());
    let usable = |i: usize| !(cfg.skip_punct && tags[i] == PosTag::Punct);
    // Determiners and punctuation carry no pattern signal: a rule anchored
    // on "the" can never be a precise labeling heuristic, and enumerating
    // such patterns floods the candidate pool (the paper's diversity
    // constraints in §3.2.1 serve the same purpose).
    let anchorable = |i: usize| usable(i) && tags[i] != PosTag::Det;
    // Per-node terminals: the literal token, plus the POS tag for content
    // tags. Cheap enough to derive in place wherever the edge loops below
    // need them.
    let terms = |i: usize| {
        [
            Some(TreeTerm::Tok(tokens[i])),
            tags[i].is_content().then_some(TreeTerm::Pos(tags[i])),
        ]
        .into_iter()
        .flatten()
    };

    // The edge loops walk the corpus-resident CSR adjacency
    // ([`Sentence::children_slice`]) — children ascending, the same order
    // the old head-array filter scan produced.
    for i in 0..n {
        if !usable(i) {
            continue;
        }
        for t in terms(i) {
            push(SketchKey::Term(t));
        }
        scratch.children.clear();
        scratch.children.extend(
            sentence
                .children_slice(i)
                .iter()
                .copied()
                .filter(|&c| anchorable(c as usize)),
        );
        // Direct-edge Child patterns.
        for &c in &scratch.children {
            for a in terms(i) {
                for b in terms(c as usize) {
                    // Skip the doubly-generic POS/POS patterns: they match
                    // nearly everything and drown the index.
                    if matches!(a, TreeTerm::Pos(_)) && matches!(b, TreeTerm::Pos(_)) {
                        continue;
                    }
                    push(SketchKey::Child(a, b));
                }
            }
        }
        // Descendant patterns over the full transitive closure, so that the
        // index's postings for `a//b` exactly equal the pattern's coverage
        // at any depth. Fused stack walk: each descendant is processed the
        // moment it pops, which is exactly the order the old collect-then-
        // iterate version visited them.
        scratch.stack.clear();
        scratch.stack.extend_from_slice(sentence.children_slice(i));
        while let Some(d) = scratch.stack.pop() {
            let d = d as usize;
            if anchorable(d) {
                for a in terms(i) {
                    for b in terms(d) {
                        if matches!(a, TreeTerm::Pos(_)) && matches!(b, TreeTerm::Pos(_)) {
                            continue;
                        }
                        push(SketchKey::Desc(a, b));
                    }
                }
            }
            scratch.stack.extend_from_slice(sentence.children_slice(d));
        }
        // Conjunctions of two child constraints on the same head token:
        // `(h/b1 ∧ h/b2)`. The pattern holds whenever *some* child matches
        // b1 and *some* child matches b2 (possibly the same child), so we
        // enumerate unordered pairs of the distinct terms matched by any
        // child — complete and canonical (b1 < b2 by the derived ordering).
        if cfg.include_and && !scratch.children.is_empty() {
            let head = TreeTerm::Tok(sentence.tokens()[i]);
            scratch.child_terms.clear();
            for k in 0..scratch.children.len() {
                let c = scratch.children[k] as usize;
                scratch.child_terms.extend(terms(c));
            }
            scratch.child_terms.sort_unstable();
            scratch.child_terms.dedup();
            for x in 0..scratch.child_terms.len() {
                for y in x + 1..scratch.child_terms.len() {
                    let (b1, b2) = (scratch.child_terms[x], scratch.child_terms[y]);
                    if matches!(b1, TreeTerm::Pos(_)) && matches!(b2, TreeTerm::Pos(_)) {
                        continue;
                    }
                    push(SketchKey::And(head, b1, b2));
                }
            }
        }
    }
}

/// Token→POS generalization evidence: every `(token, tag)` occurrence of
/// the sentence. The tree index uses this both to create
/// `Term(tok) → Term(POS)` hierarchy edges (content tags only) and to
/// detect tag-ambiguous tokens, for which such an edge would not be
/// coverage-monotone — so *all* occurrences must be reported, not just the
/// content-tagged ones.
pub fn term_generalizations<'a>(
    sentence: Sentence<'a>,
) -> impl Iterator<Item = (Sym, PosTag)> + 'a {
    sentence
        .tokens()
        .iter()
        .zip(sentence.tags())
        .map(|(s, t)| (*s, *t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_text::Corpus;

    #[test]
    fn phrase_sketch_counts() {
        let c = Corpus::from_texts(["a b c"]);
        let s = c.sentence(0);
        // 3 unigrams + 2 bigrams + 1 trigram.
        assert_eq!(phrase_sketch(s, 3).len(), 6);
        assert_eq!(phrase_sketch(s, 2).len(), 5);
        assert_eq!(phrase_sketch(s, 1).len(), 3);
    }

    #[test]
    fn phrase_sketch_dedupes_repeats() {
        let c = Corpus::from_texts(["to get to"]);
        let s = c.sentence(0);
        let grams = phrase_sketch(s, 1);
        assert_eq!(grams.len(), 2, "'to' reported once");
    }

    #[test]
    fn every_phrase_gram_matches_its_sentence() {
        let c = Corpus::from_texts(["what is the best way to get to sfo airport"]);
        let s = c.sentence(0);
        for gram in phrase_sketch(s, 4) {
            let p = darwin_grammar::PhrasePattern::from_tokens(gram);
            assert!(p.matches(s), "{}", p.display(c.vocab()));
        }
    }

    #[test]
    fn every_tree_pattern_matches_its_sentence() {
        let c = Corpus::from_texts([
            "uber is the best way to our hotel",
            "his job is a teacher at the school",
        ]);
        for s in c.sentences() {
            for p in tree_sketch(s, &TreeSketchConfig::default()) {
                assert!(p.matches(s), "{}", p.display(c.vocab()));
            }
        }
    }

    #[test]
    fn tree_sketch_contains_edge_patterns() {
        let c = Corpus::from_texts(["uber is the best way to our hotel"]);
        let s = c.sentence(0);
        let pats = tree_sketch(s, &TreeSketchConfig::default());
        let want = darwin_grammar::TreePattern::parse(c.vocab(), "is/way").unwrap();
        assert!(pats.contains(&want), "is/way should be enumerated");
    }

    #[test]
    fn tree_sketch_respects_caps() {
        let c = Corpus::from_texts(["a b c d e f g h i j k l m n o p q r s t"]);
        let cfg = TreeSketchConfig {
            max_patterns: 10,
            ..Default::default()
        };
        let pats = tree_sketch(c.sentence(0), &cfg);
        assert!(pats.len() <= 10);
    }

    #[test]
    fn tree_sketch_skips_punct() {
        let c = Corpus::from_texts(["where is the shuttle ?"]);
        let pats = tree_sketch(c.sentence(0), &TreeSketchConfig::default());
        let q = c.vocab().get("?").unwrap();
        assert!(!pats
            .iter()
            .any(|p| matches!(p, TreePattern::Term(TreeTerm::Tok(t)) if *t == q)));
    }

    #[test]
    fn generalization_evidence_covers_every_token() {
        let c = Corpus::from_texts(["the shuttle arrived"]);
        let ev: Vec<_> = term_generalizations(c.sentence(0)).collect();
        let shuttle = c.vocab().get("shuttle").unwrap();
        assert!(ev.iter().any(|(s, t)| *s == shuttle && *t == PosTag::Noun));
        // Non-content occurrences are reported too (needed for ambiguity
        // detection), with their actual tags.
        let the = c.vocab().get("the").unwrap();
        assert!(ev.iter().any(|(s, t)| *s == the && *t == PosTag::Det));
        assert_eq!(ev.len(), 3);
    }
}
