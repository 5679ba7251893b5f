//! Sentence → covering-rules inverted postings.
//!
//! The forward index answers "which sentences does rule `r` cover?"
//! ([`crate::IndexSet::coverage`]). The incremental benefit engine needs the
//! transpose: "which rules cover sentence `s`?" — when the positive set `P`
//! gains a handful of sentence ids, or the classifier re-scores a few
//! sentences, only the rules covering those ids change benefit, and the
//! engine patches exactly those aggregates instead of rescanning every
//! rule's coverage (the same delta principle as incremental view
//! maintenance under updates).
//!
//! Stored as CSR: per-sentence offsets into one contiguous arena of packed
//! `u32` rule words, four bytes a posting (a [`RuleRef`] is eight). A phrase
//! node `n` packs as `n` and a tree pattern `p` as `1 << 31 | p`; the root
//! covers everything and is never stored. Within a sentence's row, rules
//! appear in [`crate::IndexSet::all_rules`] order (phrases in node order,
//! then tree patterns), which is also ascending word order and makes every
//! delta walk deterministic. Unlike [`crate::IndexSet::dense_id`], whose
//! tree block shifts whenever an append adds phrase nodes, a word depends
//! only on the rule's own handle, so rows written before an append stay
//! valid after it.

use crate::api::{IndexSet, RuleRef};

/// The grammar bit of a packed rule word: set for tree patterns.
const TREE_BIT: u32 = 1 << 31;

/// Pack a non-root rule into its transpose word.
#[inline]
fn pack(r: RuleRef) -> u32 {
    let (grammar, id) = match r {
        RuleRef::Phrase(n) => (0, n),
        RuleRef::Tree(p) => (TREE_BIT, p),
        RuleRef::Root => (0, 0),
    };
    debug_assert!(r != RuleRef::Root, "the root is never stored");
    debug_assert!(
        id < TREE_BIT,
        "{r:?} beyond the 2^31 ids a grammar may number"
    );
    grammar | id
}

/// Inverse of [`pack`].
#[inline]
fn unpack(w: u32) -> RuleRef {
    if w & TREE_BIT == 0 {
        RuleRef::Phrase(w)
    } else {
        RuleRef::Tree(w & !TREE_BIT)
    }
}

/// Transposed coverage: for each sentence id, the rules whose coverage
/// contains it.
///
/// Each grammar may number at most 2^31 rules (phrase nodes and tree
/// patterns alike): the top bit of a packed word names the grammar.
/// Both sub-indexes number with `u32`, so the bound halves their
/// headroom; debug builds check it when a word is written.
pub struct InvertedIndex {
    /// `usize`, not `u32`: the corpus-wide sum of coverages can pass u32
    /// range long before any single posting list does.
    offsets: Vec<usize>,
    rules: Vec<u32>,
}

impl InvertedIndex {
    /// Transpose the forward postings of `index` (the root is excluded — it
    /// covers everything and carries no benefit signal): the empty
    /// transpose extended over every sentence.
    pub fn build(index: &IndexSet) -> InvertedIndex {
        let mut inv = InvertedIndex {
            offsets: vec![0],
            rules: Vec::new(),
        };
        inv.extend_for_append(index, 0);
        inv
    }

    /// Extend the transpose for sentences appended after it was built:
    /// `index` has grown to cover ids `old_n..index.sentences()` and this
    /// transpose still ends at `old_n`.
    ///
    /// Only *new* rows are written. From `old_n > 0` that is sound because
    /// the caller (`IndexSet::append`) guarantees an unpruned index
    /// (`min_count == 1`), where a rule first materialized by an appended
    /// sentence can cover only appended sentences — any earlier occurrence
    /// would already have interned it — so no pre-existing row gains or
    /// loses a rule; [`InvertedIndex::build`] is the `old_n == 0` case,
    /// where every row is new. Each rule's new postings are the tail of its
    /// sorted posting list (`>= old_n`), found by one binary search.
    pub fn extend_for_append(&mut self, index: &IndexSet, old_n: usize) {
        debug_assert_eq!(self.sentences(), old_n, "transpose not at old_n");
        let new_n = index.sentences();
        if new_n == old_n {
            return;
        }
        let mut counts = vec![0usize; new_n - old_n];
        for r in index.all_rules() {
            let cov = index.coverage(r);
            let tail = cov.partition_point(|&s| (s as usize) < old_n);
            for &s in &cov[tail..] {
                counts[s as usize - old_n] += 1;
            }
        }
        let mut acc = *self.offsets.last().expect("offsets never empty");
        let mut cursor = Vec::with_capacity(counts.len());
        for &c in &counts {
            cursor.push(acc);
            acc += c;
            self.offsets.push(acc);
        }
        self.rules.resize(acc, 0);
        for r in index.all_rules() {
            let cov = index.coverage(r);
            let tail = cov.partition_point(|&s| (s as usize) < old_n);
            let word = pack(r);
            for &s in &cov[tail..] {
                let slot = &mut cursor[s as usize - old_n];
                self.rules[*slot] = word;
                *slot += 1;
            }
        }
    }

    /// Rules covering sentence `id`, in [`IndexSet::all_rules`] order.
    pub fn rules_covering(&self, id: u32) -> impl ExactSizeIterator<Item = RuleRef> + '_ {
        let lo = self.offsets[id as usize];
        let hi = self.offsets[id as usize + 1];
        self.rules[lo..hi].iter().map(|&w| unpack(w))
    }

    /// Number of sentences the transpose covers.
    pub fn sentences(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total postings across all sentences (== total forward postings).
    pub fn postings_len(&self) -> usize {
        self.rules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::IndexConfig;
    use darwin_text::Corpus;

    fn setup() -> (Corpus, IndexSet) {
        let c = Corpus::from_texts([
            "the shuttle to the airport leaves hourly",
            "is there a shuttle to the airport tonight",
            "a bus to the airport runs daily",
            "order pizza to the room please",
        ]);
        let idx = IndexSet::build(&c, &IndexConfig::small());
        (c, idx)
    }

    #[test]
    fn transpose_agrees_with_forward_postings() {
        let (c, idx) = setup();
        let inv = InvertedIndex::build(&idx);
        assert_eq!(inv.sentences(), c.len());
        // Every forward posting appears in the transpose...
        for r in idx.all_rules() {
            for &s in idx.coverage(r) {
                assert!(
                    inv.rules_covering(s).any(|x| x == r),
                    "rule {:?} covers {s} but transpose misses it",
                    r
                );
            }
        }
        // ...and the transpose contains nothing extra.
        let forward_total: usize = idx.all_rules().map(|r| idx.coverage(r).len()).sum();
        assert_eq!(inv.postings_len(), forward_total);
    }

    #[test]
    fn per_sentence_rules_are_unique_and_cover() {
        let (c, idx) = setup();
        let inv = InvertedIndex::build(&idx);
        for s in 0..c.len() as u32 {
            let mut seen = crate::fx::FxHashSet::default();
            for r in inv.rules_covering(s) {
                assert!(seen.insert(r), "duplicate rule {r:?} for sentence {s}");
                assert!(idx.coverage(r).contains(&s));
            }
        }
    }

    #[test]
    fn root_is_excluded() {
        let (_, idx) = setup();
        let inv = InvertedIndex::build(&idx);
        for s in 0..inv.sentences() as u32 {
            assert!(inv.rules_covering(s).all(|r| r != RuleRef::Root));
        }
    }

    #[test]
    fn transpose_costs_four_bytes_per_posting() {
        let (_, idx) = setup();
        let inv = InvertedIndex::build(&idx);
        assert!(inv.postings_len() > 0);
        assert_eq!(std::mem::size_of_val(&*inv.rules), 4 * inv.postings_len());
    }

    #[test]
    fn rows_follow_all_rules_order() {
        let (c, idx) = setup();
        let all: Vec<RuleRef> = idx.all_rules().collect();
        assert!(all.iter().any(|r| matches!(r, RuleRef::Phrase(_))));
        assert!(all.iter().any(|r| matches!(r, RuleRef::Tree(_))));
        let inv = InvertedIndex::build(&idx);
        for s in 0..c.len() as u32 {
            let want: Vec<RuleRef> = all
                .iter()
                .copied()
                .filter(|&r| idx.coverage(r).binary_search(&s).is_ok())
                .collect();
            let row = inv.rules_covering(s);
            assert_eq!(row.len(), want.len(), "row {s} length");
            assert_eq!(row.collect::<Vec<_>>(), want, "row {s}");
        }
    }

    #[test]
    fn pack_roundtrips_at_the_id_bounds() {
        let top = TREE_BIT - 1;
        for r in [
            RuleRef::Phrase(1),
            RuleRef::Phrase(top),
            RuleRef::Tree(0),
            RuleRef::Tree(top),
        ] {
            assert_eq!(unpack(pack(r)), r);
        }
        assert!(pack(RuleRef::Phrase(top)) < pack(RuleRef::Tree(0)));
    }
}
