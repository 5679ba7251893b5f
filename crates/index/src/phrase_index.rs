//! The trie index over TokensRegex n-grams (paper Figure 6).
//!
//! Each node represents a contiguous phrase heuristic; it stores the number
//! of sentences satisfying it and an inverted list of their ids. The index
//! starts empty and grows by merging per-sentence derivation sketches one
//! at a time, in sentence order ([`PhraseIndex::add_sentence`]) — the only
//! way nodes are created, so node ids are first-occurrence order by
//! construction.

use crate::fx::FxHashMap;
use darwin_text::{Corpus, Sentence, Sym};

/// Node id within a [`PhraseIndex`]. Id 0 is the root (`*`, the heuristic
/// matching every sentence).
pub type NodeId = u32;

pub(crate) const ROOT: NodeId = 0;

#[derive(Clone, Debug)]
struct Node {
    /// Token on the edge from the parent (meaningless for the root).
    sym: Sym,
    parent: NodeId,
    /// Depth == phrase length (root: 0).
    depth: u16,
    /// Sorted, deduplicated ids of sentences containing the phrase.
    postings: Vec<u32>,
    children: FxHashMap<Sym, NodeId>,
}

/// Trie over contiguous phrases up to `max_len` tokens.
#[derive(Clone, Debug)]
pub struct PhraseIndex {
    nodes: Vec<Node>,
    max_len: usize,
    sentences: u32,
}

impl PhraseIndex {
    /// An empty index accepting phrases up to `max_len` tokens.
    pub fn new(max_len: usize) -> PhraseIndex {
        assert!(max_len >= 1, "max_len must be at least 1");
        let root = Node {
            sym: Sym(u32::MAX),
            parent: ROOT,
            depth: 0,
            postings: Vec::new(),
            children: FxHashMap::default(),
        };
        PhraseIndex {
            nodes: vec![root],
            max_len,
            sentences: 0,
        }
    }

    /// Grow an empty index over every sentence of `corpus`, in order.
    pub fn build(corpus: &Corpus, max_len: usize) -> PhraseIndex {
        let mut idx = PhraseIndex::new(max_len);
        for s in corpus.sentences() {
            idx.add_sentence(s);
        }
        idx
    }

    /// Incremental update: merge one sentence's derivation sketch
    /// ("linear update time complexity for adding the derivation sketch of
    /// a new sentence", §3.1).
    ///
    /// Walks the trie directly, one root-to-depth path per start position,
    /// instead of materializing [`crate::sketch::phrase_sketch`]'s gram
    /// list and re-walking
    /// each gram from the root: the nodes visited per start are exactly the
    /// sketch's grams at that start, shorter first, so node creation order
    /// (first occurrence) and postings are identical to the sketch-driven
    /// insert — the postings tail check stands in for the sketch's
    /// per-sentence dedup.
    pub fn add_sentence(&mut self, s: &Sentence) {
        for start in 0..s.tokens.len() {
            let mut cur = ROOT;
            let end = (start + self.max_len).min(s.tokens.len());
            for i in start..end {
                cur = self.child_or_insert(cur, s.tokens[i]);
                let postings = &mut self.nodes[cur as usize].postings;
                if postings.last() != Some(&s.id) {
                    postings.push(s.id);
                }
            }
        }
        self.sentences += 1;
    }

    fn child_or_insert(&mut self, parent: NodeId, sym: Sym) -> NodeId {
        if let Some(&c) = self.nodes[parent as usize].children.get(&sym) {
            return c;
        }
        let id = self.nodes.len() as NodeId;
        let depth = self.nodes[parent as usize].depth + 1;
        self.nodes.push(Node {
            sym,
            parent,
            depth,
            postings: Vec::new(),
            children: FxHashMap::default(),
        });
        self.nodes[parent as usize].children.insert(sym, id);
        id
    }

    /// Remove all nodes whose count is below `min_count` (and their
    /// subtrees — counts are monotone along root-to-leaf paths). Node ids
    /// are re-assigned; the root stays 0.
    pub fn prune(&mut self, min_count: usize) -> usize {
        if min_count <= 1 {
            return 0;
        }
        let mut keep = vec![false; self.nodes.len()];
        keep[ROOT as usize] = true;
        // BFS: children of kept nodes are kept when their count passes.
        let mut queue = vec![ROOT];
        while let Some(n) = queue.pop() {
            for &c in self.nodes[n as usize].children.values() {
                if self.nodes[c as usize].postings.len() >= min_count {
                    keep[c as usize] = true;
                    queue.push(c);
                }
            }
        }
        let removed = keep.iter().filter(|k| !**k).count();
        if removed == 0 {
            return 0;
        }
        // Compact.
        let mut remap = vec![u32::MAX; self.nodes.len()];
        let mut new_nodes: Vec<Node> = Vec::with_capacity(self.nodes.len() - removed);
        for (i, node) in self.nodes.iter().enumerate() {
            if keep[i] {
                remap[i] = new_nodes.len() as u32;
                new_nodes.push(node.clone());
            }
        }
        for node in &mut new_nodes {
            node.parent = remap[node.parent as usize];
            node.children = node
                .children
                .iter()
                .filter(|(_, &c)| remap[c as usize] != u32::MAX)
                .map(|(&s, &c)| (s, remap[c as usize]))
                .collect();
        }
        self.nodes = new_nodes;
        removed
    }

    /// Number of trie nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists (no phrases indexed).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Number of sentences indexed.
    pub fn sentences(&self) -> u32 {
        self.sentences
    }

    /// The paper's `count`: number of sentences satisfying the node's
    /// heuristic. The root counts every sentence.
    pub fn count(&self, n: NodeId) -> usize {
        if n == ROOT {
            self.sentences as usize
        } else {
            self.nodes[n as usize].postings.len()
        }
    }

    /// Inverted list for a node. Empty for the root — callers treat the
    /// root as "matches everything" (see [`PhraseIndex::count`]).
    pub fn postings(&self, n: NodeId) -> &[u32] {
        &self.nodes[n as usize].postings
    }

    /// The node's one-token-shorter prefix (`None` for the root).
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        (n != ROOT).then(|| self.nodes[n as usize].parent)
    }

    /// The node's one-token-longer extensions.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[n as usize].children.values().copied()
    }

    /// Phrase length of the node.
    pub fn depth(&self, n: NodeId) -> usize {
        self.nodes[n as usize].depth as usize
    }

    /// Reconstruct the phrase (root → node path).
    pub fn phrase(&self, n: NodeId) -> Vec<Sym> {
        let mut out = Vec::with_capacity(self.depth(n));
        let mut cur = n;
        while cur != ROOT {
            out.push(self.nodes[cur as usize].sym);
            cur = self.nodes[cur as usize].parent;
        }
        out.reverse();
        out
    }

    /// Find the node for a contiguous phrase, if indexed.
    pub fn lookup(&self, phrase: &[Sym]) -> Option<NodeId> {
        let mut cur = ROOT;
        for sym in phrase {
            cur = *self.nodes[cur as usize].children.get(sym)?;
        }
        Some(cur)
    }

    /// Iterate over all node ids (excluding the root).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        1..self.nodes.len() as NodeId
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::from_texts([
            "what is the best way to get to sfo airport",
            "is uber the fastest way to get to the airport",
            "what is the best way to order food from you",
        ])
    }

    fn node_by_text(c: &Corpus, idx: &PhraseIndex, text: &str) -> NodeId {
        let syms: Vec<Sym> = text
            .split_whitespace()
            .map(|t| c.vocab().get(t).expect("token in vocab"))
            .collect();
        idx.lookup(&syms).expect("phrase indexed")
    }

    #[test]
    fn figure6_counts() {
        // Mirrors Figure 6: after indexing s1 and s4, "way to" has count 2,
        // "best way" count 1, "fastest way" count 1.
        let c = corpus();
        let idx = PhraseIndex::build(&c, 4);
        assert_eq!(idx.count(node_by_text(&c, &idx, "way to")), 3);
        assert_eq!(idx.count(node_by_text(&c, &idx, "best way")), 2);
        assert_eq!(idx.count(node_by_text(&c, &idx, "fastest way")), 1);
        assert_eq!(idx.postings(node_by_text(&c, &idx, "best way")), &[0, 2]);
    }

    #[test]
    fn counts_equal_postings_len_everywhere() {
        let c = corpus();
        let idx = PhraseIndex::build(&c, 5);
        for n in idx.node_ids() {
            assert_eq!(idx.count(n), idx.postings(n).len());
            // Postings sorted + unique.
            assert!(idx.postings(n).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn child_postings_subset_of_parent() {
        let c = corpus();
        let idx = PhraseIndex::build(&c, 5);
        for n in idx.node_ids() {
            let parent = idx.parent(n).unwrap();
            if parent == ROOT {
                continue;
            }
            let pp = idx.postings(parent);
            for id in idx.postings(n) {
                assert!(pp.contains(id), "child postings ⊆ parent postings");
            }
        }
    }

    #[test]
    fn repeated_ngram_counts_sentence_once() {
        let c = Corpus::from_texts(["to get to get to"]);
        let idx = PhraseIndex::build(&c, 2);
        let n = node_by_text(&c, &idx, "to get");
        assert_eq!(idx.count(n), 1);
    }

    #[test]
    fn phrase_reconstruction_roundtrip() {
        let c = corpus();
        let idx = PhraseIndex::build(&c, 4);
        for n in idx.node_ids() {
            let phrase = idx.phrase(n);
            assert_eq!(idx.lookup(&phrase), Some(n));
            assert_eq!(phrase.len(), idx.depth(n));
        }
    }

    #[test]
    fn incremental_add_matches_batch() {
        let texts = [
            "the shuttle to the airport",
            "the bus to the hotel",
            "the shuttle to the hotel",
        ];
        let c = Corpus::from_texts(texts);
        let batch = PhraseIndex::build(&c, 3);
        let mut inc = PhraseIndex::new(3);
        for s in c.sentences() {
            inc.add_sentence(s);
        }
        assert_eq!(batch.len(), inc.len());
        for n in batch.node_ids() {
            let pn = inc.lookup(&batch.phrase(n)).unwrap();
            assert_eq!(batch.postings(n), inc.postings(pn));
        }
    }

    #[test]
    fn prune_removes_rare_phrases() {
        let c = corpus();
        let mut idx = PhraseIndex::build(&c, 4);
        let before = idx.len();
        let removed = idx.prune(2);
        assert!(removed > 0);
        assert_eq!(idx.len(), before - removed);
        for n in idx.node_ids() {
            assert!(idx.count(n) >= 2);
            // Parent pointers still valid.
            let phrase = idx.phrase(n);
            assert_eq!(idx.lookup(&phrase), Some(n));
        }
        // "way to" survives (count 3).
        let way_to = node_by_text(&c, &idx, "way to");
        assert_eq!(idx.count(way_to), 3);
    }

    #[test]
    fn root_covers_all_sentences() {
        let c = corpus();
        let idx = PhraseIndex::build(&c, 3);
        assert_eq!(idx.count(ROOT), 3);
    }
}
