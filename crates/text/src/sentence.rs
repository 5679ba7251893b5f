//! The analyzed sentences of a corpus, stored column-wise, and the
//! borrowed per-sentence view Darwin operates on.

use crate::pos::PosTag;
use crate::vocab::Sym;

/// The most tokens an analyzed sentence holds. Token indices, heads and
/// the sentence-relative child offsets are `u16`, so a sentence of up to
/// `u16::MAX` tokens keeps every index below `u16::MAX` and every offset
/// at most `u16::MAX`. [`crate::Corpus::append_texts`] drops the tokens
/// of a text past this cap.
pub const MAX_TOKENS: usize = u16::MAX as usize;

/// Every analyzed sentence of a corpus, one column per field: sentence
/// `id`'s tokens, tags, heads and child list are the entries
/// `starts[id]..starts[id + 1]` of their columns, and its `n + 1` child
/// offsets start at `starts[id] + id`. So one `starts` entry per sentence
/// locates everything, and the corpus holds a fixed number of
/// allocations however many sentences it has.
///
/// The dependency tree is the head array (`heads[i]` is the index of
/// token `i`'s head; a root points to itself), additionally materialized
/// by [`Columns::push`] as a CSR child adjacency: the children of token
/// `i` are `child_list[child_offsets[i]..child_offsets[i + 1]]`, in
/// increasing token order — the order a filter scan of the head array
/// yields, so every consumer iterates identically. Heads, child offsets
/// and the child list are sentence-relative, so columns append to one
/// another by copying.
#[derive(Clone, Debug)]
pub struct Columns {
    starts: Vec<u32>,
    pub(crate) tokens: Vec<Sym>,
    tags: Vec<PosTag>,
    heads: Vec<u16>,
    child_offsets: Vec<u16>,
    child_list: Vec<u16>,
}

impl Default for Columns {
    fn default() -> Columns {
        Columns {
            starts: vec![0],
            tokens: Vec::new(),
            tags: Vec::new(),
            heads: Vec::new(),
            child_offsets: Vec::new(),
            child_list: Vec::new(),
        }
    }
}

impl Columns {
    /// No sentences.
    pub fn new() -> Columns {
        Columns::default()
    }

    /// Number of sentences.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tokens over every sentence.
    pub(crate) fn tokens_len(&self) -> usize {
        self.tokens.len()
    }

    /// Append one sentence (it takes id [`Columns::len`]) and build its
    /// CSR child adjacency: two counting passes, children ascending.
    ///
    /// # Panics
    /// If the fields differ in length, the sentence is longer than
    /// [`MAX_TOKENS`], a head is out of range, or the columns would pass
    /// `u32::MAX` tokens.
    pub fn push(&mut self, tokens: &[Sym], tags: &[PosTag], heads: &[u16]) {
        let n = tokens.len();
        assert!(
            tags.len() == n && heads.len() == n,
            "one tag and one head per token"
        );
        assert!(
            n <= MAX_TOKENS,
            "a sentence of {n} tokens passes MAX_TOKENS"
        );
        let start = self.tokens.len();
        let end = u32::try_from(start + n).expect("corpus tokens fit u32 starts");
        self.tokens.extend_from_slice(tokens);
        self.tags.extend_from_slice(tags);
        self.heads.extend_from_slice(heads);

        let o = self.child_offsets.len();
        self.child_offsets.resize(o + n + 1, 0);
        let offsets = &mut self.child_offsets[o..];
        for (c, &h) in heads.iter().enumerate() {
            if h as usize != c {
                offsets[h as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        self.child_list.resize(start + n, 0);
        let list = &mut self.child_list[start..];
        // Fill ascending, bumping each bucket's cursor in place; afterwards
        // offsets[i] holds bucket i's *end*, so shift right to restore starts.
        for (c, &h) in heads.iter().enumerate() {
            if h as usize != c {
                let pos = offsets[h as usize];
                list[pos as usize] = c as u16;
                offsets[h as usize] = pos + 1;
            }
        }
        offsets.copy_within(..n, 1);
        offsets[0] = 0;
        self.starts.push(end);
    }

    /// Append every sentence of `other`, in order, after this one's.
    pub(crate) fn append(&mut self, other: &Columns) {
        let base = *self.starts.last().expect("starts is never empty");
        let ends = other.starts[1..]
            .iter()
            .map(|&e| base.checked_add(e).expect("corpus tokens fit u32 starts"));
        self.starts.extend(ends);
        self.tokens.extend_from_slice(&other.tokens);
        self.tags.extend_from_slice(&other.tags);
        self.heads.extend_from_slice(&other.heads);
        self.child_offsets.extend_from_slice(&other.child_offsets);
        self.child_list.extend_from_slice(&other.child_list);
    }

    /// The view of sentence `id`.
    #[inline]
    pub fn get(&self, id: u32) -> Sentence<'_> {
        let i = id as usize;
        let (s, e) = (self.starts[i] as usize, self.starts[i + 1] as usize);
        let o = s + i;
        Sentence {
            id,
            tokens: &self.tokens[s..e],
            tags: &self.tags[s..e],
            heads: &self.heads[s..e],
            child_offsets: &self.child_offsets[o..o + e - s + 1],
            child_list: &self.child_list[s..e],
        }
    }

    /// Every sentence's view, in id order.
    pub fn iter(
        &self,
    ) -> impl ExactSizeIterator<Item = Sentence<'_>> + DoubleEndedIterator + Clone + '_ {
        (0..self.len() as u32).map(|id| self.get(id))
    }
}

/// A fully analyzed sentence, borrowed from its [`Columns`]: interned
/// tokens, universal POS tags, and a dependency tree as a head array
/// plus its CSR child adjacency. `Copy`, and owns nothing.
#[derive(Clone, Copy, Debug)]
pub struct Sentence<'a> {
    id: u32,
    tokens: &'a [Sym],
    tags: &'a [PosTag],
    heads: &'a [u16],
    child_offsets: &'a [u16],
    child_list: &'a [u16],
}

impl<'a> Sentence<'a> {
    /// Position of this sentence in its [`crate::Corpus`].
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    #[inline]
    pub fn tokens(&self) -> &'a [Sym] {
        self.tokens
    }

    #[inline]
    pub fn tags(&self) -> &'a [PosTag] {
        self.tags
    }

    /// `heads()[i]` is the index of token `i`'s head; a root points to
    /// itself.
    #[inline]
    pub fn heads(&self) -> &'a [u16] {
        self.heads
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Index of the root token (its own head), or `None` for empty sentences.
    pub fn root(&self) -> Option<usize> {
        self.heads
            .iter()
            .enumerate()
            .find(|(i, &h)| *i == h as usize)
            .map(|(i, _)| i)
    }

    /// Children of token `i` in the dependency tree, ascending: a CSR slice
    /// iterator (bit-identical order to a head-array filter scan).
    #[inline]
    pub fn children(&self, i: usize) -> impl Iterator<Item = usize> + 'a {
        self.children_slice(i).iter().map(|&c| c as usize)
    }

    /// Children of token `i` as a raw CSR slice (hot paths index it
    /// directly; token indices fit `u16` by construction).
    #[inline]
    pub fn children_slice(&self, i: usize) -> &'a [u16] {
        &self.child_list[self.child_offsets[i] as usize..self.child_offsets[i + 1] as usize]
    }

    /// All proper descendants of token `i`: a stack walk over the CSR.
    pub fn descendants(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack: Vec<usize> = self.children(i).collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n));
        }
        out
    }

    /// True if `anc` is a proper ancestor of `node`.
    pub fn is_ancestor(&self, anc: usize, node: usize) -> bool {
        let mut cur = node;
        loop {
            let h = self.heads[cur] as usize;
            if h == cur {
                return false;
            }
            if h == anc {
                return true;
            }
            cur = h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Columns holding one sentence per head array, with tokens `0..n`.
    fn columns(cases: &[Vec<u16>]) -> Columns {
        let mut cols = Columns::new();
        for heads in cases {
            let n = heads.len();
            let tokens: Vec<Sym> = (0..n as u32).map(Sym).collect();
            cols.push(&tokens, &vec![PosTag::Noun; n], heads);
        }
        cols
    }

    #[test]
    fn root_is_self_headed() {
        let cols = columns(&[vec![1, 1, 1]]);
        assert_eq!(cols.get(0).root(), Some(1));
    }

    #[test]
    fn children_and_descendants() {
        // 0 -> 1 <- 2, 3 -> 2 (tree: 1 is root, children {0, 2}; 2 has child 3)
        let cols = columns(&[vec![1, 1, 1, 2]]);
        let s = cols.get(0);
        let mut c: Vec<usize> = s.children(1).collect();
        c.sort_unstable();
        assert_eq!(c, vec![0, 2]);
        let mut d = s.descendants(1);
        d.sort_unstable();
        assert_eq!(d, vec![0, 2, 3]);
        assert!(s.is_ancestor(1, 3));
        assert!(!s.is_ancestor(3, 1));
        assert!(!s.is_ancestor(0, 3));
    }

    #[test]
    fn empty_sentence_has_no_root() {
        let cols = columns(&[vec![]]);
        assert_eq!(cols.get(0).root(), None);
        assert!(cols.get(0).is_empty());
    }

    const CASES: [&[u16]; 8] = [
        &[],
        &[0],
        &[1, 1, 1, 2],
        &[0, 0, 0, 0],
        &[3, 3, 3, 3],
        &[1, 2, 3, 3, 3, 2],
        &[0, 1, 2], // three self-rooted singletons (forest)
        &[5, 0, 0, 2, 2, 5, 5, 5],
    ];

    /// Each sentence of `cols` against `cases`, in order: the fields read
    /// back, and the CSR adjacency reproduces the head-array filter scan
    /// exactly — same children, same (ascending) order, self-loops
    /// excluded.
    fn assert_matches_filter_scan(cols: &Columns, cases: &[Vec<u16>]) {
        assert_eq!(cols.len(), cases.len());
        for (s, heads) in cols.iter().zip(cases) {
            assert_eq!(s.heads(), &heads[..]);
            assert_eq!(s.tags().len(), heads.len());
            assert!(s.tokens().iter().map(|t| t.index()).eq(0..heads.len()));
            for i in 0..heads.len() {
                let scan: Vec<usize> = heads
                    .iter()
                    .enumerate()
                    .filter(|(c, &h)| h as usize == i && *c != i)
                    .map(|(c, _)| c)
                    .collect();
                let csr: Vec<usize> = s.children(i).collect();
                assert_eq!(csr, scan, "sentence {}: heads={heads:?} i={i}", s.id());
            }
        }
    }

    #[test]
    fn csr_matches_filter_scan() {
        let cases: Vec<Vec<u16>> = CASES.iter().map(|h| h.to_vec()).collect();
        assert_matches_filter_scan(&columns(&cases), &cases);
    }

    /// Columns appended to columns read back as if every sentence had
    /// been pushed into one: offsets and children are sentence-relative.
    #[test]
    fn csr_survives_appending_chunks() {
        let cases: Vec<Vec<u16>> = CASES.iter().map(|h| h.to_vec()).collect();
        for cut in [0, 3, 5, cases.len()] {
            let mut cols = columns(&cases[..cut]);
            cols.append(&columns(&cases[cut..]));
            assert_matches_filter_scan(&cols, &cases);
            assert_eq!(cols.tokens_len(), cases.iter().map(Vec::len).sum());
        }
    }

    #[test]
    fn longest_sentence_fits_u16_offsets() {
        // A cycle through every token gives each token one child, so the
        // last child offset is `MAX_TOKENS` itself.
        let n = MAX_TOKENS;
        let heads: Vec<u16> = (0..n).map(|i| ((i + 1) % n) as u16).collect();
        let cols = columns(&[vec![0], heads]);
        let s = cols.get(1);
        assert_eq!(s.len(), n);
        assert_eq!(s.root(), None);
        assert_eq!(s.children_slice(0), &[n as u16 - 1]);
        assert_eq!(s.children_slice(n - 1), &[n as u16 - 2]);
    }
}
