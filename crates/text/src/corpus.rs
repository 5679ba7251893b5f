//! Corpus container and (parallel) linguistic preprocessing.

use crate::depparse;
use crate::fanout::map_chunks;
use crate::pos::Tagger;
use crate::sentence::Sentence;
use crate::vocab::{Sym, Vocab};

/// An analyzed corpus: the shared vocabulary plus one [`Sentence`] per input
/// text, in input order. Sentence ids are their positions.
///
/// A corpus starts empty and has one growth verb, [`Corpus::append_texts`];
/// every way of constructing one is that verb applied to [`Corpus::new`].
#[derive(Clone, Default)]
pub struct Corpus {
    vocab: Vocab,
    sentences: Vec<Sentence>,
    /// `base_tags[sym]` caches the context-free lexicon tag of each interned
    /// symbol ([`Tagger::tag_word`] is a pure function of the string), so
    /// tagging a sentence is a table lookup per token plus the positional
    /// repair passes instead of a lexicon scan per occurrence.
    base_tags: Vec<crate::pos::PosTag>,
}

impl Corpus {
    /// The empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Analyze `texts` sequentially (tokenize → intern → tag → parse).
    pub fn from_texts<I, S>(texts: I) -> Corpus
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut corpus = Corpus::new();
        corpus.append_texts(texts, 1);
        corpus
    }

    pub fn len(&self) -> usize {
        self.sentences.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sentences.is_empty()
    }

    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    pub fn sentence(&self, id: u32) -> &Sentence {
        &self.sentences[id as usize]
    }

    pub fn sentences(&self) -> &[Sentence] {
        &self.sentences
    }

    /// Reconstruct display text for a sentence (tokens joined by spaces).
    pub fn text(&self, id: u32) -> String {
        let s = self.sentence(id);
        let mut out = String::new();
        for (i, &t) in s.tokens.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.vocab.resolve(t));
        }
        out
    }

    /// Append `texts` to the corpus: tokenize, intern into the existing
    /// vocabulary, tag and parse, continuing sentence ids from
    /// [`Corpus::len`]. Returns the number of sentences appended.
    ///
    /// The result depends only on the concatenation of everything appended
    /// so far — not on how it was split into calls, nor on `threads`:
    /// interning (which numbers symbols and sentences) is one serial loop
    /// in input order, and the two phases that fan out over `threads`
    /// workers for large batches — tokenization and tag/parse — are pure
    /// per sentence and joined in input order ([`map_chunks`]).
    /// Pre-existing sentences, symbol ids and the vocabulary prefix are
    /// never touched.
    pub fn append_texts<I, S>(&mut self, texts: I, threads: usize) -> usize
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        // Batches below this many texts are analyzed on the caller's thread.
        const MIN_FAN_OUT: usize = 1024;
        let texts: Vec<S> = texts.into_iter().collect();
        let texts: Vec<&str> = texts.iter().map(AsRef::as_ref).collect();
        let token_lists = map_chunks(&texts, threads, MIN_FAN_OUT, |chunk| {
            chunk.iter().map(|t| crate::tokenize::tokenize(t)).collect()
        });

        let vocab = &mut self.vocab;
        let numbered: Vec<(u32, Vec<Sym>)> = (self.sentences.len() as u32..)
            .zip(&token_lists)
            .map(|(id, toks)| (id, toks.iter().map(|t| vocab.intern(t)).collect()))
            .collect();

        // Extend the per-symbol tag cache for newly interned words: the
        // context-free tag is a pure function of the string, so looking it up
        // by symbol is identical to re-deriving it per occurrence.
        for ix in self.base_tags.len()..vocab.len() {
            self.base_tags
                .push(Tagger::tag_word(vocab.resolve(Sym(ix as u32))));
        }
        let base_tags = &self.base_tags;
        let to_sym = vocab.get("to");

        let analyzed = map_chunks(&numbered, threads, MIN_FAN_OUT, |chunk| {
            chunk
                .iter()
                .map(|(id, syms)| {
                    let mut tags: Vec<_> = syms.iter().map(|s| base_tags[s.index()]).collect();
                    Tagger::repair(&mut tags, |j| Some(syms[j]) == to_sym);
                    let heads = depparse::parse(&tags);
                    Sentence::new(*id, syms.clone(), tags, heads)
                })
                .collect()
        });
        self.sentences.extend(analyzed);
        numbered.len()
    }

    /// Mean sentence length in tokens.
    pub fn mean_len(&self) -> f64 {
        if self.sentences.is_empty() {
            return 0.0;
        }
        let total: usize = self.sentences.iter().map(|s| s.len()).sum();
        total as f64 / self.sentences.len() as f64
    }
}

impl std::fmt::Debug for Corpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Corpus({} sentences, {} vocab)",
            self.len(),
            self.vocab.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXTS: &[&str] = &[
        "What is the best way to get to SFO airport?",
        "Is there a bart from SFO to the hotel?",
        "What is the best way to check in there?",
        "Is Uber the fastest way to get to the airport?",
        "Would Uber Eats be the fastest way to order?",
        "What is the best way to order food from you?",
    ];

    #[test]
    fn builds_example1_corpus() {
        let c = Corpus::from_texts(TEXTS);
        assert_eq!(c.len(), 6);
        assert!(c.vocab().get("bart").is_some());
        assert!(c.vocab().get("shuttle").is_none());
        assert_eq!(c.sentence(0).id, 0);
        assert_eq!(c.text(1), "is there a bart from sfo to the hotel ?");
    }

    /// The append path must reproduce `from_texts` on the concatenation —
    /// sentence ids, tokens, analyses and vocabulary all identical, and
    /// the pre-append prefix untouched. This is the text-layer leg of the
    /// append-equivalence argument.
    #[test]
    fn append_texts_matches_from_texts_on_concatenation() {
        let first: Vec<String> = (0..30)
            .map(|i| format!("sentence {i} rides the bus to the airport"))
            .collect();
        let extra: Vec<String> = (0..20)
            .map(|i| format!("new arrival {i} orders a pizza margherita"))
            .collect();
        let whole = Corpus::from_texts(first.iter().chain(extra.iter()));
        let mut grown = Corpus::from_texts(first.iter());
        assert_eq!(grown.append_texts(extra.iter(), 2), extra.len());
        assert_eq!(grown.len(), whole.len());
        assert_eq!(grown.vocab().len(), whole.vocab().len());
        for i in 0..whole.len() as u32 {
            assert_eq!(grown.sentence(i).id, i);
            assert_eq!(grown.sentence(i).tokens, whole.sentence(i).tokens);
            assert_eq!(grown.sentence(i).tags, whole.sentence(i).tags);
            assert_eq!(grown.sentence(i).heads, whole.sentence(i).heads);
            assert_eq!(grown.text(i), whole.text(i));
        }
        // Empty append is a no-op.
        assert_eq!(grown.append_texts(Vec::<String>::new(), 1), 0);
        assert_eq!(grown.len(), whole.len());
    }

    #[test]
    fn mean_len_sane() {
        let c = Corpus::from_texts(TEXTS);
        assert!(c.mean_len() > 5.0 && c.mean_len() < 15.0);
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::from_texts(Vec::<String>::new());
        assert!(c.is_empty());
        assert_eq!(c.mean_len(), 0.0);
    }
}
