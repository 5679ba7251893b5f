//! Corpus container and (parallel) linguistic preprocessing.

use crate::depparse;
use crate::fanout::{grow_ordered, miss, miss_index};
use crate::pos::{PosTag, Tagger};
use crate::sentence::{Columns, Sentence, MAX_TOKENS};
use crate::tokenize;
use crate::vocab::{Sym, Vocab};
use std::collections::HashMap;

/// An analyzed corpus: the shared vocabulary plus one [`Sentence`] per input
/// text, in input order, held column-wise ([`Columns`]: one allocation per
/// field, not per sentence). Sentence ids are their positions.
///
/// A corpus starts empty and has one growth verb, [`Corpus::append_texts`];
/// every way of constructing one is that verb applied to [`Corpus::new`].
#[derive(Clone, Default)]
pub struct Corpus {
    vocab: Vocab,
    sentences: Columns,
    /// `base_tags[sym]` caches the context-free lexicon tag of each interned
    /// symbol ([`Tagger::tag_word`] is a pure function of the string), so
    /// tagging a sentence is a table lookup per token plus the positional
    /// repair passes instead of a lexicon scan per occurrence.
    base_tags: Vec<PosTag>,
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

    /// The view of sentence `id`.
    #[inline]
    pub fn sentence(&self, id: u32) -> Sentence<'_> {
        self.sentences.get(id)
    }

    /// Every sentence's view, in id order.
    pub fn sentences(
        &self,
    ) -> impl ExactSizeIterator<Item = Sentence<'_>> + DoubleEndedIterator + Clone + '_ {
        self.sentences.iter()
    }

    /// Reconstruct display text for a sentence (tokens joined by spaces).
    pub fn text(&self, id: u32) -> String {
        let mut out = String::new();
        for (i, &t) in self.sentence(id).tokens().iter().enumerate() {
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
    /// Each text becomes exactly one sentence, so label ids line up with
    /// input positions. A text of more than [`MAX_TOKENS`] tokens keeps its
    /// first `MAX_TOKENS`; the rest are dropped (neither interned nor
    /// counted), which keeps every token index, head and child offset
    /// inside the `u16` range the columns store them in.
    ///
    /// The result depends only on the concatenation of everything appended
    /// so far — not on how it was split into calls, nor on `threads`.
    /// The batch is one [`grow_ordered`] block: `threads` workers each
    /// resolve their texts' tokens against the vocabulary as it stood
    /// when the batch started (read only), tagging and parsing them into
    /// chunk-local columns and naming the words the vocabulary lacks.
    /// Then the serial fold, in input order, numbers those words — so
    /// symbols keep their first-occurrence order — patches them into the
    /// chunk's token column, counts frequencies and appends the chunk's
    /// columns. Pre-existing sentences, symbol ids and the vocabulary
    /// prefix are never touched.
    pub fn append_texts<I, S>(&mut self, texts: I, threads: usize) -> usize
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        // Batches below this many texts are analyzed on the caller's thread.
        const MIN_FAN_OUT: usize = 1024;
        let texts: Vec<S> = texts.into_iter().collect();
        let texts: Vec<&str> = texts.iter().map(AsRef::as_ref).collect();
        grow_ordered(
            self,
            &texts,
            texts.len(),
            threads,
            MIN_FAN_OUT,
            |c, chunk| analyze(&c.vocab, &c.base_tags, chunk),
            // Taken, not borrowed: a build into an empty corpus keeps the
            // first chunk's columns, and a later chunk is freed once appended.
            |c, _, chunk| c.fold(std::mem::take(chunk)),
        );
        texts.len()
    }

    /// The serial half of [`Corpus::append_texts`]: number one chunk's
    /// misses — a word an earlier chunk numbered is found, not renumbered —
    /// then patch and count its tokens and append its columns.
    fn fold(&mut self, mut chunk: Analyzed) {
        let syms: Vec<Sym> = (chunk.misses.iter())
            .map(|(word, tag)| {
                let s = self.vocab.number(word);
                if s.index() == self.base_tags.len() {
                    self.base_tags.push(*tag);
                }
                s
            })
            .collect();
        for t in &mut chunk.sentences.tokens {
            if let Some(i) = miss_index(t.0) {
                *t = syms[i];
            }
            self.vocab.count(*t);
        }
        // A build into an empty corpus keeps the first chunk's columns.
        if self.sentences.is_empty() {
            self.sentences = chunk.sentences;
        } else {
            self.sentences.append(&chunk.sentences);
        }
    }

    /// Mean sentence length in tokens.
    pub fn mean_len(&self) -> f64 {
        if self.sentences.is_empty() {
            return 0.0;
        }
        self.sentences.tokens_len() as f64 / self.sentences.len() as f64
    }
}

/// One chunk of a batch, analyzed by a worker.
#[derive(Default)]
struct Analyzed {
    /// One sentence per text, each token a symbol or a [`miss`] word.
    sentences: Columns,
    /// The words the vocabulary lacked, each named once, in
    /// first-occurrence order, with its [`Tagger::tag_word`].
    misses: Vec<(Box<str>, PosTag)>,
}

/// The worker half of [`Corpus::append_texts`]: tokenize `texts`, resolve
/// every token against `vocab` (read only) — a hit to its symbol and
/// cached base tag, a miss to a [`miss`] word — then tag and parse each
/// sentence into the chunk's columns. Tokens past [`MAX_TOKENS`] are
/// skipped before they are resolved.
fn analyze(vocab: &Vocab, base_tags: &[PosTag], texts: &[&str]) -> Analyzed {
    let (mut missed, mut misses) = (HashMap::<Box<str>, u32>::new(), Vec::new());
    // Per-sentence scratch, copied into the columns.
    let (mut tokens, mut tags, mut is_to) = (Vec::new(), Vec::new(), Vec::new());
    let mut sentences = Columns::new();
    for text in texts {
        tokens.clear();
        tags.clear();
        is_to.clear();
        tokenize::for_each_token(text, |t| {
            if tokens.len() == MAX_TOKENS {
                return;
            }
            let (sym, tag) = match vocab.get(t) {
                Some(s) => (s, base_tags[s.index()]),
                None => {
                    let i = match missed.get(t) {
                        Some(&i) => i as usize,
                        None => {
                            missed.insert(t.into(), misses.len() as u32);
                            misses.push((t.into(), Tagger::tag_word(t)));
                            misses.len() - 1
                        }
                    };
                    (Sym(miss(i)), misses[i].1)
                }
            };
            tokens.push(sym);
            tags.push(tag);
            is_to.push(t == "to");
        });
        Tagger::repair(&mut tags, |j| is_to[j]);
        sentences.push(&tokens, &tags, &depparse::parse(&tags));
    }
    Analyzed { sentences, misses }
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
#[path = "../tests/fixture/mod.rs"]
mod fixture;

#[cfg(test)]
mod tests {
    use super::fixture::fixture;
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
        assert_eq!(c.sentence(0).id(), 0);
        assert_eq!(c.text(1), "is there a bart from sfo to the hotel ?");
    }

    /// The per-sentence analyzer: tokenize (keeping the first
    /// [`MAX_TOKENS`]), intern, tag and parse one text at a time, in input
    /// order, pushing each sentence onto its own columns.
    fn reference(texts: &[String]) -> (Vocab, Columns) {
        let mut vocab = Vocab::new();
        let mut sentences = Columns::new();
        for text in texts {
            let mut words = tokenize::tokenize(text);
            words.truncate(MAX_TOKENS);
            let tokens: Vec<Sym> = words.iter().map(|w| vocab.intern(w)).collect();
            let tags = Tagger::tag(&words);
            sentences.push(&tokens, &tags, &depparse::parse(&tags));
        }
        (vocab, sentences)
    }

    /// `append_texts` — from empty or after any prefix, at every thread
    /// count — reproduces the per-sentence analyzer exactly: sentence
    /// ids, tokens, tags, heads and children, and the vocabulary's order
    /// and frequencies. This is the text-layer leg of the
    /// append-equivalence argument.
    #[test]
    fn append_texts_matches_the_per_sentence_reference() {
        let texts = fixture();
        let (vocab, sentences) = reference(&texts);
        let check = |c: &Corpus, label: &str| {
            assert_eq!(c.len(), sentences.len(), "{label}");
            assert_eq!(c.vocab().len(), vocab.len(), "{label}: vocab size");
            for (s, w) in vocab.iter() {
                assert_eq!(c.vocab().resolve(s), w, "{label}: vocab order");
                assert_eq!(c.vocab().freq(s), vocab.freq(s), "{label}: freq of {w}");
            }
            for (g, w) in c.sentences().zip(sentences.iter()) {
                assert_eq!(g.id(), w.id(), "{label}");
                assert_eq!(g.tokens(), w.tokens(), "{label}: tokens of {}", w.id());
                assert_eq!(g.tags(), w.tags(), "{label}: tags of {}", w.id());
                assert_eq!(g.heads(), w.heads(), "{label}: heads of {}", w.id());
                for i in 0..w.len() {
                    assert_eq!(g.children_slice(i), w.children_slice(i), "{label}");
                }
            }
        };
        check(&Corpus::from_texts(&texts), "from_texts");
        for threads in [1, 2, 3] {
            for cut in [0, 1, 700, 1600, 2999, 3000] {
                let mut grown = Corpus::new();
                assert_eq!(grown.append_texts(&texts[..cut], threads), cut);
                let rest = &texts[cut..];
                assert_eq!(grown.append_texts(rest, threads), rest.len());
                check(&grown, &format!("threads={threads} cut={cut}"));
            }
        }
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
