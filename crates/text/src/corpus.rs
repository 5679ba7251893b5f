//! Corpus container and (parallel) linguistic preprocessing.

use crate::depparse;
use crate::fanout::map_chunks;
use crate::pos::{PosTag, Tagger};
use crate::sentence::Sentence;
use crate::tokenize;
use crate::vocab::{Sym, Vocab};
use std::collections::HashMap;

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
    /// so far — not on how it was split into calls, nor on `threads`.
    /// One [`map_chunks`] pass analyzes the batch on `threads` workers:
    /// each resolves its texts' tokens against the vocabulary as it stood
    /// when the batch started (read only), tags, parses and builds the
    /// sentences, naming the words the vocabulary lacks. Then one serial
    /// loop in input order numbers those words — so symbols keep their
    /// first-occurrence order — counts frequencies and numbers the
    /// sentences. Pre-existing sentences, symbol ids and the vocabulary
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
        let (vocab, base_tags) = (&self.vocab, &self.base_tags[..]);
        let chunks = map_chunks(&texts, threads, MIN_FAN_OUT, |chunk| {
            vec![analyze(vocab, base_tags, chunk)]
        });

        let mut id = self.sentences.len() as u32;
        for mut chunk in chunks {
            // A word an earlier chunk numbered is found here, not renumbered.
            let syms: Vec<Sym> = (chunk.misses.iter())
                .map(|(word, tag)| {
                    let s = self.vocab.number(word);
                    if s.index() == self.base_tags.len() {
                        self.base_tags.push(*tag);
                    }
                    s
                })
                .collect();
            assert!(
                self.vocab.len() <= MISS as usize,
                "vocabulary overflows the miss flag"
            );
            for s in &mut chunk.sentences {
                for t in &mut s.tokens {
                    if t.0 & MISS != 0 {
                        *t = syms[(t.0 & !MISS) as usize];
                    }
                    self.vocab.count(*t);
                }
                (s.id, id) = (id, id + 1);
            }
            // A build into an empty corpus keeps the first chunk's buffer.
            if self.sentences.is_empty() {
                std::mem::swap(&mut self.sentences, &mut chunk.sentences);
            }
            self.sentences.append(&mut chunk.sentences);
        }
        texts.len()
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

/// Token flag in an [`Analyzed`] sentence: `MISS | i` names `misses[i]`;
/// a token without it is a symbol that existed before the batch.
const MISS: u32 = 1 << 31;

/// One chunk of a batch, analyzed by a worker.
struct Analyzed {
    /// One sentence per text, id unset, tokens as `MISS`-flagged words.
    sentences: Vec<Sentence>,
    /// The words the vocabulary lacked, each named once, in
    /// first-occurrence order, with its [`Tagger::tag_word`].
    misses: Vec<(Box<str>, PosTag)>,
}

/// The worker half of [`Corpus::append_texts`]: tokenize `texts`, resolve
/// every token against `vocab` (read only) — a hit to its symbol and
/// cached base tag, a miss to a `MISS` word — then tag, parse and build
/// each sentence.
fn analyze(vocab: &Vocab, base_tags: &[PosTag], texts: &[&str]) -> Analyzed {
    let (mut missed, mut misses) = (HashMap::<Box<str>, u32>::new(), Vec::new());
    // Per-sentence scratch, copied out at exact length.
    let (mut tokens, mut tags, mut is_to) = (Vec::new(), Vec::new(), Vec::new());
    let sentences = (texts.iter())
        .map(|text| {
            tokens.clear();
            tags.clear();
            is_to.clear();
            tokenize::for_each_token(text, |t| {
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
                        (Sym(MISS | i as u32), misses[i].1)
                    }
                };
                tokens.push(sym);
                tags.push(tag);
                is_to.push(t == "to");
            });
            Tagger::repair(&mut tags, |j| is_to[j]);
            let heads = depparse::parse(&tags);
            Sentence::new(0, tokens.clone(), tags.clone(), heads)
        })
        .collect();
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

    /// The per-sentence analyzer: tokenize, intern, tag and parse one
    /// text at a time, in input order.
    fn reference(texts: &[String]) -> (Vocab, Vec<Sentence>) {
        let mut vocab = Vocab::new();
        let sentences = (0u32..)
            .zip(texts)
            .map(|(id, text)| {
                let words = tokenize::tokenize(text);
                let tokens = words.iter().map(|w| vocab.intern(w)).collect();
                let tags = Tagger::tag(&words);
                let heads = depparse::parse(&tags);
                Sentence::new(id, tokens, tags, heads)
            })
            .collect();
        (vocab, sentences)
    }

    /// 3 000 texts, past the fan-out threshold, so chunks really split:
    /// "zebra" is new only to the later chunks, "quokka" is missed by
    /// several chunks and repeated within a sentence, "to" is first seen
    /// at text 1 500, and the specials exercise folding, peeled and
    /// split punctuation, and empty texts.
    fn fixture() -> Vec<String> {
        let specials = [
            "",
            "  \t\n ",
            "Really?! \"hello\" what's the check-in at the Café?",
            "ΟΔΟΣ (Check-In/OUT) … ΟΔΟΣ",
        ];
        (0..3000)
            .map(|i| {
                let mut t = match i % 97 {
                    0 => specials[(i / 97) % specials.len()].to_string(),
                    _ => format!(
                        "Sentence {} rides the {} downtown",
                        i % 37,
                        ["bus", "shuttle", "TRAM"][i % 3]
                    ),
                };
                if i >= 1500 && i % 5 == 0 {
                    t.push_str(" to get to the airport");
                }
                if i >= 2500 && i % 7 == 0 {
                    t.push_str(" with a zebra");
                }
                if [100, 1400, 2900].contains(&i) {
                    t.push_str(" and a quokka, QUOKKA!");
                }
                t
            })
            .collect()
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
            for (g, w) in c.sentences().iter().zip(&sentences) {
                assert_eq!(g.id, w.id, "{label}");
                assert_eq!(g.tokens, w.tokens, "{label}: tokens of {}", w.id);
                assert_eq!(g.tags, w.tags, "{label}: tags of {}", w.id);
                assert_eq!(g.heads, w.heads, "{label}: heads of {}", w.id);
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
