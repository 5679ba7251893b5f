//! NLP substrate for Darwin.
//!
//! The Darwin paper uses SpaCy for tokenization, part-of-speech tagging,
//! dependency parsing and word embeddings. This crate provides deterministic,
//! dependency-free Rust replacements for all four, exposing exactly the
//! information the heuristic grammars (`darwin-grammar`) and the benefit
//! classifier (`darwin-classifier`) consume:
//!
//! * [`tokenize`] — a whitespace/punctuation tokenizer,
//! * [`vocab::Vocab`] — an interned vocabulary mapping tokens to dense
//!   [`vocab::Sym`] ids,
//! * [`pos::Tagger`] — a lexicon + suffix rule tagger over the universal POS
//!   tagset (Petrov et al., as cited by the paper),
//! * [`depparse`] — a deterministic head-attachment dependency parser,
//! * [`corpus::Corpus`] — the container Darwin operates over: empty, then
//!   grown by `append_texts` (analysis fans out through
//!   [`fanout::map_chunks`], the workspace's one ordered scoped join),
//! * [`embed::Embeddings`] — reflective random-indexing word vectors whose
//!   similarity reflects corpus co-occurrence (the property UniversalSearch
//!   relies on to generalize `bus` → `shuttle`).

pub mod corpus;
pub mod depparse;
pub mod embed;
pub mod fanout;
pub mod pos;
pub mod sentence;
pub mod tokenize;
pub mod vocab;

pub use corpus::Corpus;
pub use embed::Embeddings;
pub use pos::PosTag;
pub use sentence::Sentence;
pub use vocab::{Sym, Vocab};
