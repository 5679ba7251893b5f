//! The unified labeling-heuristic type.

use crate::phrase::PhrasePattern;
use crate::tree::TreePattern;
use darwin_text::{Corpus, Sentence, Vocab};

/// Errors from parsing a heuristic out of its textual form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A token in the pattern does not occur in the corpus vocabulary (such
    /// a rule could never match anything).
    UnknownToken(String),
    /// Structurally invalid pattern text.
    Syntax(String),
    /// Empty input.
    Empty,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownToken(t) => write!(f, "token not in corpus vocabulary: {t:?}"),
            ParseError::Syntax(m) => write!(f, "syntax error: {m}"),
            ParseError::Empty => write!(f, "empty pattern"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A labeling heuristic: a derivation of one of the registered heuristic
/// grammars (paper Definition 2). `Cr` — the set of sentences satisfying a
/// heuristic `r` — is computed either directly ([`Heuristic::matches`]) or
/// through the index (`darwin-index`).
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Heuristic {
    /// A TokensRegex derivation.
    Phrase(PhrasePattern),
    /// A TreeMatch derivation.
    Tree(TreePattern),
}

impl Heuristic {
    /// Parse a TokensRegex heuristic, e.g. `"best way to"` or `"caused + by"`.
    pub fn phrase(corpus: &Corpus, text: &str) -> Result<Heuristic, ParseError> {
        Ok(Heuristic::Phrase(PhrasePattern::parse(
            corpus.vocab(),
            text,
        )?))
    }

    /// Parse a TreeMatch heuristic, e.g. `"is/NOUN & is//job"`.
    pub fn tree(corpus: &Corpus, text: &str) -> Result<Heuristic, ParseError> {
        Ok(Heuristic::Tree(TreePattern::parse(corpus.vocab(), text)?))
    }

    /// Does `sentence` satisfy the heuristic?
    pub fn matches(&self, sentence: Sentence<'_>) -> bool {
        match self {
            Heuristic::Phrase(p) => p.matches(sentence),
            Heuristic::Tree(t) => t.matches(sentence),
        }
    }

    /// Brute-force coverage: ids of all corpus sentences satisfying the
    /// heuristic. The index provides the fast path; this is the reference
    /// implementation used in tests and for out-of-index heuristics.
    pub fn coverage(&self, corpus: &Corpus) -> Vec<u32> {
        corpus
            .sentences()
            .filter(|&s| self.matches(s))
            .map(|s| s.id())
            .collect()
    }

    /// Derivation length under the owning grammar.
    pub fn derivation_steps(&self) -> usize {
        match self {
            Heuristic::Phrase(p) => p.derivation_steps(),
            Heuristic::Tree(t) => t.derivation_steps(),
        }
    }

    /// Grammar name, for display.
    pub fn grammar_name(&self) -> &'static str {
        match self {
            Heuristic::Phrase(_) => "TokensRegex",
            Heuristic::Tree(_) => "TreeMatch",
        }
    }

    /// Render to the textual form accepted by the corresponding parser.
    pub fn display(&self, vocab: &Vocab) -> String {
        match self {
            Heuristic::Phrase(p) => p.display(vocab),
            Heuristic::Tree(t) => t.display(vocab),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_text::Corpus;

    fn setup() -> Corpus {
        Corpus::from_texts([
            "what is the best way to get to sfo airport",
            "is there a bart from sfo to the hotel",
            "what is the best way to check in there",
            "his job is a teacher at the school",
        ])
    }

    #[test]
    fn coverage_matches_paper_example() {
        let c = setup();
        let h = Heuristic::phrase(&c, "best way to").unwrap();
        assert_eq!(h.coverage(&c), vec![0, 2]);
    }

    #[test]
    fn tree_heuristic_end_to_end() {
        let c = setup();
        let h = Heuristic::tree(&c, "is//job").unwrap();
        assert_eq!(h.coverage(&c), vec![3]);
        assert_eq!(h.grammar_name(), "TreeMatch");
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let c = setup();
        let h = Heuristic::phrase(&c, "best way to").unwrap();
        assert_eq!(Heuristic::phrase(&c, &h.display(c.vocab())).unwrap(), h);
        let t = Heuristic::tree(&c, "is/NOUN & is//job").unwrap();
        assert_eq!(Heuristic::tree(&c, &t.display(c.vocab())).unwrap(), t);
    }

    #[test]
    fn parse_error_display() {
        let c = setup();
        let err = Heuristic::phrase(&c, "zeppelin").unwrap_err();
        assert!(err.to_string().contains("zeppelin"));
    }
}
