//! The TokensRegex grammar (paper Example 2).
//!
//! ```text
//! A → v A   (∀ v ∈ V)      a literal token
//! A → A + A                one-or-more arbitrary tokens between the parts
//! A → A * A                zero-or-more arbitrary tokens between the parts
//! A → ε
//! ```
//!
//! A pattern made only of literal tokens matches any sentence containing
//! that contiguous phrase ("best way to" matches s1, s3, s6 of Example 1);
//! `+`/`*` insert bounded-anywhere gaps ("caused + by" matches "caused
//! mostly by").

use darwin_text::{Sentence, Sym, Vocab};

/// One element of a token-level pattern.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum PhraseElem {
    /// A literal token.
    Tok(Sym),
    /// `+`: one or more arbitrary tokens.
    Plus,
    /// `*`: zero or more arbitrary tokens.
    Star,
}

/// A TokensRegex derivation: a sequence of literals and gap operators.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PhrasePattern {
    pub elems: Vec<PhraseElem>,
}

impl PhrasePattern {
    /// A pure-literal phrase (the common case; what the index stores).
    pub fn from_tokens(tokens: impl IntoIterator<Item = Sym>) -> PhrasePattern {
        PhrasePattern {
            elems: tokens.into_iter().map(PhraseElem::Tok).collect(),
        }
    }

    /// The literal tokens, ignoring gaps.
    pub fn tokens(&self) -> impl Iterator<Item = Sym> + '_ {
        self.elems.iter().filter_map(|e| match e {
            PhraseElem::Tok(s) => Some(*s),
            _ => None,
        })
    }

    /// True if the pattern is a plain contiguous phrase (no gap operators).
    pub fn is_contiguous(&self) -> bool {
        self.elems.iter().all(|e| matches!(e, PhraseElem::Tok(_)))
    }

    /// Number of grammar derivation steps used to produce this pattern
    /// (one `A → vA` per literal, one binary rule per operator, plus the
    /// closing `A → ε`).
    pub fn derivation_steps(&self) -> usize {
        self.elems.len() + 1
    }

    pub fn len(&self) -> usize {
        self.elems.len()
    }

    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Does `sentence` satisfy this heuristic? The pattern may match
    /// starting at any token (substring semantics, like the paper's
    /// "a sentence satisfies the heuristic if it contains that phrase").
    pub fn matches(&self, sentence: Sentence<'_>) -> bool {
        if self.elems.is_empty() {
            return true; // ε matches everything (the root heuristic `*`).
        }
        let toks = sentence.tokens();
        (0..=toks.len()).any(|start| match_at(&self.elems, toks, start, true))
    }

    /// Parse from a whitespace-separated string: `+` and `*` become gap
    /// operators, everything else must be a vocabulary token.
    pub fn parse(vocab: &Vocab, s: &str) -> Result<PhrasePattern, super::ParseError> {
        let mut elems = Vec::new();
        for part in s.split_whitespace() {
            elems.push(match part {
                "+" => PhraseElem::Plus,
                "*" => PhraseElem::Star,
                tok => PhraseElem::Tok(
                    vocab
                        .get(tok)
                        .ok_or_else(|| super::ParseError::UnknownToken(tok.into()))?,
                ),
            });
        }
        if elems.is_empty() {
            return Err(super::ParseError::Empty);
        }
        Ok(PhrasePattern { elems })
    }

    /// Render back to the textual form accepted by [`PhrasePattern::parse`].
    pub fn display(&self, vocab: &Vocab) -> String {
        let mut out = String::new();
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match e {
                PhraseElem::Tok(s) => out.push_str(vocab.resolve(*s)),
                PhraseElem::Plus => out.push('+'),
                PhraseElem::Star => out.push('*'),
            }
        }
        out
    }
}

/// Backtracking matcher. `anchored` pins the first literal to `pos`; gap
/// operators then re-enable floating within their span.
fn match_at(elems: &[PhraseElem], toks: &[Sym], pos: usize, anchored: bool) -> bool {
    let Some((first, rest)) = elems.split_first() else {
        return true;
    };
    match first {
        PhraseElem::Tok(want) => {
            if anchored {
                pos < toks.len() && toks[pos] == *want && match_at(rest, toks, pos + 1, true)
            } else {
                // Float: find the next occurrence of `want` at or after pos.
                (pos..toks.len())
                    .filter(|&p| toks[p] == *want)
                    .any(|p| match_at(rest, toks, p + 1, true))
            }
        }
        PhraseElem::Plus => pos < toks.len() && match_at(rest, toks, pos + 1, false),
        PhraseElem::Star => match_at(rest, toks, pos, false),
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
            "the outage was caused mostly by the storm",
            "the fire was caused by lightning",
        ])
    }

    fn pat(c: &Corpus, s: &str) -> PhrasePattern {
        PhrasePattern::parse(c.vocab(), s).unwrap()
    }

    #[test]
    fn contiguous_phrase_matches_substring() {
        let c = setup();
        let p = pat(&c, "best way to");
        assert!(p.matches(c.sentence(0)));
        assert!(!p.matches(c.sentence(1)));
        assert!(p.matches(c.sentence(2)));
    }

    #[test]
    fn phrase_must_be_contiguous() {
        let c = setup();
        let p = pat(&c, "best way sfo");
        assert!(
            !p.matches(c.sentence(0)),
            "tokens present but not contiguous"
        );
    }

    #[test]
    fn plus_gap_requires_at_least_one_token() {
        let c = setup();
        let gap = pat(&c, "caused + by");
        assert!(gap.matches(c.sentence(3)), "caused mostly by");
        assert!(
            !gap.matches(c.sentence(4)),
            "caused by is adjacent; + needs a gap"
        );
        let star = pat(&c, "caused * by");
        assert!(star.matches(c.sentence(3)));
        assert!(star.matches(c.sentence(4)));
    }

    #[test]
    fn parse_display_roundtrip() {
        let c = setup();
        for s in ["best way to", "caused + by", "caused * by the", "sfo"] {
            let p = pat(&c, s);
            assert_eq!(p.display(c.vocab()), s);
            assert_eq!(
                PhrasePattern::parse(c.vocab(), &p.display(c.vocab())).unwrap(),
                p
            );
        }
    }

    #[test]
    fn unknown_token_is_an_error() {
        let c = setup();
        assert!(matches!(
            PhrasePattern::parse(c.vocab(), "zeppelin rides"),
            Err(super::super::ParseError::UnknownToken(_))
        ));
        assert!(matches!(
            PhrasePattern::parse(c.vocab(), "  "),
            Err(super::super::ParseError::Empty)
        ));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let c = setup();
        let p = PhrasePattern { elems: vec![] };
        for s in c.sentences() {
            assert!(p.matches(s));
        }
    }

    #[test]
    fn repeated_token_backtracking() {
        // "to get to sfo": pattern "to sfo" must match via the second "to".
        let c = setup();
        let p = pat(&c, "to sfo");
        assert!(p.matches(c.sentence(0)));
        let p2 = pat(&c, "to + sfo");
        assert!(p2.matches(c.sentence(0)), "to get ... sfo via first 'to'");
    }

    #[test]
    fn derivation_steps_counts_elems() {
        let c = setup();
        assert_eq!(pat(&c, "best way to").derivation_steps(), 4);
        assert_eq!(pat(&c, "caused + by").derivation_steps(), 4);
    }

    #[test]
    fn gap_at_ends() {
        let c = setup();
        // Trailing + requires a token after "by".
        let p = pat(&c, "by +");
        assert!(p.matches(c.sentence(3)), "by the storm");
        // Sentence 4 ends with "lightning" after "by" so it also matches.
        assert!(p.matches(c.sentence(4)));
        // Leading star.
        let p2 = pat(&c, "* bart");
        assert!(p2.matches(c.sentence(1)));
    }
}
