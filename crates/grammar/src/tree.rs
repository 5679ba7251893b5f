//! The TreeMatch grammar (paper Definition 3).
//!
//! Terminals are corpus tokens and universal POS tags; the operations are
//! `Child` (`a/b`: `b` is a child of `a` in the dependency tree),
//! `Descendant` (`a//b`), and `And` (`p ∧ q`: both patterns hold at the same
//! tree node). The paper's example heuristic for professions is
//! `is/NOUN ∧ job`.
//!
//! The textual syntax accepted by [`TreePattern::parse`] uses `&` for `∧`;
//! `/` and `//` bind tighter than `&`, and parentheses group.

use darwin_text::{PosTag, Sentence, Sym, Vocab};

/// A TreeMatch terminal: a literal token or a POS tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TreeTerm {
    Tok(Sym),
    Pos(PosTag),
}

impl TreeTerm {
    /// Does tree node `i` of `s` satisfy this terminal?
    #[inline]
    pub fn matches_node(&self, s: &Sentence, i: usize) -> bool {
        match self {
            TreeTerm::Tok(t) => s.tokens()[i] == *t,
            TreeTerm::Pos(p) => s.tags()[i] == *p,
        }
    }
}

/// A TreeMatch derivation.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TreePattern {
    Term(TreeTerm),
    /// `a / b` — the pattern `b` holds at some child of the node where `a` holds.
    Child(Box<TreePattern>, Box<TreePattern>),
    /// `a // b` — `b` holds at some proper descendant.
    Desc(Box<TreePattern>, Box<TreePattern>),
    /// `p & q` — both hold at the same node.
    And(Box<TreePattern>, Box<TreePattern>),
}

impl TreePattern {
    pub fn term_tok(s: Sym) -> TreePattern {
        TreePattern::Term(TreeTerm::Tok(s))
    }

    pub fn term_pos(p: PosTag) -> TreePattern {
        TreePattern::Term(TreeTerm::Pos(p))
    }

    pub fn child(a: TreePattern, b: TreePattern) -> TreePattern {
        TreePattern::Child(Box::new(a), Box::new(b))
    }

    pub fn desc(a: TreePattern, b: TreePattern) -> TreePattern {
        TreePattern::Desc(Box::new(a), Box::new(b))
    }

    pub fn and(a: TreePattern, b: TreePattern) -> TreePattern {
        TreePattern::And(Box::new(a), Box::new(b))
    }

    /// Number of grammar derivation steps (one per terminal, one per operator).
    pub fn derivation_steps(&self) -> usize {
        match self {
            TreePattern::Term(_) => 1,
            TreePattern::Child(a, b) | TreePattern::Desc(a, b) | TreePattern::And(a, b) => {
                1 + a.derivation_steps() + b.derivation_steps()
            }
        }
    }

    /// Does the pattern hold at tree node `i`? Plain recursion over the
    /// corpus-resident CSR adjacency.
    pub fn matches_at(&self, s: Sentence<'_>, i: usize) -> bool {
        match self {
            TreePattern::Term(t) => t.matches_node(&s, i),
            TreePattern::Child(a, b) => {
                a.matches_at(s, i) && s.children(i).any(|c| b.matches_at(s, c))
            }
            TreePattern::Desc(a, b) => {
                a.matches_at(s, i) && s.descendants(i).iter().any(|&d| b.matches_at(s, d))
            }
            TreePattern::And(a, b) => a.matches_at(s, i) && b.matches_at(s, i),
        }
    }

    /// Does `sentence` satisfy this heuristic (the pattern holds at any node)?
    pub fn matches(&self, sentence: Sentence<'_>) -> bool {
        (0..sentence.len()).any(|i| self.matches_at(sentence, i))
    }
}

impl TreePattern {
    /// Parse the textual syntax (see module docs). Upper-case identifiers
    /// are POS tags, everything else is a vocabulary token.
    pub fn parse(vocab: &Vocab, input: &str) -> Result<TreePattern, super::ParseError> {
        let toks = lex(input)?;
        let mut p = Parser {
            toks: &toks,
            pos: 0,
            vocab,
        };
        let pat = p.parse_and()?;
        if p.pos != p.toks.len() {
            return Err(super::ParseError::Syntax(format!(
                "unexpected trailing input at token {}",
                p.pos
            )));
        }
        Ok(pat)
    }

    /// Render back to parseable text.
    pub fn display(&self, vocab: &Vocab) -> String {
        fn go(p: &TreePattern, vocab: &Vocab, parent_is_path: bool, out: &mut String) {
            match p {
                TreePattern::Term(TreeTerm::Tok(s)) => out.push_str(vocab.resolve(*s)),
                TreePattern::Term(TreeTerm::Pos(t)) => out.push_str(t.name()),
                TreePattern::Child(a, b) | TreePattern::Desc(a, b) => {
                    go(a, vocab, true, out);
                    out.push_str(if matches!(p, TreePattern::Child(..)) {
                        "/"
                    } else {
                        "//"
                    });
                    // Right operand of a path must be atomic or parenthesized.
                    if matches!(**b, TreePattern::Term(_)) {
                        go(b, vocab, true, out);
                    } else {
                        out.push('(');
                        go(b, vocab, false, out);
                        out.push(')');
                    }
                }
                TreePattern::And(a, b) => {
                    if parent_is_path {
                        out.push('(');
                    }
                    go(a, vocab, false, out);
                    out.push_str(" & ");
                    go(b, vocab, false, out);
                    if parent_is_path {
                        out.push(')');
                    }
                }
            }
        }
        let mut out = String::new();
        go(self, vocab, false, &mut out);
        out
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Lexeme {
    Ident(String),
    Slash,
    DoubleSlash,
    Amp,
    LParen,
    RParen,
}

fn lex(input: &str) -> Result<Vec<Lexeme>, super::ParseError> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' => i += 1,
            '/' => {
                if chars.get(i + 1) == Some(&'/') {
                    out.push(Lexeme::DoubleSlash);
                    i += 2;
                } else {
                    out.push(Lexeme::Slash);
                    i += 1;
                }
            }
            '&' | '∧' => {
                out.push(Lexeme::Amp);
                i += 1;
            }
            '(' => {
                out.push(Lexeme::LParen);
                i += 1;
            }
            ')' => {
                out.push(Lexeme::RParen);
                i += 1;
            }
            _ => {
                let start = i;
                while i < chars.len() && !"/&∧() \t".contains(chars[i]) {
                    i += 1;
                }
                out.push(Lexeme::Ident(chars[start..i].iter().collect()));
            }
        }
    }
    if out.is_empty() {
        return Err(super::ParseError::Empty);
    }
    Ok(out)
}

struct Parser<'a> {
    toks: &'a [Lexeme],
    pos: usize,
    vocab: &'a Vocab,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Lexeme> {
        self.toks.get(self.pos)
    }

    fn parse_and(&mut self) -> Result<TreePattern, super::ParseError> {
        let mut left = self.parse_path()?;
        while self.peek() == Some(&Lexeme::Amp) {
            self.pos += 1;
            let right = self.parse_path()?;
            left = TreePattern::and(left, right);
        }
        Ok(left)
    }

    fn parse_path(&mut self) -> Result<TreePattern, super::ParseError> {
        let mut left = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(Lexeme::Slash) => {
                    self.pos += 1;
                    let right = self.parse_atom()?;
                    left = TreePattern::child(left, right);
                }
                Some(Lexeme::DoubleSlash) => {
                    self.pos += 1;
                    let right = self.parse_atom()?;
                    left = TreePattern::desc(left, right);
                }
                _ => return Ok(left),
            }
        }
    }

    fn parse_atom(&mut self) -> Result<TreePattern, super::ParseError> {
        match self.peek().cloned() {
            Some(Lexeme::LParen) => {
                self.pos += 1;
                let inner = self.parse_and()?;
                if self.peek() != Some(&Lexeme::RParen) {
                    return Err(super::ParseError::Syntax("expected ')'".into()));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(Lexeme::Ident(id)) => {
                self.pos += 1;
                if id.chars().all(|c| c.is_ascii_uppercase()) {
                    let tag: PosTag = id
                        .parse()
                        .map_err(|_| super::ParseError::Syntax(format!("unknown POS tag {id}")))?;
                    Ok(TreePattern::term_pos(tag))
                } else {
                    let sym = self
                        .vocab
                        .get(&id)
                        .ok_or(super::ParseError::UnknownToken(id))?;
                    Ok(TreePattern::term_tok(sym))
                }
            }
            other => Err(super::ParseError::Syntax(format!("unexpected {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_text::Corpus;

    fn setup() -> Corpus {
        Corpus::from_texts([
            "uber is the best way to our hotel",
            "his job is a teacher at the school",
            "the storm caused the outage",
            "what is the best way to order food",
        ])
    }

    fn pat(c: &Corpus, s: &str) -> TreePattern {
        TreePattern::parse(c.vocab(), s).unwrap()
    }

    #[test]
    fn term_matches() {
        let c = setup();
        assert!(pat(&c, "uber").matches(c.sentence(0)));
        assert!(!pat(&c, "uber").matches(c.sentence(1)));
        assert!(pat(&c, "VERB").matches(c.sentence(0)));
    }

    #[test]
    fn child_follows_tree_edges() {
        let c = setup();
        // In "uber is the best way to our hotel", "way" is a child of "is"
        // and "best" a child of "way".
        assert!(pat(&c, "is/way").matches(c.sentence(0)));
        assert!(pat(&c, "way/best").matches(c.sentence(0)));
        assert!(
            !pat(&c, "best/way").matches(c.sentence(0)),
            "edge direction matters"
        );
    }

    #[test]
    fn descendant_reaches_deeper() {
        let c = setup();
        // "hotel" is a grandchild of "way" (via "to"), so // matches but / does not.
        assert!(pat(&c, "is//hotel").matches(c.sentence(0)));
        assert!(pat(&c, "way//hotel").matches(c.sentence(0)));
        assert!(!pat(&c, "way/hotel").matches(c.sentence(0)));
    }

    #[test]
    fn and_requires_same_node() {
        let c = setup();
        // Node "way": NOUN with child "best" and child "to".
        assert!(pat(&c, "NOUN & way").matches(c.sentence(0)));
        assert!(pat(&c, "way/best & way/to").matches(c.sentence(0)));
        assert!(!pat(&c, "uber & hotel").matches(c.sentence(0)));
    }

    #[test]
    fn paper_profession_style_pattern() {
        let c = setup();
        // `is/NOUN & is//job`-ish: "is" with a NOUN child, and "job" below.
        let p = pat(&c, "is/NOUN & is//job");
        assert!(p.matches(c.sentence(1)));
        assert!(!p.matches(c.sentence(0)));
    }

    #[test]
    fn parse_display_roundtrip() {
        let c = setup();
        for s in [
            "uber",
            "NOUN",
            "is/way",
            "is//hotel",
            "NOUN & way",
            "way/best & way/to",
            "is/(NOUN & way)",
            "is/way/best",
        ] {
            let p = pat(&c, s);
            let shown = p.display(c.vocab());
            let reparsed = TreePattern::parse(c.vocab(), &shown).unwrap();
            assert_eq!(p, reparsed, "roundtrip failed for {s} -> {shown}");
        }
    }

    #[test]
    fn parse_errors() {
        let c = setup();
        assert!(matches!(
            TreePattern::parse(c.vocab(), ""),
            Err(crate::ParseError::Empty)
        ));
        assert!(matches!(
            TreePattern::parse(c.vocab(), "zeppelin"),
            Err(crate::ParseError::UnknownToken(_))
        ));
        assert!(matches!(
            TreePattern::parse(c.vocab(), "QQQQ"),
            Err(crate::ParseError::Syntax(_))
        ));
        assert!(matches!(
            TreePattern::parse(c.vocab(), "(is/way"),
            Err(crate::ParseError::Syntax(_))
        ));
        assert!(matches!(
            TreePattern::parse(c.vocab(), "is/way)"),
            Err(crate::ParseError::Syntax(_))
        ));
    }

    #[test]
    fn unicode_and_operator() {
        let c = setup();
        assert_eq!(pat(&c, "NOUN ∧ way"), pat(&c, "NOUN & way"));
    }

    #[test]
    fn derivation_steps() {
        let c = setup();
        assert_eq!(pat(&c, "uber").derivation_steps(), 1);
        assert_eq!(pat(&c, "is/way").derivation_steps(), 3);
        assert_eq!(pat(&c, "way/best & way/to").derivation_steps(), 7);
    }

    #[test]
    fn slash_binds_tighter_than_amp() {
        let c = setup();
        let p = pat(&c, "is/way & is/uber");
        match p {
            TreePattern::And(a, b) => {
                assert!(matches!(*a, TreePattern::Child(..)));
                assert!(matches!(*b, TreePattern::Child(..)));
            }
            other => panic!("expected And at top, got {other:?}"),
        }
    }
}
