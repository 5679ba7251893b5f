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
    /// corpus-resident CSR adjacency; [`MatchCtx`] is the amortized kernel
    /// for whole-sentence sweeps.
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

/// Reusable whole-sentence match scratch — the tree match kernel.
///
/// The plain [`TreePattern::matches`] recursion re-derives a subpattern's
/// verdict at the same tree node once per anchor whose `Child`/`Desc` walk
/// reaches it, and every `Desc` step allocates a descendants `Vec`.
/// `MatchCtx` memoizes composite-subpattern (pattern node × token)
/// verdicts in a flat arena and walks descendants over the sentence's CSR
/// adjacency with a reusable stack, so sweeping all anchors costs each
/// subpattern at most once per token and allocates nothing after warm-up.
/// Term leaves and the root skip the arena — a leaf recomputes cheaper
/// than it probes, and the root is reached once per anchor.
///
/// Verdicts are bit-identical to the plain recursion: every memo cell is a
/// pure function of (pattern node, sentence, token), and the descendant
/// walk visits the same nodes in the same order as
/// [`Sentence::descendants`] (pop from the tail, push children ascending).
/// The property suite pins this equivalence on arbitrary trees.
#[derive(Default)]
pub struct MatchCtx {
    /// node×token verdict arena: 0 unknown, 1 no, 2 yes.
    memo: Vec<u8>,
    /// Pre-order subtree sizes of the currently bound pattern; node ids are
    /// pre-order positions, so node `n`'s children sit at `n + 1` and
    /// `n + 1 + sizes[n + 1]`.
    sizes: Vec<u32>,
    /// Descendant-walk scratch, segmented by recursion depth.
    stack: Vec<u16>,
}

impl MatchCtx {
    pub fn new() -> MatchCtx {
        MatchCtx::default()
    }

    /// Does the pattern hold at any node of `s`? Equivalent to
    /// [`TreePattern::matches`], amortized over all anchors.
    pub fn matches(&mut self, p: &TreePattern, s: Sentence<'_>) -> bool {
        self.bind(p, &s);
        (0..s.len()).any(|i| self.eval(p, 0, &s, i))
    }

    /// Does the pattern hold at node `i`? Equivalent to
    /// [`TreePattern::matches_at`]. Rebinds the arena, so prefer
    /// [`MatchCtx::matches`] when sweeping anchors.
    pub fn matches_at(&mut self, p: &TreePattern, s: Sentence<'_>, i: usize) -> bool {
        self.bind(p, &s);
        self.eval(p, 0, &s, i)
    }

    fn bind(&mut self, p: &TreePattern, s: &Sentence) {
        fn layout(p: &TreePattern, sizes: &mut Vec<u32>) -> u32 {
            let me = sizes.len();
            sizes.push(1);
            if let TreePattern::Child(a, b) | TreePattern::Desc(a, b) | TreePattern::And(a, b) = p {
                let sz = 1 + layout(a, sizes) + layout(b, sizes);
                sizes[me] = sz;
                sz
            } else {
                1
            }
        }
        self.sizes.clear();
        layout(p, &mut self.sizes);
        self.memo.clear();
        // Memo cells only ever pay off on *composite* subpatterns strictly
        // below the root: the root is evaluated once per anchor and Term
        // nodes are cheaper to recompute than to probe (both bypass the
        // memo in `eval`). Small patterns — the bulk of the enumerated
        // family — thus skip the arena memset altogether.
        let needs_memo = match p {
            TreePattern::Term(_) => false,
            TreePattern::Child(a, b) | TreePattern::Desc(a, b) | TreePattern::And(a, b) => {
                !matches!(**a, TreePattern::Term(_)) || !matches!(**b, TreePattern::Term(_))
            }
        };
        if needs_memo {
            self.memo.resize(self.sizes.len() * s.len(), 0);
        }
        self.stack.clear();
    }

    fn eval(&mut self, p: &TreePattern, node: usize, s: &Sentence, i: usize) -> bool {
        // Terms bypass the memo: one load+compare beats a probe and a
        // store. The root (node 0) does too — `matches` reaches it exactly
        // once per anchor, so its cells could never be re-read.
        if let TreePattern::Term(t) = p {
            return t.matches_node(s, i);
        }
        let cell = node * s.len() + i;
        if node != 0 {
            match self.memo[cell] {
                1 => return false,
                2 => return true,
                _ => {}
            }
        }
        let hit = match p {
            TreePattern::Term(_) => unreachable!("terms return before the memo probe"),
            TreePattern::And(a, b) => {
                self.eval(a, node + 1, s, i)
                    && self.eval(b, node + 1 + self.sizes[node + 1] as usize, s, i)
            }
            TreePattern::Child(a, b) => {
                self.eval(a, node + 1, s, i) && {
                    let bn = node + 1 + self.sizes[node + 1] as usize;
                    let mut found = false;
                    for &c in s.children_slice(i) {
                        if self.eval(b, bn, s, c as usize) {
                            found = true;
                            break;
                        }
                    }
                    found
                }
            }
            TreePattern::Desc(a, b) => {
                self.eval(a, node + 1, s, i) && {
                    let bn = node + 1 + self.sizes[node + 1] as usize;
                    let base = self.stack.len();
                    self.stack.extend_from_slice(s.children_slice(i));
                    let mut found = false;
                    while self.stack.len() > base {
                        let d = self.stack.pop().expect("stack above base") as usize;
                        if self.eval(b, bn, s, d) {
                            found = true;
                            break;
                        }
                        self.stack.extend_from_slice(s.children_slice(d));
                    }
                    self.stack.truncate(base);
                    found
                }
            }
        };
        if node != 0 {
            self.memo[cell] = if hit { 2 } else { 1 };
        }
        hit
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
