//! Tokenization.
//!
//! A deterministic, lossless-enough tokenizer for the labeling workloads in
//! the paper: lowercases, splits on whitespace, splits leading/trailing
//! punctuation into their own tokens, and keeps word-internal apostrophes and
//! hyphens (`what's`, `check-in`) as single tokens, mirroring how SpaCy's
//! tokenizer treats the hotel-concierge questions of Example 1.

/// Tokenize `text` into lowercase tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::with_capacity(text.len() / 5 + 1);
    for_each_token(text, |t| out.push(t.to_string()));
    out
}

/// Visit the lowercase tokens of `text` in order — the tokens
/// [`tokenize`] returns, without a `String` each: a token is a slice of
/// `text` unless its whitespace-separated word needed case folding, which
/// builds one lowercased copy of that word's core.
pub fn for_each_token(text: &str, mut visit: impl FnMut(&str)) {
    for raw in text.split_whitespace() {
        split_token(raw, &mut visit);
    }
}

/// True for characters that should become standalone punctuation tokens.
fn is_punct(c: char) -> bool {
    matches!(
        c,
        '.' | ','
            | '!'
            | '?'
            | ';'
            | ':'
            | '('
            | ')'
            | '['
            | ']'
            | '{'
            | '}'
            | '"'
            | '…'
            | '“'
            | '”'
            | '‘'
            | '’'
    ) || (c == '\'' || c == '`')
}

/// True for characters allowed inside a word token.
fn is_word_internal(c: char) -> bool {
    c.is_alphanumeric() || c == '\'' || c == '-'
}

/// Visit each character of `s` as its own token (punctuation is caseless,
/// so it needs no folding).
fn each_char(s: &str, visit: &mut impl FnMut(&str)) {
    for (i, c) in s.char_indices() {
        visit(&s[i..i + c.len_utf8()]);
    }
}

fn split_token(raw: &str, visit: &mut impl FnMut(&str)) {
    // Fast path: an already-lowercase ASCII word with nothing to peel or
    // split (no uppercase to fold, no punctuation — apostrophes excluded
    // because leading/trailing ones peel). The general path below would
    // reproduce the token byte-for-byte, so this only skips its scans.
    if !raw.is_empty()
        && raw
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
    {
        visit(raw);
        return;
    }
    // Peel leading punctuation; trailing punctuation is emitted after the
    // core token, in its original order.
    let start = raw.find(|c| !is_punct(c)).unwrap_or(raw.len());
    each_char(&raw[..start], visit);
    let rest = &raw[start..];
    let (core, trail) = rest.split_at(rest.trim_end_matches(is_punct).len());
    if !core.is_empty() {
        // Fold the whole core at once (a final sigma depends on its
        // context), and only when folding could change it.
        let folded;
        let core = if core
            .bytes()
            .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
        {
            core
        } else {
            folded = core.to_lowercase();
            folded.as_str()
        };
        // Split any remaining non-word-internal characters inside the core.
        let mut piece = 0;
        for (i, c) in core.char_indices() {
            if !is_word_internal(c) {
                if piece < i {
                    visit(&core[piece..i]);
                }
                piece = i + c.len_utf8();
                visit(&core[i..piece]);
            }
        }
        if piece < core.len() {
            visit(&core[piece..]);
        }
    }
    each_char(trail, visit);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        tokenize(s)
    }

    #[test]
    fn lowercases_and_splits_whitespace() {
        assert_eq!(toks("Best Way To"), vec!["best", "way", "to"]);
    }

    #[test]
    fn splits_trailing_question_mark() {
        assert_eq!(
            toks("What is the best way to get to SFO airport?"),
            vec!["what", "is", "the", "best", "way", "to", "get", "to", "sfo", "airport", "?"]
        );
    }

    #[test]
    fn keeps_internal_apostrophe_and_hyphen() {
        assert_eq!(
            toks("what's check-in like?"),
            vec!["what's", "check-in", "like", "?"]
        );
    }

    #[test]
    fn peels_leading_punctuation() {
        assert_eq!(toks("\"hello\""), vec!["\"", "hello", "\""]);
    }

    #[test]
    fn multiple_trailing_puncts_preserve_order() {
        assert_eq!(toks("really?!"), vec!["really", "?", "!"]);
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(toks("").is_empty());
        assert!(toks("   \t\n ").is_empty());
    }

    #[test]
    fn numbers_survive() {
        assert_eq!(toks("gate 42 opens"), vec!["gate", "42", "opens"]);
    }

    #[test]
    fn unicode_words_survive() {
        assert_eq!(toks("café naïve"), vec!["café", "naïve"]);
    }

    #[test]
    fn folding_sees_the_whole_core() {
        // A final capital sigma folds to `ς` only in word-final position,
        // so the core is folded before it is split.
        assert_eq!(toks("ΟΔΟΣ,"), vec!["οδος", ","]);
        assert_eq!(
            toks("(Check-In/OUT)"),
            vec!["(", "check-in", "/", "out", ")"]
        );
    }
}
