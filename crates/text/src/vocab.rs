//! Interned vocabulary.
//!
//! Every token in a [`crate::Corpus`] is represented by a dense [`Sym`] id.
//! Patterns, the trie index and the classifier all operate on `Sym`s, so
//! string comparisons happen exactly once — at interning time.

use std::collections::HashMap;
use std::fmt;

/// A dense token id. `Sym(0)` is the first interned token; ids are assigned
/// in interning order and are stable for the lifetime of the [`Vocab`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The raw index, usable directly into per-token tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// String interner with frequency counts.
///
/// Interning the same string twice yields the same [`Sym`]; frequencies track
/// how many times each token was interned (i.e. its corpus frequency when
/// built through [`crate::Corpus`]).
#[derive(Default, Clone)]
pub struct Vocab {
    map: HashMap<Box<str>, Sym>,
    strings: Vec<Box<str>>,
    freq: Vec<u32>,
}

impl Vocab {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `tok`, incrementing its frequency.
    pub fn intern(&mut self, tok: &str) -> Sym {
        let s = self.number(tok);
        self.count(s);
        s
    }

    /// The symbol of `tok`, numbered next (at frequency 0) if it is new.
    pub(crate) fn number(&mut self, tok: &str) -> Sym {
        if let Some(&s) = self.map.get(tok) {
            return s;
        }
        let s = Sym(self.strings.len() as u32);
        self.strings.push(tok.into());
        self.freq.push(0);
        self.map.insert(tok.into(), s);
        s
    }

    /// Count one more occurrence of `s`.
    pub(crate) fn count(&mut self, s: Sym) {
        self.freq[s.index()] += 1;
    }

    /// Look up an already-interned token without changing frequencies.
    pub fn get(&self, tok: &str) -> Option<Sym> {
        self.map.get(tok).copied()
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `s` was not produced by this vocabulary.
    pub fn resolve(&self, s: Sym) -> &str {
        &self.strings[s.index()]
    }

    /// Corpus frequency of `s` (number of `intern` calls that returned it).
    pub fn freq(&self, s: Sym) -> u32 {
        self.freq[s.index()]
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate over all `(Sym, token)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), s.as_ref()))
    }
}

impl fmt::Debug for Vocab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vocab({} tokens)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("shuttle");
        let b = v.intern("shuttle");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
        assert_eq!(v.freq(a), 2);
    }

    #[test]
    fn distinct_tokens_get_distinct_syms() {
        let mut v = Vocab::new();
        let a = v.intern("bus");
        let b = v.intern("shuttle");
        assert_ne!(a, b);
        assert_eq!(v.resolve(a), "bus");
        assert_eq!(v.resolve(b), "shuttle");
    }

    #[test]
    fn get_does_not_intern() {
        let mut v = Vocab::new();
        assert!(v.get("bart").is_none());
        let s = v.intern("bart");
        assert_eq!(v.get("bart"), Some(s));
        assert_eq!(v.freq(s), 1);
    }

    #[test]
    fn iter_preserves_interning_order() {
        let mut v = Vocab::new();
        v.intern("a");
        v.intern("b");
        v.intern("c");
        let toks: Vec<&str> = v.iter().map(|(_, t)| t).collect();
        assert_eq!(toks, vec!["a", "b", "c"]);
    }

    #[test]
    fn sym_index_round_trips() {
        assert_eq!(Sym(7).index(), 7);
    }
}
