//! Part-of-speech tagging over the universal tagset.
//!
//! The TreeMatch grammar (paper §2, Definition 3) mixes tokens and POS tags
//! as terminals, citing the universal tagset of Petrov et al. This module
//! implements a deterministic lexicon + suffix-rule tagger producing that
//! tagset. It is intentionally simple: TreeMatch only needs *consistent*
//! tags so that a pattern like `is/NOUN ∧ job` matches the same sentences on
//! every run — linguistic perfection is not required for the evaluation
//! (see ARCHITECTURE.md, "Paper substitutions and experiments").

use std::fmt;
use std::str::FromStr;

/// Universal POS tags (Petrov, Das, McDonald 2011), the terminal alphabet
/// of the TreeMatch grammar alongside corpus tokens.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum PosTag {
    Adj,
    Adp,
    Adv,
    Conj,
    Det,
    Noun,
    Num,
    Part,
    Pron,
    Propn,
    Punct,
    Verb,
    X,
}

impl PosTag {
    pub const ALL: [PosTag; 13] = [
        PosTag::Adj,
        PosTag::Adp,
        PosTag::Adv,
        PosTag::Conj,
        PosTag::Det,
        PosTag::Noun,
        PosTag::Num,
        PosTag::Part,
        PosTag::Pron,
        PosTag::Propn,
        PosTag::Punct,
        PosTag::Verb,
        PosTag::X,
    ];

    /// Canonical upper-case name, as written in TreeMatch patterns.
    pub fn name(self) -> &'static str {
        match self {
            PosTag::Adj => "ADJ",
            PosTag::Adp => "ADP",
            PosTag::Adv => "ADV",
            PosTag::Conj => "CONJ",
            PosTag::Det => "DET",
            PosTag::Noun => "NOUN",
            PosTag::Num => "NUM",
            PosTag::Part => "PART",
            PosTag::Pron => "PRON",
            PosTag::Propn => "PROPN",
            PosTag::Punct => "PUNCT",
            PosTag::Verb => "VERB",
            PosTag::X => "X",
        }
    }

    #[inline]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    pub fn from_u8(v: u8) -> Option<PosTag> {
        PosTag::ALL.get(v as usize).copied()
    }

    /// Content-word tags: useful as pattern terminals; function words and
    /// punctuation rarely make good rule anchors on their own.
    pub fn is_content(self) -> bool {
        matches!(
            self,
            PosTag::Noun | PosTag::Verb | PosTag::Adj | PosTag::Propn | PosTag::Adv
        )
    }
}

impl fmt::Display for PosTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PosTag {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        PosTag::ALL
            .iter()
            .copied()
            .find(|t| t.name() == s)
            .ok_or(())
    }
}

/// Deterministic lexicon + suffix tagger.
pub struct Tagger;

const DETERMINERS: &[&str] = &[
    "the", "a", "an", "this", "that", "these", "those", "some", "any", "each", "every", "no",
    "another", "such",
];
const PREPOSITIONS: &[&str] = &[
    "of", "in", "on", "at", "by", "with", "from", "about", "into", "through", "during", "after",
    "before", "between", "under", "over", "near", "across", "along", "around", "via", "within",
    "without", "towards", "toward", "off", "onto", "upon", "per", "than", "as",
];
const PRONOUNS: &[&str] = &[
    "i",
    "you",
    "he",
    "she",
    "it",
    "we",
    "they",
    "me",
    "him",
    "her",
    "us",
    "them",
    "my",
    "your",
    "his",
    "its",
    "our",
    "their",
    "mine",
    "yours",
    "myself",
    "yourself",
    "there",
    "who",
    "whom",
    "anyone",
    "someone",
    "something",
    "anything",
    "everyone",
    "everything",
    "nothing",
];
const CONJUNCTIONS: &[&str] = &[
    "and", "or", "but", "nor", "so", "yet", "if", "because", "while", "when", "although", "whether",
];
const AUX_VERBS: &[&str] = &[
    "is", "am", "are", "was", "were", "be", "been", "being", "do", "does", "did", "have", "has",
    "had", "will", "would", "can", "could", "shall", "should", "may", "might", "must", "get",
    "got", "gets", "getting",
];
const COMMON_VERBS: &[&str] = &[
    "go",
    "goes",
    "going",
    "went",
    "gone",
    "take",
    "takes",
    "took",
    "taken",
    "taking",
    "make",
    "makes",
    "made",
    "making",
    "come",
    "comes",
    "came",
    "coming",
    "see",
    "saw",
    "seen",
    "know",
    "knew",
    "known",
    "think",
    "thought",
    "want",
    "wants",
    "wanted",
    "need",
    "needs",
    "needed",
    "find",
    "found",
    "give",
    "gave",
    "given",
    "tell",
    "told",
    "ask",
    "asked",
    "work",
    "worked",
    "works",
    "call",
    "called",
    "try",
    "tried",
    "use",
    "used",
    "order",
    "check",
    "book",
    "reach",
    "visit",
    "leave",
    "left",
    "arrive",
    "arrived",
    "cause",
    "caused",
    "causes",
    "causing",
    "trigger",
    "triggered",
    "triggers",
    "lead",
    "leads",
    "led",
    "result",
    "resulted",
    "results",
    "induce",
    "induced",
    "induces",
    "play",
    "played",
    "plays",
    "playing",
    "perform",
    "performed",
    "performs",
    "compose",
    "composed",
    "composes",
    "write",
    "wrote",
    "written",
    "writes",
    "sing",
    "sang",
    "sung",
    "sings",
    "teach",
    "taught",
    "teaches",
    "release",
    "released",
    "releases",
    "record",
    "recorded",
    "craving",
    "crave",
    "eat",
    "ate",
    "eaten",
    "eating",
    "walk",
    "drive",
    "ride",
    "fly",
    "travel",
    "stay",
    "recommend",
    "recommended",
    "apply",
    "applied",
    "hire",
    "hired",
    "hiring",
    "produced",
    "produces",
    "produce",
    "directed",
    "directs",
    "direct",
];
const ADVERBS: &[&str] = &[
    "very", "too", "also", "just", "now", "then", "here", "soon", "already", "still", "again",
    "never", "always", "often", "really", "quite", "maybe", "perhaps", "tomorrow", "today",
    "tonight", "far", "away", "back", "downtown", "nearby", "how", "where", "why", "not",
];
const ADJECTIVES: &[&str] = &[
    "best",
    "good",
    "great",
    "new",
    "old",
    "big",
    "small",
    "fast",
    "fastest",
    "slow",
    "cheap",
    "cheapest",
    "easy",
    "easiest",
    "quick",
    "quickest",
    "nice",
    "famous",
    "popular",
    "major",
    "severe",
    "local",
    "public",
    "private",
    "free",
    "open",
    "closed",
    "available",
    "late",
    "early",
    "long",
    "short",
    "main",
    "several",
    "many",
    "few",
    "much",
    "more",
    "most",
    "other",
    "own",
    "same",
    "different",
    "able",
    "hungry",
    "delicious",
    "spicy",
    "italian",
    "chinese",
    "mexican",
    "japanese",
    "french",
    "nearest",
    "closest",
    "what",
    "which",
];
const PARTICLES: &[&str] = &[
    "to", "up", "down", "out", "'s", "n't", "'re", "'ve", "'ll", "'d", "'m",
];

/// Suffix → tag heuristics applied to otherwise-unknown words.
const SUFFIX_RULES: &[(&str, PosTag)] = &[
    ("ing", PosTag::Verb),
    ("ed", PosTag::Verb),
    ("tion", PosTag::Noun),
    ("sion", PosTag::Noun),
    ("ness", PosTag::Noun),
    ("ment", PosTag::Noun),
    ("ship", PosTag::Noun),
    ("ist", PosTag::Noun),
    ("ism", PosTag::Noun),
    ("ity", PosTag::Noun),
    ("er", PosTag::Noun),
    ("or", PosTag::Noun),
    ("ly", PosTag::Adv),
    ("ous", PosTag::Adj),
    ("ful", PosTag::Adj),
    ("ive", PosTag::Adj),
    ("ible", PosTag::Adj),
    ("able", PosTag::Adj),
    ("est", PosTag::Adj),
    ("ic", PosTag::Adj),
    ("al", PosTag::Adj),
];

impl Tagger {
    /// Tag a tokenized sentence of lowercase token strings: each word's
    /// context-free lexicon + suffix-rule tag, then the positional repair
    /// passes.
    pub fn tag<T: AsRef<str>>(tokens: &[T]) -> Vec<PosTag> {
        let mut tags: Vec<PosTag> = tokens.iter().map(|t| Self::tag_word(t.as_ref())).collect();
        Self::repair(&mut tags, |i| tokens[i].as_ref() == "to");
        tags
    }

    /// The context repair passes of [`Tagger::tag`], shared with the
    /// symbol-cached tagging path in the corpus analyzer: `is_to(i)` must
    /// answer whether token `i` is the literal word "to".
    pub(crate) fn repair(tags: &mut [PosTag], is_to: impl Fn(usize) -> bool) {
        for i in 0..tags.len() {
            // "to" + verb => PART; otherwise ADP.
            if is_to(i) {
                let next_is_verb = tags.get(i + 1).is_some_and(|&t| t == PosTag::Verb);
                tags[i] = if next_is_verb {
                    PosTag::Part
                } else {
                    PosTag::Adp
                };
            }
        }
        for i in 0..tags.len() {
            // DET followed by a VERB-tagged word usually means a deverbal
            // noun ("the cause", "a result").
            if tags[i] == PosTag::Det && tags.get(i + 1).copied() == Some(PosTag::Verb) {
                tags[i + 1] = PosTag::Noun;
            }
        }
    }

    /// The context-free (lexicon + suffix-rule) tag of one word — a pure
    /// function of the string, which is what lets the corpus analyzer
    /// cache it per interned symbol instead of re-running the lexicon
    /// scans on every occurrence.
    pub(crate) fn tag_word(w: &str) -> PosTag {
        if w.chars().all(|c| !c.is_alphanumeric()) {
            return PosTag::Punct;
        }
        if w.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return PosTag::Num;
        }
        if DETERMINERS.contains(&w) {
            return PosTag::Det;
        }
        if PARTICLES.contains(&w) {
            return PosTag::Part;
        }
        if PREPOSITIONS.contains(&w) {
            return PosTag::Adp;
        }
        if PRONOUNS.contains(&w) {
            return PosTag::Pron;
        }
        if CONJUNCTIONS.contains(&w) {
            return PosTag::Conj;
        }
        if AUX_VERBS.contains(&w) || COMMON_VERBS.contains(&w) {
            return PosTag::Verb;
        }
        if ADVERBS.contains(&w) {
            return PosTag::Adv;
        }
        if ADJECTIVES.contains(&w) {
            return PosTag::Adj;
        }
        for (suf, tag) in SUFFIX_RULES {
            if w.len() > suf.len() + 1 && w.ends_with(suf) {
                return *tag;
            }
        }
        PosTag::Noun
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag_one(w: &str) -> PosTag {
        Tagger::tag(&[w])[0]
    }

    #[test]
    fn closed_classes() {
        assert_eq!(tag_one("the"), PosTag::Det);
        assert_eq!(tag_one("from"), PosTag::Adp);
        assert_eq!(tag_one("they"), PosTag::Pron);
        assert_eq!(tag_one("and"), PosTag::Conj);
        assert_eq!(tag_one("is"), PosTag::Verb);
        assert_eq!(tag_one("?"), PosTag::Punct);
        assert_eq!(tag_one("42"), PosTag::Num);
    }

    #[test]
    fn suffix_rules_fire_for_unknown_words() {
        assert_eq!(tag_one("zorgification"), PosTag::Noun);
        assert_eq!(tag_one("blorbly"), PosTag::Adv);
        assert_eq!(tag_one("quuxious"), PosTag::Adj);
        assert_eq!(tag_one("frobbing"), PosTag::Verb);
    }

    #[test]
    fn default_is_noun() {
        assert_eq!(tag_one("bart"), PosTag::Noun);
        assert_eq!(tag_one("sfo"), PosTag::Noun);
    }

    #[test]
    fn to_disambiguation() {
        // "to get" -> PART, "to the" -> ADP
        let tags = Tagger::tag(&["way", "to", "get", "to", "the", "airport"]);
        assert_eq!(tags[1], PosTag::Part);
        assert_eq!(tags[3], PosTag::Adp);
    }

    #[test]
    fn det_verb_becomes_noun() {
        let tags = Tagger::tag(&["the", "cause", "of", "the", "fire"]);
        assert_eq!(tags[1], PosTag::Noun);
    }

    #[test]
    fn example_sentence_roundtrip() {
        // "Uber is the best way to our hotel" — Figure 3 of the paper.
        let tags = Tagger::tag(&["uber", "is", "the", "best", "way", "to", "our", "hotel"]);
        assert_eq!(
            tags,
            vec![
                PosTag::Noun, // "uber" unknown -> NOUN (paper: PROPN; both nominal)
                PosTag::Verb,
                PosTag::Det,
                PosTag::Adj,
                PosTag::Noun,
                PosTag::Adp,
                PosTag::Pron,
                PosTag::Noun,
            ]
        );
    }

    #[test]
    fn tag_u8_roundtrip() {
        for t in PosTag::ALL {
            assert_eq!(PosTag::from_u8(t.as_u8()), Some(t));
            assert_eq!(t.name().parse::<PosTag>(), Ok(t));
        }
        assert_eq!(PosTag::from_u8(200), None);
        assert!("NOPE".parse::<PosTag>().is_err());
    }
}
