//! Heuristic grammars for Darwin (paper §2).
//!
//! A *labeling heuristic* is a derivation of a context-free Heuristic
//! Grammar (Definitions 1–2). Darwin ships two grammars, with the ability
//! to plug in more:
//!
//! * **TokensRegex** ([`phrase`]) — regular expressions over tokens with `+`
//!   (one-or-more arbitrary tokens) and `*` (zero-or-more) operators
//!   (Example 2). A plain token sequence such as `best way to` matches any
//!   sentence containing that phrase.
//! * **TreeMatch** ([`tree`]) — patterns over dependency parse trees with
//!   `Child` (`/`), `Descendant` (`//`) and `And` (`∧`, written `&`)
//!   operations whose terminals are tokens or universal POS tags
//!   (Definition 3), e.g. `is/NOUN & job`.
//!
//! [`mod@cfg`] holds the formal CFG presentations of both grammars and can list
//! the derivation-rule sequence producing any pattern, which is how we test
//! that every heuristic really is a grammar derivation.

pub mod cfg;
pub mod heuristic;
pub mod phrase;
pub mod tree;

pub use heuristic::{Heuristic, ParseError};
pub use phrase::{PhraseElem, PhrasePattern};
pub use tree::{TreePattern, TreeTerm};
