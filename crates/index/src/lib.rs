//! Derivation sketches and the heuristic index (paper §3.1).
//!
//! Darwin pre-indexes the corpus so that "the set of sentences that satisfy
//! a given heuristic" is a lookup, not a scan. For each sentence a
//! *derivation sketch* enumerates the heuristics the sentence satisfies
//! (bounded by the number of derivation steps); the sketches are merged into
//! a global index whose nodes carry a sentence count and an inverted list
//! (Figures 5 and 6 of the paper).
//!
//! * [`sketch`] — per-sentence enumeration for both grammars,
//! * [`phrase_index`] — the trie over TokensRegex n-grams with sequential,
//!   parallel (chunk + merge) and incremental construction,
//! * [`tree_index`] — the pattern table over TreeMatch patterns with
//!   structural generalization edges,
//! * [`api`] — [`IndexSet`]: the unified view the Darwin pipeline consumes
//!   ([`RuleRef`] = a node in either index; children/parents/coverage),
//! * [`inverted`] — the sentence → covering-rules transpose
//!   ([`IndexSet::rules_covering`]), four bytes a posting, the delta
//!   primitive of the incremental benefit engine,
//! * [`shard`] — [`ShardMap`]: contiguous sentence-id partitioning with
//!   shard-sliced postings, the span layout of a remote shard deployment,
//!   plus [`intersect_count`], the sorted-posting intersection
//!   primitive incremental maintenance filters dirty ids with,
//! * [`bitset`] — a dense id set used throughout the pipeline,
//! * [`fx`] — the FxHash hasher (integer-keyed maps are hot here).

#![warn(missing_docs)]

pub mod api;
pub mod bitset;
pub mod fx;
mod intern;
pub mod inverted;
pub mod phrase_index;
pub mod shard;
pub mod sketch;
pub mod tree_index;

pub use api::{AppendDelta, AppendError, IndexConfig, IndexSet, RuleRef};
pub use bitset::IdSet;
pub use inverted::InvertedIndex;
pub use phrase_index::PhraseIndex;
pub use shard::{intersect_count, shard_slice, ShardMap};
pub use sketch::TreeSketchConfig;
pub use tree_index::TreeIndex;
