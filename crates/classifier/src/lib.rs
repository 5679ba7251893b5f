//! Text classifiers for Darwin's benefit scoring (paper §3.3, §4.1).
//!
//! Darwin estimates `p_s` — the probability that sentence `s` is positive —
//! by training a classifier on the positives discovered so far against
//! randomly sampled negatives. The paper uses the CNN of Kim (2014): stacked
//! word-embedding vectors, convolutions of several widths, max-over-time
//! pooling and two fully-connected layers. [`cnn::KimCnn`] implements that
//! architecture from scratch (no external ML dependency), trained with
//! [`adam::Param`] (Adam). [`logreg::LogReg`] is a cheaper alternative over
//! mean-embedding + hashed bag-of-words features, useful where the paper's
//! experiments do not depend on CNN-specific behaviour.
//!
//! [`scorer::ScoreCache`] implements the incremental re-scoring optimization
//! of §4.5 (only re-score sentences that previously scored above 0.3; score
//! everything every third round).

pub mod adam;
pub mod block;
pub mod cnn;
pub mod features;
pub mod kernels;
pub mod logreg;
pub mod model;
pub mod scorer;

pub use block::{FeatureBlock, BLOCK_ROWS};
pub use cnn::{CnnConfig, KimCnn};
pub use logreg::{LogReg, LogRegConfig};
pub use model::{ClassifierKind, TextClassifier};
pub use scorer::{ScoreCache, ScoreImage};
