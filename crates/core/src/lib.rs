//! The Darwin adaptive rule discovery system (paper §3).
//!
//! Given an analyzed corpus, a heuristic index and a seed (one labeling
//! rule or a couple of positive sentences), Darwin iteratively:
//!
//! 1. generates a manageable pool of promising candidate heuristics from
//!    the index, organized by subset/superset structure
//!    ([`candidates`], Algorithm 2; [`hierarchy`]) — regenerated after
//!    every YES from a persistent candidate frontier ([`frontier`]) that
//!    re-scores only the entries the new positives touch, instead of
//!    re-walking the index from the root,
//! 2. selects the next heuristic to verify using a traversal strategy —
//!    [`traversal::LocalSearch`], [`traversal::UniversalSearch`] or
//!    [`traversal::HybridSearch`] (Algorithms 3–5), guided by a *benefit*
//!    score computed from a classifier trained on the positives found so
//!    far ([`benefit`]) and maintained incrementally by the [`engine`]
//!    (per-rule aggregates patched by delta as `P` grows and scores move,
//!    instead of a per-question rescan of every candidate's coverage) —
//!    partitioned across shard workers and merged exactly at selection
//!    time in a remote deployment ([`shard`]),
//! 3. asks the [`oracle::Oracle`] a YES/NO question about the selected
//!    heuristic — or, against a slow (human/crowd) oracle, *submits* it
//!    through the [`oracle::AsyncOracle`] split and keeps a wave of
//!    further diverse questions in flight while answers are outstanding
//!    ([`batch`], with §4.3 crowd-cost accounting), and
//! 4. on YES, grows the positive set, retrains the classifier and updates
//!    all scores (Algorithm 1). There is one question loop,
//!    [`batch::Session`]: it applies a wave's answers in arrival order
//!    and retrains once per drained wave, and every run entry in
//!    [`pipeline`] — one question at a time, `k` annotators in rounds,
//!    suspend/resume, streaming — is a few lines over it.
//!    [`engine::Engine::step`] is the same loop body written out
//!    sequentially, kept as the reference the equivalence tests compare
//!    the driver against.
//!
//! The output is the accepted rule set, the discovered positives, the
//! trained classifier scores, and a per-question trace from which the
//! evaluation reconstructs coverage/F-score curves.

#![warn(missing_docs)]

pub mod batch;
pub mod benefit;
pub mod candidates;
pub mod config;
pub mod engine;
pub mod frontier;
pub mod hierarchy;
pub mod oracle;
pub mod pipeline;
pub mod remote;
pub mod shard;
pub mod snapshot;
pub mod stream;
pub mod traversal;

pub use batch::{
    AdaptiveBatcher, AsyncReport, AsyncRunResult, BatchPolicy, CostModel, CrowdCost,
    ScriptedArrival, Session, SessionOutcome, SimulatedLatency,
};
pub use config::{DarwinConfig, Fanout, TraversalKind};
pub use engine::{BenefitAgg, BenefitStore, Engine, EngineParts, EngineState};
pub use frontier::{FrontierImage, FrontierPool, FrontierStats};
pub use oracle::{
    AnnotatorPool, AsyncOracle, GroundTruthOracle, Immediate, MajorityOracle, Oracle, QuestionId,
    SampledAnnotatorOracle,
};
pub use pipeline::{Darwin, RemoteShards, RunResult, Seed, TraceStep};
pub use remote::{
    inproc_shard_connector, inproc_wire_classifier, inproc_wire_oracle, serve_classifier,
    serve_oracle, serve_shard, WireClassifier, WireOracle,
};
pub use shard::{RemoteShard, ShardConnector, ShardedBenefitStore};
pub use snapshot::{SessionCounters, Snapshot, SnapshotError};
pub use stream::{AppendMode, StreamSession, StreamStatus};
pub use traversal::{Strategy, StrategyState};
