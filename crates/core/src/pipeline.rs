//! The end-to-end Darwin pipeline (paper Algorithm 1).
//!
//! The question loop itself is [`crate::batch::Session`]; this module owns
//! the run-level API ([`Darwin`], [`Seed`], [`RunResult`]) — every run
//! entry here is a few lines over that one loop — and maps the configured
//! traversal strategy onto the engine. Execution-layer knobs
//! ([`DarwinConfig::shards`], [`DarwinConfig::threads`]) never change a
//! run's output — any configuration replays the same trace, so results
//! are comparable across machines and deployments.

use crate::batch::{AsyncRunResult, BatchPolicy, Session, SessionOutcome};
use crate::config::{DarwinConfig, TraversalKind};
use crate::engine::Engine;
use crate::oracle::{AsyncOracle, Immediate, Oracle};
use crate::shard::ShardConnector;
use crate::snapshot::SnapshotError;
use crate::traversal::{HybridSearch, LocalSearch, Strategy, UniversalSearch};
use darwin_grammar::Heuristic;
use darwin_index::fx::FxHashSet;
use darwin_index::{IndexSet, RuleRef};
use darwin_text::embed::EmbedConfig;
use darwin_text::{Corpus, Embeddings};

/// How a run is initialized (Algorithm 1 accepts either).
#[derive(Clone, Debug)]
pub enum Seed {
    /// A seed labeling rule (assumed to capture ≥ 2 positives).
    Rule(Heuristic),
    /// A couple of known-positive sentence ids.
    Positives(Vec<u32>),
}

/// One oracle interaction.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStep {
    /// 1-based question number.
    pub question: usize,
    /// The rule asked about.
    pub rule: Heuristic,
    /// The oracle's verdict.
    pub answer: bool,
    /// Sentence ids newly added to `P` by this step (empty on NO).
    pub new_positive_ids: Vec<u32>,
    /// `|P|` after this step.
    pub p_size: usize,
}

/// Output of a pipeline run.
pub struct RunResult {
    /// Rules the oracle confirmed (includes the seed rule when given).
    pub accepted: Vec<Heuristic>,
    /// Rules the oracle rejected.
    pub rejected: Vec<Heuristic>,
    /// The discovered positive set `P`, sorted.
    pub positives: Vec<u32>,
    /// Per-question history (for coverage / F-score curves).
    pub trace: Vec<TraceStep>,
    /// Final classifier scores per sentence.
    pub scores: Vec<f32>,
    /// `Some` when a distributed run aborted early on a wire failure (a
    /// shard worker died mid-run): everything above reflects the cleanly
    /// applied prefix of the run — no partial merge, no panic. `None` on
    /// every healthy (or purely local) run.
    pub wire_error: Option<String>,
}

impl RunResult {
    /// Reconstruct `|P|` after `q` questions (0 = just the seed).
    pub fn p_size_after(&self, q: usize) -> usize {
        let seed_size = self
            .trace
            .first()
            .map(|t| t.p_size - t.new_positive_ids.len())
            .unwrap_or(self.positives.len());
        if q == 0 {
            seed_size
        } else {
            self.trace
                .get(q.min(self.trace.len()) - 1)
                .map(|t| t.p_size)
                .unwrap_or(seed_size)
        }
    }

    /// Reconstruct the positive id set after `q` questions.
    pub fn positives_after(&self, q: usize) -> Vec<u32> {
        let gained: FxHashSet<u32> = self
            .trace
            .iter()
            .skip(q)
            .flat_map(|t| t.new_positive_ids.iter().copied())
            .collect();
        self.positives
            .iter()
            .copied()
            .filter(|id| !gained.contains(id))
            .collect()
    }

    /// Number of oracle questions asked.
    pub fn questions(&self) -> usize {
        self.trace.len()
    }
}

/// How a run's shard partitions are distributed to workers: the
/// connector producing one transport per shard. Workers rebuild the
/// coordinator's own index recipe ([`IndexSet::config`]), so rule
/// handles agree by construction. Shared (`Arc`) because the engine
/// keeps it alive for reconnect-and-replay after a worker dies.
pub struct RemoteShards {
    /// Builds the transport to each shard's worker.
    pub connect: std::sync::Arc<ShardConnector>,
}

/// Builds the transport to a classifier worker (a spawned process, a
/// worker thread, a socket) — the classifier-side twin of
/// [`ShardConnector`].
pub type ClassifierConnector =
    dyn Fn() -> Result<Box<dyn darwin_wire::Transport>, darwin_wire::WireError> + Send + Sync;

/// A remote classifier deployment: training and scoring run in a
/// [`crate::remote::serve_classifier`] worker behind the connector's
/// transport.
pub struct RemoteClassifier {
    /// Builds the transport to the classifier worker.
    pub connect: Box<ClassifierConnector>,
}

/// The Darwin system, bound to a corpus and its index.
pub struct Darwin<'a> {
    corpus: &'a Corpus,
    index: &'a IndexSet,
    emb: Embeddings,
    cfg: DarwinConfig,
    remote: Option<RemoteShards>,
    remote_clf: Option<RemoteClassifier>,
}

impl<'a> Darwin<'a> {
    /// Create the system, training word embeddings over the corpus.
    pub fn new(corpus: &'a Corpus, index: &'a IndexSet, cfg: DarwinConfig) -> Darwin<'a> {
        let emb = Embeddings::train(
            corpus,
            &EmbedConfig {
                seed: cfg.seed,
                ..Default::default()
            },
        );
        Darwin {
            corpus,
            index,
            emb,
            cfg,
            remote: None,
            remote_clf: None,
        }
    }

    /// Create with pre-trained embeddings (reuse across runs of the same
    /// corpus — experiment sweeps do this).
    pub fn with_embeddings(
        corpus: &'a Corpus,
        index: &'a IndexSet,
        cfg: DarwinConfig,
        emb: Embeddings,
    ) -> Darwin<'a> {
        Darwin {
            corpus,
            index,
            emb,
            cfg,
            remote: None,
            remote_clf: None,
        }
    }

    /// Distribute the run's shard partitions to *workers*: `connect`
    /// builds one [`darwin_wire::Transport`] per shard (a spawned process,
    /// a worker thread, a socket). Every worker rebuilds this `Darwin`'s
    /// own index recipe ([`IndexSet::config`]) from the shipped corpus
    /// texts — rule handles are positions in the deterministic build, so
    /// both sides agree by construction.
    ///
    /// Execution-layer invariance extends across the boundary: a
    /// remote-sharded run replays the local trace byte for byte. A wire
    /// failure mid-run aborts cleanly — see [`RunResult::wire_error`].
    pub fn with_remote_shards(mut self, connect: Box<ShardConnector>) -> Darwin<'a> {
        self.remote = Some(RemoteShards {
            connect: std::sync::Arc::from(connect),
        });
        self
    }

    /// The remote-shard deployment, if configured.
    pub(crate) fn remote_shards(&self) -> Option<&RemoteShards> {
        self.remote.as_ref()
    }

    /// Run the benefit classifier in a *worker*: `connect` builds the
    /// [`darwin_wire::Transport`] to a [`crate::remote::serve_classifier`]
    /// loop (a spawned process, a worker thread, a socket). The worker
    /// rebuilds this `Darwin`'s corpus and re-derives its embeddings from
    /// the run seed, so it assumes the default embedding recipe of
    /// [`Darwin::new`] — construct the system through `Darwin::new` (not
    /// [`Darwin::with_embeddings`] with a custom [`EmbedConfig`]) when
    /// using a remote classifier.
    ///
    /// Execution-layer invariance extends across the boundary: a run with
    /// a remote classifier replays the local trace byte for byte (the
    /// worker trains the identical model from the identical seed). A
    /// connect failure aborts the run cleanly before the first question —
    /// see [`RunResult::wire_error`].
    pub fn with_remote_classifier(mut self, connect: Box<ClassifierConnector>) -> Darwin<'a> {
        self.remote_clf = Some(RemoteClassifier { connect });
        self
    }

    /// The remote-classifier deployment, if configured.
    pub(crate) fn remote_classifier(&self) -> Option<&RemoteClassifier> {
        self.remote_clf.as_ref()
    }

    /// The run configuration.
    pub fn config(&self) -> &DarwinConfig {
        &self.cfg
    }

    /// The word embeddings classifiers featurize with.
    pub fn embeddings(&self) -> &Embeddings {
        &self.emb
    }

    /// Consume the system and reclaim its embeddings. The streaming
    /// session ([`crate::stream::StreamSession`]) rebuilds a `Darwin` view
    /// per segment against its growing corpus; the embeddings move in and
    /// out because appends grow them in place ([`Embeddings::grow_to`])
    /// instead of retraining.
    pub fn into_embeddings(self) -> Embeddings {
        self.emb
    }

    /// The corpus under labeling.
    pub fn corpus(&self) -> &'a Corpus {
        self.corpus
    }

    /// The heuristic index candidates are drawn from.
    pub fn index(&self) -> &'a IndexSet {
        self.index
    }

    /// A step-driven engine over this system — for callers that want to
    /// drive the question loop themselves (inspect state between
    /// questions, interleave with other work) through its verbs:
    /// [`Engine::select`], [`Engine::record`], [`Engine::retrain_and_sync`]
    /// and [`Engine::regen_hierarchy`].
    pub fn engine(&self, seed: Seed) -> Engine<'_> {
        Engine::new(self, seed)
    }

    /// Run with the configured traversal strategy, one question at a time
    /// (retrain after every YES) — see [`Darwin::run_with`].
    pub fn run(&self, seed: Seed, oracle: &mut dyn Oracle) -> RunResult {
        let cfg = &self.cfg;
        self.run_with(seed, oracle, |seeds| default_strategy(cfg, seeds))
    }

    /// Run with a custom selection strategy (how the HighP/HighC baselines
    /// plug in) against a synchronous oracle: the question loop
    /// ([`Session`]) at wave size 1 over [`Immediate`], whatever
    /// [`DarwinConfig::batch`] says.
    pub fn run_with(
        &self,
        seed: Seed,
        oracle: &mut dyn Oracle,
        make_strategy: impl FnOnce(&[RuleRef]) -> Box<dyn Strategy>,
    ) -> RunResult {
        let engine = self.engine(seed);
        let strategy = make_strategy(engine.seed_refs());
        let mut session = Session::with_strategy(engine, strategy, BatchPolicy::Fixed(1));
        session.drive(&mut Immediate::new(oracle), None);
        session.finish().run
    }

    /// Run against an asynchronous oracle ([`crate::batch`]): selection
    /// keeps up to [`DarwinConfig::batch`] questions in flight, answers
    /// apply out of order as they arrive, and the classifier retrains
    /// once per drained wave. `BatchPolicy::Fixed(1)` over an
    /// [`Immediate`] adapter is [`Darwin::run`]; larger batches trade
    /// selection freshness for latency hiding, and `Fixed(k)` over an
    /// [`crate::AnnotatorPool`] is `k` annotators answering in rounds.
    /// [`crate::AsyncReport::cost`] prices the run under the paper's §4.3
    /// crowd model.
    pub fn run_async(&self, seed: Seed, oracle: &mut dyn AsyncOracle) -> AsyncRunResult {
        let mut session = Session::new(self, seed);
        session.drive(oracle, None);
        session.finish()
    }

    /// Drive an async run and suspend it at a wave barrier: the first
    /// barrier where the cumulative wave count reaches `after_waves`.
    /// Barriers are the *only* snapshot points — the wave's questions are
    /// all answered and applied, the strategy has observed them, the
    /// classifier has retrained if `P` grew — so the returned
    /// [`crate::Snapshot`] (see [`SessionOutcome::Suspended`]) plus the
    /// seedless re-derivations at resume determine the rest of the run
    /// exactly. Runs that finish before the requested barrier return
    /// [`SessionOutcome::Finished`].
    ///
    /// A suspended run's remote shard workers are shut down before this
    /// returns, each having released its state, so a resume never builds
    /// its workers beside them.
    pub fn snapshot(
        &self,
        seed: Seed,
        oracle: &mut dyn AsyncOracle,
        after_waves: u64,
    ) -> SessionOutcome {
        let mut session = Session::new(self, seed);
        match session.drive(oracle, Some(after_waves)) {
            true => SessionOutcome::Finished(session.finish()),
            false => {
                let image = session.snapshot();
                session.engine.shut_down_workers();
                SessionOutcome::Suspended(Box::new(image))
            }
        }
    }

    /// Resume a suspended run from serialized snapshot bytes and drive it
    /// to completion. The snapshot is validated (frame checksum, version
    /// window, config/corpus fingerprints, rule-handle bounds) before any
    /// state is rebuilt. Remote workers are re-attached through *this*
    /// `Darwin`'s connectors ([`Darwin::with_remote_shards`] and friends)
    /// by replaying `ShardInit`/`Track` from the restored `(P, scores)` —
    /// the deployment may differ freely from the suspended one (transport,
    /// shard count, thread count, fanout): those are perf knobs, and the
    /// completed trace is byte-identical to the uninterrupted run. To
    /// suspend again at a later barrier instead — a run hopping process
    /// to process — use [`Session::resume`], [`Session::drive`] and
    /// [`Session::snapshot`] directly.
    pub fn resume(
        &self,
        bytes: &[u8],
        oracle: &mut dyn AsyncOracle,
    ) -> Result<AsyncRunResult, SnapshotError> {
        let mut session = Session::resume(self, bytes)?;
        session.drive(oracle, None);
        Ok(session.finish())
    }
}

/// The traversal strategy `cfg` configures, seeded with `seeds`.
pub(crate) fn default_strategy(cfg: &DarwinConfig, seeds: &[RuleRef]) -> Box<dyn Strategy> {
    match cfg.traversal {
        TraversalKind::Local => Box::new(LocalSearch::new(seeds.to_vec())),
        TraversalKind::Universal => Box::new(UniversalSearch::new()),
        TraversalKind::Hybrid => Box::new(HybridSearch::new(seeds.to_vec(), cfg.tau)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use darwin_index::IndexConfig;

    /// A small transport-intent corpus: three positive families sharing the
    /// "to the airport" context (so the classifier can generalize from the
    /// seed family to the others) against a majority of negatives — the
    /// class imbalance mirrors the paper's datasets and keeps randomly
    /// sampled "presumed negatives" mostly correct.
    fn fixture() -> (Corpus, Vec<bool>) {
        let mut texts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..12 {
            texts.push(format!("is there a shuttle to the airport at {i}"));
            labels.push(true);
            texts.push(format!("is there a bus to the airport at {i}"));
            labels.push(true);
        }
        for i in 0..6 {
            texts.push(format!("does the bart go to the airport after {i}"));
            labels.push(true);
        }
        for i in 0..20 {
            texts.push(format!("order a pizza with {i} toppings to the room"));
            labels.push(false);
            texts.push(format!("the pool opens at {i} for guests"));
            labels.push(false);
            texts.push(format!("can i get a wake up call at {i}"));
            labels.push(false);
            texts.push(format!("the wifi code for room {i} is posted"));
            labels.push(false);
        }
        (Corpus::from_texts(texts.iter()), labels)
    }

    fn run_kind(kind: TraversalKind) -> (RunResult, Vec<bool>) {
        let (corpus, labels) = fixture();
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let cfg = DarwinConfig::fast().with_traversal(kind).with_budget(15);
        let darwin = Darwin::new(&corpus, &index, cfg);
        let seed = Seed::Rule(Heuristic::phrase(&corpus, "shuttle to the airport").unwrap());
        let mut oracle = GroundTruthOracle::new(&labels, 0.8);
        (darwin.run(seed, &mut oracle), labels)
    }

    fn recall(run: &RunResult, labels: &[bool]) -> f64 {
        let total = labels.iter().filter(|&&l| l).count();
        let found = run
            .positives
            .iter()
            .filter(|&&i| labels[i as usize])
            .count();
        found as f64 / total as f64
    }

    #[test]
    fn hybrid_discovers_most_positives() {
        let (run, labels) = run_kind(TraversalKind::Hybrid);
        assert!(
            recall(&run, &labels) > 0.8,
            "recall {}",
            recall(&run, &labels)
        );
        assert!(run.accepted.len() >= 2, "accepted {:?}", run.accepted.len());
    }

    #[test]
    fn all_strategies_make_progress() {
        for kind in [
            TraversalKind::Local,
            TraversalKind::Universal,
            TraversalKind::Hybrid,
        ] {
            let (run, labels) = run_kind(kind);
            let seed_only = 12; // the seed rule's coverage (shuttle family)
            assert!(
                run.positives.len() > seed_only,
                "{kind:?} never grew P beyond the seed"
            );
            assert!(
                recall(&run, &labels) > 0.4,
                "{kind:?} recall {}",
                recall(&run, &labels)
            );
        }
    }

    #[test]
    fn p_only_grows_and_trace_is_consistent() {
        let (run, _) = run_kind(TraversalKind::Hybrid);
        let mut prev = 0;
        for (i, step) in run.trace.iter().enumerate() {
            assert_eq!(step.question, i + 1);
            assert!(step.p_size >= prev, "P must be monotone");
            if !step.answer {
                assert!(step.new_positive_ids.is_empty());
            }
            prev = step.p_size;
        }
        assert_eq!(run.positives.len(), prev.max(run.p_size_after(0)));
    }

    #[test]
    fn respects_budget() {
        let (run, _) = run_kind(TraversalKind::Hybrid);
        assert!(run.questions() <= 15);
    }

    #[test]
    fn positives_after_reconstructs_history() {
        let (run, _) = run_kind(TraversalKind::Hybrid);
        // After all questions: the full positive set.
        let full = run.positives_after(run.questions());
        assert_eq!(full.len(), run.positives.len());
        // After 0 questions: the seed coverage only.
        let seed = run.positives_after(0);
        assert_eq!(seed.len(), run.p_size_after(0));
        // Monotone in q.
        for q in 0..=run.questions() {
            assert_eq!(run.positives_after(q).len(), run.p_size_after(q));
        }
    }

    #[test]
    fn accepted_rules_union_equals_p() {
        let (corpus, labels) = fixture();
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let cfg = DarwinConfig::fast().with_budget(10);
        let darwin = Darwin::new(&corpus, &index, cfg);
        let seed_rule = Heuristic::phrase(&corpus, "shuttle to the airport").unwrap();
        let mut oracle = GroundTruthOracle::new(&labels, 0.8);
        let run = darwin.run(Seed::Rule(seed_rule), &mut oracle);
        let mut union: Vec<u32> = run
            .accepted
            .iter()
            .flat_map(|h| h.coverage(&corpus))
            .collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(union, run.positives, "P == ∪ accepted coverage");
    }

    #[test]
    fn positives_seed_works() {
        let (corpus, labels) = fixture();
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let cfg = DarwinConfig::fast().with_budget(12);
        let darwin = Darwin::new(&corpus, &index, cfg);
        let mut oracle = GroundTruthOracle::new(&labels, 0.8);
        // Two positive sentences instead of a rule.
        let run = darwin.run(Seed::Positives(vec![0, 4]), &mut oracle);
        assert!(run.positives.len() > 2, "grew beyond the seed pair");
        let precision = run
            .positives
            .iter()
            .filter(|&&i| labels[i as usize])
            .count() as f64
            / run.positives.len() as f64;
        assert!(precision > 0.7, "precision {precision}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_kind(TraversalKind::Hybrid);
        let (b, _) = run_kind(TraversalKind::Hybrid);
        assert_eq!(a.positives, b.positives);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(&b.trace) {
            assert_eq!(x.answer, y.answer);
            assert_eq!(x.rule, y.rule);
        }
    }
}
