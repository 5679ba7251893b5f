//! Labeling under updates: append-delta corpora at wave barriers.
//!
//! A Darwin run is dimensioned to its corpus — scores, shard spans,
//! frontier memos and benefit aggregates are all indexed by sentence id —
//! so the classic pipeline treats the corpus as frozen for the lifetime
//! of a session. [`StreamSession`] lifts that restriction for the one
//! mutation real labeling deployments need: **appending** new sentences
//! while a session is underway.
//!
//! The session owns the corpus, the index and the embeddings, and drives
//! the question loop ([`crate::batch::Session`]) in *segments*. Between
//! segments — always at a wave barrier, the only point where no question
//! is in flight, feedback is applied and the retrain (if any) is done —
//! the loop's state is parked with its engine decomposed into owned parts
//! ([`crate::Engine::into_parts`]), the corpus grows, and every
//! id-dimensioned structure grows with it:
//!
//! * the corpus appends in place (existing ids, symbols and the vocabulary
//!   prefix untouched — `darwin_text::Corpus::append_texts`),
//! * the index grows by delta ([`IndexSet::append`]; `min_count == 1`
//!   indexes only — pruning renumbers nodes) producing an identical index
//!   to a from-scratch rebuild on the grown corpus,
//! * the embeddings zero-pad ([`darwin_text::Embeddings::grow_to`]) —
//!   appends never retrain embeddings,
//! * the engine reconciles via [`crate::Engine::apply_append`]: score cache
//!   (appended ids at the 0.5 neutral prior), benefit store (local spans
//!   and remote workers, via the `CorpusAppend` wire frame), frontier
//!   memo (dense-id remap), coverage cap, hierarchy.
//!
//! **Epoch discipline**: the shard partition (`ShardMap`) freezes its
//! chunk split when it grows — appended ids fold into the *last* shard's
//! span — and is re-partitioned only when a fresh map is built (a new
//! session, a resume). Within a session the split is therefore stable
//! across appends, which is what lets remote workers grow in place
//! instead of being redistributed.
//!
//! **The equivalence contract**: a session that appends at barriers and
//! continues is bit-identical — trace, positives, scores — to one that
//! rebuilt the index (and benefit aggregates, and frontier) from scratch
//! on the grown corpus at the same barrier ([`AppendMode::Rebuild`], the
//! reference path the suites compare against). Shards, threads and
//! transport stay pure perf knobs throughout.

use crate::batch::{AsyncRunResult, Parked, Session};
use crate::oracle::AsyncOracle;
use crate::pipeline::{ClassifierConnector, Darwin, Seed};
use crate::shard::ShardConnector;
use crate::DarwinConfig;
use darwin_index::{AppendError, IndexSet};
use darwin_text::embed::EmbedConfig;
use darwin_text::{Corpus, Embeddings};

/// How [`StreamSession::append`] grows the index (and the structures
/// derived from it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppendMode {
    /// Grow in place: [`IndexSet::append`], benefit aggregates folded by
    /// delta, frontier memo remapped. The production path.
    Delta,
    /// Rebuild from scratch on the grown corpus: fresh index build, full
    /// benefit recomputation, frontier memo reset. Identical output by
    /// the append-equivalence contract — this is the reference the
    /// equivalence suites compare [`AppendMode::Delta`] against.
    Rebuild,
}

/// What a [`StreamSession::drive`] call left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamStatus {
    /// The session stopped at the requested wave barrier; the engine is
    /// held live and [`StreamSession::append`] /
    /// [`StreamSession::drive`] may continue it.
    Suspended,
    /// The run completed — [`StreamSession::result`] has the output.
    Finished,
}

/// An interactive labeling session over a corpus that grows.
///
/// ```no_run
/// # use darwin_core::stream::StreamSession;
/// # use darwin_core::{DarwinConfig, GroundTruthOracle, Immediate, Seed};
/// # use darwin_index::{IndexConfig, IndexSet};
/// # use darwin_text::Corpus;
/// # let labels = vec![true; 64];
/// let corpus = Corpus::from_texts(["a seed sentence to label"]);
/// let index = IndexSet::build(&corpus, &IndexConfig { min_count: 1, ..Default::default() });
/// let mut session = StreamSession::new(corpus, index, DarwinConfig::fast(), Seed::Positives(vec![0]));
/// let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
/// session.drive(&mut oracle, Some(2)); // run to the second wave barrier
/// session.append(["a sentence that arrived mid-session"]).unwrap();
/// session.drive(&mut oracle, None); // drive the grown corpus to completion
/// let result = session.into_result().unwrap();
/// ```
pub struct StreamSession {
    corpus: Corpus,
    index: IndexSet,
    /// `Some` between segments; taken while a `Darwin` view exists.
    emb: Option<Embeddings>,
    cfg: DarwinConfig,
    mode: AppendMode,
    /// Consumed by the first segment's `Session::new`.
    seed: Option<Seed>,
    /// Consumed by the first segment's `Darwin` (the engine's remote
    /// sessions outlive the view that connected them).
    remote: Option<Box<ShardConnector>>,
    remote_clf: Option<Box<ClassifierConnector>>,
    /// The question loop between segments.
    live: Option<Parked>,
    result: Option<AsyncRunResult>,
}

impl StreamSession {
    /// Create a session, training embeddings over the initial corpus
    /// (appended sentences reuse them — embeddings are grown by
    /// zero-padding, never retrained, so a word first seen in an append
    /// contributes a zero vector exactly as an OOV word does).
    pub fn new(corpus: Corpus, index: IndexSet, cfg: DarwinConfig, seed: Seed) -> StreamSession {
        let emb = Embeddings::train(
            &corpus,
            &EmbedConfig {
                seed: cfg.seed,
                ..Default::default()
            },
        );
        StreamSession::with_embeddings(corpus, index, cfg, seed, emb)
    }

    /// Create with pre-trained embeddings.
    pub fn with_embeddings(
        corpus: Corpus,
        index: IndexSet,
        cfg: DarwinConfig,
        seed: Seed,
        emb: Embeddings,
    ) -> StreamSession {
        StreamSession {
            corpus,
            index,
            emb: Some(emb),
            cfg,
            mode: AppendMode::Delta,
            seed: Some(seed),
            remote: None,
            remote_clf: None,
            live: None,
            result: None,
        }
    }

    /// Distribute the benefit shards to workers — see
    /// [`Darwin::with_remote_shards`]. Appends reach the workers through
    /// the `CorpusAppend` frame; the epoch discipline above keeps each
    /// worker's span stable (only the last shard's span grows).
    pub fn with_remote_shards(mut self, connect: Box<ShardConnector>) -> StreamSession {
        self.remote = Some(connect);
        self
    }

    /// Train and score the classifier in a worker — see
    /// [`Darwin::with_remote_classifier`]. The worker mirrors the corpus,
    /// so appends forward to it (and its embeddings zero-pad in step with
    /// the coordinator's).
    pub fn with_remote_classifier(mut self, connect: Box<ClassifierConnector>) -> StreamSession {
        self.remote_clf = Some(connect);
        self
    }

    /// Select the append path (default [`AppendMode::Delta`]).
    pub fn with_append_mode(mut self, mode: AppendMode) -> StreamSession {
        self.mode = mode;
        self
    }

    /// The corpus as of now (base plus every append so far).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The index over the current corpus.
    pub fn index(&self) -> &IndexSet {
        &self.index
    }

    /// Cumulative wave barriers crossed.
    pub fn waves(&self) -> u64 {
        match (&self.live, &self.result) {
            (Some(parked), _) => parked.waves(),
            (None, Some(done)) => done.report.waves as u64,
            (None, None) => 0,
        }
    }

    /// The completed run, once [`StreamStatus::Finished`].
    pub fn result(&self) -> Option<&AsyncRunResult> {
        self.result.as_ref()
    }

    /// Consume the session into the completed run (`None` if it never
    /// finished).
    pub fn into_result(self) -> Option<AsyncRunResult> {
        self.result
    }

    /// Drive the question loop until the *cumulative* wave count reaches
    /// `until_waves` (`None` = to completion). Stopping points are wave
    /// barriers — the same points [`Darwin::snapshot`] may suspend at —
    /// so a stopped session is always in a state an append can reconcile.
    pub fn drive(
        &mut self,
        oracle: &mut dyn AsyncOracle,
        until_waves: Option<u64>,
    ) -> StreamStatus {
        if self.result.is_some() {
            return StreamStatus::Finished;
        }
        let emb = self.emb.take().expect("embeddings held between segments");
        let mut darwin = Darwin::with_embeddings(&self.corpus, &self.index, self.cfg.clone(), emb);
        if let Some(connect) = self.remote.take() {
            darwin = darwin.with_remote_shards(connect);
        }
        if let Some(connect) = self.remote_clf.take() {
            darwin = darwin.with_remote_classifier(connect);
        }
        let mut session = match self.live.take() {
            Some(parked) => Session::unpark(&darwin, parked),
            None => {
                let seed = self.seed.take().expect("fresh session carries a seed");
                Session::new(&darwin, seed)
            }
        };
        let status = if session.drive(oracle, until_waves) {
            self.result = Some(session.finish());
            StreamStatus::Finished
        } else {
            self.live = Some(session.park());
            StreamStatus::Suspended
        };
        self.emb = Some(darwin.into_embeddings());
        status
    }

    /// Append `texts` to the corpus and reconcile every id-dimensioned
    /// structure — the wave-barrier append operation. Legal at any point
    /// the session is not mid-segment: before the first wave (the first
    /// engine is then simply built over the grown corpus), between
    /// segments, or after completion (the growth applies, for a later
    /// session over the same owned corpus). Returns the number of
    /// sentences appended.
    ///
    /// Requires a `min_count == 1` index — pruned indexes renumber nodes
    /// on growth, which would invalidate every live rule handle — and
    /// rejects with [`AppendError::PrunedIndex`] *before* touching any
    /// state.
    pub fn append<I, S>(&mut self, texts: I) -> Result<usize, AppendError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let min_count = self.index.config().min_count;
        if min_count > 1 {
            return Err(AppendError::PrunedIndex { min_count });
        }
        let texts: Vec<String> = texts.into_iter().map(|t| t.as_ref().to_string()).collect();
        if texts.is_empty() {
            return Ok(0); // both modes: exactly no-op
        }
        let old_n = self.corpus.len() as u32;
        self.corpus.append_texts(texts.iter(), self.cfg.threads);
        let delta = match self.mode {
            AppendMode::Delta => Some(
                self.index
                    .append_with_threads(&self.corpus, self.cfg.threads)?,
            ),
            AppendMode::Rebuild => {
                let config = self.index.config().clone();
                self.index = IndexSet::build(&self.corpus, &config);
                None
            }
        };
        if let Some(emb) = &mut self.emb {
            emb.grow_to(self.corpus.vocab().len());
        }
        if let Some(parked) = self.live.take() {
            let emb = self.emb.take().expect("embeddings held between segments");
            let darwin = Darwin::with_embeddings(&self.corpus, &self.index, self.cfg.clone(), emb);
            let mut session = Session::unpark(&darwin, parked);
            session.engine.apply_append(old_n, &texts, delta.as_ref());
            self.live = Some(session.park());
            self.emb = Some(darwin.into_embeddings());
        }
        Ok(texts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{GroundTruthOracle, Immediate, QuestionId};
    use crate::pipeline::RunResult;
    use crate::remote::inproc_shard_connector;
    use crate::{BatchPolicy, Fanout, SimulatedLatency};
    use darwin_grammar::Heuristic;
    use darwin_index::IndexConfig;
    use std::time::{Duration, Instant};

    /// A transport-intent corpus large enough to keep the run alive
    /// across two appends, plus labels covering the *grown* corpus.
    fn streaming_fixture() -> (Vec<String>, Vec<Vec<String>>, Vec<bool>) {
        let mut texts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            texts.push(format!("is there a shuttle to the airport at {i}"));
            labels.push(true);
            texts.push(format!("order a pizza with {i} toppings to the room"));
            labels.push(false);
            texts.push(format!("the pool opens at {i} for guests"));
            labels.push(false);
        }
        // Two append batches: each introduces new positives (a family the
        // base corpus has only hints of) and new negatives — and new
        // vocabulary, so the zero-pad path is exercised.
        let mut batches = Vec::new();
        for b in 0..2 {
            let mut batch = Vec::new();
            for i in 0..4 {
                batch.push(format!("is there a bus to the airport at {b}{i}"));
                labels.push(true);
                batch.push(format!("the gym closes at {b}{i} tonight"));
                labels.push(false);
            }
            batches.push(batch);
        }
        (texts, batches, labels)
    }

    fn stream_cfg(shards: usize, threads: usize) -> DarwinConfig {
        DarwinConfig {
            budget: 8,
            n_candidates: 400,
            shards,
            threads,
            batch: BatchPolicy::Fixed(3),
            ..DarwinConfig::fast()
        }
    }

    fn min1_index(corpus: &Corpus) -> IndexSet {
        IndexSet::build(
            corpus,
            &IndexConfig {
                max_phrase_len: 4,
                min_count: 1,
                ..Default::default()
            },
        )
    }

    /// Drive the schedule: to barrier 1, append batch 0, to barrier 3,
    /// append batch 1, then to completion.
    fn run_schedule(
        cfg: DarwinConfig,
        mode: AppendMode,
        remote: bool,
        remote_clf: bool,
    ) -> RunResult {
        let (base, batches, labels) = streaming_fixture();
        let corpus = Corpus::from_texts(base.iter());
        let index = min1_index(&corpus);
        let mut session = StreamSession::new(corpus, index, cfg, Seed::Positives(vec![0, 3]))
            .with_append_mode(mode);
        if remote {
            session = session.with_remote_shards(inproc_shard_connector());
        }
        if remote_clf {
            session = session.with_remote_classifier(crate::remote::inproc_classifier_connector());
        }
        let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
        for (i, barrier) in [1u64, 3].iter().enumerate() {
            if session.drive(&mut oracle, Some(*barrier)) == StreamStatus::Finished {
                break;
            }
            session.append(batches[i].iter()).unwrap();
        }
        session.drive(&mut oracle, None);
        session.into_result().expect("run completes").run
    }

    fn assert_same_run(a: &RunResult, b: &RunResult, label: &str) {
        assert_eq!(a.trace, b.trace, "{label}: trace");
        assert_eq!(a.positives, b.positives, "{label}: positives");
        assert_eq!(a.accepted, b.accepted, "{label}: accepted");
        assert_eq!(a.rejected, b.rejected, "{label}: rejected");
        assert_eq!(a.scores, b.scores, "{label}: scores");
        assert_eq!(a.wire_error, b.wire_error, "{label}: wire error");
    }

    /// The delta append path is bit-identical to the from-scratch rebuild
    /// reference, and shard workers / threads / fan-out stay pure perf
    /// knobs across appends.
    #[test]
    fn append_schedule_matches_rebuild_across_deployments() {
        let reference = run_schedule(stream_cfg(1, 1), AppendMode::Rebuild, false, false);
        assert!(
            reference.trace.len() > 2,
            "fixture must keep the run alive past the appends"
        );
        assert!(
            reference
                .trace
                .iter()
                .any(|s| s.new_positive_ids.iter().any(|&id| id >= 30)),
            "appended sentences must be discoverable"
        );
        for (shards, threads, remote) in [
            (1, 1, false),
            (2, 2, true),
            (3, 1, true),
            (2, 1, true),
            (3, 2, true),
        ] {
            let got = run_schedule(
                stream_cfg(shards, threads),
                AppendMode::Delta,
                remote,
                false,
            );
            let label = format!("delta S={shards} t={threads} remote={remote}");
            assert_same_run(&got, &reference, &label);
        }
        let concurrent = run_schedule(
            DarwinConfig {
                fanout: Fanout::Concurrent,
                ..stream_cfg(3, 2)
            },
            AppendMode::Delta,
            true,
            false,
        );
        assert_same_run(&concurrent, &reference, "delta S=3 concurrent remote");
    }

    /// The remote classifier mirrors the corpus in its worker; appends
    /// must forward and keep scores bit-identical to the local build.
    #[test]
    fn append_forwards_to_remote_classifier() {
        let reference = run_schedule(stream_cfg(1, 1), AppendMode::Rebuild, false, false);
        let got = run_schedule(stream_cfg(1, 1), AppendMode::Delta, false, true);
        assert_same_run(&got, &reference, "remote classifier");
    }

    /// Appending before the first wave just grows the inputs the first
    /// engine is built over: identical to starting from the grown corpus
    /// under the same embedding discipline (embeddings are frozen at
    /// session creation and zero-padded by appends, never retrained — so
    /// the reference shares the base-corpus embeddings).
    #[test]
    fn append_before_first_wave_equals_grown_start() {
        let (base, batches, labels) = streaming_fixture();
        let cfg = stream_cfg(2, 1);
        let base_emb = |corpus_len_vocab: usize| {
            let base_corpus = Corpus::from_texts(base.iter());
            let mut emb = Embeddings::train(
                &base_corpus,
                &EmbedConfig {
                    seed: cfg.seed,
                    ..Default::default()
                },
            );
            emb.grow_to(corpus_len_vocab);
            emb
        };
        let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));

        let corpus = Corpus::from_texts(base.iter());
        let index = min1_index(&corpus);
        let emb = base_emb(corpus.vocab().len());
        let mut early = StreamSession::with_embeddings(
            corpus,
            index,
            cfg.clone(),
            Seed::Positives(vec![0, 3]),
            emb,
        );
        early.append(batches[0].iter()).unwrap();
        early.drive(&mut oracle, None);
        let early = early.into_result().unwrap().run;

        let grown_texts: Vec<&String> = base.iter().chain(batches[0].iter()).collect();
        let corpus = Corpus::from_texts(grown_texts.iter().map(|s| s.as_str()));
        let index = min1_index(&corpus);
        let emb = base_emb(corpus.vocab().len());
        let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
        let mut grown =
            StreamSession::with_embeddings(corpus, index, cfg, Seed::Positives(vec![0, 3]), emb);
        grown.drive(&mut oracle, None);
        let grown = grown.into_result().unwrap().run;

        assert_same_run(&early, &grown, "append before first wave");
    }

    /// Empty appends are exact no-ops in both modes.
    #[test]
    fn empty_append_is_a_no_op() {
        let (base, _, labels) = streaming_fixture();
        let corpus = Corpus::from_texts(base.iter());
        let index = min1_index(&corpus);
        let mut session =
            StreamSession::new(corpus, index, stream_cfg(1, 1), Seed::Positives(vec![0, 3]));
        let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
        session.drive(&mut oracle, Some(1));
        let n = session.corpus().len();
        assert_eq!(session.append(Vec::<String>::new()).unwrap(), 0);
        assert_eq!(session.corpus().len(), n);
        session.drive(&mut oracle, None);

        let corpus = Corpus::from_texts(base.iter());
        let index = min1_index(&corpus);
        let mut plain =
            StreamSession::new(corpus, index, stream_cfg(1, 1), Seed::Positives(vec![0, 3]));
        let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
        plain.drive(&mut oracle, None);
        assert_same_run(
            &session.into_result().unwrap().run,
            &plain.into_result().unwrap().run,
            "empty append",
        );
    }

    /// Counts the wall-clock the wrapped oracle's polls held the driver for
    /// — a lower bound on the time spent in the segments that made them.
    struct InsideOracle<O> {
        inner: O,
        inside: Duration,
    }

    impl<O: AsyncOracle> AsyncOracle for InsideOracle<O> {
        fn submit(&mut self, qid: QuestionId, corpus: &Corpus, rule: &Heuristic, cov: &[u32]) {
            self.inner.submit(qid, corpus, rule, cov);
        }

        fn poll(&mut self) -> Vec<(QuestionId, bool)> {
            let t = Instant::now();
            let got = self.inner.poll();
            self.inside += t.elapsed();
            got
        }

        fn queries(&self) -> usize {
            self.inner.queries()
        }
    }

    /// `AsyncReport::wall_ns` covers the whole run, not its last segment:
    /// a session driven in two segments reports at least the time its
    /// oracle measurably held the driver in both.
    #[test]
    fn wall_ns_accumulates_across_segments() {
        let (base, _, labels) = streaming_fixture();
        let corpus = Corpus::from_texts(base.iter());
        let index = min1_index(&corpus);
        let cfg = DarwinConfig {
            budget: 6,
            batch: BatchPolicy::Fixed(1),
            ..stream_cfg(1, 1)
        };
        let mut session = StreamSession::new(corpus, index, cfg, Seed::Positives(vec![0, 3]));
        let latency = Duration::from_millis(15);
        let mut oracle = InsideOracle {
            inner: SimulatedLatency::new(GroundTruthOracle::new(&labels, 0.8), latency),
            inside: Duration::ZERO,
        };
        assert_eq!(session.drive(&mut oracle, Some(4)), StreamStatus::Suspended);
        let first = oracle.inside;
        assert!(
            first >= 4 * latency,
            "four waves each waited out the oracle"
        );
        assert_eq!(session.drive(&mut oracle, None), StreamStatus::Finished);
        let second = oracle.inside - first;
        assert!(second >= latency, "the second segment asked something");
        let report = session.into_result().unwrap().report;
        assert!(
            report.wall_ns >= (first + second).as_nanos(),
            "wall_ns {} < {:?} + {:?} measured inside the two segments",
            report.wall_ns,
            first,
            second
        );
    }

    /// A pruned index refuses appends before any state is touched.
    #[test]
    fn pruned_index_refuses_append() {
        let (base, _, _) = streaming_fixture();
        let corpus = Corpus::from_texts(base.iter());
        let index = IndexSet::build(
            &corpus,
            &IndexConfig {
                max_phrase_len: 4,
                min_count: 2,
                ..Default::default()
            },
        );
        let n = corpus.len();
        let mut session =
            StreamSession::new(corpus, index, stream_cfg(1, 1), Seed::Positives(vec![0]));
        match session.append(["a brand new sentence"]) {
            Err(AppendError::PrunedIndex { min_count: 2 }) => {}
            other => panic!("expected PrunedIndex, got {other:?}"),
        }
        assert_eq!(session.corpus().len(), n, "corpus untouched on refusal");
    }
}
