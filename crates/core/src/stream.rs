//! Labeling under updates: append-delta corpora at wave barriers.
//!
//! A Darwin run is dimensioned to its corpus — scores, shard spans,
//! frontier memos and benefit aggregates are all indexed by sentence id.
//! A session that owns its corpus, index and embeddings can still grow
//! them while it runs: [`crate::batch::Session::append`], legal at any
//! wave barrier (the only point where no question is in flight, feedback
//! is applied and the retrain, if any, is done). [`StreamSession`] is the
//! convenience around that: it builds its [`Darwin`] once, over the corpus
//! and index it is handed, and drives one session over it in segments.
//!
//! What one append grows, in place:
//!
//! * the corpus (existing ids, symbols and the vocabulary prefix untouched
//!   — `darwin_text::Corpus::append_texts`),
//! * the index, by delta ([`IndexSet::append`]; `min_count == 1` indexes
//!   only — pruning renumbers nodes) into the index a from-scratch build
//!   on the grown corpus makes,
//! * the embeddings, by zero rows ([`darwin_text::Embeddings::grow_to`]) —
//!   appends never retrain embeddings,
//! * and the engine's state, reconciled in the same call: score cache
//!   (appended ids at the 0.5 neutral prior), benefit store (the local
//!   full-span store, or remote workers via the `CorpusAppend` wire
//!   frame), frontier memo (dense-id remap), coverage cap, hierarchy.
//!
//! **Epoch discipline**: the shard partition (`ShardMap`) freezes its
//! chunk split when it grows — appended ids fold into the *last* shard's
//! span — and is re-partitioned only when a fresh map is built (a new
//! session, a resume). Within a session the split is therefore stable
//! across appends, which is what lets remote workers grow in place
//! instead of being redistributed.
//!
//! **The equivalence contract**: after every append, each grown structure
//! equals its from-scratch function on the grown corpus — the index equals
//! [`IndexSet::build`], the benefit aggregates equal a recomputation from
//! `(P, scores)`, the hierarchy equals a full candidate walk. So a session
//! that appends at barriers and continues asks what a session that rebuilt
//! everything there would ask. The suites audit each structure against
//! its from-scratch function at every append and wave barrier.
//! Shards, threads and transport stay pure perf knobs throughout.

use crate::batch::{AsyncRunResult, Session};
use crate::oracle::AsyncOracle;
use crate::pipeline::{default_embeddings, ClassifierConnector, Darwin, Seed};
use crate::shard::ShardConnector;
use crate::DarwinConfig;
use darwin_index::{AppendError, IndexSet};
use darwin_text::{Corpus, Embeddings};

/// What a [`StreamSession::drive`] call left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamStatus {
    /// The session stopped at the requested wave barrier; the engine is
    /// held live and [`StreamSession::append`] /
    /// [`StreamSession::drive`] may continue it.
    Suspended,
    /// The run completed — [`StreamSession::into_result`] has the output.
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
    /// The system and the seed, until the first drive moves them into
    /// `session` — an append before it grows the system the first engine
    /// is built over.
    ready: Option<(Darwin<'static>, Seed)>,
    /// The question loop, from the first drive on.
    session: Option<Session<'static>>,
}

impl StreamSession {
    /// Create a session, training embeddings over the initial corpus
    /// (appended sentences reuse them — embeddings are grown by
    /// zero-padding, never retrained, so a word first seen in an append
    /// contributes a zero vector exactly as an OOV word does).
    pub fn new(corpus: Corpus, index: IndexSet, cfg: DarwinConfig, seed: Seed) -> StreamSession {
        let emb = default_embeddings(&corpus, &cfg);
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
            ready: Some((Darwin::with_embeddings(corpus, index, cfg, emb), seed)),
            session: None,
        }
    }

    /// Apply `deploy` to the system before the first drive builds the
    /// engine over it; later it is too late, and `deploy` is not called.
    fn deploy(mut self, deploy: impl FnOnce(Darwin<'static>) -> Darwin<'static>) -> StreamSession {
        self.ready = self.ready.map(|(darwin, seed)| (deploy(darwin), seed));
        self
    }

    /// Distribute the benefit shards to workers — see
    /// [`Darwin::with_remote_shards`]. Appends reach the workers through
    /// the `CorpusAppend` frame; the epoch discipline above keeps each
    /// worker's span stable (only the last shard's span grows).
    pub fn with_remote_shards(self, connect: Box<ShardConnector>) -> StreamSession {
        self.deploy(|darwin| darwin.with_remote_shards(connect))
    }

    /// Train and score the classifier in a worker — see
    /// [`Darwin::with_remote_classifier`]. The worker mirrors the corpus,
    /// so appends forward to it (and its embeddings zero-pad in step with
    /// the coordinator's).
    pub fn with_remote_classifier(self, connect: Box<ClassifierConnector>) -> StreamSession {
        self.deploy(|darwin| darwin.with_remote_classifier(connect))
    }

    /// The system the session runs over.
    fn darwin(&self) -> &Darwin<'static> {
        match (&self.session, &self.ready) {
            (Some(session), _) => session.engine.darwin(),
            (None, Some((darwin, _))) => darwin,
            (None, None) => unreachable!("a session is ready or live"),
        }
    }

    /// The corpus as of now (base plus every append so far).
    pub fn corpus(&self) -> &Corpus {
        self.darwin().corpus()
    }

    /// The index over the current corpus.
    pub fn index(&self) -> &IndexSet {
        self.darwin().index()
    }

    /// Cumulative wave barriers crossed.
    pub fn waves(&self) -> u64 {
        self.session.as_ref().map_or(0, Session::waves)
    }

    /// Consume the session into the completed run (`None` if it never
    /// finished).
    pub fn into_result(self) -> Option<AsyncRunResult> {
        self.session.filter(Session::finished).map(Session::finish)
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
        if let Some((darwin, seed)) = self.ready.take() {
            self.session = Some(Session::new(darwin, seed));
        }
        let Some(session) = &mut self.session else {
            unreachable!("the first drive starts the session")
        };
        match session.drive(oracle, until_waves) {
            true => StreamStatus::Finished,
            false => StreamStatus::Suspended,
        }
    }

    /// Append `texts` to the corpus and grow everything with it — see
    /// [`Session::append`], refusals included. Legal at any point the
    /// session is not mid-segment: before the first wave (the first engine
    /// is then simply built over the grown corpus), between segments, or
    /// after completion. Returns the number of sentences appended.
    pub fn append<I, S>(&mut self, texts: I) -> Result<usize, AppendError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        match (&mut self.session, &mut self.ready) {
            (Some(session), _) => session.append(texts),
            (None, Some((darwin, _))) => {
                let texts: Vec<String> =
                    texts.into_iter().map(|t| t.as_ref().to_string()).collect();
                darwin.grow(&texts).map(|_| texts.len())
            }
            (None, None) => unreachable!("a session is ready or live"),
        }
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

    /// Hold every delta-maintained structure of the live engine to its
    /// from-scratch function ([`crate::batch::audit`]). A session with no
    /// live run (before the first wave, after completion) has nothing to
    /// audit.
    fn audit(session: &mut StreamSession, label: &str) {
        if let Some(live) = session.session.as_mut().filter(|s| !s.finished()) {
            crate::batch::audit(&mut live.engine, label);
        }
    }

    /// Drive `session` to completion one wave at a time, auditing at every
    /// barrier, and append `appends[i]` (then audit again) at barrier
    /// `at[i]`.
    fn drive_audited(
        session: &mut StreamSession,
        oracle: &mut dyn AsyncOracle,
        at: &[u64],
        appends: &[Vec<String>],
        label: &str,
    ) {
        for wave in 1.. {
            if session.drive(oracle, Some(wave)) == StreamStatus::Finished {
                return;
            }
            audit(session, &format!("{label}: barrier {wave}"));
            if let Some(i) = at.iter().position(|&b| b == wave) {
                session.append(appends[i].iter()).unwrap();
                audit(session, &format!("{label}: append at barrier {wave}"));
            }
        }
    }

    /// Drive the schedule, audited: to barrier 1, append batch 0, to
    /// barrier 3, append batch 1, then to completion.
    fn run_schedule(cfg: DarwinConfig, remote: bool, remote_clf: bool) -> RunResult {
        let (base, batches, labels) = streaming_fixture();
        let corpus = Corpus::from_texts(base.iter());
        let index = min1_index(&corpus);
        let label = format!(
            "S={} t={} remote={remote} remote_clf={remote_clf}",
            cfg.shards, cfg.threads
        );
        let mut session = StreamSession::new(corpus, index, cfg, Seed::Positives(vec![0, 3]));
        if remote {
            session = session.with_remote_shards(inproc_shard_connector());
        }
        if remote_clf {
            session = session.with_remote_classifier(crate::remote::inproc_classifier_connector());
        }
        let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
        drive_audited(&mut session, &mut oracle, &[1, 3], &batches, &label);
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

    /// Appends at barriers keep the benefit store, the remote mirrors and
    /// the hierarchy equal to their from-scratch functions on the grown
    /// corpus, and shard workers / threads / fan-out stay pure perf knobs
    /// across appends.
    #[test]
    fn append_schedule_audits_exact_across_deployments() {
        let reference = run_schedule(stream_cfg(1, 1), false, false);
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
        for (shards, threads, remote) in [(2, 2, true), (3, 1, true), (2, 1, true), (3, 2, true)] {
            let got = run_schedule(stream_cfg(shards, threads), remote, false);
            let label = format!("S={shards} t={threads} remote={remote}");
            assert_same_run(&got, &reference, &label);
        }
        let concurrent = run_schedule(
            DarwinConfig {
                fanout: Fanout::Concurrent,
                ..stream_cfg(3, 2)
            },
            true,
            false,
        );
        assert_same_run(&concurrent, &reference, "S=3 concurrent remote");
    }

    /// The remote classifier mirrors the corpus in its worker; appends
    /// must forward and keep scores bit-identical to the local build.
    #[test]
    fn append_forwards_to_remote_classifier() {
        let reference = run_schedule(stream_cfg(1, 1), false, false);
        let got = run_schedule(stream_cfg(1, 1), false, true);
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
            let mut emb = default_embeddings(&base_corpus, &cfg);
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
        drive_audited(
            &mut early,
            &mut oracle,
            &[],
            &[],
            "append before first wave",
        );
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

    /// Empty appends are exact no-ops.
    #[test]
    fn empty_append_is_a_no_op() {
        let (base, _, labels) = streaming_fixture();
        let corpus = Corpus::from_texts(base.iter());
        let index = min1_index(&corpus);
        let mut session =
            StreamSession::new(corpus, index, stream_cfg(1, 1), Seed::Positives(vec![0, 3]));
        let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
        let n = session.corpus().len();
        drive_audited(
            &mut session,
            &mut oracle,
            &[1, 2],
            &[Vec::new(), Vec::new()],
            "empty append",
        );
        assert_eq!(session.corpus().len(), n);
        assert_eq!(session.append(Vec::<String>::new()).unwrap(), 0);

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

    /// An append after completion grows the owned corpus and index (for a
    /// later session) and leaves the finished run exactly as it was.
    #[test]
    fn append_after_completion_leaves_the_run_alone() {
        let (base, batches, labels) = streaming_fixture();
        let finished = || {
            let corpus = Corpus::from_texts(base.iter());
            let index = min1_index(&corpus);
            let mut session =
                StreamSession::new(corpus, index, stream_cfg(1, 1), Seed::Positives(vec![0, 3]));
            let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
            drive_audited(&mut session, &mut oracle, &[], &[], "before completion");
            session
        };
        let mut session = finished();
        let waves = session.waves();
        let n = session.corpus().len();

        assert_eq!(session.append(batches[0].iter()).unwrap(), batches[0].len());
        assert_eq!(session.corpus().len(), n + batches[0].len());
        assert_eq!(session.index().sentences(), session.corpus().len());
        let mut oracle = Immediate::new(GroundTruthOracle::new(&labels, 0.8));
        assert_eq!(session.drive(&mut oracle, None), StreamStatus::Finished);
        assert_eq!(session.waves(), waves);
        assert_same_run(
            &session.into_result().unwrap().run,
            &finished().into_result().unwrap().run,
            "after completion",
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

    /// An append the session refuses changes nothing: an index over more
    /// sentences than the corpus, or over fewer, is refused before the
    /// corpus or the index grows.
    #[test]
    fn refused_append_changes_nothing() {
        let (base, _, _) = streaming_fixture();
        let longer: Vec<String> = base
            .iter()
            .cloned()
            .chain((0..5).map(|i| format!("the spa opens at {i}")))
            .collect();
        let (short, long) = (base.len(), longer.len());
        for (corpus_texts, index_texts, refusal) in [
            (
                &base,
                &longer,
                AppendError::CorpusBehindIndex {
                    corpus: short,
                    indexed: long,
                },
            ),
            (
                &longer,
                &base,
                AppendError::IndexBehindCorpus {
                    corpus: long,
                    indexed: short,
                },
            ),
        ] {
            let corpus = Corpus::from_texts(corpus_texts.iter());
            let index = min1_index(&Corpus::from_texts(index_texts.iter()));
            let sizes = (corpus.len(), index.sentences());
            let mut session =
                StreamSession::new(corpus, index, stream_cfg(1, 1), Seed::Positives(vec![0]));
            assert_eq!(session.append(["a brand new sentence"]), Err(refusal));
            assert_eq!(
                (session.corpus().len(), session.index().sentences()),
                sizes,
                "corpus and index untouched on refusal"
            );
        }
    }

    /// A session over a lent corpus and index reads them but cannot grow
    /// them.
    #[test]
    fn lent_session_refuses_append() {
        let (base, _, _) = streaming_fixture();
        let corpus = Corpus::from_texts(base.iter());
        let index = min1_index(&corpus);
        let darwin = Darwin::new(&corpus, &index, stream_cfg(1, 1));
        let mut session = Session::new(&darwin, Seed::Positives(vec![0, 3]));
        assert_eq!(
            session.append(["a brand new sentence"]),
            Err(AppendError::Lent)
        );
        assert_eq!(darwin.corpus().len(), base.len());
    }

    /// A grown session suspends at a barrier and resumes under another
    /// deployment (threads 2, or two shard workers), appends again and
    /// finishes exactly as the uninterrupted audited run — retrains after
    /// the resume included. The resumer is handed the grown corpus, its
    /// index and the base-trained embeddings grown to its vocabulary: what
    /// a snapshot does not record.
    #[test]
    fn grown_session_suspends_and_resumes() {
        let (base, batches, labels) = streaming_fixture();
        let cfg = DarwinConfig {
            budget: 20,
            ..stream_cfg(1, 1)
        };
        let seed = || Seed::Positives(vec![0, 3]);
        let oracle = || Immediate::new(GroundTruthOracle::new(&labels, 0.8));
        let owned = |texts: Vec<&String>, cfg: DarwinConfig| {
            let corpus = Corpus::from_texts(texts);
            let index = min1_index(&corpus);
            let mut emb = default_embeddings(&Corpus::from_texts(base.iter()), &cfg);
            emb.grow_to(corpus.vocab().len());
            Darwin::with_embeddings(corpus, index, cfg, emb)
        };

        let corpus = Corpus::from_texts(base.iter());
        let index = min1_index(&corpus);
        let mut whole = StreamSession::new(corpus, index, cfg.clone(), seed());
        drive_audited(
            &mut whole,
            &mut oracle(),
            &[1, 2],
            &batches,
            "uninterrupted",
        );
        let reference = whole.into_result().unwrap().run;

        let mut first = Session::new(owned(base.iter().collect(), cfg.clone()), seed());
        let mut first_oracle = oracle();
        assert!(
            !first.drive(&mut first_oracle, Some(1)),
            "alive at barrier 1"
        );
        assert_eq!(first.append(batches[0].iter()), Ok(batches[0].len()));
        assert!(
            !first.drive(&mut first_oracle, Some(2)),
            "alive at barrier 2"
        );
        let asked = first.engine.questions();
        let bytes = first.snapshot().to_bytes();
        drop(first);
        assert!(
            reference.trace[asked..].iter().any(|s| s.answer),
            "a YES after the suspend, so the resumed run retrains"
        );

        for (label, threads, shards) in [("threads 2", 2, 1), ("two shard workers", 1, 2)] {
            let resumed_cfg = DarwinConfig {
                threads,
                shards,
                ..cfg.clone()
            };
            let grown = base.iter().chain(&batches[0]).collect();
            let mut darwin = owned(grown, resumed_cfg);
            if shards > 1 {
                darwin = darwin.with_remote_shards(inproc_shard_connector());
            }
            let mut session = Session::resume(darwin, &bytes).unwrap();
            assert_eq!(session.append(batches[1].iter()), Ok(batches[1].len()));
            crate::batch::audit(&mut session.engine, &format!("{label}: resumed append"));
            assert!(session.drive(&mut oracle(), None));
            assert_same_run(&session.finish().run, &reference, label);
        }
    }
}
