//! Worker serve loops and coordinator clients for the wire boundary.
//!
//! Three worker roles speak the [`darwin_wire`] protocol:
//!
//! * **shard workers** ([`serve_shard`]) own one [`BenefitStore`]
//!   partition plus their own copy of the corpus, index, positive set and
//!   span scores — all mirrored from the coordinator by delta messages.
//!   Every mutating request is answered with the benefit fragments it
//!   changed, so the coordinator-side [`crate::shard::RemoteShard`] mirror
//!   stays exact without read-time round-trips.
//! * **oracle workers** ([`serve_oracle`]) answer YES/NO questions from a
//!   local [`Oracle`] (a crowd gateway, a labeling UI, ground truth in
//!   experiments). Answers are computed at submit and delivered at the
//!   next poll — the wire twin of the [`crate::Immediate`] adapter, which
//!   is what makes a wire-oracle run replay the local trace.
//! * **classifier workers** ([`serve_classifier`]) train and score a
//!   [`TextClassifier`] built from a wire-described recipe, so remote
//!   shards can score without sharing memory ([`WireClassifier`] is the
//!   coordinator-side `TextClassifier` that forwards `fit`/`predict_batch`
//!   over the transport).
//!
//! All three loops share one discipline: every request gets exactly one
//! response; malformed or out-of-role requests get [`Response::Error`];
//! the loop exits cleanly on `Shutdown` or peer disconnect. A worker
//! never panics on wire input.

use crate::engine::BenefitStore;
use crate::oracle::{AsyncOracle, Oracle, QuestionId};
use crate::shard::{agg_to_wire, ShardConnector};
use darwin_classifier::{ClassifierKind, CnnConfig, LogRegConfig, TextClassifier};
use darwin_index::fx::FxHashSet;
use darwin_index::{IdSet, IndexConfig, IndexSet, RuleRef};
use darwin_text::embed::EmbedConfig;
use darwin_text::{Corpus, Embeddings};
use darwin_wire::frame::{MIN_SUPPORTED_VERSION, PROTOCOL_VERSION};
use darwin_wire::msg::{
    recv_request, send_response, CorpusSlice, Request, Response, Session, WireClassifierKind,
};
use darwin_wire::{Transport, WireError};
use std::sync::Mutex;
use std::time::Duration;

// ---- shared serve plumbing ----------------------------------------------

fn reply(t: &mut dyn Transport, seq: u64, resp: &Response) -> Result<(), WireError> {
    send_response(t, seq, resp)
}

fn reply_error(t: &mut dyn Transport, seq: u64, message: String) -> Result<(), WireError> {
    reply(t, seq, &Response::Error { message })
}

/// Answer a `Hello` under the negotiation rule: the session speaks
/// `min(client, worker)`; clients older than our support window are
/// refused.
fn answer_hello(t: &mut dyn Transport, seq: u64, version: u8) -> Result<(), WireError> {
    if version < MIN_SUPPORTED_VERSION {
        reply_error(t, seq, format!("protocol version {version} unsupported"))?;
        return Err(WireError::BadVersion {
            got: version,
            want: PROTOCOL_VERSION,
        });
    }
    reply(
        t,
        seq,
        &Response::Hello {
            version: version.min(PROTOCOL_VERSION),
        },
    )
}

// ---- shard worker --------------------------------------------------------

/// The state a shard worker owns after `ShardInit`. The corpus is retained
/// after indexing (the fragment math runs entirely on postings, but a later
/// `CorpusAppend` re-enters the analyzer to grow the index in place).
struct ShardState {
    corpus: Corpus,
    index: IndexSet,
    store: BenefitStore,
    p: IdSet,
    scores: Vec<f32>,
    lo: u32,
    hi: u32,
}

impl ShardState {
    /// Fragments for `rules`, sorted by rule — what mutation replies carry.
    fn deltas(&self, mut rules: Vec<RuleRef>) -> Response {
        rules.sort_unstable();
        rules.dedup();
        let changed = rules
            .into_iter()
            .filter_map(|r| self.store.agg(r).map(|a| (r, agg_to_wire(a))))
            .collect();
        Response::FragmentDeltas { changed }
    }

    /// Tracked rules covering any of `ids` (the fragments a positive or
    /// score delta can move).
    fn affected(&self, ids: impl Iterator<Item = u32>) -> Vec<RuleRef> {
        let mut out: FxHashSet<RuleRef> = FxHashSet::default();
        for id in ids {
            for r in self.index.rules_covering(id) {
                if self.store.contains(r) {
                    out.insert(r);
                }
            }
        }
        out.into_iter().collect()
    }
}

/// Serve the shard-worker protocol over `t` until shutdown or disconnect.
///
/// The worker is initialized by the first `ShardInit` (corpus texts are
/// re-analyzed and re-indexed — deterministic, so rule handles agree with
/// the coordinator's), then applies tracking/delta/rebuild requests to its
/// span-scoped [`BenefitStore`], replying with the changed fragments.
pub fn serve_shard(t: &mut dyn Transport) -> Result<(), WireError> {
    let mut state: Option<ShardState> = None;
    loop {
        let Some((seq, req)) = recv_request(t)? else {
            return Ok(()); // coordinator hung up: done
        };
        match req {
            Request::Hello { version } => answer_hello(t, seq, version)?,
            Request::Shutdown => {
                // Release the shard state before acknowledging: a
                // coordinator that waits for the `Ack` then knows this
                // worker holds nothing.
                drop(state.take());
                reply(t, seq, &Response::Ack)?;
                return Ok(());
            }
            Request::ShardInit {
                corpus,
                index,
                lo,
                hi,
                positives,
                scores,
            } => {
                // Validate the whole init against the shipped corpus
                // before touching any state — a malformed frame must be
                // a clean Error reply, never a panic.
                let n_texts = corpus.texts.len() as u32;
                if hi < lo || hi > n_texts {
                    reply_error(
                        t,
                        seq,
                        format!("span {lo}..{hi} outside corpus 0..{n_texts}"),
                    )?;
                    continue;
                }
                if scores.len() != (hi - lo) as usize {
                    reply_error(t, seq, "span scores length mismatch".into())?;
                    continue;
                }
                if positives.iter().any(|&id| id < lo || id >= hi) {
                    reply_error(t, seq, "initial positive outside the span".into())?;
                    continue;
                }
                let corpus = match corpus.restore() {
                    Ok(c) => c,
                    Err(e) => {
                        reply_error(t, seq, e.to_string())?;
                        continue;
                    }
                };
                // How many threads enumerate is this worker's choice, not
                // the peer's (a shipped `threads` is untrusted input). It
                // cannot change the numbering: `IndexSet::build` interns in
                // one serial loop whatever the thread count.
                let index_cfg = IndexConfig {
                    threads: 1,
                    ..index
                };
                let index = IndexSet::build(&corpus, &index_cfg);
                let n = corpus.len();
                let mut full_scores = vec![0.0f32; n];
                full_scores[lo as usize..hi as usize].copy_from_slice(&scores);
                state = Some(ShardState {
                    p: IdSet::from_ids(&positives, n),
                    store: BenefitStore::for_span(lo, hi),
                    index,
                    scores: full_scores,
                    lo,
                    hi,
                    corpus,
                });
                reply(t, seq, &Response::Ack)?;
            }
            other => {
                let Some(s) = state.as_mut() else {
                    reply_error(t, seq, "shard worker not initialized".into())?;
                    continue;
                };
                let resp = shard_request(s, other);
                reply(t, seq, &resp)?;
            }
        }
    }
}

/// Apply one post-init request to the shard state.
fn shard_request(s: &mut ShardState, req: Request) -> Response {
    match req {
        Request::Track { rules } => {
            if let Some(r) = rules.iter().find(|r| !s.index.contains_rule(**r)) {
                return Response::Error {
                    message: format!("unknown rule handle {r:?} for this shard's index"),
                };
            }
            let missing: Vec<RuleRef> = rules
                .iter()
                .copied()
                .filter(|r| !s.store.contains(*r))
                .collect();
            s.store
                .track(rules.iter().copied(), &s.index, &s.p, &s.scores, 1);
            s.deltas(missing)
        }
        Request::TrackScored { cands } => {
            if let Some(c) = cands.iter().find(|c| !s.index.contains_rule(c.rule)) {
                return Response::Error {
                    message: format!("unknown rule handle {:?} for this shard's index", c.rule),
                };
            }
            let cands: Vec<crate::candidates::Candidate> = cands
                .into_iter()
                .map(|c| crate::candidates::Candidate {
                    rule: c.rule,
                    overlap: c.overlap as usize,
                    count: c.count as usize,
                })
                .collect();
            let missing: Vec<RuleRef> = cands
                .iter()
                .map(|c| c.rule)
                .filter(|r| !s.store.contains(*r))
                .collect();
            s.store.track_scored(&cands, &s.index, &s.p, &s.scores, 1);
            s.deltas(missing)
        }
        Request::Rebuild { scores } => {
            if scores.len() != (s.hi - s.lo) as usize {
                return Response::Error {
                    message: "rebuild scores length mismatch".into(),
                };
            }
            s.scores[s.lo as usize..s.hi as usize].copy_from_slice(&scores);
            s.store.rebuild(&s.index, &s.p, &s.scores, 1);
            let all: Vec<RuleRef> = s.store.tracked().map(|(r, _)| r).collect();
            s.deltas(all)
        }
        Request::Retain { keep } => {
            let keep: FxHashSet<RuleRef> = keep.into_iter().collect();
            s.store.retain(|r| keep.contains(&r));
            Response::Ack
        }
        Request::PositivesAdded { ids } => {
            if ids
                .iter()
                .any(|&id| id < s.lo || id >= s.hi || s.p.contains(id))
            {
                return Response::Error {
                    message: "positive id outside span or already positive".into(),
                };
            }
            let affected = s.affected(ids.iter().copied());
            // Pre-retrain scores are still current here — exactly what the
            // fragments reflect (the coordinator sends positives before
            // any score message of the retrain that follows).
            s.store.on_positives_added(&ids, &s.index, &s.scores);
            s.p.extend_from_slice(&ids);
            s.deltas(affected)
        }
        Request::ScoresChanged { changes } => {
            if changes.iter().any(|&(id, _, _)| id < s.lo || id >= s.hi) {
                return Response::Error {
                    message: "score change outside span".into(),
                };
            }
            let affected = s.affected(
                changes
                    .iter()
                    .filter(|&&(id, _, _)| !s.p.contains(id))
                    .map(|&(id, _, _)| id),
            );
            s.store.on_scores_changed(&changes, &s.p, &s.index);
            for &(id, _, new) in &changes {
                s.scores[id as usize] = new;
            }
            s.deltas(affected)
        }
        Request::Fragments { rules } => Response::Fragments {
            aggs: rules
                .into_iter()
                .map(|r| s.store.agg(r).map(agg_to_wire))
                .collect(),
        },
        Request::CorpusAppend {
            texts,
            new_hi,
            scores,
        } => {
            // Validate everything before mutating: a refused append must
            // leave the worker exactly where it was.
            let old_hi = s.hi;
            let grown = s.corpus.len() + texts.len();
            if new_hi < old_hi || (new_hi as usize) > grown {
                return Response::Error {
                    message: format!(
                        "append span {old_hi}..{new_hi} outside grown corpus 0..{grown}"
                    ),
                };
            }
            if scores.len() != (new_hi - old_hi) as usize {
                return Response::Error {
                    message: "append scores length mismatch".into(),
                };
            }
            if s.index.config().min_count > 1 {
                return Response::Error {
                    message: "cannot append to a pruned index".into(),
                };
            }
            s.corpus.append_texts(texts.iter(), 1);
            if let Err(e) = s.index.append(&s.corpus) {
                return Response::Error {
                    message: e.to_string(),
                };
            }
            // Appended ids outside the (possibly unchanged) span keep the
            // zero placeholder, exactly like init.
            s.scores.resize(s.corpus.len(), 0.0);
            s.scores[old_hi as usize..new_hi as usize].copy_from_slice(&scores);
            s.store.extend_span(new_hi);
            let moved = s.store.on_ids_appended(old_hi..new_hi, &s.index, &s.scores);
            s.hi = new_hi;
            s.deltas(moved)
        }
        other => Response::Error {
            message: format!("not a shard request: {other:?}"),
        },
    }
}

// ---- oracle worker -------------------------------------------------------

/// Serve the oracle protocol over `t` until shutdown or disconnect:
/// `Submit` asks the local oracle immediately, `Poll` delivers everything
/// answered since the last poll, sorted by question id — the wire twin of
/// [`crate::Immediate`], so driving the batch loop through a
/// [`WireOracle`] + `serve_oracle` pair replays the local trace.
pub fn serve_oracle(
    t: &mut dyn Transport,
    corpus: &Corpus,
    oracle: &mut dyn Oracle,
) -> Result<(), WireError> {
    let mut ready: Vec<(u64, bool)> = Vec::new();
    loop {
        let Some((seq, req)) = recv_request(t)? else {
            return Ok(());
        };
        match req {
            Request::Hello { version } => answer_hello(t, seq, version)?,
            Request::Shutdown => {
                reply(t, seq, &Response::Ack)?;
                return Ok(());
            }
            Request::Submit {
                qid,
                rule,
                coverage,
            } => {
                let answer = oracle.ask(corpus, &rule, &coverage);
                ready.push((qid, answer));
                reply(t, seq, &Response::Ack)?;
            }
            Request::Poll { timeout_ms: _ } => {
                // Answers are computed at submit, so nothing to wait for.
                let mut answers = std::mem::take(&mut ready);
                answers.sort_unstable_by_key(|&(qid, _)| qid);
                reply(t, seq, &Response::Answers { answers })?;
            }
            other => reply_error(t, seq, format!("not an oracle request: {other:?}"))?,
        }
    }
}

/// Coordinator-side [`AsyncOracle`] speaking to a [`serve_oracle`] worker.
///
/// A transport failure makes the oracle go *silent and unhealthy*: `poll`
/// returns nothing forever, [`AsyncOracle::healthy`] reports `false`, and
/// the wave driver abandons the in-flight questions — PR 4's silent-oracle
/// path, now reachable from a dead worker. The failure is kept in
/// [`WireOracle::last_error`].
pub struct WireOracle {
    session: Session,
    in_flight: usize,
    submitted: usize,
    error: Option<WireError>,
}

impl WireOracle {
    /// Handshake with an oracle worker.
    pub fn connect(transport: Box<dyn Transport>) -> Result<WireOracle, WireError> {
        let mut session = Session::new(transport);
        session.hello()?;
        Ok(WireOracle {
            session,
            in_flight: 0,
            submitted: 0,
            error: None,
        })
    }

    /// The wire failure that silenced this oracle, if any.
    pub fn last_error(&self) -> Option<&WireError> {
        self.error.as_ref()
    }

    fn fail(&mut self, e: WireError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn poll_with(&mut self, timeout_ms: u64) -> Vec<(QuestionId, bool)> {
        if self.in_flight == 0 || self.error.is_some() {
            return Vec::new();
        }
        match self.session.call(&Request::Poll { timeout_ms }) {
            Ok(Response::Answers { answers }) => {
                self.in_flight = self.in_flight.saturating_sub(answers.len());
                answers
                    .into_iter()
                    .map(|(qid, a)| (QuestionId(qid), a))
                    .collect()
            }
            Ok(other) => {
                self.fail(WireError::Protocol(format!(
                    "poll expected Answers, got {other:?}"
                )));
                Vec::new()
            }
            Err(e) => {
                self.fail(e);
                Vec::new()
            }
        }
    }
}

impl AsyncOracle for WireOracle {
    fn submit(
        &mut self,
        qid: QuestionId,
        _corpus: &Corpus,
        rule: &darwin_grammar::Heuristic,
        coverage: &[u32],
    ) {
        self.submitted += 1;
        if self.error.is_some() {
            return; // already silent; the driver will abandon
        }
        let req = Request::Submit {
            qid: qid.0,
            rule: rule.clone(),
            coverage: coverage.to_vec(),
        };
        match self.session.call(&req) {
            Ok(Response::Ack) => self.in_flight += 1,
            Ok(other) => self.fail(WireError::Protocol(format!(
                "submit expected Ack, got {other:?}"
            ))),
            Err(e) => self.fail(e),
        }
    }

    fn poll(&mut self) -> Vec<(QuestionId, bool)> {
        self.poll_with(0)
    }

    fn poll_deadline(&mut self, timeout: Duration) -> Vec<(QuestionId, bool)> {
        self.poll_with(timeout.as_millis() as u64)
    }

    fn queries(&self) -> usize {
        self.submitted
    }

    fn healthy(&self) -> bool {
        self.error.is_none()
    }
}

// ---- classifier worker ---------------------------------------------------

// `warm_start` is deliberately *not* carried on the wire: it is a local
// buffer-reuse knob that cannot change any trained weight (warm fits are
// bit-identical to cold fits by construction), so the protocol stays at
// its existing version and workers simply run their own default.
fn kind_to_wire(kind: &ClassifierKind) -> WireClassifierKind {
    match kind {
        ClassifierKind::Cnn(c) => WireClassifierKind::Cnn {
            widths: c.widths.iter().map(|&w| w as u32).collect(),
            filters: c.filters as u32,
            hidden: c.hidden as u32,
            max_len: c.max_len as u32,
            epochs: c.epochs as u32,
            lr: c.lr,
            batch: c.batch as u32,
        },
        ClassifierKind::LogReg(c) => WireClassifierKind::LogReg {
            epochs: c.epochs as u32,
            lr: c.lr,
            l2: c.l2,
            l2_bow: c.l2_bow,
        },
    }
}

fn kind_from_wire(kind: &WireClassifierKind) -> ClassifierKind {
    match kind {
        WireClassifierKind::Cnn {
            widths,
            filters,
            hidden,
            max_len,
            epochs,
            lr,
            batch,
        } => ClassifierKind::Cnn(CnnConfig {
            widths: widths.iter().map(|&w| w as usize).collect(),
            filters: *filters as usize,
            hidden: *hidden as usize,
            max_len: *max_len as usize,
            epochs: *epochs as usize,
            lr: *lr,
            batch: *batch as usize,
            warm_start: true,
        }),
        WireClassifierKind::LogReg {
            epochs,
            lr,
            l2,
            l2_bow,
        } => ClassifierKind::LogReg(LogRegConfig {
            epochs: *epochs as usize,
            lr: *lr,
            l2: *l2,
            l2_bow: *l2_bow,
            warm_start: true,
        }),
    }
}

/// Serve the classifier protocol over `t` until shutdown or disconnect:
/// `ClassifierInit` re-analyzes the corpus, retrains embeddings with the
/// shipped seed (deterministic — bit-identical to the coordinator's) and
/// builds the described classifier; `Fit` and `PredictBatch` then forward
/// to it.
pub fn serve_classifier(t: &mut dyn Transport) -> Result<(), WireError> {
    struct State {
        corpus: Corpus,
        emb: Embeddings,
        clf: Box<dyn TextClassifier>,
    }
    let mut state: Option<State> = None;
    loop {
        let Some((seq, req)) = recv_request(t)? else {
            return Ok(());
        };
        match req {
            Request::Hello { version } => answer_hello(t, seq, version)?,
            Request::Shutdown => {
                reply(t, seq, &Response::Ack)?;
                return Ok(());
            }
            Request::ClassifierInit {
                corpus,
                embed_seed,
                kind,
                model_seed,
            } => {
                let corpus = match corpus.restore() {
                    Ok(c) => c,
                    Err(e) => {
                        reply_error(t, seq, e.to_string())?;
                        continue;
                    }
                };
                let emb = Embeddings::train(
                    &corpus,
                    &EmbedConfig {
                        seed: embed_seed,
                        ..Default::default()
                    },
                );
                let clf = kind_from_wire(&kind).build(&emb, model_seed);
                state = Some(State { corpus, emb, clf });
                reply(t, seq, &Response::Ack)?;
            }
            Request::Fit { pos, neg } => match state.as_mut() {
                None => reply_error(t, seq, "classifier worker not initialized".into())?,
                Some(s) => {
                    if pos
                        .iter()
                        .chain(&neg)
                        .any(|&id| id as usize >= s.corpus.len())
                    {
                        reply_error(t, seq, "training id out of range".into())?;
                        continue;
                    }
                    s.clf.fit(&s.corpus, &s.emb, &pos, &neg);
                    reply(t, seq, &Response::Ack)?;
                }
            },
            Request::PredictBatch { ids } => match state.as_mut() {
                None => reply_error(t, seq, "classifier worker not initialized".into())?,
                Some(s) => {
                    if ids.iter().any(|&id| id as usize >= s.corpus.len()) {
                        reply_error(t, seq, "prediction id out of range".into())?;
                        continue;
                    }
                    let mut scores = Vec::with_capacity(ids.len());
                    s.clf.predict_batch(&s.corpus, &s.emb, &ids, &mut scores);
                    reply(t, seq, &Response::Scores { scores })?;
                }
            },
            Request::CorpusAppend {
                texts,
                new_hi,
                scores: _,
            } => match state.as_mut() {
                None => reply_error(t, seq, "classifier worker not initialized".into())?,
                Some(s) => {
                    if s.corpus.len() + texts.len() != new_hi as usize {
                        reply_error(t, seq, "append length disagrees with coordinator".into())?;
                        continue;
                    }
                    s.corpus.append_texts(texts.iter(), 1);
                    // The embedding table is frozen at init; OOV tokens get
                    // the deterministic zero row, so featurization agrees
                    // with a coordinator that grew the same way.
                    s.emb.grow_to(s.corpus.vocab().len());
                    reply(t, seq, &Response::Ack)?;
                }
            },
            other => reply_error(t, seq, format!("not a classifier request: {other:?}"))?,
        }
    }
}

/// Coordinator-side [`TextClassifier`] that trains and scores in a
/// [`serve_classifier`] worker — `predict_batch` over the wire, so remote
/// shards can score without sharing memory.
///
/// `TextClassifier`'s surface is infallible, so a wire failure degrades to
/// *neutral* scores (0.5 — the score every sentence starts with) and is
/// recorded in [`WireClassifier::last_error`]; callers that care check it
/// after a pass. Scores that do arrive are the worker's bit-exact output.
pub struct WireClassifier {
    link: Mutex<(Session, Option<WireError>)>,
}

impl WireClassifier {
    /// Handshake and initialize the worker with the corpus, embedding
    /// seed and classifier recipe. The worker retrains embeddings from
    /// the same seed — deterministic, so features agree bit for bit.
    pub fn connect(
        transport: Box<dyn Transport>,
        corpus: &Corpus,
        embed_seed: u64,
        kind: &ClassifierKind,
        model_seed: u64,
    ) -> Result<WireClassifier, WireError> {
        let mut session = Session::new(transport);
        session.hello()?;
        let req = Request::ClassifierInit {
            corpus: CorpusSlice::full(corpus),
            embed_seed,
            kind: kind_to_wire(kind),
            model_seed,
        };
        match session.call(&req)? {
            Response::Ack => Ok(WireClassifier {
                link: Mutex::new((session, None)),
            }),
            other => Err(WireError::Protocol(format!(
                "classifier init expected Ack, got {other:?}"
            ))),
        }
    }

    /// The wire failure that degraded this classifier, if any.
    pub fn last_error(&self) -> Option<WireError> {
        self.link.lock().unwrap().1.clone()
    }
}

impl TextClassifier for WireClassifier {
    fn fit(&mut self, _corpus: &Corpus, _emb: &Embeddings, pos: &[u32], neg: &[u32]) {
        let link = self.link.get_mut().unwrap();
        if link.1.is_some() {
            return;
        }
        let req = Request::Fit {
            pos: pos.to_vec(),
            neg: neg.to_vec(),
        };
        match link.0.call(&req) {
            Ok(Response::Ack) => {}
            Ok(other) => {
                link.1 = Some(WireError::Protocol(format!(
                    "fit expected Ack, got {other:?}"
                )))
            }
            Err(e) => link.1 = Some(e),
        }
    }

    fn predict(&self, corpus: &Corpus, emb: &Embeddings, id: u32) -> f32 {
        let mut out = Vec::with_capacity(1);
        self.predict_batch(corpus, emb, &[id], &mut out);
        out[0]
    }

    fn predict_batch(&self, _corpus: &Corpus, _emb: &Embeddings, ids: &[u32], out: &mut Vec<f32>) {
        let mut link = self.link.lock().unwrap();
        if link.1.is_none() {
            let req = Request::PredictBatch { ids: ids.to_vec() };
            match link.0.call(&req) {
                Ok(Response::Scores { scores }) if scores.len() == ids.len() => {
                    out.extend_from_slice(&scores);
                    return;
                }
                Ok(other) => {
                    link.1 = Some(WireError::Protocol(format!(
                        "predict expected {} Scores, got {other:?}",
                        ids.len()
                    )))
                }
                Err(e) => link.1 = Some(e),
            }
        }
        out.extend(std::iter::repeat_n(0.5, ids.len()));
    }

    fn corpus_appended(&mut self, texts: &[String], new_len: usize) {
        let link = self.link.get_mut().unwrap();
        if link.1.is_some() {
            return;
        }
        // The worker validates the grown length against its own mirror;
        // the score span is empty because the classifier worker keeps no
        // per-sentence scores (that is the shard workers' state).
        let req = Request::CorpusAppend {
            texts: texts.to_vec(),
            new_hi: new_len as u32,
            scores: Vec::new(),
        };
        match link.0.call(&req) {
            Ok(Response::Ack) => {}
            Ok(other) => {
                link.1 = Some(WireError::Protocol(format!(
                    "corpus append expected Ack, got {other:?}"
                )))
            }
            Err(e) => link.1 = Some(e),
        }
    }
}

// ---- in-process worker spawning -----------------------------------------

/// Spawn a shard worker *thread* per shard over [`darwin_wire::InProc`]
/// channels and return a connector for
/// [`crate::Darwin::with_remote_shards`]. The workers run the exact serve
/// loop a separate process would and exit when the coordinator hangs up.
pub fn inproc_shard_connector() -> Box<ShardConnector> {
    Box::new(|_s, _range| {
        let (client, mut server) = darwin_wire::InProc::pair();
        std::thread::spawn(move || {
            let _ = serve_shard(&mut server);
        });
        Ok(Box::new(client))
    })
}

/// Spawn a classifier worker *thread* over a [`darwin_wire::InProc`]
/// channel and return a connector for
/// [`crate::Darwin::with_remote_classifier`]. The worker runs the exact
/// serve loop a separate process would and exits when the coordinator
/// hangs up.
pub fn inproc_classifier_connector() -> Box<crate::pipeline::ClassifierConnector> {
    Box::new(|| {
        let (client, mut server) = darwin_wire::InProc::pair();
        std::thread::spawn(move || {
            let _ = serve_classifier(&mut server);
        });
        Ok(Box::new(client))
    })
}

/// Spawn an oracle worker thread serving `oracle` over the given corpus
/// (both moved into the thread) and return the connected [`WireOracle`].
pub fn inproc_wire_oracle<O>(corpus: Corpus, oracle: O) -> Result<WireOracle, WireError>
where
    O: Oracle + Send + 'static,
{
    let (client, mut server) = darwin_wire::InProc::pair();
    std::thread::spawn(move || {
        let mut oracle = oracle;
        let _ = serve_oracle(&mut server, &corpus, &mut oracle);
    });
    WireOracle::connect(Box::new(client))
}

/// Spawn a classifier worker thread and return the connected
/// [`WireClassifier`].
pub fn inproc_wire_classifier(
    corpus: &Corpus,
    embed_seed: u64,
    kind: &ClassifierKind,
    model_seed: u64,
) -> Result<WireClassifier, WireError> {
    let (client, mut server) = darwin_wire::InProc::pair();
    std::thread::spawn(move || {
        let _ = serve_classifier(&mut server);
    });
    WireClassifier::connect(Box::new(client), corpus, embed_seed, kind, model_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use darwin_grammar::Heuristic;

    fn corpus() -> (Corpus, Vec<bool>) {
        let c = Corpus::from_texts([
            "the shuttle to the airport leaves hourly",
            "is there a shuttle to the airport tonight",
            "a bus to the airport runs daily",
            "order pizza to the room please",
            "the pool opens at nine daily",
        ]);
        (c, vec![true, true, true, false, false])
    }

    #[test]
    fn wire_oracle_mirrors_immediate_semantics() {
        let (c, labels) = corpus();
        let rule = Heuristic::phrase(&c, "shuttle").unwrap();
        // The worker thread owns its oracle, so give it 'static labels.
        let labels: &'static [bool] = Box::leak(labels.into_boxed_slice());
        let mut o = inproc_wire_oracle(c.clone(), GroundTruthOracle::new(labels, 0.8)).unwrap();
        assert!(o.poll().is_empty(), "no blocking when nothing in flight");
        o.submit(QuestionId(0), &c, &rule, &[0, 1]);
        o.submit(QuestionId(1), &c, &rule, &[3, 4]);
        let got = o.poll();
        assert_eq!(got, vec![(QuestionId(0), true), (QuestionId(1), false)]);
        assert!(o.poll().is_empty(), "answers deliver exactly once");
        assert_eq!(o.queries(), 2);
        assert!(o.healthy());
    }

    #[test]
    fn wire_oracle_goes_silent_on_dead_worker() {
        let (c, _labels) = corpus();
        let rule = Heuristic::phrase(&c, "shuttle").unwrap();
        let mut o = WireOracle {
            session: Session::new(Box::new(darwin_wire::DeadTransport)),
            in_flight: 0,
            submitted: 0,
            error: None,
        };
        o.submit(QuestionId(0), &c, &rule, &[0]);
        assert!(!o.healthy());
        assert!(o.poll().is_empty());
        assert_eq!(o.last_error(), Some(&WireError::Disconnected));
        assert_eq!(o.queries(), 1, "submissions still count as spent");
    }

    #[test]
    fn wire_classifier_matches_local_bit_for_bit() {
        let (c, _) = corpus();
        let kind = ClassifierKind::logreg();
        let emb = Embeddings::train(
            &c,
            &EmbedConfig {
                seed: 7,
                ..Default::default()
            },
        );
        let mut local = kind.build(&emb, 9);
        local.fit(&c, &emb, &[0, 1], &[3, 4]);
        let mut remote = inproc_wire_classifier(&c, 7, &kind, 9).unwrap();
        remote.fit(&c, &emb, &[0, 1], &[3, 4]);
        let ids: Vec<u32> = (0..c.len() as u32).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        local.predict_batch(&c, &emb, &ids, &mut a);
        remote.predict_batch(&c, &emb, &ids, &mut b);
        assert_eq!(a, b, "wire scores must be bit-identical");
        assert_eq!(remote.predict(&c, &emb, 0), a[0]);
        assert!(remote.last_error().is_none());
    }

    #[test]
    fn wire_classifier_degrades_to_neutral_on_failure() {
        let clf = WireClassifier {
            link: Mutex::new((Session::new(Box::new(darwin_wire::DeadTransport)), None)),
        };
        let (c, _) = corpus();
        let emb = Embeddings::train(&c, &EmbedConfig::default());
        let mut out = Vec::new();
        clf.predict_batch(&c, &emb, &[0, 1], &mut out);
        assert_eq!(out, vec![0.5, 0.5]);
        assert_eq!(clf.last_error(), Some(WireError::Disconnected));
    }

    /// A malformed init — span past the corpus, inverted span, positives
    /// outside the span — must be a clean remote error, never a worker
    /// panic, and the loop must survive to accept a valid init.
    #[test]
    fn shard_worker_validates_init_spans() {
        let (c, _labels) = corpus();
        let (client, mut server) = darwin_wire::InProc::pair();
        let handle = std::thread::spawn(move || serve_shard(&mut server));
        let mut session = Session::new(Box::new(client));
        session.hello().unwrap();
        let slice = CorpusSlice::full(&c);
        let bad_inits = [
            (0u32, 10u32, vec![], vec![0.5; 10]), // hi past the corpus
            (3, 1, vec![], vec![]),               // inverted span
            (0, 3, vec![4], vec![0.5; 3]),        // positive outside span
            (0, 3, vec![0], vec![0.5; 2]),        // scores length mismatch
        ];
        for (lo, hi, positives, scores) in bad_inits {
            let err = session
                .call(&Request::ShardInit {
                    corpus: slice.clone(),
                    index: IndexConfig::small(),
                    lo,
                    hi,
                    positives,
                    scores,
                })
                .unwrap_err();
            assert!(matches!(err, WireError::Remote(_)), "got {err:?}");
        }
        // The loop survived all of it: a valid init still works.
        let ok = session.call(&Request::ShardInit {
            corpus: slice,
            index: IndexConfig::small(),
            lo: 0,
            hi: c.len() as u32,
            positives: vec![0],
            scores: vec![0.5; c.len()],
        });
        assert_eq!(ok.unwrap(), Response::Ack);
        session.call(&Request::Shutdown).unwrap();
        assert!(handle.join().unwrap().is_ok());
    }

    /// Rule handles arrive over the wire as raw node ids; an out-of-range
    /// phrase node, or a tree pattern sent to a worker whose index was
    /// built without TreeMatch, must come back as a clean remote error —
    /// not a slice panic — and the worker must survive to serve valid
    /// requests.
    #[test]
    fn shard_worker_rejects_unknown_rule_handles() {
        let (c, _labels) = corpus();
        let (client, mut server) = darwin_wire::InProc::pair();
        let handle = std::thread::spawn(move || serve_shard(&mut server));
        let mut session = Session::new(Box::new(client));
        session.hello().unwrap();
        session
            .call(&Request::ShardInit {
                corpus: CorpusSlice::full(&c),
                index: IndexConfig {
                    enable_tree: false,
                    ..IndexConfig::small()
                },
                lo: 0,
                hi: c.len() as u32,
                positives: vec![0],
                scores: vec![0.5; c.len()],
            })
            .unwrap();
        let bad = [
            RuleRef::Phrase(u32::MAX), // out-of-range trie node
            RuleRef::Tree(0),          // no tree index in this worker
        ];
        for r in bad {
            let err = session
                .call(&Request::Track { rules: vec![r] })
                .unwrap_err();
            assert!(matches!(err, WireError::Remote(_)), "got {err:?}");
        }
        // The loop survived: a valid handle still tracks.
        let resp = session
            .call(&Request::Track {
                rules: vec![RuleRef::Root],
            })
            .unwrap();
        assert!(
            matches!(resp, Response::FragmentDeltas { .. }),
            "got {resp:?}"
        );
        session.call(&Request::Shutdown).unwrap();
        assert!(handle.join().unwrap().is_ok());
    }

    /// Training ids arrive over the wire as raw sentence ids; one past the
    /// worker's corpus must come back as a clean remote error — not an
    /// index panic inside `fit` — and the worker must survive to train and
    /// score a valid request.
    #[test]
    fn classifier_worker_rejects_out_of_range_training_ids() {
        let (c, _labels) = corpus();
        let (client, mut server) = darwin_wire::InProc::pair();
        let handle = std::thread::spawn(move || serve_classifier(&mut server));
        let mut session = Session::new(Box::new(client));
        session.hello().unwrap();
        let init = session.call(&Request::ClassifierInit {
            corpus: CorpusSlice::full(&c),
            embed_seed: 7,
            kind: kind_to_wire(&ClassifierKind::logreg()),
            model_seed: 9,
        });
        assert_eq!(init.unwrap(), Response::Ack);
        let n = c.len() as u32;
        for (pos, neg) in [(vec![0, n], vec![3]), (vec![0], vec![3, u32::MAX])] {
            let err = session.call(&Request::Fit { pos, neg }).unwrap_err();
            assert_eq!(err, WireError::Remote("training id out of range".into()));
        }
        // The loop survived: a valid fit trains and the model scores.
        let fit = session.call(&Request::Fit {
            pos: vec![0, 1],
            neg: vec![3, 4],
        });
        assert_eq!(fit.unwrap(), Response::Ack);
        let resp = session.call(&Request::PredictBatch { ids: vec![0, 3] });
        match resp.unwrap() {
            Response::Scores { scores } => assert!(scores[0] > scores[1], "{scores:?}"),
            other => panic!("expected Scores, got {other:?}"),
        }
        session.call(&Request::Shutdown).unwrap();
        assert!(handle.join().unwrap().is_ok());
    }

    /// The execution-layer invariance contract for the classifier
    /// boundary: a full run with the classifier behind an in-process wire
    /// worker replays the local run's trace and scores bit for bit.
    #[test]
    fn remote_classifier_run_replays_local_trace() {
        use crate::config::DarwinConfig;
        use crate::pipeline::{Darwin, Seed};
        use darwin_index::IndexSet;

        let mut texts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            texts.push(format!("is there a shuttle to the airport at {i}"));
            labels.push(true);
            texts.push(format!("is there a bus to the airport at {i}"));
            labels.push(true);
        }
        for i in 0..15 {
            texts.push(format!("order a pizza with {i} toppings to the room"));
            labels.push(false);
            texts.push(format!("the pool opens at {i} for guests"));
            labels.push(false);
        }
        let corpus = Corpus::from_texts(texts.iter());
        let index = IndexSet::build(&corpus, &IndexConfig::small());
        let cfg = DarwinConfig::fast().with_budget(8);
        let seed = || Seed::Rule(Heuristic::phrase(&corpus, "shuttle to the airport").unwrap());

        let local = Darwin::new(&corpus, &index, cfg.clone());
        let mut o = GroundTruthOracle::new(&labels, 0.8);
        let a = local.run(seed(), &mut o);

        let remote =
            Darwin::new(&corpus, &index, cfg).with_remote_classifier(inproc_classifier_connector());
        let mut o = GroundTruthOracle::new(&labels, 0.8);
        let b = remote.run(seed(), &mut o);

        assert!(b.wire_error.is_none(), "{:?}", b.wire_error);
        assert_eq!(a.positives, b.positives);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(&b.trace) {
            assert_eq!(x.rule, y.rule);
            assert_eq!(x.answer, y.answer);
            assert_eq!(x.new_positive_ids, y.new_positive_ids);
        }
        assert_eq!(a.scores, b.scores, "scores bit-identical across the wire");
    }

    /// A classifier connector whose transport is dead must abort the run
    /// cleanly before the first question — never panic, never silently run
    /// a local classifier the caller believes is remote.
    #[test]
    fn remote_classifier_connect_failure_aborts_cleanly() {
        use crate::config::DarwinConfig;
        use crate::pipeline::{Darwin, Seed};
        use darwin_index::IndexSet;

        let (c, labels) = corpus();
        let index = IndexSet::build(&c, &IndexConfig::small());
        let darwin = Darwin::new(&c, &index, DarwinConfig::fast().with_budget(4))
            .with_remote_classifier(Box::new(|| Ok(Box::new(darwin_wire::DeadTransport))));
        let mut o = GroundTruthOracle::new(&labels, 0.8);
        let run = darwin.run(
            Seed::Rule(Heuristic::phrase(&c, "shuttle").unwrap()),
            &mut o,
        );
        assert!(run.wire_error.is_some(), "dead transport must surface");
        assert!(run.trace.is_empty(), "no questions after an aborted init");
    }

    #[test]
    fn shard_worker_rejects_garbage_without_dying() {
        let (client, mut server) = darwin_wire::InProc::pair();
        let handle = std::thread::spawn(move || serve_shard(&mut server));
        let mut session = Session::new(Box::new(client));
        session.hello().unwrap();
        // Track before init: a clean remote error, and the loop survives.
        let err = session.call(&Request::Track { rules: vec![] }).unwrap_err();
        assert!(matches!(err, WireError::Remote(_)));
        // An oracle request to a shard worker: same.
        let err = session.call(&Request::Poll { timeout_ms: 0 }).unwrap_err();
        assert!(matches!(err, WireError::Remote(_)));
        session.call(&Request::Shutdown).unwrap();
        assert!(handle.join().unwrap().is_ok());
    }
}
