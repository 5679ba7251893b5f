//! The protocol messages spoken across the wire boundary.
//!
//! One [`Request`] / [`Response`] pair covers all three worker roles —
//! shard partitions, oracles and classifiers — so a single serve loop can
//! dispatch whatever the coordinator sends and reply [`Response::Error`]
//! to anything out of place. Every request receives exactly one response
//! (strict request/response discipline: the coordinator never pipelines,
//! so a reply can always be attributed to its request).
//!
//! Aggregates cross the wire as [`WireAgg`] (plain integers, not
//! `darwin-core` types — this crate sits below the engine) and corpora as
//! [`CorpusSlice`] (the display texts, re-analyzed on the worker: the
//! tokenizer, tagger, parser and index construction are deterministic, so
//! both sides materialize bit-identical sentences, vocabularies and rule
//! numberings from the same texts).

use crate::codec::{Decode, Encode, Reader};
use crate::error::WireError;
use crate::frame::PROTOCOL_VERSION;
use crate::transport::Transport;
use darwin_grammar::Heuristic;
use darwin_index::{IndexConfig, RuleRef};
use darwin_text::Corpus;

/// A shippable corpus: the sentence display texts of a contiguous id
/// range. `base` is the id of the first text, so a slice can describe a
/// shard's span or (with `base = 0` and every text) the whole corpus.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusSlice {
    /// Sentence id of `texts[0]`.
    pub base: u32,
    /// Display text per sentence, in id order.
    pub texts: Vec<String>,
}

impl CorpusSlice {
    /// The whole corpus as a slice (what shard/classifier init ships: the
    /// heuristic index needs global postings, so workers hold the full
    /// corpus even though they own only a span of it).
    pub fn full(corpus: &Corpus) -> CorpusSlice {
        CorpusSlice {
            base: 0,
            texts: (0..corpus.len() as u32).map(|id| corpus.text(id)).collect(),
        }
    }

    /// Re-analyze into a [`Corpus`]. Only valid for `base == 0` slices
    /// (sentence ids are positions, so a partial slice would renumber).
    pub fn restore(&self) -> Result<Corpus, WireError> {
        if self.base != 0 {
            return Err(WireError::Protocol(
                "cannot restore a corpus from a non-zero-based slice".into(),
            ));
        }
        Ok(Corpus::from_texts(self.texts.iter()))
    }
}

impl Encode for CorpusSlice {
    fn encode(&self, out: &mut Vec<u8>) {
        self.base.encode(out);
        self.texts.encode(out);
    }
}
impl Decode for CorpusSlice {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CorpusSlice {
            base: u32::decode(r)?,
            texts: Vec::decode(r)?,
        })
    }
}

/// A benefit-aggregate fragment in wire form (mirrors
/// `darwin_core::BenefitAgg`; integer fields, so merging and comparison
/// are exact on both sides of the boundary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireAgg {
    /// `|C_r ∩ P|` restricted to the shard's span.
    pub covered_pos: u64,
    /// `|C_r \ P|` restricted to the span.
    pub new_instances: u64,
    /// Fixed-point score sum over the span's `C_r \ P`.
    pub sum_q: i64,
}

impl Encode for WireAgg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.covered_pos.encode(out);
        self.new_instances.encode(out);
        self.sum_q.encode(out);
    }
}
impl Decode for WireAgg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WireAgg {
            covered_pos: u64::decode(r)?,
            new_instances: u64::decode(r)?,
            sum_q: i64::decode(r)?,
        })
    }
}

/// A freshly generated candidate with its search statistics (mirrors
/// `darwin_core::candidates::Candidate`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScoredRule {
    /// The candidate's index handle.
    pub rule: RuleRef,
    /// `|C_r ∩ P|` at generation time (global).
    pub overlap: u64,
    /// `|C_r|` (global).
    pub count: u64,
}

impl Encode for ScoredRule {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rule.encode(out);
        self.overlap.encode(out);
        self.count.encode(out);
    }
}
impl Decode for ScoredRule {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ScoredRule {
            rule: RuleRef::decode(r)?,
            overlap: u64::decode(r)?,
            count: u64::decode(r)?,
        })
    }
}

/// The benefit classifier a remote scorer should build (mirrors
/// `darwin_classifier::ClassifierKind` without depending on it).
#[derive(Clone, Debug, PartialEq)]
pub enum WireClassifierKind {
    /// The Kim CNN with explicit hyper-parameters.
    Cnn {
        /// Convolution widths.
        widths: Vec<u32>,
        /// Filters per width.
        filters: u32,
        /// First fully-connected layer width.
        hidden: u32,
        /// Maximum sentence length.
        max_len: u32,
        /// Training epochs.
        epochs: u32,
        /// Adam learning rate.
        lr: f32,
        /// Minibatch size.
        batch: u32,
    },
    /// Logistic regression with explicit hyper-parameters.
    LogReg {
        /// Training epochs.
        epochs: u32,
        /// Learning rate.
        lr: f32,
        /// L2 on the dense block.
        l2: f32,
        /// L2 on the bag-of-words block.
        l2_bow: f32,
    },
}

impl Encode for WireClassifierKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireClassifierKind::Cnn {
                widths,
                filters,
                hidden,
                max_len,
                epochs,
                lr,
                batch,
            } => {
                out.push(0);
                widths.encode(out);
                filters.encode(out);
                hidden.encode(out);
                max_len.encode(out);
                epochs.encode(out);
                lr.encode(out);
                batch.encode(out);
            }
            WireClassifierKind::LogReg {
                epochs,
                lr,
                l2,
                l2_bow,
            } => {
                out.push(1);
                epochs.encode(out);
                lr.encode(out);
                l2.encode(out);
                l2_bow.encode(out);
            }
        }
    }
}
impl Decode for WireClassifierKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(WireClassifierKind::Cnn {
                widths: Vec::decode(r)?,
                filters: u32::decode(r)?,
                hidden: u32::decode(r)?,
                max_len: u32::decode(r)?,
                epochs: u32::decode(r)?,
                lr: f32::decode(r)?,
                batch: u32::decode(r)?,
            }),
            1 => Ok(WireClassifierKind::LogReg {
                epochs: u32::decode(r)?,
                lr: f32::decode(r)?,
                l2: f32::decode(r)?,
                l2_bow: f32::decode(r)?,
            }),
            t => Err(WireError::Corrupt(format!("classifier kind tag {t}"))),
        }
    }
}

/// Coordinator → worker messages. See the module docs for the discipline.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Version negotiation opener (must be the first request).
    Hello {
        /// Newest protocol version the client speaks.
        version: u8,
    },
    /// Stand up a shard partition: full corpus, index recipe, owned span,
    /// current positives (restricted to the span) and span scores.
    ShardInit {
        /// The corpus (workers re-analyze and re-index it).
        corpus: CorpusSlice,
        /// Index construction recipe — must match the coordinator's.
        index: IndexConfig,
        /// First owned sentence id.
        lo: u32,
        /// One past the last owned sentence id.
        hi: u32,
        /// Current positive ids within `[lo, hi)`.
        positives: Vec<u32>,
        /// Current scores for `[lo, hi)`, in id order.
        scores: Vec<f32>,
    },
    /// Start tracking fragments for `rules` (scratch computation).
    Track {
        /// Rules to track.
        rules: Vec<RuleRef>,
    },
    /// Start tracking freshly generated candidates (statistics-seeded).
    TrackScored {
        /// Candidates with their search statistics.
        cands: Vec<ScoredRule>,
    },
    /// A full re-score epoch: replace the span scores and rebuild every
    /// fragment.
    Rebuild {
        /// New scores for the span, in id order.
        scores: Vec<f32>,
    },
    /// Drop fragments for every rule *not* listed.
    Retain {
        /// Rules to keep.
        keep: Vec<RuleRef>,
    },
    /// `P` grew by these ids (all within the span, none previously
    /// positive); patch fragments with pre-retrain scores, then extend the
    /// worker's positive set.
    PositivesAdded {
        /// The new positive ids.
        ids: Vec<u32>,
    },
    /// Incremental re-score journal for the span (`(id, old, new)`,
    /// id-sorted — one shard's run of `ScoreCache::last_changes`).
    ScoresChanged {
        /// The journal run.
        changes: Vec<(u32, f32, f32)>,
    },
    /// Read fragments for `rules` (resync/audit; the steady-state path
    /// rides mutation replies instead).
    Fragments {
        /// Rules to read.
        rules: Vec<RuleRef>,
    },
    /// Submit one oracle question.
    Submit {
        /// Driver-assigned question id.
        qid: u64,
        /// The rule under question.
        rule: Heuristic,
        /// Its coverage set `C_r`.
        coverage: Vec<u32>,
    },
    /// Collect available oracle answers, waiting up to `timeout_ms` for
    /// the first one (0 = return immediately).
    Poll {
        /// Longest the worker may block before replying.
        timeout_ms: u64,
    },
    /// Stand up a remote classifier over the corpus.
    ClassifierInit {
        /// The corpus (workers re-analyze it).
        corpus: CorpusSlice,
        /// Seed for the deterministic embedding training.
        embed_seed: u64,
        /// Which classifier to build.
        kind: WireClassifierKind,
        /// Model seed.
        model_seed: u64,
    },
    /// Train the remote classifier from scratch on these examples.
    Fit {
        /// Positive sentence ids.
        pos: Vec<u32>,
        /// Negative sentence ids.
        neg: Vec<u32>,
    },
    /// Score these sentence ids.
    PredictBatch {
        /// Ids to score, in the order scores should come back.
        ids: Vec<u32>,
    },
    /// Orderly teardown; the worker replies `Ack` and exits its loop.
    Shutdown,
    /// The coordinator appended sentences to the corpus: grow the worker's
    /// corpus, index and span-local state to match. Sent to every shard
    /// (each needs the full grown corpus to index), and to the classifier
    /// worker (which grows its corpus and embedding table).
    CorpusAppend {
        /// The appended sentence texts, in corpus-id order.
        texts: Vec<String>,
        /// The receiver's owned span's new exclusive upper bound — the
        /// grown corpus length for the last shard and the classifier,
        /// unchanged for every other shard (epoch rule: the chunk split
        /// is frozen, appended ids all join the last shard).
        new_hi: u32,
        /// Scores for ids the receiver *newly* owns (the appended tail of
        /// the last shard's span; empty for the others).
        scores: Vec<f32>,
    },
}

/// Worker → coordinator messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Version negotiation answer: `min(client, worker)`.
    Hello {
        /// The agreed session version.
        version: u8,
    },
    /// The request was applied; nothing to report.
    Ack,
    /// Fragments that changed under the preceding mutation, with their new
    /// values (sorted by rule, so replies are deterministic).
    FragmentDeltas {
        /// `(rule, fragment)` pairs.
        changed: Vec<(RuleRef, WireAgg)>,
    },
    /// Fragment read results, in request order (`None` = untracked).
    Fragments {
        /// One slot per requested rule.
        aggs: Vec<Option<WireAgg>>,
    },
    /// Oracle answers that have arrived, sorted by question id.
    Answers {
        /// `(qid, verdict)` pairs.
        answers: Vec<(u64, bool)>,
    },
    /// Prediction results, in request order.
    Scores {
        /// One score per requested id.
        scores: Vec<f32>,
    },
    /// The worker could not apply the request.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// The tag byte that opens each encoded [`Request`] variant — the one
/// definition `encode`, `decode` and coordinators that hand-assemble a
/// request body around a pre-encoded payload (`darwin_core::shard`) share.
pub mod tag {
    /// [`super::Request::Hello`].
    pub const HELLO: u8 = 0;
    /// [`super::Request::ShardInit`].
    pub const SHARD_INIT: u8 = 1;
    /// [`super::Request::Track`].
    pub const TRACK: u8 = 2;
    /// [`super::Request::TrackScored`].
    pub const TRACK_SCORED: u8 = 3;
    /// [`super::Request::Rebuild`].
    pub const REBUILD: u8 = 4;
    /// [`super::Request::Retain`].
    pub const RETAIN: u8 = 5;
    /// [`super::Request::PositivesAdded`].
    pub const POSITIVES_ADDED: u8 = 6;
    /// [`super::Request::ScoresChanged`].
    pub const SCORES_CHANGED: u8 = 7;
    /// [`super::Request::Fragments`].
    pub const FRAGMENTS: u8 = 8;
    /// [`super::Request::Submit`].
    pub const SUBMIT: u8 = 9;
    /// [`super::Request::Poll`].
    pub const POLL: u8 = 10;
    /// [`super::Request::ClassifierInit`].
    pub const CLASSIFIER_INIT: u8 = 11;
    /// [`super::Request::Fit`].
    pub const FIT: u8 = 12;
    /// [`super::Request::PredictBatch`].
    pub const PREDICT_BATCH: u8 = 13;
    /// [`super::Request::Shutdown`].
    pub const SHUTDOWN: u8 = 14;
    /// [`super::Request::CorpusAppend`].
    pub const CORPUS_APPEND: u8 = 15;
}

impl Encode for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello { version } => {
                out.push(tag::HELLO);
                version.encode(out);
            }
            Request::ShardInit {
                corpus,
                index,
                lo,
                hi,
                positives,
                scores,
            } => {
                out.push(tag::SHARD_INIT);
                corpus.encode(out);
                index.encode(out);
                lo.encode(out);
                hi.encode(out);
                positives.encode(out);
                scores.encode(out);
            }
            Request::Track { rules } => {
                out.push(tag::TRACK);
                rules.encode(out);
            }
            Request::TrackScored { cands } => {
                out.push(tag::TRACK_SCORED);
                cands.encode(out);
            }
            Request::Rebuild { scores } => {
                out.push(tag::REBUILD);
                scores.encode(out);
            }
            Request::Retain { keep } => {
                out.push(tag::RETAIN);
                keep.encode(out);
            }
            Request::PositivesAdded { ids } => {
                out.push(tag::POSITIVES_ADDED);
                ids.encode(out);
            }
            Request::ScoresChanged { changes } => {
                out.push(tag::SCORES_CHANGED);
                changes.encode(out);
            }
            Request::Fragments { rules } => {
                out.push(tag::FRAGMENTS);
                rules.encode(out);
            }
            Request::Submit {
                qid,
                rule,
                coverage,
            } => {
                out.push(tag::SUBMIT);
                qid.encode(out);
                rule.encode(out);
                coverage.encode(out);
            }
            Request::Poll { timeout_ms } => {
                out.push(tag::POLL);
                timeout_ms.encode(out);
            }
            Request::ClassifierInit {
                corpus,
                embed_seed,
                kind,
                model_seed,
            } => {
                out.push(tag::CLASSIFIER_INIT);
                corpus.encode(out);
                embed_seed.encode(out);
                kind.encode(out);
                model_seed.encode(out);
            }
            Request::Fit { pos, neg } => {
                out.push(tag::FIT);
                pos.encode(out);
                neg.encode(out);
            }
            Request::PredictBatch { ids } => {
                out.push(tag::PREDICT_BATCH);
                ids.encode(out);
            }
            Request::Shutdown => out.push(tag::SHUTDOWN),
            Request::CorpusAppend {
                texts,
                new_hi,
                scores,
            } => {
                out.push(tag::CORPUS_APPEND);
                texts.encode(out);
                new_hi.encode(out);
                scores.encode(out);
            }
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            tag::HELLO => Ok(Request::Hello {
                version: u8::decode(r)?,
            }),
            tag::SHARD_INIT => Ok(Request::ShardInit {
                corpus: CorpusSlice::decode(r)?,
                index: IndexConfig::decode(r)?,
                lo: u32::decode(r)?,
                hi: u32::decode(r)?,
                positives: Vec::decode(r)?,
                scores: Vec::decode(r)?,
            }),
            tag::TRACK => Ok(Request::Track {
                rules: Vec::decode(r)?,
            }),
            tag::TRACK_SCORED => Ok(Request::TrackScored {
                cands: Vec::decode(r)?,
            }),
            tag::REBUILD => Ok(Request::Rebuild {
                scores: Vec::decode(r)?,
            }),
            tag::RETAIN => Ok(Request::Retain {
                keep: Vec::decode(r)?,
            }),
            tag::POSITIVES_ADDED => Ok(Request::PositivesAdded {
                ids: Vec::decode(r)?,
            }),
            tag::SCORES_CHANGED => Ok(Request::ScoresChanged {
                changes: Vec::decode(r)?,
            }),
            tag::FRAGMENTS => Ok(Request::Fragments {
                rules: Vec::decode(r)?,
            }),
            tag::SUBMIT => Ok(Request::Submit {
                qid: u64::decode(r)?,
                rule: Heuristic::decode(r)?,
                coverage: Vec::decode(r)?,
            }),
            tag::POLL => Ok(Request::Poll {
                timeout_ms: u64::decode(r)?,
            }),
            tag::CLASSIFIER_INIT => Ok(Request::ClassifierInit {
                corpus: CorpusSlice::decode(r)?,
                embed_seed: u64::decode(r)?,
                kind: WireClassifierKind::decode(r)?,
                model_seed: u64::decode(r)?,
            }),
            tag::FIT => Ok(Request::Fit {
                pos: Vec::decode(r)?,
                neg: Vec::decode(r)?,
            }),
            tag::PREDICT_BATCH => Ok(Request::PredictBatch {
                ids: Vec::decode(r)?,
            }),
            tag::SHUTDOWN => Ok(Request::Shutdown),
            tag::CORPUS_APPEND => Ok(Request::CorpusAppend {
                texts: Vec::decode(r)?,
                new_hi: u32::decode(r)?,
                scores: Vec::decode(r)?,
            }),
            t => Err(WireError::Corrupt(format!("request tag {t}"))),
        }
    }
}

impl Encode for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Hello { version } => {
                out.push(0);
                version.encode(out);
            }
            Response::Ack => out.push(1),
            Response::FragmentDeltas { changed } => {
                out.push(2);
                changed.encode(out);
            }
            Response::Fragments { aggs } => {
                out.push(3);
                aggs.encode(out);
            }
            Response::Answers { answers } => {
                out.push(4);
                answers.encode(out);
            }
            Response::Scores { scores } => {
                out.push(5);
                scores.encode(out);
            }
            Response::Error { message } => {
                out.push(6);
                message.encode(out);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Response::Hello {
                version: u8::decode(r)?,
            }),
            1 => Ok(Response::Ack),
            2 => Ok(Response::FragmentDeltas {
                changed: Vec::decode(r)?,
            }),
            3 => Ok(Response::Fragments {
                aggs: Vec::decode(r)?,
            }),
            4 => Ok(Response::Answers {
                answers: Vec::decode(r)?,
            }),
            5 => Ok(Response::Scores {
                scores: Vec::decode(r)?,
            }),
            6 => Ok(Response::Error {
                message: String::decode(r)?,
            }),
            t => Err(WireError::Corrupt(format!("response tag {t}"))),
        }
    }
}

/// Client side of one protocol connection: owns the transport and the
/// request sequence counter. Every request is tagged with a
/// monotonically increasing `seq` that the worker must echo — a
/// duplicated, dropped or reordered frame desynchronizes the echo and
/// surfaces as a clean [`WireError::Protocol`] instead of a stale reply
/// being silently accepted for the wrong request.
pub struct Session {
    transport: Box<dyn Transport>,
    seq: u64,
}

impl Session {
    /// A client session over `transport` (sequence starts at 0).
    pub fn new(transport: Box<dyn Transport>) -> Session {
        Session { transport, seq: 0 }
    }

    /// One strict request/response exchange: tag, send, block for the
    /// echo-checked reply, and translate a worker-reported
    /// [`Response::Error`] into [`WireError::Remote`].
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send_request(req)?;
        self.recv_reply()
    }

    /// Send phase of an exchange: tag `req` with the next sequence number
    /// and flush it to the worker, without waiting for the reply. A
    /// concurrent fan-out drives the send phase on every shard session
    /// first, then joins the [`Session::recv_reply`]s in fixed shard
    /// order — each session still carries at most one request in flight,
    /// so the sequence-echo discipline is untouched.
    pub fn send_request(&mut self, req: &Request) -> Result<(), WireError> {
        let mut body = Vec::new();
        req.encode(&mut body);
        self.send_encoded(&body)
    }

    /// Send phase over a pre-encoded request body (the bytes
    /// `Request::encode` would produce, without the sequence tag).
    /// Shard-invariant broadcasts encode the body once and ship the same
    /// bytes to every session, each under its own sequence number.
    pub fn send_encoded(&mut self, body: &[u8]) -> Result<(), WireError> {
        self.seq += 1;
        let mut buf = Vec::with_capacity(8 + body.len());
        self.seq.encode(&mut buf);
        buf.extend_from_slice(body);
        self.transport.send(&buf)?;
        self.transport.flush()
    }

    /// Receive phase of an exchange: block for the reply to the request
    /// sent by the last [`Session::send_request`]/[`Session::send_encoded`],
    /// check the sequence echo, and translate a worker-reported
    /// [`Response::Error`] into [`WireError::Remote`].
    pub fn recv_reply(&mut self) -> Result<Response, WireError> {
        let frame = self.transport.recv()?;
        let mut r = Reader::new(&frame);
        let seq = u64::decode(&mut r)?;
        let resp = Response::decode(&mut r)?;
        r.finish()?;
        if seq != self.seq {
            return Err(WireError::Protocol(format!(
                "reply for request {seq} while awaiting {} (duplicated or dropped frame)",
                self.seq
            )));
        }
        match resp {
            Response::Error { message } => Err(WireError::Remote(message)),
            other => Ok(other),
        }
    }

    /// Version negotiation (see [`crate::frame`] docs): offer our newest
    /// version, accept the worker's `min`, and return the agreed session
    /// version.
    pub fn hello(&mut self) -> Result<u8, WireError> {
        let reply = self.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match reply {
            Response::Hello { version }
                if (crate::frame::MIN_SUPPORTED_VERSION..=PROTOCOL_VERSION).contains(&version) =>
            {
                Ok(version)
            }
            Response::Hello { version } => Err(WireError::BadVersion {
                got: version,
                want: PROTOCOL_VERSION,
            }),
            other => Err(WireError::Protocol(format!(
                "expected Hello, got {other:?}"
            ))),
        }
    }
}

/// Worker side: receive the next tagged request. `Ok(None)` on orderly
/// disconnect.
pub fn recv_request(t: &mut dyn Transport) -> Result<Option<(u64, Request)>, WireError> {
    let frame = match t.recv() {
        Ok(f) => f,
        Err(WireError::Disconnected) => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut r = Reader::new(&frame);
    let seq = u64::decode(&mut r)?;
    let req = Request::decode(&mut r)?;
    r.finish()?;
    Ok(Some((seq, req)))
}

/// Worker side: send `resp` echoing the request's `seq`, flushed — a
/// response is always a boundary (the coordinator is blocked on it).
pub fn send_response(t: &mut dyn Transport, seq: u64, resp: &Response) -> Result<(), WireError> {
    let mut buf = Vec::new();
    seq.encode(&mut buf);
    resp.encode(&mut buf);
    t.send(&buf)?;
    t.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(m: Request) {
        assert_eq!(Request::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    fn roundtrip_resp(m: Response) {
        assert_eq!(Response::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn requests_roundtrip() {
        let c = Corpus::from_texts(["the shuttle to the airport", "order a pizza now"]);
        roundtrip_req(Request::Hello { version: 1 });
        roundtrip_req(Request::ShardInit {
            corpus: CorpusSlice::full(&c),
            index: IndexConfig::small(),
            lo: 0,
            hi: 2,
            positives: vec![0],
            scores: vec![0.5, 0.25],
        });
        roundtrip_req(Request::Track {
            rules: vec![RuleRef::Root, RuleRef::Phrase(3)],
        });
        roundtrip_req(Request::TrackScored {
            cands: vec![ScoredRule {
                rule: RuleRef::Tree(2),
                overlap: 1,
                count: 9,
            }],
        });
        roundtrip_req(Request::Rebuild {
            scores: vec![0.1, 0.9],
        });
        roundtrip_req(Request::Retain {
            keep: vec![RuleRef::Phrase(1)],
        });
        roundtrip_req(Request::PositivesAdded { ids: vec![1] });
        roundtrip_req(Request::ScoresChanged {
            changes: vec![(1, 0.5, 0.75)],
        });
        roundtrip_req(Request::Fragments {
            rules: vec![RuleRef::Phrase(1)],
        });
        roundtrip_req(Request::Submit {
            qid: 7,
            rule: Heuristic::phrase(&c, "shuttle to").unwrap(),
            coverage: vec![0],
        });
        roundtrip_req(Request::Poll { timeout_ms: 250 });
        roundtrip_req(Request::ClassifierInit {
            corpus: CorpusSlice::full(&c),
            embed_seed: 42,
            kind: WireClassifierKind::LogReg {
                epochs: 12,
                lr: 0.1,
                l2: 1e-4,
                l2_bow: 1e-2,
            },
            model_seed: 42,
        });
        roundtrip_req(Request::Fit {
            pos: vec![0],
            neg: vec![1],
        });
        roundtrip_req(Request::PredictBatch { ids: vec![0, 1] });
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::CorpusAppend {
            texts: vec!["the late bus to the airport".into(), "pizza now".into()],
            new_hi: 9,
            scores: vec![0.5, 0.5],
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Hello { version: 1 });
        roundtrip_resp(Response::Ack);
        roundtrip_resp(Response::FragmentDeltas {
            changed: vec![(
                RuleRef::Phrase(4),
                WireAgg {
                    covered_pos: 2,
                    new_instances: 5,
                    sum_q: -17,
                },
            )],
        });
        roundtrip_resp(Response::Fragments {
            aggs: vec![
                None,
                Some(WireAgg {
                    covered_pos: 0,
                    new_instances: 1,
                    sum_q: 10_000,
                }),
            ],
        });
        roundtrip_resp(Response::Answers {
            answers: vec![(0, true), (3, false)],
        });
        roundtrip_resp(Response::Scores {
            scores: vec![0.125, 0.875],
        });
        roundtrip_resp(Response::Error {
            message: "span mismatch".into(),
        });
    }

    #[test]
    fn corpus_slice_restores_identically() {
        let c = Corpus::from_texts([
            "what is the best way to get to the airport",
            "order a pizza, please!",
        ]);
        let slice = CorpusSlice::full(&c);
        let back = slice.restore().unwrap();
        assert_eq!(back.len(), c.len());
        for id in 0..c.len() as u32 {
            assert_eq!(back.sentence(id).tokens, c.sentence(id).tokens);
            assert_eq!(back.sentence(id).tags, c.sentence(id).tags);
            assert_eq!(back.sentence(id).heads, c.sentence(id).heads);
        }
        assert!(CorpusSlice {
            base: 1,
            texts: vec![]
        }
        .restore()
        .is_err());
    }

    #[test]
    fn session_refuses_stale_replies() {
        use crate::transport::InProc;
        let (client, mut server) = InProc::pair();
        let mut session = Session::new(Box::new(client));
        // A conforming worker echoing sequence numbers.
        let echo = std::thread::spawn(move || {
            for _ in 0..2 {
                let (seq, _req) = recv_request(&mut server).unwrap().unwrap();
                send_response(&mut server, seq, &Response::Ack).unwrap();
            }
            // Then one *stale* reply: a retransmit of the old sequence.
            let (_seq, _req) = recv_request(&mut server).unwrap().unwrap();
            send_response(&mut server, 1, &Response::Ack).unwrap();
        });
        assert_eq!(session.call(&Request::Shutdown).unwrap(), Response::Ack);
        assert_eq!(session.call(&Request::Shutdown).unwrap(), Response::Ack);
        let err = session.call(&Request::Shutdown).unwrap_err();
        assert!(matches!(err, WireError::Protocol(_)), "got {err:?}");
        echo.join().unwrap();
    }

    #[test]
    fn session_hello_negotiates_version_one() {
        use crate::transport::InProc;
        let (client, mut server) = InProc::pair();
        let worker = std::thread::spawn(move || {
            let (seq, req) = recv_request(&mut server).unwrap().unwrap();
            let Request::Hello { version } = req else {
                panic!("expected hello")
            };
            send_response(
                &mut server,
                seq,
                &Response::Hello {
                    version: version.min(PROTOCOL_VERSION),
                },
            )
            .unwrap();
        });
        let mut session = Session::new(Box::new(client));
        assert_eq!(session.hello().unwrap(), PROTOCOL_VERSION);
        worker.join().unwrap();
    }

    #[test]
    fn corrupt_message_is_a_clean_error() {
        assert!(matches!(
            Request::from_bytes(&[200]),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            Response::from_bytes(&[]),
            Err(WireError::Truncated { .. })
        ));
    }
}
