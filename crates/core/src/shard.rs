//! The benefit store a run selects from: one local store, or a fleet of
//! shard workers.
//!
//! [`ShardedBenefitStore`] holds exactly one of two backends:
//!
//! * **local** — one full-span [`BenefitStore`] in this process. A local
//!   run has no shards: [`crate::DarwinConfig::shards`] counts workers,
//!   and a local run ignores it like it ignores `fanout`;
//! * **remote** — `S` [`RemoteShard`]s, one per contiguous id range of a
//!   [`darwin_index::ShardMap`]. Each worker (another thread or another
//!   process, behind a [`darwin_wire::Transport`]) maintains, for every
//!   tracked rule, the *fragment* of its benefit aggregate contributed by
//!   the shard's slice of the rule's coverage. The coordinator ships
//!   deltas — new positives, score-journal runs, rule-tracking requests —
//!   as wire messages, and every mutating reply carries the fragments
//!   that changed, which the coordinator applies to a local *mirror*.
//!   Selection reads the mirror, so the read path costs no round-trips.
//!
//! The remote coordinator:
//!
//! * **slices deltas by span** — a YES answer's new positive ids go to
//!   the shards whose spans hold them
//!   ([`ShardedBenefitStore::on_positives_added`]), and an incremental
//!   re-score journal (sorted by id, the `ScoreCache::last_changes`
//!   invariant) is sliced into per-shard runs with two binary searches
//!   per shard ([`ShardedBenefitStore::on_scores_changed`]);
//! * **fans requests out** per the configured [`Fanout`]: one blocking
//!   round trip per shard (`Sequential`, the reference trace) or all
//!   requests issued first and the replies joined in fixed shard order
//!   (`Concurrent`, so `S` network round trips overlap into roughly one).
//!   Shard-invariant request bodies (tracking lists, retain lists) are
//!   encoded *once* and broadcast. The fold order is the fixed shard
//!   order under both settings, so the knob never changes any state;
//! * **merges fragments exactly at read time** —
//!   [`ShardedBenefitStore::benefit_of`] sums the per-shard fragments in
//!   the fixed-point domain of [`crate::benefit::quantize`], where integer
//!   addition is associative, so the merged benefit is bit-identical to
//!   the local store's value for any shard count and any delta
//!   interleaving — fragments are integers on the wire, so transport
//!   changes nothing.
//!
//! **Failure discipline:** a wire failure during any fan-out operation
//! first attempts *reconnect-and-replay* when the store holds a
//! re-dial hook: every [`RemoteShard`] keeps, besides the fragment
//! mirror, the span's positives and scores as last *confirmed* by the
//! worker (mirrors advance only after a successful reply), so a fresh
//! worker can be stood up from the shipped `ShardInit` recipe, re-track
//! the mirrored rules, and replay the interrupted request exactly once.
//! If recovery is unavailable or fails, the coordinator is *poisoned*:
//! the surviving shards' in-flight replies are still drained (no reply
//! is left in a pipe to be misattributed), the error is returned (and
//! kept — see [`ShardedBenefitStore::wire_error`]), and every subsequent
//! read answers `None`, so selection can never act on a partially-merged
//! state. The engine aborts the run cleanly when it sees the poison;
//! nothing panics.

use crate::benefit::Benefit;
use crate::candidates::Candidate;
use crate::config::Fanout;
use crate::engine::{BenefitAgg, BenefitStore};
use darwin_index::fx::FxHashMap;
use darwin_index::{IdSet, IndexConfig, IndexSet, RuleRef, ShardMap};
use darwin_text::Corpus;
use darwin_wire::msg::{tag, CorpusSlice, Response, ScoredRule, Session, WireAgg};
use darwin_wire::{Encode, Transport, WireError};
use std::ops::Range;
use std::sync::Arc;

/// Builds the transport to one shard worker: called once per shard with
/// the shard index and its id range (and again on reconnect after a wire
/// failure, when the deployment supports re-dialing).
pub type ShardConnector =
    dyn Fn(usize, Range<u32>) -> Result<Box<dyn Transport>, WireError> + Send + Sync;

pub(crate) fn agg_from_wire(w: WireAgg) -> BenefitAgg {
    BenefitAgg {
        covered_pos: w.covered_pos as usize,
        new_instances: w.new_instances as usize,
        sum_q: w.sum_q,
    }
}

pub(crate) fn agg_to_wire(a: &BenefitAgg) -> WireAgg {
    WireAgg {
        covered_pos: a.covered_pos as u64,
        new_instances: a.new_instances as u64,
        sum_q: a.sum_q,
    }
}

/// `tag` + the `Vec<T>` wire encoding of `items` — byte-identical to
/// encoding the corresponding single-field `Request` variant, without
/// cloning `items` into one. The coordinator hand-assembles request bodies
/// so a shard-invariant payload is encoded once and broadcast instead of
/// re-encoded per shard; `bodies_match_request_encoding` pins the
/// equivalence.
fn body_of<T: Encode>(tag: u8, items: &[T]) -> Vec<u8> {
    let mut out = vec![tag];
    (items.len() as u32).encode(&mut out);
    for item in items {
        item.encode(&mut out);
    }
    out
}

/// The encoded shard-invariant prefix of `ShardInit` (corpus + index
/// recipe): encoded once, shared by every shard's init and kept for
/// reconnects — the corpus shipment dominates init cost, and `S` shards
/// need not pay the encode `S` times.
fn init_prefix(corpus: &Corpus, index_cfg: &IndexConfig) -> Vec<u8> {
    let mut out = Vec::new();
    CorpusSlice::full(corpus).encode(&mut out);
    index_cfg.encode(&mut out);
    out
}

fn expect_ack(resp: Response, what: &str) -> Result<(), WireError> {
    match resp {
        Response::Ack => Ok(()),
        other => Err(WireError::Protocol(format!(
            "{what} expected Ack, got {other:?}"
        ))),
    }
}

/// Span-state updates to fold into a [`RemoteShard`]'s mirrors once the
/// worker's reply confirms the request was applied — never before: a
/// failed request must leave the mirrors at the worker's last confirmed
/// state, so a reconnect can rebuild the worker from them and replay.
#[derive(Clone)]
enum Post {
    None,
    /// New positive ids (merged into the sorted span-positives mirror).
    Positives(Vec<u32>),
    /// `(id, new)` score writes for the span-scores mirror.
    Scores(Vec<(u32, f32)>),
    /// Replacement span scores after a full re-score epoch.
    Rebuild(Vec<f32>),
    /// Sorted keep-list: prune the fragment mirror to it.
    Retain(Arc<Vec<RuleRef>>),
    /// The corpus grew: the shard's confirmed span extends to `new_hi`
    /// (unchanged for every shard but the last — the epoch growth rule)
    /// and the span-scores mirror gains the newly owned tail.
    Append {
        /// The span's new exclusive upper bound.
        new_hi: u32,
        /// Scores for the newly owned ids (empty off the last shard).
        scores: Vec<f32>,
    },
}

/// One sent-but-not-yet-joined request: the encoded body (kept so a
/// reconnect can replay it) and the mirror updates its success implies.
struct Pending {
    body: Vec<u8>,
    post: Post,
}

// One builder per mutating request: its encoded body and the mirror
// update its success implies. Both the per-shard `RemoteShard` methods and
// the store's broadcasts go through these.

fn track_req(rules: &[RuleRef]) -> (Vec<u8>, Post) {
    (body_of(tag::TRACK, rules), Post::None)
}

fn track_scored_req(cands: &[Candidate]) -> (Vec<u8>, Post) {
    let cands: Vec<ScoredRule> = cands
        .iter()
        .map(|c| ScoredRule {
            rule: c.rule,
            overlap: c.overlap as u64,
            count: c.count as u64,
        })
        .collect();
    (body_of(tag::TRACK_SCORED, &cands), Post::None)
}

/// `span` is the receiving shard's slice of the new scores.
fn rebuild_req(span: &[f32]) -> (Vec<u8>, Post) {
    (body_of(tag::REBUILD, span), Post::Rebuild(span.to_vec()))
}

/// `kept` must be sorted (the mirror prune binary-searches it).
fn retain_req(kept: Vec<RuleRef>) -> (Vec<u8>, Post) {
    (body_of(tag::RETAIN, &kept), Post::Retain(Arc::new(kept)))
}

/// `ids` must all lie in the receiving shard's span.
fn positives_added_req(ids: Vec<u32>) -> (Vec<u8>, Post) {
    (body_of(tag::POSITIVES_ADDED, &ids), Post::Positives(ids))
}

/// `changes` is the receiving shard's run of the id-sorted journal.
fn scores_changed_req(changes: &[(u32, f32, f32)]) -> (Vec<u8>, Post) {
    let writes = changes.iter().map(|&(id, _, new)| (id, new)).collect();
    (body_of(tag::SCORES_CHANGED, changes), Post::Scores(writes))
}

/// Coordinator-side handle to a shard partition living in a worker behind
/// a [`Transport`]. Mutations are wire calls; reads hit the fragment
/// mirror the mutation replies keep up to date. Each mutation is split
/// into a *begin* (send) and *finish* (join) phase so the store can
/// drive many shards' round trips concurrently — one request in flight
/// per session at most, preserving the strict request/response
/// discipline.
pub struct RemoteShard {
    session: Session,
    /// This shard's index in the deployment (what the re-dial hook is
    /// called with).
    shard: usize,
    lo: u32,
    hi: u32,
    mirror: FxHashMap<RuleRef, BenefitAgg>,
    /// Positive ids within `[lo, hi)`, sorted — the worker's `P` as last
    /// confirmed.
    positives: Vec<u32>,
    /// Scores for `[lo, hi)` as last confirmed by the worker.
    scores: Vec<f32>,
    /// Encoded corpus + index recipe (see [`init_prefix`]), shared
    /// across shards and kept for reconnects.
    prefix: Arc<Vec<u8>>,
    /// Re-dial hook for reconnect-and-replay; `None` disables recovery
    /// (a wire failure then poisons the store immediately).
    redial: Option<Arc<ShardConnector>>,
    pending: Option<Pending>,
}

impl RemoteShard {
    /// Handshake with the worker and stand up its partition: ships the
    /// full corpus (workers index it themselves — the heuristic index
    /// needs global postings), the index recipe, the owned span, and the
    /// current positives/scores of that span.
    pub fn connect(
        transport: Box<dyn Transport>,
        corpus: &Corpus,
        index_cfg: &IndexConfig,
        lo: u32,
        hi: u32,
        p: &IdSet,
        scores: &[f32],
    ) -> Result<RemoteShard, WireError> {
        let positives: Vec<u32> = p.iter().filter(|&id| lo <= id && id < hi).collect();
        RemoteShard::connect_with(
            transport,
            0,
            Arc::new(init_prefix(corpus, index_cfg)),
            lo,
            hi,
            positives,
            scores[lo as usize..hi as usize].to_vec(),
            None,
        )
    }

    /// [`RemoteShard::connect`] from pre-encoded parts — what
    /// [`ShardedBenefitStore::connect_remote`] uses so `S` shards share
    /// one corpus encode, and what a reconnect replays from.
    #[allow(clippy::too_many_arguments)]
    fn connect_with(
        transport: Box<dyn Transport>,
        shard: usize,
        prefix: Arc<Vec<u8>>,
        lo: u32,
        hi: u32,
        positives: Vec<u32>,
        scores: Vec<f32>,
        redial: Option<Arc<ShardConnector>>,
    ) -> Result<RemoteShard, WireError> {
        let mut session = Session::new(transport);
        session.hello()?;
        let mut shard = RemoteShard {
            session,
            shard,
            lo,
            hi,
            mirror: FxHashMap::default(),
            positives,
            scores,
            prefix,
            redial,
            pending: None,
        };
        let body = shard.init_body();
        let resp = shard.call_encoded(&body)?;
        expect_ack(resp, "shard init")?;
        Ok(shard)
    }

    /// The `ShardInit` request body for this shard's current confirmed
    /// state: shared prefix + span + positives + scores. Byte-identical
    /// to encoding [`Request::ShardInit`] with the same fields.
    fn init_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.prefix.len() + 16 + 4 * self.scores.len());
        out.push(tag::SHARD_INIT);
        out.extend_from_slice(&self.prefix);
        self.lo.encode(&mut out);
        self.hi.encode(&mut out);
        self.positives.encode(&mut out);
        self.scores.encode(&mut out);
        out
    }

    fn call_encoded(&mut self, body: &[u8]) -> Result<Response, WireError> {
        self.session.send_encoded(body)?;
        self.session.recv_reply()
    }

    /// The owned id span `[lo, hi)`.
    pub fn span(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }

    /// Number of tracked (mirrored) rules.
    pub fn len(&self) -> usize {
        self.mirror.len()
    }

    /// Whether no rule is tracked.
    pub fn is_empty(&self) -> bool {
        self.mirror.is_empty()
    }

    /// Whether `r` has a mirrored fragment.
    pub fn contains(&self, r: RuleRef) -> bool {
        self.mirror.contains_key(&r)
    }

    /// The mirrored fragment for `r`, if tracked.
    pub fn agg(&self, r: RuleRef) -> Option<BenefitAgg> {
        self.mirror.get(&r).copied()
    }

    /// Send phase of one mutating request. On a send failure the
    /// reconnect path runs immediately (completing the whole exchange),
    /// so `Ok` means the request is either in flight or already applied.
    fn begin(&mut self, body: Vec<u8>, post: Post) -> Result<(), WireError> {
        debug_assert!(
            self.pending.is_none(),
            "one request in flight per session at most"
        );
        match self.session.send_encoded(&body) {
            Ok(()) => {
                self.pending = Some(Pending { body, post });
                Ok(())
            }
            Err(e) => {
                self.pending = Some(Pending { body, post });
                self.recover(e)
            }
        }
    }

    /// Join phase: receive the reply and fold it (fragments first, then
    /// the span-state post) into the mirrors. No-op when `begin` already
    /// completed the exchange through recovery.
    fn finish(&mut self) -> Result<(), WireError> {
        let Some(pending) = self.pending.take() else {
            return Ok(());
        };
        match self.session.recv_reply() {
            Ok(resp) => self.apply(resp, pending.post),
            // The worker is alive and answered: an application-level
            // refusal, not a transport failure — replaying it would only
            // repeat the refusal.
            Err(e @ WireError::Remote(_)) => Err(e),
            Err(e) => {
                self.pending = Some(pending);
                self.recover(e)
            }
        }
    }

    /// A mutating exchange, whole: begin + finish.
    fn mutate(&mut self, (body, post): (Vec<u8>, Post)) -> Result<(), WireError> {
        self.begin(body, post)?;
        self.finish()
    }

    /// Fold a mutation reply's fragment deltas into the mirror.
    fn fold(&mut self, resp: Response) -> Result<(), WireError> {
        match resp {
            Response::FragmentDeltas { changed } => {
                for (r, agg) in changed {
                    self.mirror.insert(r, agg_from_wire(agg));
                }
                Ok(())
            }
            Response::Ack => Ok(()),
            other => Err(WireError::Protocol(format!(
                "mutation expected FragmentDeltas/Ack, got {other:?}"
            ))),
        }
    }

    fn apply(&mut self, resp: Response, post: Post) -> Result<(), WireError> {
        self.fold(resp)?;
        match post {
            Post::None => {}
            Post::Positives(ids) => {
                self.positives.extend_from_slice(&ids);
                self.positives.sort_unstable();
            }
            Post::Scores(writes) => {
                for (id, new) in writes {
                    self.scores[(id - self.lo) as usize] = new;
                }
            }
            Post::Rebuild(scores) => self.scores = scores,
            Post::Retain(keep) => {
                self.mirror.retain(|r, _| keep.binary_search(r).is_ok());
            }
            Post::Append { new_hi, scores } => {
                self.hi = new_hi;
                self.scores.extend_from_slice(&scores);
            }
        }
        Ok(())
    }

    /// Reconnect-and-replay after a wire failure: re-dial the worker,
    /// rebuild it from the shipped `ShardInit` recipe and the confirmed
    /// mirrors, re-track the mirrored rules, and re-send the interrupted
    /// request. Exactly-once semantics fall out of the mirror
    /// discipline: mirrors reflect only confirmed requests, so the fresh
    /// worker re-derives the exact pre-failure state and the replayed
    /// request applies once. Unrecoverable failures surface the
    /// *original* error (the root cause) for the store to poison on.
    fn recover(&mut self, err: WireError) -> Result<(), WireError> {
        let Some(redial) = self.redial.clone() else {
            self.pending = None;
            return Err(err);
        };
        match self.replay(&redial) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.pending = None;
                Err(err)
            }
        }
    }

    fn replay(&mut self, redial: &Arc<ShardConnector>) -> Result<(), WireError> {
        let transport = redial(self.shard, self.lo..self.hi)?;
        self.session = Session::new(transport);
        self.session.hello()?;
        let body = self.init_body();
        let resp = self.call_encoded(&body)?;
        expect_ack(resp, "shard re-init")?;
        // Re-track every mirrored rule. The worker recomputes their
        // fragments from (index, P, scores); mirror exactness means the
        // returned values equal what we already hold, so folding them
        // back is idempotent.
        let mut rules: Vec<RuleRef> = self.mirror.keys().copied().collect();
        rules.sort_unstable();
        if !rules.is_empty() {
            let resp = self.call_encoded(&track_req(&rules).0)?;
            self.fold(resp)?;
        }
        if let Some(p) = self.pending.take() {
            let resp = self.call_encoded(&p.body)?;
            self.apply(resp, p.post)?;
        }
        Ok(())
    }

    /// Track `rules` (the worker computes fragments for the missing ones).
    pub fn track(&mut self, rules: &[RuleRef]) -> Result<(), WireError> {
        self.mutate(track_req(rules))
    }

    /// Track freshly generated candidates, statistics attached.
    pub fn track_scored(&mut self, cands: &[Candidate]) -> Result<(), WireError> {
        self.mutate(track_scored_req(cands))
    }

    /// Full re-score epoch: ship the span's new scores, the worker
    /// rebuilds every fragment and replies with all of them.
    pub fn rebuild(&mut self, full_scores: &[f32]) -> Result<(), WireError> {
        self.mutate(rebuild_req(
            &full_scores[self.lo as usize..self.hi as usize],
        ))
    }

    /// The mirrored rules satisfying `keep`, sorted.
    fn kept(&self, keep: impl Fn(RuleRef) -> bool) -> Vec<RuleRef> {
        let mut kept: Vec<RuleRef> = self.mirror.keys().copied().filter(|&r| keep(r)).collect();
        kept.sort_unstable();
        kept
    }

    /// Drop fragments for rules not satisfying `keep`, on both sides.
    pub fn retain(&mut self, keep: impl Fn(RuleRef) -> bool) -> Result<(), WireError> {
        self.mutate(retain_req(self.kept(keep)))
    }

    /// `P` grew by `ids` (all owned by this shard, pre-retrain scores
    /// still current on the worker).
    pub fn on_positives_added(&mut self, ids: &[u32]) -> Result<(), WireError> {
        debug_assert!(ids.iter().all(|&id| self.lo <= id && id < self.hi));
        self.mutate(positives_added_req(ids.to_vec()))
    }

    /// Ship this shard's slice of an incremental score journal.
    pub fn on_scores_changed(&mut self, changes: &[(u32, f32, f32)]) -> Result<(), WireError> {
        self.mutate(scores_changed_req(changes))
    }

    /// Send phase of an audit: request every mirrored rule's fragment,
    /// returning the (sorted) rule list the reply must be compared
    /// against.
    fn audit_begin(&mut self) -> Result<Vec<RuleRef>, WireError> {
        let mut rules: Vec<RuleRef> = self.mirror.keys().copied().collect();
        rules.sort_unstable();
        self.session
            .send_encoded(&body_of(tag::FRAGMENTS, &rules))?;
        Ok(rules)
    }

    /// Join phase of an audit: `Ok(true)` means the mirror is exact.
    fn audit_finish(&mut self, rules: &[RuleRef]) -> Result<bool, WireError> {
        match self.session.recv_reply()? {
            Response::Fragments { aggs } => {
                if aggs.len() != rules.len() {
                    return Ok(false);
                }
                Ok(rules
                    .iter()
                    .zip(aggs)
                    .all(|(r, a)| a.map(agg_from_wire) == self.mirror.get(r).copied()))
            }
            other => Err(WireError::Protocol(format!(
                "fragments expected Fragments, got {other:?}"
            ))),
        }
    }

    /// Audit the mirror against the worker's ground truth: fetch every
    /// mirrored rule's fragment and compare. `Ok(true)` means the mirror
    /// is exact.
    pub fn audit(&mut self) -> Result<bool, WireError> {
        let rules = self.audit_begin()?;
        self.audit_finish(&rules)
    }

    fn shutdown_begin(&mut self) -> Result<(), WireError> {
        self.session.send_encoded(&[tag::SHUTDOWN])
    }

    fn shutdown_finish(&mut self) -> Result<(), WireError> {
        expect_ack(self.session.recv_reply()?, "shutdown")
    }

    /// Orderly worker teardown (dropping the transport also works — the
    /// worker exits on disconnect — but this confirms delivery, and a
    /// shard worker releases its state before it acknowledges).
    pub fn shutdown(mut self) -> Result<(), WireError> {
        self.shutdown_begin()?;
        self.shutdown_finish()
    }
}

/// Drive one exchange across every shard of a fleet. `begin(s, w)` sends
/// shard `s`'s request and returns what the matching `finish` needs
/// (`None` = the shard has no work in this operation, and no frame was
/// sent); `finish` receives the reply and folds it.
///
/// `Sequential` performs one blocking round trip per shard in shard
/// order — the reference wire trace. `Concurrent` sends to every shard
/// first, then joins the replies in the same fixed shard order, so `S`
/// round trips overlap into roughly one; requests, replies and fold
/// order are identical, making the setting a pure latency knob. On a
/// partial failure under `Concurrent`, the surviving shards are still
/// joined (their replies drained) before the first error is returned —
/// no reply is left buffered to be misattributed to a later request.
fn fan_out<T>(
    shards: &mut [RemoteShard],
    fanout: Fanout,
    mut begin: impl FnMut(usize, &mut RemoteShard) -> Result<Option<T>, WireError>,
    mut finish: impl FnMut(&mut RemoteShard, T) -> Result<(), WireError>,
) -> Result<(), WireError> {
    match fanout {
        Fanout::Sequential => {
            for (s, w) in shards.iter_mut().enumerate() {
                if let Some(t) = begin(s, w)? {
                    finish(w, t)?;
                }
            }
            Ok(())
        }
        Fanout::Concurrent => {
            let mut first_err: Option<WireError> = None;
            let mut sent = Vec::new();
            for (s, w) in shards.iter_mut().enumerate() {
                match begin(s, w) {
                    Ok(Some(t)) => sent.push((w, t)),
                    Ok(None) => {}
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            for (w, t) in sent {
                if let Err(e) = finish(w, t) {
                    first_err.get_or_insert(e);
                }
            }
            first_err.map_or(Ok(()), Err)
        }
    }
}

/// The remote backend: one worker per range of `map`, driven per
/// `fanout`, and the wire failure that poisoned the fleet, if any.
struct Fleet {
    map: ShardMap,
    shards: Vec<RemoteShard>,
    fanout: Fanout,
    poisoned: Option<WireError>,
}

impl Fleet {
    /// The per-shard fragments summed in the fixed-point domain; `None`
    /// when untracked or poisoned.
    fn agg(&self, r: RuleRef) -> Option<BenefitAgg> {
        if self.poisoned.is_some() {
            return None;
        }
        let mut merged = BenefitAgg {
            covered_pos: 0,
            new_instances: 0,
            sum_q: 0,
        };
        for w in &self.shards {
            let frag = w.agg(r)?;
            merged.covered_pos += frag.covered_pos;
            merged.new_instances += frag.new_instances;
            merged.sum_q += frag.sum_q;
        }
        Some(merged)
    }

    /// Run a fallible fan-out under the poison discipline: refuse if
    /// already poisoned, poison on first failure.
    fn guarded(
        &mut self,
        f: impl FnOnce(&ShardMap, &mut [RemoteShard], Fanout) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let result = f(&self.map, &mut self.shards, self.fanout);
        if let Err(e) = &result {
            self.poisoned = Some(e.clone());
        }
        result
    }

    /// Drive one mutating request across every shard under the poison
    /// discipline. `payload(span)` builds the encoded body and post-state
    /// for the shard owning `span` (`None` = no work for that shard).
    fn broadcast(
        &mut self,
        mut payload: impl FnMut(Range<u32>) -> Option<(Vec<u8>, Post)>,
    ) -> Result<(), WireError> {
        self.guarded(|map, shards, fanout| {
            fan_out(
                shards,
                fanout,
                |s, w| {
                    payload(map.range(s))
                        .map(|(body, post)| w.begin(body, post))
                        .transpose()
                },
                |w, ()| w.finish(),
            )
        })
    }
}

enum Backend {
    Local(BenefitStore),
    Remote(Fleet),
}

/// The run's benefit aggregates behind one store-shaped facade: one
/// full-span [`BenefitStore`] in this process, or a fleet of shard
/// workers whose fragments merge exactly (see the module docs).
pub struct ShardedBenefitStore(Backend);

impl ShardedBenefitStore {
    /// The local backend: one full-span [`BenefitStore`].
    pub fn local() -> ShardedBenefitStore {
        ShardedBenefitStore(Backend::Local(BenefitStore::new()))
    }

    /// The remote backend, one worker per range of `map`: `connect`
    /// builds the transport for each shard, and every worker is
    /// initialized with the corpus (encoded once, shared across all `S`
    /// inits), the index recipe and the current `(P, scores)` state. The
    /// connector is kept for reconnect-and-replay after a mid-run wire
    /// failure; `fanout` selects how broadcasts are driven.
    pub fn connect_remote(
        map: ShardMap,
        corpus: &Corpus,
        index_cfg: &IndexConfig,
        p: &IdSet,
        scores: &[f32],
        connect: Arc<ShardConnector>,
        fanout: Fanout,
    ) -> Result<ShardedBenefitStore, WireError> {
        let prefix = Arc::new(init_prefix(corpus, index_cfg));
        let mut shards = Vec::with_capacity(map.shards());
        for (s, r) in map.ranges().enumerate() {
            let transport = connect(s, r.clone())?;
            let positives: Vec<u32> = p.iter().filter(|&id| r.start <= id && id < r.end).collect();
            shards.push(RemoteShard::connect_with(
                transport,
                s,
                prefix.clone(),
                r.start,
                r.end,
                positives,
                scores[r.start as usize..r.end as usize].to_vec(),
                Some(connect.clone()),
            )?);
        }
        Ok(ShardedBenefitStore(Backend::Remote(Fleet {
            map,
            shards,
            fanout,
            poisoned: None,
        })))
    }

    /// Number of shard workers (1 for the local store).
    pub fn shards(&self) -> usize {
        match &self.0 {
            Backend::Local(_) => 1,
            Backend::Remote(f) => f.shards.len(),
        }
    }

    /// Whether the aggregates live in shard workers (mirror-backed).
    pub fn is_remote(&self) -> bool {
        matches!(self.0, Backend::Remote(_))
    }

    /// The local full-span store (`None` for a remote fleet).
    pub fn as_local(&self) -> Option<&BenefitStore> {
        match &self.0 {
            Backend::Local(b) => Some(b),
            Backend::Remote(_) => None,
        }
    }

    /// Replace a remote fleet's fan-out discipline (a local store has
    /// none). A pure driving knob (requests, replies and fold order are
    /// unchanged), so flipping it between broadcasts is always safe — the
    /// bench compares modes on one worker fleet this way.
    pub fn set_fanout(&mut self, fanout: Fanout) {
        if let Backend::Remote(f) = &mut self.0 {
            f.fanout = fanout;
        }
    }

    /// The wire failure that poisoned this coordinator, if any. Poisoned
    /// stores answer `None` to every read — partial merges are
    /// unrepresentable.
    pub fn wire_error(&self) -> Option<&WireError> {
        match &self.0 {
            Backend::Local(_) => None,
            Backend::Remote(f) => f.poisoned.as_ref(),
        }
    }

    /// Number of tracked rules (every shard tracks the same set).
    pub fn len(&self) -> usize {
        match &self.0 {
            Backend::Local(b) => b.len(),
            Backend::Remote(f) => f.shards[0].len(),
        }
    }

    /// Whether no rule is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `r` is tracked (never, once poisoned).
    pub fn contains(&self, r: RuleRef) -> bool {
        match &self.0 {
            Backend::Local(b) => b.contains(r),
            Backend::Remote(f) => f.poisoned.is_none() && f.shards[0].contains(r),
        }
    }

    /// The aggregate for `r` — for a fleet, the per-shard fragments
    /// merged in the fixed-point domain, bit-identical to the local
    /// store's. `None` when untracked or when the coordinator is poisoned.
    pub fn agg(&self, r: RuleRef) -> Option<BenefitAgg> {
        match &self.0 {
            Backend::Local(b) => b.agg(r).copied(),
            Backend::Remote(f) => f.agg(r),
        }
    }

    /// The benefit for `r`, if tracked (what selection reads).
    pub fn benefit_of(&self, r: RuleRef) -> Option<Benefit> {
        self.agg(r).map(|a| a.benefit())
    }

    /// Ensure every rule in `rules` is tracked (encoded once and
    /// broadcast when remote).
    pub fn track(
        &mut self,
        rules: &[RuleRef],
        index: &IndexSet,
        p: &IdSet,
        scores: &[f32],
        threads: usize,
    ) -> Result<(), WireError> {
        match &mut self.0 {
            Backend::Local(b) => {
                b.track(rules.iter().copied(), index, p, scores, threads);
                Ok(())
            }
            Backend::Remote(f) => {
                let req = track_req(rules);
                f.broadcast(|_| Some(req.clone()))
            }
        }
    }

    /// [`ShardedBenefitStore::track`] for freshly generated candidates,
    /// seeding aggregates from the search statistics (see
    /// [`BenefitStore::track_scored`]).
    pub fn track_scored(
        &mut self,
        cands: &[Candidate],
        index: &IndexSet,
        p: &IdSet,
        scores: &[f32],
        threads: usize,
    ) -> Result<(), WireError> {
        match &mut self.0 {
            Backend::Local(b) => {
                b.track_scored(cands, index, p, scores, threads);
                Ok(())
            }
            Backend::Remote(f) => {
                let req = track_scored_req(cands);
                f.broadcast(|_| Some(req.clone()))
            }
        }
    }

    /// Recompute every aggregate from scratch after a full re-score epoch
    /// (remote workers receive their span's new scores and rebuild on
    /// their side).
    pub fn rebuild(
        &mut self,
        index: &IndexSet,
        p: &IdSet,
        scores: &[f32],
        threads: usize,
    ) -> Result<(), WireError> {
        match &mut self.0 {
            Backend::Local(b) => {
                b.rebuild(index, p, scores, threads);
                Ok(())
            }
            Backend::Remote(f) => {
                f.broadcast(|r| Some(rebuild_req(&scores[r.start as usize..r.end as usize])))
            }
        }
    }

    /// Drop aggregates for rules not satisfying `keep`.
    pub fn retain(&mut self, keep: impl Fn(RuleRef) -> bool) -> Result<(), WireError> {
        match &mut self.0 {
            Backend::Local(b) => {
                b.retain(keep);
                Ok(())
            }
            Backend::Remote(f) => {
                // Every shard tracks the same rule set, so the keep list
                // (and its encoding) is computed once and shared.
                let req = retain_req(f.shards[0].kept(keep));
                f.broadcast(|_| Some(req.clone()))
            }
        }
    }

    /// `P` grew by `new_ids`; each shard receives the ids in its span
    /// (and folds them into its fragments). Must be called with
    /// pre-retrain scores, like [`BenefitStore::on_positives_added`].
    pub fn on_positives_added(
        &mut self,
        new_ids: &[u32],
        corpus: &Corpus,
        index: &IndexSet,
        scores: &[f32],
    ) -> Result<(), WireError> {
        match &mut self.0 {
            Backend::Local(b) => {
                b.on_positives_added(new_ids, corpus, index, scores);
                Ok(())
            }
            Backend::Remote(f) => f.broadcast(|r| {
                let run: Vec<u32> = new_ids
                    .iter()
                    .copied()
                    .filter(|id| r.contains(id))
                    .collect();
                (!run.is_empty()).then(|| positives_added_req(run))
            }),
        }
    }

    /// Patch the aggregates with an id-sorted change journal. A fleet
    /// slices it into per-shard runs (disjoint, so every entry is encoded
    /// once whatever `S` is).
    pub fn on_scores_changed(
        &mut self,
        changes: &[(u32, f32, f32)],
        p: &IdSet,
        corpus: &Corpus,
        index: &IndexSet,
    ) -> Result<(), WireError> {
        debug_assert!(
            changes.windows(2).all(|w| w[0].0 <= w[1].0),
            "change journal must be sorted by id"
        );
        match &mut self.0 {
            Backend::Local(b) => {
                b.on_scores_changed(changes, p, corpus, index);
                Ok(())
            }
            Backend::Remote(f) => f.broadcast(|r| {
                let a = changes.partition_point(|&(id, _, _)| id < r.start);
                let b = changes.partition_point(|&(id, _, _)| id < r.end);
                (a < b).then(|| scores_changed_req(&changes[a..b]))
            }),
        }
    }

    /// The corpus grew at an append barrier: `texts` were appended as ids
    /// `corpus.len() - texts.len()..corpus.len()`, `index` and `scores`
    /// already cover them, and none are positive. The local store folds
    /// the appended ids into its aggregates.
    ///
    /// A fleet grows its id partition under the epoch rule
    /// ([`ShardMap::grow`] — the chunk split stays frozen, every new id
    /// joins the last shard). Every worker receives the appended texts
    /// (each needs the full grown corpus to grow its index), but only the
    /// last shard's span — and its slice of `scores` — actually moves.
    /// After the fan-out confirms, the shared `ShardInit` reconnect prefix
    /// is re-encoded from the grown corpus so a later worker death replays
    /// the grown deployment. A failure mid-append poisons the store like
    /// any other broadcast; the per-shard reconnect path replays the
    /// append body itself, so a transient death during the fan-out still
    /// converges on the grown state.
    pub fn on_corpus_appended(
        &mut self,
        corpus: &Corpus,
        texts: &[String],
        index: &IndexSet,
        scores: &[f32],
    ) -> Result<(), WireError> {
        let new_n = corpus.len() as u32;
        let old_n = new_n - texts.len() as u32;
        debug_assert_eq!(scores.len(), new_n as usize);
        if new_n == old_n {
            return Ok(());
        }
        let f = match &mut self.0 {
            Backend::Local(b) => {
                b.on_ids_appended(old_n..new_n, index, scores);
                return Ok(());
            }
            Backend::Remote(f) => f,
        };
        debug_assert_eq!(f.map.sentences(), old_n as usize);
        f.map.grow(new_n as usize);
        // The texts dominate the frame; encode them once and share the
        // byte run across every shard's body.
        let mut texts_enc = Vec::new();
        (texts.len() as u32).encode(&mut texts_enc);
        for t in texts {
            t.encode(&mut texts_enc);
        }
        f.broadcast(|r| {
            // Only the last shard's span reaches past the old universe.
            let span: &[f32] = if r.end > old_n {
                &scores[old_n as usize..r.end as usize]
            } else {
                &[]
            };
            let mut body = Vec::with_capacity(1 + texts_enc.len() + 8 + 4 * span.len());
            body.push(tag::CORPUS_APPEND);
            body.extend_from_slice(&texts_enc);
            r.end.encode(&mut body);
            (span.len() as u32).encode(&mut body);
            for v in span {
                v.encode(&mut body);
            }
            Some((
                body,
                Post::Append {
                    new_hi: r.end,
                    scores: span.to_vec(),
                },
            ))
        })?;
        let prefix = Arc::new(init_prefix(corpus, index.config()));
        for w in &mut f.shards {
            w.prefix = prefix.clone();
        }
        Ok(())
    }

    /// Audit every remote mirror against its worker's ground truth
    /// (`Ok(true)` when all mirrors are exact; trivially true for the
    /// local store). Driven per the configured fan-out like every other
    /// broadcast; a wire failure poisons the store (after draining the
    /// surviving shards' replies).
    pub fn audit_remote(&mut self) -> Result<bool, WireError> {
        let Backend::Remote(f) = &mut self.0 else {
            return Ok(true);
        };
        let mut exact = true;
        f.guarded(|_, shards, fanout| {
            fan_out(
                shards,
                fanout,
                |_, w| w.audit_begin().map(Some),
                |w, rules| {
                    exact &= w.audit_finish(&rules)?;
                    Ok(())
                },
            )
        })?;
        Ok(exact)
    }

    /// Tear down remote workers in an orderly fashion (no-op for the
    /// local store; concurrent fan-out sends every `Shutdown` before
    /// joining the `Ack`s). Dropping the store also works — workers exit
    /// on disconnect.
    pub fn shutdown(self) -> Result<(), WireError> {
        let Backend::Remote(mut f) = self.0 else {
            return Ok(());
        };
        fan_out(
            &mut f.shards,
            f.fanout,
            |_, w| w.shutdown_begin().map(Some),
            |w, ()| w.shutdown_finish(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benefit::benefit;
    use darwin_index::{IndexConfig, IndexSet};
    use darwin_text::Corpus;
    use darwin_wire::msg::Request;

    fn setup() -> (Corpus, IndexSet) {
        let c = Corpus::from_texts([
            "the shuttle to the airport leaves hourly",
            "is there a shuttle to the airport tonight",
            "a bus to the airport runs daily",
            "order pizza to the room please",
            "the pool opens at nine daily",
            "is there a bus downtown tonight",
            "the shuttle downtown is free",
        ]);
        let idx = IndexSet::build(&c, &IndexConfig::small());
        (c, idx)
    }

    /// The hand-assembled request bodies must be byte-identical to
    /// encoding the [`Request`] variants they stand in for — the
    /// encode-once broadcast is a pure amortization, not a dialect.
    #[test]
    fn bodies_match_request_encoding() {
        let rules = vec![RuleRef::Phrase(3), RuleRef::Phrase(7)];
        let scores = vec![0.25f32, 0.5, 0.75];
        let ids = vec![4u32, 9];
        let changes = vec![(2u32, 0.1f32, 0.9f32), (5, 0.3, 0.05)];
        let cands = vec![Candidate {
            rule: RuleRef::Phrase(3),
            overlap: 2,
            count: 5,
        }];
        let cases: Vec<(Vec<u8>, Request)> = vec![
            (
                track_req(&rules).0,
                Request::Track {
                    rules: rules.clone(),
                },
            ),
            (
                track_scored_req(&cands).0,
                Request::TrackScored {
                    cands: vec![ScoredRule {
                        rule: RuleRef::Phrase(3),
                        overlap: 2,
                        count: 5,
                    }],
                },
            ),
            (
                rebuild_req(&scores).0,
                Request::Rebuild {
                    scores: scores.clone(),
                },
            ),
            (
                retain_req(rules.clone()).0,
                Request::Retain {
                    keep: rules.clone(),
                },
            ),
            (
                positives_added_req(ids.clone()).0,
                Request::PositivesAdded { ids: ids.clone() },
            ),
            (
                scores_changed_req(&changes).0,
                Request::ScoresChanged {
                    changes: changes.clone(),
                },
            ),
            (
                body_of(tag::FRAGMENTS, &rules),
                Request::Fragments {
                    rules: rules.clone(),
                },
            ),
            (vec![tag::SHUTDOWN], Request::Shutdown),
        ];
        for (body, req) in cases {
            assert_eq!(body, req.to_bytes(), "{req:?}");
        }
        // And the assembled ShardInit body equals the encoded variant.
        let (c, _) = setup();
        let cfg = IndexConfig::small();
        let prefix = Arc::new(init_prefix(&c, &cfg));
        let mut init = vec![tag::SHARD_INIT];
        init.extend_from_slice(&prefix);
        2u32.encode(&mut init);
        5u32.encode(&mut init);
        vec![3u32].encode(&mut init);
        vec![0.5f32, 0.25, 0.125].encode(&mut init);
        assert_eq!(
            init,
            Request::ShardInit {
                corpus: CorpusSlice::full(&c),
                index: cfg,
                lo: 2,
                hi: 5,
                positives: vec![3],
                scores: vec![0.5, 0.25, 0.125],
            }
            .to_bytes()
        );
        // And the assembled CorpusAppend body (texts encoded once, shared
        // across shards) equals the encoded variant.
        let texts = vec!["the night bus".to_string(), "pizza downtown".to_string()];
        let span = [0.5f32, 0.5];
        let mut texts_enc = Vec::new();
        (texts.len() as u32).encode(&mut texts_enc);
        for t in &texts {
            t.encode(&mut texts_enc);
        }
        let mut append = vec![tag::CORPUS_APPEND];
        append.extend_from_slice(&texts_enc);
        9u32.encode(&mut append);
        (span.len() as u32).encode(&mut append);
        for v in span {
            v.encode(&mut append);
        }
        assert_eq!(
            append,
            Request::CorpusAppend {
                texts,
                new_hi: 9,
                scores: span.to_vec(),
            }
            .to_bytes()
        );
    }

    fn inproc_connector() -> Arc<ShardConnector> {
        Arc::new(|_, _| {
            let (client, mut server) = darwin_wire::InProc::pair();
            std::thread::spawn(move || {
                let _ = crate::remote::serve_shard(&mut server);
            });
            Ok(Box::new(client) as Box<dyn Transport>)
        })
    }

    /// `shards` InProc workers over `c`, initialized from `(p, scores)`.
    fn fleet(
        c: &Corpus,
        shards: usize,
        p: &IdSet,
        scores: &[f32],
        fanout: Fanout,
    ) -> ShardedBenefitStore {
        ShardedBenefitStore::connect_remote(
            ShardMap::new(c.len(), shards),
            c,
            &IndexConfig::small(),
            p,
            scores,
            inproc_connector(),
            fanout,
        )
        .unwrap()
    }

    /// Merged fragments equal the global benefit for every shard count,
    /// through tracking, positive deltas, journal patches and rebuilds.
    #[test]
    fn merge_is_exact_for_every_shard_count() {
        let (c, idx) = setup();
        let n = c.len();
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        for shards in [1usize, 2, 3, 4, 7] {
            let mut p = IdSet::from_ids(&[0], n);
            let mut scores: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).fract()).collect();
            let mut store = match shards {
                1 => ShardedBenefitStore::local(),
                _ => fleet(&c, shards, &p, &scores, Fanout::Concurrent),
            };
            store.track(&rules, &idx, &p, &scores, 1).unwrap();

            let check = |store: &ShardedBenefitStore, p: &IdSet, scores: &[f32], label: &str| {
                for &r in &rules {
                    assert_eq!(
                        store.benefit_of(r).unwrap(),
                        benefit(idx.coverage(r), p, scores),
                        "S={shards} {label}: rule {:?}",
                        idx.heuristic(r)
                    );
                }
            };
            check(&store, &p, &scores, "after track");

            // P grows across shard boundaries.
            let new_ids = [1u32, 5, 6];
            store
                .on_positives_added(&new_ids, &c, &idx, &scores)
                .unwrap();
            p.extend_from_slice(&new_ids);
            check(&store, &p, &scores, "after positives");

            // Sorted journal spanning several shards; one id inside P.
            let changes: Vec<(u32, f32, f32)> = vec![
                (2, scores[2], 0.9),
                (3, scores[3], 0.05),
                (5, scores[5], 0.7),
            ];
            for &(id, _, new) in &changes {
                if !p.contains(id) {
                    scores[id as usize] = new;
                }
            }
            store.on_scores_changed(&changes, &p, &c, &idx).unwrap();
            check(&store, &p, &scores, "after journal");

            // Full epoch.
            for (i, s) in scores.iter_mut().enumerate() {
                *s = (*s + 0.17 + i as f32 * 0.013).fract();
            }
            store.rebuild(&idx, &p, &scores, 4).unwrap();
            check(&store, &p, &scores, "after rebuild");
            store.shutdown().unwrap();
        }
    }

    #[test]
    fn local_store_is_one_full_span_store() {
        let mut store = ShardedBenefitStore::local();
        assert_eq!(store.shards(), 1);
        assert!(!store.is_remote());
        assert_eq!(store.as_local().unwrap().span(), (0, u32::MAX));
        assert!(store.wire_error().is_none());
        assert_eq!(store.audit_remote(), Ok(true));
        store.shutdown().unwrap();
    }

    #[test]
    fn retain_applies_to_all_partitions() {
        let (c, idx) = setup();
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        let p = IdSet::from_ids(&[0, 1], c.len());
        let scores = vec![0.5; c.len()];
        let mut store = fleet(&c, 3, &p, &scores, Fanout::Concurrent);
        store.track(&rules, &idx, &p, &scores, 1).unwrap();
        let keep = rules[0];
        store.retain(|r| r == keep).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.contains(keep));
        assert!(store.benefit_of(rules[1]).is_none());
        assert!(store.audit_remote().unwrap());
        store.shutdown().unwrap();
    }

    /// Drive the full mutation vocabulary through remote workers under
    /// both fan-out disciplines: every mirror state (and therefore every
    /// read) must be identical to the local reference, and the audit
    /// must confirm exactness against worker ground truth.
    #[test]
    fn concurrent_fanout_matches_sequential_and_local() {
        let (c, idx) = setup();
        let n = c.len();
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        for fanout in [Fanout::Sequential, Fanout::Concurrent] {
            let mut p = IdSet::from_ids(&[0], n);
            let mut scores: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).fract()).collect();
            let mut store = fleet(&c, 3, &p, &scores, fanout);
            let mut reference = ShardedBenefitStore::local();

            let check =
                |store: &ShardedBenefitStore, reference: &ShardedBenefitStore, label: &str| {
                    for &r in &rules {
                        assert_eq!(
                            store.benefit_of(r),
                            reference.benefit_of(r),
                            "{fanout:?} {label}: rule {:?}",
                            idx.heuristic(r)
                        );
                    }
                };

            store.track(&rules, &idx, &p, &scores, 1).unwrap();
            reference.track(&rules, &idx, &p, &scores, 1).unwrap();
            check(&store, &reference, "after track");

            let new_ids = [1u32, 5, 6];
            store
                .on_positives_added(&new_ids, &c, &idx, &scores)
                .unwrap();
            reference
                .on_positives_added(&new_ids, &c, &idx, &scores)
                .unwrap();
            p.extend_from_slice(&new_ids);
            check(&store, &reference, "after positives");

            let changes: Vec<(u32, f32, f32)> = vec![
                (2, scores[2], 0.9),
                (3, scores[3], 0.05),
                (5, scores[5], 0.7),
            ];
            for &(id, _, new) in &changes {
                if !p.contains(id) {
                    scores[id as usize] = new;
                }
            }
            store.on_scores_changed(&changes, &p, &c, &idx).unwrap();
            reference.on_scores_changed(&changes, &p, &c, &idx).unwrap();
            check(&store, &reference, "after journal");

            for (i, s) in scores.iter_mut().enumerate() {
                *s = (*s + 0.17 + i as f32 * 0.013).fract();
            }
            store.rebuild(&idx, &p, &scores, 1).unwrap();
            reference.rebuild(&idx, &p, &scores, 1).unwrap();
            check(&store, &reference, "after rebuild");

            let keep: Vec<RuleRef> = rules.iter().copied().take(rules.len() / 2).collect();
            store.retain(|r| keep.contains(&r)).unwrap();
            reference.retain(|r| keep.contains(&r)).unwrap();
            assert_eq!(store.len(), reference.len(), "{fanout:?} after retain");
            check(&store, &reference, "after retain");

            assert!(store.audit_remote().unwrap(), "{fanout:?} audit");
            store.shutdown().unwrap();
        }
    }

    /// A worker dying mid-run recovers through reconnect-and-replay when
    /// the connector can stand up a fresh worker: the interrupted
    /// request replays exactly once and the run continues unpoisoned.
    #[test]
    fn reconnect_replays_interrupted_request() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (c, idx) = setup();
        let n = c.len();
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        let p = IdSet::from_ids(&[0], n);
        let scores = vec![0.5f32; n];
        // First dial per shard: a worker whose transport we can sever.
        // Re-dials: healthy in-proc workers.
        let dials = Arc::new(AtomicUsize::new(0));
        let dials_in_connector = dials.clone();
        let connect: Arc<ShardConnector> = Arc::new(move |_, _| {
            dials_in_connector.fetch_add(1, Ordering::SeqCst);
            let (client, mut server) = darwin_wire::InProc::pair();
            std::thread::spawn(move || {
                let _ = crate::remote::serve_shard(&mut server);
            });
            Ok(Box::new(client) as Box<dyn Transport>)
        });
        let mut store = ShardedBenefitStore::connect_remote(
            ShardMap::new(n, 2),
            &c,
            &IndexConfig::small(),
            &p,
            &scores,
            connect,
            Fanout::Concurrent,
        )
        .unwrap();
        store.track(&rules, &idx, &p, &scores, 1).unwrap();
        let before = dials.load(Ordering::SeqCst);

        // Sever shard 0's transport under the store's feet: the next
        // broadcast fails mid-fan-out and must recover by re-dialing.
        if let Backend::Remote(f) = &mut store.0 {
            f.shards[0].session = Session::new(Box::new(darwin_wire::DeadTransport));
        }
        let changes: Vec<(u32, f32, f32)> = vec![(1, 0.5, 0.9), (5, 0.5, 0.1)];
        store.on_scores_changed(&changes, &p, &c, &idx).unwrap();
        assert!(store.wire_error().is_none(), "recovered, not poisoned");
        assert!(dials.load(Ordering::SeqCst) > before, "re-dialed");

        // The recovered deployment is still exact.
        assert!(store.audit_remote().unwrap());
        let mut reference = ShardedBenefitStore::local();
        reference.track(&rules, &idx, &p, &scores, 1).unwrap();
        reference.on_scores_changed(&changes, &p, &c, &idx).unwrap();
        for &r in &rules {
            assert_eq!(store.benefit_of(r), reference.benefit_of(r));
        }
        store.shutdown().unwrap();
    }

    /// The store leg of append equivalence: growing the partition at an
    /// append barrier leaves every merged benefit identical to a scratch
    /// pass over the grown corpus — for the local store, and for worker
    /// fleets at several shard counts under both fan-outs (where the
    /// append deltas must also keep the mirrors exact against worker
    /// ground truth). S = 5 over seven sentences leaves a non-last shard
    /// clipped by the universe edge, which must not grow. Growth then
    /// continues across the barrier: an appended id turning positive
    /// flows through the ordinary delta route.
    #[test]
    fn append_matches_scratch_store_on_grown_corpus() {
        let extra = vec![
            "the late shuttle downtown leaves hourly".to_string(),
            "order a pizza downtown tonight".to_string(),
        ];
        let run = |mut store: ShardedBenefitStore, label: &str| {
            let (mut c, mut idx) = setup();
            let old_n = c.len();
            let rules: Vec<RuleRef> = idx.all_rules().collect();
            let mut p = IdSet::from_ids(&[0, 1], old_n);
            let mut scores: Vec<f32> = (0..old_n).map(|i| (i as f32 * 0.31).fract()).collect();
            store.track(&rules, &idx, &p, &scores, 1).unwrap();

            c.append_texts(extra.iter(), 1);
            idx.append(&c).unwrap();
            scores.resize(c.len(), 0.5); // neutral prior for appended ids
            store.on_corpus_appended(&c, &extra, &idx, &scores).unwrap();
            if let Backend::Remote(f) = &store.0 {
                assert_eq!(f.map.sentences(), c.len(), "{label}");
                let spans: Vec<(u32, u32)> = f.shards.iter().map(RemoteShard::span).collect();
                let ranges: Vec<(u32, u32)> = f.map.ranges().map(|r| (r.start, r.end)).collect();
                assert_eq!(spans, ranges, "{label}: confirmed spans follow the map");
            }
            for &r in &rules {
                assert_eq!(
                    store.benefit_of(r).unwrap(),
                    benefit(idx.coverage(r), &p, &scores),
                    "{label} post-append: rule {:?}",
                    idx.heuristic(r)
                );
            }

            // An appended sentence turns positive across the barrier.
            let appended = old_n as u32 + 1;
            store
                .on_positives_added(&[appended], &c, &idx, &scores)
                .unwrap();
            p.insert(appended);
            for &r in &rules {
                assert_eq!(
                    store.benefit_of(r).unwrap(),
                    benefit(idx.coverage(r), &p, &scores),
                    "{label} post-YES: rule {:?}",
                    idx.heuristic(r)
                );
            }
            store
        };
        run(ShardedBenefitStore::local(), "local");
        let (c, _) = setup();
        let n = c.len();
        let p = IdSet::from_ids(&[0, 1], n);
        let scores: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).fract()).collect();
        for (shards, fanout) in [
            (2, Fanout::Concurrent),
            (3, Fanout::Sequential),
            (3, Fanout::Concurrent),
            (4, Fanout::Concurrent),
            (5, Fanout::Concurrent),
        ] {
            let label = format!("remote S={shards} {fanout:?}");
            let mut store = run(fleet(&c, shards, &p, &scores, fanout), &label);
            assert!(store.audit_remote().unwrap(), "{label}: audit post-append");
            store.shutdown().unwrap();
        }
    }

    /// A `ScoresChanged` that moves no fragment — every entry's old and
    /// new scores quantize equal, or every id is already in `P` — gets an
    /// empty `FragmentDeltas` reply (the worker names the rules its fold
    /// moved, not every tracked rule covering an id), and the mirrors stay
    /// exact.
    #[test]
    fn worker_replies_nothing_for_score_moves_that_move_nothing() {
        let (c, idx) = setup();
        let n = c.len();
        let rules: Vec<RuleRef> = idx.all_rules().collect();
        let p = IdSet::from_ids(&[0, 1, 4], n);
        let scores: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).fract()).collect();
        let mut store = fleet(&c, 2, &p, &scores, Fanout::Concurrent);
        store.track(&rules, &idx, &p, &scores, 1).unwrap();
        let quantize_equal = vec![(2, scores[2], scores[2]), (3, scores[3], scores[3])];
        let all_in_p = vec![(0, scores[0], 0.9), (1, scores[1], 0.05)];
        for (label, changes) in [("quantize-equal", quantize_equal), ("all in P", all_in_p)] {
            let Backend::Remote(f) = &mut store.0 else {
                unreachable!("a fleet is remote")
            };
            let w = &mut f.shards[0];
            let (lo, hi) = w.span();
            let run: Vec<(u32, f32, f32)> = changes
                .iter()
                .copied()
                .filter(|&(id, _, _)| lo <= id && id < hi)
                .collect();
            assert!(!run.is_empty(), "{label}: shard 0 must receive entries");
            let (body, post) = scores_changed_req(&run);
            let resp = w.call_encoded(&body).unwrap();
            assert_eq!(
                resp,
                Response::FragmentDeltas {
                    changed: Vec::new()
                },
                "{label}"
            );
            w.apply(resp, post).unwrap();
            // Delta ids out of order are refused, not folded.
            for body in [
                scores_changed_req(&[(3, scores[3], 0.1), (2, scores[2], 0.1)]).0,
                positives_added_req(vec![3, 2]).0,
            ] {
                let refused = w.call_encoded(&body);
                assert!(matches!(refused, Err(WireError::Remote(_))), "{refused:?}");
            }
            assert!(store.audit_remote().unwrap(), "{label}: audit");
            for &r in &rules {
                assert_eq!(
                    store.benefit_of(r).unwrap(),
                    benefit(idx.coverage(r), &p, &scores),
                    "{label}: {r:?}"
                );
            }
        }
        store.shutdown().unwrap();
    }

    /// A dead transport must surface as a clean error and poison the
    /// coordinator — reads answer `None`, further mutations refuse.
    #[test]
    fn dead_transport_poisons_cleanly() {
        let (c, idx) = setup();
        let p = IdSet::from_ids(&[0], c.len());
        let scores = vec![0.5; c.len()];
        let map = ShardMap::new(c.len(), 2);
        let connect: Arc<ShardConnector> =
            Arc::new(|_, _| Ok(Box::new(darwin_wire::DeadTransport)));
        let err = match ShardedBenefitStore::connect_remote(
            map,
            &c,
            &IndexConfig::small(),
            &p,
            &scores,
            connect,
            Fanout::Concurrent,
        ) {
            Err(e) => e,
            Ok(_) => panic!("connecting through a dead transport must fail"),
        };
        assert_eq!(err, WireError::Disconnected);
        let _ = idx; // connection dies before the index matters
    }
}
