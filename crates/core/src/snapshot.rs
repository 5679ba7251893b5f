//! Durable session snapshots: suspend a live run at a wave barrier,
//! resume it later — same or different process, transport, shard count,
//! thread count — and replay the uninterrupted trace byte for byte.
//!
//! # The barrier-only rule
//!
//! A [`Snapshot`] is taken only at a *wave barrier* of the async driver
//! ([`crate::batch`]): every submitted question has been answered and
//! recorded, the strategy has observed the wave, and the classifier has
//! retrained if `P` grew. At that point the run's future depends only on
//! state this module captures:
//!
//! | constituent            | captured as                               | restored by                        |
//! |------------------------|-------------------------------------------|------------------------------------|
//! | positive set `P`       | sorted ids                                | `IdSet::from_ids`                  |
//! | queried / asked sets   | sorted handles / canonical heuristics     | rebuilt hash sets                  |
//! | accepted / rejected    | heuristics in acceptance order            | cloned                             |
//! | trace                  | [`TraceStep`]s in question order          | cloned (qid numbering continues)   |
//! | classifier scores      | [`ScoreImage`] (scores, round, journal)   | `ScoreCache::import` + re-shard    |
//! | frontier memo          | [`FrontierImage`] (memo, arena, journal)  | `FrontierPool::import` (validated) |
//! | engine RNG             | raw xoshiro256++ words                    | `StdRng::from_state`               |
//! | strategy state         | [`StrategyState`]                         | `Strategy::import_state`           |
//! | in-flight questions    | `(qid, rule)` pairs (empty at barriers)   | re-queued pending set              |
//! | driver counters        | [`SessionCounters`]                       | wave/submit/retrain counts resume  |
//! | config / corpus        | 64-bit FNV fingerprints                   | validated, never trusted blindly   |
//!
//! What is deliberately *not* captured: classifier weights (`fit` is a
//! pure function of `(P, RNG draws, seed)` — the next retrain reproduces
//! them bit for bit), the candidate hierarchy and benefit aggregates
//! (deterministically re-derived from the restored `(P, scores)`), and
//! anything owned by the deployment rather than the run — transports,
//! worker processes, `shards`/`threads`/`fanout` and the index's build
//! parallelism (`IndexConfig::threads`). Resume re-attaches workers by replaying
//! `ShardInit`/`Track` through the *resuming* `Darwin`'s connectors, which
//! is exactly the reconnect-and-replay machinery a mid-run worker death
//! already exercises.
//!
//! # Wire format
//!
//! The encoded snapshot travels inside a checksummed snapshot frame
//! ([`darwin_wire::snapshot_frame`]) with its own magic and version
//! window, distinct from protocol frames: snapshots rest on disk and
//! outlive processes, so their format evolves on its own schedule. A
//! truncated, bit-flipped, length-inflated or alien snapshot is a clean
//! [`SnapshotError`] — never a panic, never an unbounded allocation.

use crate::config::{DarwinConfig, TraversalKind};
use crate::engine::Engine;
use crate::frontier::{FrontierImage, FrontierStats};
use crate::pipeline::{Darwin, TraceStep};
use crate::traversal::{Strategy, StrategyState};
use darwin_classifier::ScoreImage;
use darwin_grammar::Heuristic;
use darwin_index::{IndexConfig, IndexSet, RuleRef};
use darwin_text::Corpus;
use darwin_wire::{Decode, Encode, Reader, WireError};

/// Why a snapshot could not be written, decoded or resumed.
#[derive(Debug, PartialEq)]
pub enum SnapshotError {
    /// The byte container is invalid: bad magic, version outside the
    /// supported window, length over the cap, checksum mismatch, or a
    /// payload the codec refuses.
    Wire(WireError),
    /// The snapshot decodes but does not belong to this deployment:
    /// config or corpus fingerprint disagrees, or dimensions do not line
    /// up with the live corpus/index.
    Mismatch(String),
    /// The snapshot decodes but is internally inconsistent (e.g. a
    /// frontier memo whose arena offsets point out of bounds).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Wire(e) => write!(f, "snapshot container: {e}"),
            SnapshotError::Mismatch(m) => write!(f, "snapshot mismatch: {m}"),
            SnapshotError::Corrupt(m) => write!(f, "snapshot corrupt: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> SnapshotError {
        SnapshotError::Wire(e)
    }
}

/// The async driver's cumulative counters, carried across a suspend so a
/// resumed run's [`crate::batch::AsyncReport`] (and its question-id
/// numbering — qids are the `submitted` sequence) continues exactly where
/// the suspended run stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Questions submitted so far (the next qid).
    pub submitted: u64,
    /// Waves driven so far.
    pub waves: u64,
    /// Retrain barriers so far.
    pub retrains: u64,
    /// Peak in-flight questions so far.
    pub peak: u64,
}

/// A complete, self-validating image of a suspended run — see the
/// [module docs](self) for what is captured and what is re-derived.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// FNV-1a fingerprint of the semantic run configuration (excludes
    /// `shards`/`threads`/`fanout`/`warm_start` — pure perf knobs that
    /// may legally differ at resume).
    pub config_fp: u64,
    /// FNV-1a fingerprint of the corpus texts and the index recipe.
    pub corpus_fp: u64,
    /// Corpus size the snapshot is dimensioned for.
    pub n: u32,
    /// The positive set `P`, sorted.
    pub p: Vec<u32>,
    /// Rules already submitted or consumed as duplicates, sorted.
    pub queried: Vec<RuleRef>,
    /// Accepted heuristics, in acceptance order.
    pub accepted: Vec<Heuristic>,
    /// Rejected heuristics, in rejection order.
    pub rejected: Vec<Heuristic>,
    /// Per-question history, in question order.
    pub trace: Vec<TraceStep>,
    /// Canonical heuristics already asked (alias dedup), sorted by
    /// encoding for a canonical byte image.
    pub asked: Vec<Heuristic>,
    /// Coverage hashes already asked (duplicate dedup), sorted.
    pub asked_coverages: Vec<u64>,
    /// The seed heuristics' rule handles.
    pub seed_refs: Vec<RuleRef>,
    /// In-flight questions at capture, in submission order. Empty at a
    /// wave barrier — the only place the driver snapshots.
    pub pending: Vec<(u64, RuleRef)>,
    /// The engine RNG's raw xoshiro256++ state.
    pub rng: [u64; 4],
    /// The score cache: per-sentence scores, refresh cadence, journal.
    pub cache: ScoreImage,
    /// The persistent candidate frontier. [`Snapshot::capture`] always
    /// writes it; a snapshot that decodes with `None` still resumes, with
    /// a fresh pool whose first regeneration is a full walk (the memo
    /// only ever saves cost, never changes the hierarchy).
    pub frontier: Option<FrontierImage>,
    /// The traversal strategy's explicit state.
    pub strategy: StrategyState,
    /// The async driver's cumulative counters.
    pub counters: SessionCounters,
}

// ---- fingerprints -------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprint of the *semantic* run configuration — every knob that can
/// change the trace, `incremental_scoring` included. Execution-layer
/// knobs (`shards`, `threads`, `fanout`) and `warm_start` are excluded:
/// they are bit-equivalent by the engine contract, and resuming under a
/// different deployment is the point of a durable session.
pub fn config_fingerprint(cfg: &DarwinConfig) -> u64 {
    let mut buf = Vec::new();
    (cfg.budget as u64).encode(&mut buf);
    (cfg.n_candidates as u64).encode(&mut buf);
    let traversal: u8 = match cfg.traversal {
        TraversalKind::Local => 0,
        TraversalKind::Universal => 1,
        TraversalKind::Hybrid => 2,
    };
    traversal.encode(&mut buf);
    (cfg.tau as u64).encode(&mut buf);
    // Normalize the warm-start knob away: it never changes weights.
    format!("{:?}", cfg.classifier.clone().with_warm_start(false)).encode(&mut buf);
    cfg.benefit_threshold.to_bits().encode(&mut buf);
    (cfg.neg_per_pos as u64).encode(&mut buf);
    (cfg.min_negatives as u64).encode(&mut buf);
    cfg.incremental_scoring.encode(&mut buf);
    // Tag 0 then `k`: snapshots on disk carry this encoding, so changing
    // it would refuse to resume them.
    let crate::batch::BatchPolicy::Fixed(k) = cfg.batch;
    0u8.encode(&mut buf);
    (k as u64).encode(&mut buf);
    cfg.max_coverage_frac.to_bits().encode(&mut buf);
    cfg.seed.encode(&mut buf);
    fnv64(&buf)
}

/// Fingerprint of the corpus texts plus the index build recipe — the pair
/// that fixes every `RuleRef` handle. Two deployments agreeing on this
/// fingerprint number their rules identically by construction.
/// `IndexConfig::threads` is normalized away like the other deployment
/// knobs: it only sets how many workers resolve new sentences against
/// the existing index, never the numbering.
pub fn corpus_fingerprint(corpus: &Corpus, index: &IndexSet) -> u64 {
    let mut buf = Vec::new();
    (corpus.len() as u64).encode(&mut buf);
    for id in 0..corpus.len() as u32 {
        corpus.text(id).encode(&mut buf);
    }
    IndexConfig {
        threads: 1,
        ..index.config().clone()
    }
    .encode(&mut buf);
    fnv64(&buf)
}

// ---- capture ------------------------------------------------------------

impl Snapshot {
    /// Capture the complete run state at a wave barrier. `strategy` must
    /// be the live traversal strategy; strategies that do not support
    /// snapshotting ([`Strategy::export_state`] returns `None`) capture a
    /// default state — the three shipped strategies all support it.
    pub fn capture(
        darwin: &Darwin<'_>,
        engine: &Engine<'_>,
        strategy: &dyn Strategy,
        counters: SessionCounters,
    ) -> Snapshot {
        let n = darwin.corpus().len();
        let mut queried: Vec<RuleRef> = engine.state.queried.iter().copied().collect();
        queried.sort_unstable();
        let mut asked: Vec<Heuristic> = engine.state.asked().iter().cloned().collect();
        asked.sort_by_cached_key(|h| h.to_bytes());
        let mut asked_coverages: Vec<u64> =
            engine.state.asked_coverages().iter().copied().collect();
        asked_coverages.sort_unstable();
        Snapshot {
            config_fp: config_fingerprint(darwin.config()),
            corpus_fp: corpus_fingerprint(darwin.corpus(), darwin.index()),
            n: n as u32,
            p: engine.state.p.iter().collect(),
            queried,
            accepted: engine.state.accepted.clone(),
            rejected: engine.state.rejected.clone(),
            trace: engine.state.trace.clone(),
            asked,
            asked_coverages,
            seed_refs: engine.seed_refs().to_vec(),
            pending: engine.pending().map(|(q, r)| (q.0, r)).collect(),
            rng: engine.rng_state(),
            cache: engine.cache().export(),
            frontier: engine.frontier().map(|f| f.export(n)),
            strategy: strategy.export_state().unwrap_or_default(),
            counters,
        }
    }

    /// Validate the snapshot against a live deployment: fingerprints must
    /// agree and every rule handle must exist in the live index. Called
    /// by [`Darwin::resume`] before any state is rebuilt.
    pub fn validate_against(&self, darwin: &Darwin<'_>) -> Result<(), SnapshotError> {
        let cfg_fp = config_fingerprint(darwin.config());
        if self.config_fp != cfg_fp {
            return Err(SnapshotError::Mismatch(format!(
                "config fingerprint {:#018x} vs live {:#018x} — the semantic run \
                 configuration must not change across a suspend",
                self.config_fp, cfg_fp
            )));
        }
        let corpus_fp = corpus_fingerprint(darwin.corpus(), darwin.index());
        if self.corpus_fp != corpus_fp {
            return Err(SnapshotError::Mismatch(format!(
                "corpus fingerprint {:#018x} vs live {:#018x} — resume needs the \
                 identical corpus and index recipe",
                self.corpus_fp, corpus_fp
            )));
        }
        let n = darwin.corpus().len() as u32;
        if self.n != n {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot sized for {} sentences, live corpus has {n}",
                self.n
            )));
        }
        if let Some(&id) = self.p.iter().find(|&&id| id >= n) {
            return Err(SnapshotError::Corrupt(format!(
                "positive id {id} outside corpus of {n}"
            )));
        }
        let index = darwin.index();
        let refs = self
            .queried
            .iter()
            .chain(&self.seed_refs)
            .chain(&self.strategy.local)
            .chain(self.pending.iter().map(|(_, r)| r));
        for &r in refs {
            if !valid_ref(index, r) {
                return Err(SnapshotError::Corrupt(format!(
                    "rule handle {r:?} does not exist in the live index"
                )));
            }
        }
        Ok(())
    }

    /// Serialize into a checksummed, versioned snapshot frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        darwin_wire::snapshot_frame(&Encode::to_bytes(self))
    }

    /// Decode a snapshot frame. Every failure — truncation, bit rot,
    /// inflated length prefixes, alien magic, unsupported version — is a
    /// clean [`SnapshotError`]; decoding never panics and never allocates
    /// beyond the validated payload length.
    pub fn from_bytes(buf: &[u8]) -> Result<Snapshot, SnapshotError> {
        let payload = darwin_wire::parse_snapshot_frame(buf)?;
        Ok(<Snapshot as Decode>::from_bytes(&payload)?)
    }
}

/// Whether `r` names a rule of the live index: its dense id must be in
/// range *and* map back to the same handle (a phrase handle past the trie
/// would alias into the tree range otherwise). All arithmetic is done in
/// `u64` so corrupt handles cannot overflow.
fn valid_ref(index: &IndexSet, r: RuleRef) -> bool {
    let phrase_len = index.dense_id(RuleRef::Tree(0)) as u64;
    let total = index.dense_rules() as u64;
    match r {
        RuleRef::Root => true,
        RuleRef::Phrase(p) => (p as u64) < phrase_len,
        RuleRef::Tree(t) => phrase_len + (t as u64) < total,
    }
}

// ---- codec --------------------------------------------------------------

impl Encode for TraceStep {
    fn encode(&self, out: &mut Vec<u8>) {
        self.question.encode(out);
        self.rule.encode(out);
        self.answer.encode(out);
        self.new_positive_ids.encode(out);
        self.p_size.encode(out);
    }
}
impl Decode for TraceStep {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TraceStep {
            question: usize::decode(r)?,
            rule: Heuristic::decode(r)?,
            answer: bool::decode(r)?,
            new_positive_ids: Vec::decode(r)?,
            p_size: usize::decode(r)?,
        })
    }
}

impl Encode for StrategyState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.local.encode(out);
        self.universal_mode.encode(out);
        self.attempts.encode(out);
    }
}
impl Decode for StrategyState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StrategyState {
            local: Vec::decode(r)?,
            universal_mode: bool::decode(r)?,
            attempts: u64::decode(r)?,
        })
    }
}

impl Encode for FrontierStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.generations.encode(out);
        self.full_rebuilds.encode(out);
        self.delta_batches.encode(out);
        self.rules_rescored.encode(out);
        self.deltas_by_postings.encode(out);
        self.deltas_by_intersection.encode(out);
        self.fresh_nodes.encode(out);
    }
}
impl Decode for FrontierStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FrontierStats {
            generations: u64::decode(r)?,
            full_rebuilds: u64::decode(r)?,
            delta_batches: u64::decode(r)?,
            rules_rescored: u64::decode(r)?,
            deltas_by_postings: u64::decode(r)?,
            deltas_by_intersection: u64::decode(r)?,
            fresh_nodes: u64::decode(r)?,
        })
    }
}

impl Encode for FrontierImage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nodes.encode(out);
        self.kids.encode(out);
        self.pending.encode(out);
        self.synced_p.encode(out);
        self.reflected.encode(out);
        self.universe.encode(out);
        self.stats.encode(out);
    }
}
impl Decode for FrontierImage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FrontierImage {
            nodes: Vec::decode(r)?,
            kids: Vec::decode(r)?,
            pending: Vec::decode(r)?,
            synced_p: u64::decode(r)?,
            reflected: Vec::decode(r)?,
            universe: u32::decode(r)?,
            stats: FrontierStats::decode(r)?,
        })
    }
}

impl Encode for SessionCounters {
    fn encode(&self, out: &mut Vec<u8>) {
        self.submitted.encode(out);
        self.waves.encode(out);
        self.retrains.encode(out);
        self.peak.encode(out);
    }
}
impl Decode for SessionCounters {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SessionCounters {
            submitted: u64::decode(r)?,
            waves: u64::decode(r)?,
            retrains: u64::decode(r)?,
            peak: u64::decode(r)?,
        })
    }
}

// `ScoreImage` lives in `darwin-classifier`, which does not depend on the
// wire crate (and the orphan rule forbids implementing the foreign trait
// for the foreign type here), so its codec is a pair of free functions.
fn encode_score_image(img: &ScoreImage, out: &mut Vec<u8>) {
    img.scores.encode(out);
    img.round.encode(out);
    img.threshold.encode(out);
    img.full_every.encode(out);
    img.incremental.encode(out);
    img.refreshed_last_round.encode(out);
    img.epoch.encode(out);
    img.last_was_full.encode(out);
    img.changes.encode(out);
}

fn decode_score_image(r: &mut Reader<'_>) -> Result<ScoreImage, WireError> {
    Ok(ScoreImage {
        scores: Vec::decode(r)?,
        round: u32::decode(r)?,
        threshold: f32::decode(r)?,
        full_every: u32::decode(r)?,
        incremental: bool::decode(r)?,
        refreshed_last_round: u64::decode(r)?,
        epoch: u64::decode(r)?,
        last_was_full: bool::decode(r)?,
        changes: Vec::decode(r)?,
    })
}

impl Encode for Snapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.config_fp.encode(out);
        self.corpus_fp.encode(out);
        self.n.encode(out);
        self.p.encode(out);
        self.queried.encode(out);
        self.accepted.encode(out);
        self.rejected.encode(out);
        self.trace.encode(out);
        self.asked.encode(out);
        self.asked_coverages.encode(out);
        self.seed_refs.encode(out);
        self.pending.encode(out);
        for w in self.rng {
            w.encode(out);
        }
        encode_score_image(&self.cache, out);
        self.frontier.encode(out);
        self.strategy.encode(out);
        self.counters.encode(out);
    }
}
impl Decode for Snapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Snapshot {
            config_fp: u64::decode(r)?,
            corpus_fp: u64::decode(r)?,
            n: u32::decode(r)?,
            p: Vec::decode(r)?,
            queried: Vec::decode(r)?,
            accepted: Vec::decode(r)?,
            rejected: Vec::decode(r)?,
            trace: Vec::decode(r)?,
            asked: Vec::decode(r)?,
            asked_coverages: Vec::decode(r)?,
            seed_refs: Vec::decode(r)?,
            pending: Vec::decode(r)?,
            rng: [
                u64::decode(r)?,
                u64::decode(r)?,
                u64::decode(r)?,
                u64::decode(r)?,
            ],
            cache: decode_score_image(r)?,
            frontier: Option::decode(r)?,
            strategy: StrategyState::decode(r)?,
            counters: SessionCounters::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            config_fp: 0xDEAD_BEEF,
            corpus_fp: 0xFEED_FACE,
            n: 5,
            p: vec![0, 2, 4],
            queried: vec![RuleRef::Phrase(3), RuleRef::Tree(1)],
            accepted: Vec::new(),
            rejected: Vec::new(),
            trace: vec![TraceStep {
                question: 1,
                rule: Heuristic::Phrase(darwin_grammar::PhrasePattern::from_tokens([
                    darwin_text::Sym(7),
                ])),
                answer: true,
                new_positive_ids: vec![2, 4],
                p_size: 3,
            }],
            asked: Vec::new(),
            asked_coverages: vec![1, 99],
            seed_refs: vec![RuleRef::Phrase(3)],
            pending: vec![(6, RuleRef::Tree(1))],
            rng: [1, 2, 3, u64::MAX],
            cache: ScoreImage {
                scores: vec![0.5, f32::from_bits(0x7fc0_0001), 0.25, 0.0, 1.0],
                round: 3,
                threshold: 0.3,
                full_every: 3,
                incremental: true,
                refreshed_last_round: 5,
                epoch: 2,
                last_was_full: false,
                changes: vec![(1, 0.5, 0.75)],
            },
            frontier: Some(FrontierImage {
                nodes: vec![(0, u32::MAX, 0), (1, 2, 1)],
                kids: vec![0, 1, 1],
                pending: vec![4],
                synced_p: 3,
                reflected: vec![0, 2],
                universe: 5,
                stats: FrontierStats {
                    generations: 2,
                    ..Default::default()
                },
            }),
            strategy: StrategyState {
                local: vec![RuleRef::Phrase(3)],
                universal_mode: true,
                attempts: 4,
            },
            counters: SessionCounters {
                submitted: 7,
                waves: 3,
                retrains: 2,
                peak: 3,
            },
        }
    }

    #[test]
    fn snapshot_roundtrips_through_the_frame() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        // Struct equality would trip over NaN != NaN; the byte image is
        // the ground truth — re-encoding the decoded snapshot must be
        // canonical (byte-identical).
        assert_eq!(back.to_bytes(), bytes);
        // NaN-payload scores survive bit for bit.
        assert_eq!(back.cache.scores[1].to_bits(), 0x7fc0_0001);
        // And a NaN-free snapshot compares equal structurally too.
        let mut plain = snap;
        plain.cache.scores[1] = 0.125;
        let plain_back = Snapshot::from_bytes(&plain.to_bytes()).unwrap();
        assert_eq!(plain_back, plain);
    }

    #[test]
    fn truncated_and_flipped_snapshots_are_refused() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} must be refused"
            );
        }
        for at in [0, 2, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "bit flip at {at} must be refused"
            );
        }
    }

    #[test]
    fn fingerprints_track_semantic_knobs_only() {
        let base = DarwinConfig::fast();
        let fp = config_fingerprint(&base);
        // Perf knobs do not move the fingerprint...
        assert_eq!(fp, config_fingerprint(&base.clone().with_shards(4)));
        assert_eq!(fp, config_fingerprint(&base.clone().with_threads(8)));
        assert_eq!(fp, config_fingerprint(&base.clone().with_warm_start(false)));
        assert_eq!(
            fp,
            config_fingerprint(&base.clone().with_fanout(crate::config::Fanout::Sequential))
        );
        // ...semantic knobs do.
        assert_ne!(fp, config_fingerprint(&base.clone().with_seed(43)));
        assert_ne!(fp, config_fingerprint(&base.clone().with_budget(99)));
        assert_ne!(
            fp,
            config_fingerprint(&base.clone().with_batch(crate::batch::BatchPolicy::Fixed(2)))
        );
        assert_ne!(
            fp,
            config_fingerprint(&base.with_traversal(TraversalKind::Local))
        );
        // The same split for the index recipe: `threads` only sets the
        // resolve workers, the other fields fix `RuleRef` numbering.
        let corpus = Corpus::from_texts(["the shuttle to the airport", "a bus to the hotel"]);
        let fp_of = |cfg: &IndexConfig| corpus_fingerprint(&corpus, &IndexSet::build(&corpus, cfg));
        let recipe = IndexConfig::small();
        let cfp = fp_of(&recipe);
        let with = |edit: fn(&mut IndexConfig)| {
            let mut cfg = recipe.clone();
            edit(&mut cfg);
            fp_of(&cfg)
        };
        assert_eq!(cfp, with(|c| c.threads = 4));
        assert_ne!(cfp, with(|c| c.max_phrase_len = 3));
        assert_ne!(cfp, with(|c| c.min_count = 2));
        assert_ne!(cfp, with(|c| c.enable_tree = false));
        assert_ne!(cfp, with(|c| c.tree.include_and = false));
    }
}
