//! Shadow probes: calls that are single from outside the engine, split by
//! replaying them through the layers' public functions after the traced
//! session has ended.
//!
//! * **Classifier replay.** `Engine::retrain_and_sync` is one call; its
//!   cost is `TextClassifier::fit` + `ScoreCache::refresh` + the benefit
//!   sync. The replay refits one classifier, warm across fits as the
//!   engine's is, at every retrain barrier of the recorded trace: on the
//!   positive set the trace shows at that barrier and on negatives drawn
//!   by `retrain_and_sync`'s own sampling rule from the same RNG stream.
//!   The scores it ends with must equal the session's bit for bit, which
//!   is the proof that it timed the same fits.
//! * **Ingest replay.** `StreamSession::append` is one call; its cost is
//!   `Corpus::append_texts` + `IndexSet::append` + the engine's reconcile.
//!   The replay appends the same batches, at the same points of the
//!   timeline, to a corpus and index rebuilt from the base texts.
//! * **Snapshot capture.** `Darwin::snapshot` drives twelve waves and then
//!   captures; the capture alone is timed on an engine resumed, in process,
//!   from the very bytes the session hopped through.

use crate::loadgen::Inputs;
use crate::spans::{Tracer, REPLAY};
use crate::workloads::{strategy_for, Entry, Rep, Spec};
use darwin_classifier::{ScoreCache, TextClassifier};
use darwin_core::{Darwin, Engine, Snapshot};
use darwin_index::IndexSet;
use darwin_text::embed::EmbedConfig;
use darwin_text::{Corpus, Embeddings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt `Engine::new` mixes into the run seed for the sequential flavor's
/// RNG (the async and streaming loops use the same flavor).
const ENGINE_RNG_SALT: u64 = 0xDA;

/// What the replay counted (its timings are spans in the tracer).
#[derive(Default)]
pub struct Replayed {
    pub fit_examples: usize,
    /// Duration of each refresh that re-scored the whole corpus, ms.
    pub full_refresh_ms: Vec<f64>,
    pub refresh_journal: usize,
    /// Sentences re-scored, summed over refreshes.
    pub rescored: usize,
    /// Corpus sizes at each refresh, summed (the denominator of the
    /// re-scored fraction).
    pub refresh_universe: usize,
    /// Whether the replayed scores equal the session's final scores.
    pub scores_match: bool,
}

/// Question counts after which the session retrained: 0 (the engine's
/// initial fit), then the end of every round that contained a YES.
fn retrain_barriers(rep: &Rep) -> Vec<usize> {
    let mut barriers = vec![0];
    let mut asked = 0;
    for round in rep.log.rounds() {
        asked += round.answered;
        if round.yes {
            barriers.push(asked);
        }
    }
    barriers
}

/// Questions answered when the session hopped through its snapshot, if it
/// did: resuming builds a fresh, cold classifier.
fn snapshot_hop(spec: &Spec, rep: &Rep) -> Option<usize> {
    let Entry::Crowd { snapshot_wave, .. } = spec.entry else {
        return None;
    };
    if rep.snapshot.is_empty() {
        return None;
    }
    let asked = rep
        .log
        .rounds()
        .iter()
        .take(snapshot_wave as usize)
        .map(|r| r.answered)
        .sum();
    Some(asked)
}

/// `retrain_and_sync`'s negative-sampling rule, draw for draw.
fn sample_negatives(
    rng: &mut StdRng,
    in_p: &[bool],
    positives: usize,
    spec: &Spec,
    corpus_len: usize,
) -> Vec<u32> {
    let cfg = &spec.cfg;
    let want = (positives * cfg.neg_per_pos)
        .max(cfg.min_negatives)
        .min(corpus_len / 3)
        .min(corpus_len.saturating_sub(positives));
    let mut neg = Vec::with_capacity(want);
    let mut guard = 0;
    while neg.len() < want && guard < want * 20 {
        let id = rng.gen_range(0..corpus_len as u32);
        if !in_p[id as usize] {
            neg.push(id);
        }
        guard += 1;
    }
    neg
}

/// Replay the traced session `rep` of `spec`, recording `classifier.fit`,
/// `classifier.refresh`, `text.append` and `index.append` spans.
pub fn replay(spec: &Spec, inputs: &Inputs, rep: &Rep, tracer: &mut Tracer) -> Replayed {
    tracer.set_session(REPLAY);
    let cfg = &spec.cfg;
    let mut corpus = Corpus::from_texts(inputs.texts[..spec.base_sentences].iter());
    let mut index = (!rep.appends.is_empty()).then(|| IndexSet::build(&corpus, &spec.index));
    let mut emb = Embeddings::train(
        &corpus,
        &EmbedConfig {
            seed: cfg.seed,
            ..Default::default()
        },
    );
    let kind = cfg.classifier.clone().with_warm_start(cfg.warm_start);
    let mut clf: Box<dyn TextClassifier> = kind.build(&emb, cfg.seed);
    let mut cache = ScoreCache::new(corpus.len())
        .with_shards(cfg.shards)
        .with_threads(cfg.threads);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ ENGINE_RNG_SALT);

    let barriers = retrain_barriers(rep);
    let hop = snapshot_hop(spec, rep);
    let mut out = Replayed::default();
    let mut next_append = 0;
    for asked in 0..=rep.run.trace.len() {
        if hop == Some(asked) {
            clf = kind.build(&emb, cfg.seed);
        }
        if barriers.contains(&asked) {
            let pos = rep.run.positives_after(asked);
            let mut in_p = vec![false; corpus.len()];
            for &id in &pos {
                in_p[id as usize] = true;
            }
            let neg = sample_negatives(&mut rng, &in_p, pos.len(), spec, corpus.len());
            out.fit_examples += pos.len() + neg.len();
            tracer.span("classifier.fit", || clf.fit(&corpus, &emb, &pos, &neg));
            tracer.span("classifier.refresh", || {
                cache.refresh(clf.as_ref(), &corpus, &emb)
            });
            if cache.last_refresh_was_full() {
                let span = tracer.spans().last().expect("the refresh span just closed");
                out.full_refresh_ms.push(span.duration_ns() as f64 / 1e6);
            } else {
                out.refresh_journal += 1;
            }
            out.rescored += cache.last_refresh_size();
            out.refresh_universe += corpus.len();
        }
        while next_append < rep.appends.len() && rep.appends[next_append].asked_before == asked {
            let batch = spec.batch(inputs, next_append);
            let index = index.as_mut().expect("built whenever the session appended");
            tracer.span("text.append", || {
                corpus.append_texts(batch.iter(), cfg.threads)
            });
            tracer.span("index.append", || {
                index
                    .append_with_threads(&corpus, cfg.threads)
                    .expect("a min_count 1 index grows in place")
            });
            emb.grow_to(corpus.vocab().len());
            cache.append(batch.len());
            clf.corpus_appended(batch, corpus.len());
            next_append += 1;
        }
    }
    out.scores_match = cache.scores() == rep.run.scores.as_slice();
    out
}

/// Time `Snapshot::capture` on an engine rebuilt from the session's own
/// snapshot (local shards — capture never touches the wire). Milliseconds;
/// 0 when the session made no hop.
pub fn replay_snapshot_capture(
    spec: &Spec,
    inputs: &Inputs,
    rep: &Rep,
    tracer: &mut Tracer,
) -> f64 {
    if rep.snapshot.is_empty() {
        return 0.0;
    }
    tracer.set_session(REPLAY);
    let corpus = Corpus::from_texts(inputs.texts[..spec.base_sentences].iter());
    let index = IndexSet::build(&corpus, &spec.index);
    let darwin = Darwin::new(&corpus, &index, spec.cfg.clone());
    let image = Snapshot::from_bytes(&rep.snapshot).expect("the session resumed from these bytes");
    let engine = Engine::resume(&darwin, &image).expect("the session resumed from this image");
    let mut strategy = strategy_for(&spec.cfg, engine.seed_refs());
    strategy.import_state(&image.strategy);
    let again = tracer.span("core.snapshot.capture", || {
        Snapshot::capture(&darwin, &engine, strategy.as_ref(), image.counters)
    });
    std::hint::black_box(again);
    tracer.total_s("core.snapshot.capture") * 1e3
}
