//! Incremental corpus re-scoring (the §4.5 optimization).
//!
//! The pipeline's bottleneck is "the time taken by the classifier to make a
//! prediction for all instances in the corpus". The paper's optimization:
//! after the first full pass, only re-score sentences whose previous score
//! exceeded a confidence threshold (default 0.3), and re-score everything
//! every third round. This cut the professions runtime from 2h45m to 65m.
//!
//! The paper says which ids a pass touches, not how the pass is
//! partitioned. Here the sorted id list is split into `threads` contiguous
//! chunks, each scored as one [`TextClassifier::predict_batch`] call (the
//! batch entry point lets classifiers reuse feature buffers instead of
//! paying a fresh allocation per sentence) and the outputs joined in chunk
//! order. Per-id predictions are pure, so every contiguous split yields
//! bit-identical scores: the thread count is a pure performance knob.

use crate::model::TextClassifier;
use darwin_text::fanout::map_chunks;
use darwin_text::{Corpus, Embeddings};

/// Cached per-sentence positive probabilities with selective refresh.
///
/// Downstream consumers that maintain score-derived aggregates (the
/// incremental benefit engine) follow the cache through two signals after
/// each [`ScoreCache::refresh`]:
///
/// * [`ScoreCache::last_refresh_was_full`] — a full pass means "most
///   scores moved; rebuild your aggregates from scratch".
/// * [`ScoreCache::last_changes`] — after an *incremental* pass, the exact
///   `(id, old, new)` journal of scores that moved, so aggregates can be
///   patched by delta instead of rebuilt.
///
/// [`ScoreCache::epoch`] counts the full passes — a staleness check for
/// consumers that sync less often than every refresh.
///
/// (One engine cache that does *not* consume this journal, by design: the
/// incremental candidate frontier. Candidate generation ranks by overlap
/// with the positive set alone, so its invalidation tracks `P`, never
/// scores.)
///
/// The change journal is sorted by id, so a shard coordinator that owns
/// contiguous id ranges slices it into per-shard runs with two binary
/// searches per shard.
pub struct ScoreCache {
    scores: Vec<f32>,
    round: u32,
    /// Only sentences scoring at least this are refreshed every round.
    pub threshold: f32,
    /// Full refresh period (every `full_every`-th round scores everything).
    pub full_every: u32,
    /// When false, every refresh is a full pass (ablation switch).
    pub incremental: bool,
    shards: usize,
    threads: usize,
    refreshed_last_round: usize,
    epoch: u64,
    last_was_full: bool,
    changes: Vec<(u32, f32, f32)>,
}

/// A plain-data image of a [`ScoreCache`]'s refresh state — see
/// [`ScoreCache::export`]. Session snapshots serialize this through the
/// wire codec; `f32` fields round-trip bit for bit there (NaN payloads
/// included), which is why the image stores raw scores rather than any
/// derived form.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScoreImage {
    pub scores: Vec<f32>,
    pub round: u32,
    pub threshold: f32,
    pub full_every: u32,
    pub incremental: bool,
    pub refreshed_last_round: u64,
    pub epoch: u64,
    pub last_was_full: bool,
    pub changes: Vec<(u32, f32, f32)>,
}

impl ScoreCache {
    pub fn new(n_sentences: usize) -> ScoreCache {
        ScoreCache {
            scores: vec![0.5; n_sentences],
            round: 0,
            threshold: 0.3,
            full_every: 3,
            incremental: true,
            shards: 1,
            threads: 1,
            refreshed_last_round: 0,
            epoch: 0,
            last_was_full: false,
            changes: Vec::new(),
        }
    }

    /// Disable the optimization (used by the efficiency ablation).
    pub fn full_only(n_sentences: usize) -> ScoreCache {
        ScoreCache {
            incremental: false,
            ..ScoreCache::new(n_sentences)
        }
    }

    /// Record a shard count. Kept for source compatibility only: it no
    /// longer affects any prediction pass — the pass is split by
    /// [`ScoreCache::with_threads`] alone, and scores were bit-identical
    /// for every shard count by contract, so no caller can observe the
    /// difference.
    pub fn with_shards(mut self, shards: usize) -> ScoreCache {
        self.shards = shards.max(1);
        self
    }

    /// Worker threads for prediction passes (1 = sequential): the ids of
    /// a pass are split into this many contiguous chunks. Scores are
    /// bit-identical for every thread count.
    pub fn with_threads(mut self, threads: usize) -> ScoreCache {
        self.threads = threads.max(1);
        self
    }

    /// Grow the id space by `added` sentences appended to the corpus.
    ///
    /// New ids enter at the 0.5 neutral prior — the same epistemic state
    /// every id starts a run in — and are journaled as `(id, 0.5, 0.5)`
    /// movements so shard coordinators replaying the journal see them (it
    /// stays id-sorted because appended ids are the largest). They sit
    /// above the refresh threshold, so the next incremental refresh scores
    /// them with the live classifier.
    pub fn append(&mut self, added: usize) {
        let old_n = self.scores.len();
        self.scores.resize(old_n + added, 0.5);
        for id in old_n..old_n + added {
            self.changes.push((id as u32, 0.5, 0.5));
        }
    }

    /// The count recorded by [`ScoreCache::with_shards`] (compatibility
    /// only).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Current scores, one per sentence.
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }

    pub fn score(&self, id: u32) -> f32 {
        self.scores[id as usize]
    }

    /// Number of predictions computed by the most recent refresh
    /// (diagnostic for the efficiency experiment).
    pub fn last_refresh_size(&self) -> usize {
        self.refreshed_last_round
    }

    /// Retrain epoch: how many full passes have happened. Aggregates keyed
    /// to an older epoch must be rebuilt, not patched.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the most recent [`ScoreCache::refresh`] was a full pass.
    pub fn last_refresh_was_full(&self) -> bool {
        self.last_was_full
    }

    /// The `(id, old, new)` score movements of the most recent
    /// *incremental* refresh (empty after a full pass — everything may have
    /// moved; consult [`ScoreCache::epoch`] instead). Sorted by id.
    pub fn last_changes(&self) -> &[(u32, f32, f32)] {
        &self.changes
    }

    /// Predict the (sorted) `ids`: one `predict_batch` call per worker
    /// chunk, output in `ids` order.
    fn predict_ids(
        &self,
        clf: &dyn TextClassifier,
        corpus: &Corpus,
        emb: &Embeddings,
        ids: &[u32],
    ) -> Vec<f32> {
        map_chunks(ids, self.threads, 0, |chunk| {
            let mut out = Vec::with_capacity(chunk.len());
            clf.predict_batch(corpus, emb, chunk, &mut out);
            out
        })
    }

    /// Capture the cache's refresh state as a plain-data image for
    /// session snapshots. The thread count is deliberately absent: it is a
    /// pure performance parameter, and a resumed session may legally run
    /// with a different one.
    pub fn export(&self) -> ScoreImage {
        ScoreImage {
            scores: self.scores.clone(),
            round: self.round,
            threshold: self.threshold,
            full_every: self.full_every,
            incremental: self.incremental,
            refreshed_last_round: self.refreshed_last_round as u64,
            epoch: self.epoch,
            last_was_full: self.last_was_full,
            changes: self.changes.clone(),
        }
    }

    /// Rebuild a cache from an exported image (sequential — apply
    /// [`ScoreCache::with_threads`] for the new deployment). The refresh
    /// cadence continues exactly
    /// where the exporter stopped: `round` drives the full-vs-incremental
    /// decision, so a resumed run schedules its next full pass on the same
    /// retrain as the uninterrupted one.
    pub fn import(img: &ScoreImage) -> ScoreCache {
        ScoreCache {
            scores: img.scores.clone(),
            round: img.round,
            threshold: img.threshold,
            full_every: img.full_every,
            incremental: img.incremental,
            shards: 1,
            threads: 1,
            refreshed_last_round: img.refreshed_last_round as usize,
            epoch: img.epoch,
            last_was_full: img.last_was_full,
            changes: img.changes.clone(),
        }
    }

    /// Refresh scores from a (re)trained classifier.
    pub fn refresh(&mut self, clf: &dyn TextClassifier, corpus: &Corpus, emb: &Embeddings) {
        self.round += 1;
        let full = !self.incremental
            || self.round == 1
            || self.round.is_multiple_of(self.full_every.max(1));
        self.changes.clear();
        self.last_was_full = full;
        if full {
            if self.threads <= 1 {
                let mut out = Vec::with_capacity(self.scores.len());
                clf.predict_all(corpus, emb, &mut out);
                self.scores = out;
            } else {
                let all: Vec<u32> = (0..self.scores.len() as u32).collect();
                self.scores = self.predict_ids(clf, corpus, emb, &all);
            }
            self.refreshed_last_round = self.scores.len();
            self.epoch += 1;
        } else {
            // §4.5 selective refresh, batched: collect the above-threshold
            // ids first, then score them through the same chunked batch
            // path as a threaded full pass — instead of interleaving the scan
            // with one `predict` call per sentence.
            let ids: Vec<u32> = (0..self.scores.len() as u32)
                .filter(|&id| self.scores[id as usize] >= self.threshold)
                .collect();
            let fresh = self.predict_ids(clf, corpus, emb, &ids);
            for (&id, &new) in ids.iter().zip(&fresh) {
                let old = self.scores[id as usize];
                if new != old {
                    self.changes.push((id, old, new));
                    self.scores[id as usize] = new;
                }
            }
            self.refreshed_last_round = ids.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ClassifierKind;
    use darwin_text::embed::EmbedConfig;

    fn setup() -> (Corpus, Embeddings) {
        let texts: Vec<String> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    format!("shuttle to the airport number {i}")
                } else {
                    format!("pizza with cheese number {i}")
                }
            })
            .collect();
        let c = Corpus::from_texts(texts.iter());
        let e = Embeddings::train(
            &c,
            &EmbedConfig {
                dim: 8,
                ..Default::default()
            },
        );
        (c, e)
    }

    #[test]
    fn first_refresh_is_full() {
        let (c, e) = setup();
        let mut clf = ClassifierKind::logreg().build(&e, 1);
        clf.fit(&c, &e, &[0, 2], &[1, 3]);
        let mut cache = ScoreCache::new(c.len());
        cache.refresh(clf.as_ref(), &c, &e);
        assert_eq!(cache.last_refresh_size(), c.len());
        assert_eq!(cache.scores().len(), c.len());
    }

    #[test]
    fn incremental_rounds_touch_fewer_sentences() {
        let (c, e) = setup();
        let mut clf = ClassifierKind::logreg().build(&e, 1);
        clf.fit(&c, &e, &[0, 2, 4, 6], &[1, 3, 5, 7]);
        let mut cache = ScoreCache::new(c.len());
        cache.full_every = 100; // avoid a scheduled full pass in this test
        cache.refresh(clf.as_ref(), &c, &e); // round 1: full
        let full_n = cache.last_refresh_size();
        cache.refresh(clf.as_ref(), &c, &e); // round 2: incremental
        assert!(cache.last_refresh_size() <= full_n);
        // Negatives (scoring < 0.3 after training) were skipped.
        assert!(
            cache.last_refresh_size() < c.len(),
            "some sentences skipped"
        );
    }

    #[test]
    fn scheduled_full_pass_happens() {
        let (c, e) = setup();
        let mut clf = ClassifierKind::logreg().build(&e, 1);
        clf.fit(&c, &e, &[0], &[1]);
        let mut cache = ScoreCache::new(c.len());
        cache.full_every = 3;
        cache.refresh(clf.as_ref(), &c, &e); // round 1 full
        cache.refresh(clf.as_ref(), &c, &e); // round 2 incremental
        cache.refresh(clf.as_ref(), &c, &e); // round 3 full (3 % 3 == 0)
        assert_eq!(cache.last_refresh_size(), c.len());
    }

    #[test]
    fn epoch_bumps_only_on_full_passes() {
        let (c, e) = setup();
        let mut clf = ClassifierKind::logreg().build(&e, 1);
        clf.fit(&c, &e, &[0, 2], &[1, 3]);
        let mut cache = ScoreCache::new(c.len());
        cache.full_every = 3;
        assert_eq!(cache.epoch(), 0);
        cache.refresh(clf.as_ref(), &c, &e); // round 1: full
        assert_eq!(cache.epoch(), 1);
        assert!(cache.last_refresh_was_full());
        cache.refresh(clf.as_ref(), &c, &e); // round 2: incremental
        assert_eq!(cache.epoch(), 1);
        assert!(!cache.last_refresh_was_full());
        cache.refresh(clf.as_ref(), &c, &e); // round 3: full
        assert_eq!(cache.epoch(), 2);
        assert!(
            cache.last_changes().is_empty(),
            "journal cleared on full pass"
        );
    }

    #[test]
    fn change_journal_reflects_score_movements() {
        let (c, e) = setup();
        let mut clf = ClassifierKind::logreg().build(&e, 1);
        clf.fit(&c, &e, &[0, 2, 4], &[1, 3, 5]);
        let mut cache = ScoreCache::new(c.len());
        cache.full_every = 100;
        cache.refresh(clf.as_ref(), &c, &e); // round 1: full
        let before = cache.scores().to_vec();
        // Retrain with different data so scores actually move.
        clf.fit(&c, &e, &[0, 2, 4, 6, 8], &[1, 3, 5, 7, 9]);
        cache.refresh(clf.as_ref(), &c, &e); // round 2: incremental
        let after = cache.scores();
        for &(id, old, new) in cache.last_changes() {
            assert_eq!(before[id as usize], old);
            assert_eq!(after[id as usize], new);
            assert_ne!(old, new);
        }
        // Every moved score is in the journal.
        for id in 0..c.len() {
            if before[id] != after[id] {
                assert!(
                    cache
                        .last_changes()
                        .iter()
                        .any(|&(i, _, _)| i as usize == id),
                    "moved score {id} missing from journal"
                );
            }
        }
    }

    /// The thread count is an execution detail: every configuration must
    /// produce bit-identical scores and journals through full and
    /// incremental rounds alike.
    #[test]
    fn sharded_refresh_is_bit_identical_to_unsharded() {
        let (c, e) = setup();
        let mut clf = ClassifierKind::logreg().build(&e, 1);
        clf.fit(&c, &e, &[0, 2, 4], &[1, 3, 5]);
        let mut reference = ScoreCache::new(c.len());
        reference.full_every = 100;
        reference.refresh(clf.as_ref(), &c, &e); // full
        clf.fit(&c, &e, &[0, 2, 4, 6, 8], &[1, 3, 5, 7, 9]);
        reference.refresh(clf.as_ref(), &c, &e); // incremental

        for threads in [1usize, 2, 3, 7] {
            let mut clf = ClassifierKind::logreg().build(&e, 1);
            clf.fit(&c, &e, &[0, 2, 4], &[1, 3, 5]);
            let mut cache = ScoreCache::new(c.len()).with_threads(threads);
            cache.full_every = 100;
            cache.refresh(clf.as_ref(), &c, &e);
            clf.fit(&c, &e, &[0, 2, 4, 6, 8], &[1, 3, 5, 7, 9]);
            cache.refresh(clf.as_ref(), &c, &e);
            assert_eq!(
                cache.scores(),
                reference.scores(),
                "T={threads}: scores diverged"
            );
            assert_eq!(
                cache.last_changes(),
                reference.last_changes(),
                "T={threads}: journals diverged"
            );
            assert_eq!(cache.last_refresh_size(), reference.last_refresh_size());
        }
    }

    /// A stub whose score depends only on `(id, generation)` and which
    /// counts its `predict_batch` calls.
    struct Counting {
        generation: u32,
        batches: std::sync::atomic::AtomicUsize,
    }

    impl TextClassifier for Counting {
        fn fit(&mut self, _: &Corpus, _: &Embeddings, _: &[u32], _: &[u32]) {
            self.generation += 1;
        }

        fn predict(&self, _: &Corpus, _: &Embeddings, id: u32) -> f32 {
            // Ids divisible by 4 fall under the 0.3 threshold; the rest
            // stay above it and move with every generation.
            if id.is_multiple_of(4) {
                0.1
            } else {
                0.4 + 0.01 * self.generation as f32 + 0.001 * id as f32
            }
        }

        fn predict_batch(&self, c: &Corpus, e: &Embeddings, ids: &[u32], out: &mut Vec<f32>) {
            self.batches
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            out.extend(ids.iter().map(|&id| self.predict(c, e, id)));
        }
    }

    /// One pass, one split: an incremental refresh issues one
    /// `predict_batch` call per worker chunk — `threads` of them, whatever
    /// shard count was recorded — and the result equals the sequential
    /// cache's.
    #[test]
    fn incremental_refresh_issues_one_batch_per_thread() {
        use std::sync::atomic::Ordering;
        let (c, e) = setup();
        let run = |threads: usize| {
            let mut clf = Counting {
                generation: 0,
                batches: Default::default(),
            };
            let mut cache = ScoreCache::new(c.len())
                .with_shards(7)
                .with_threads(threads);
            cache.full_every = 100;
            cache.refresh(&clf, &c, &e); // round 1: full
            clf.fit(&c, &e, &[], &[]);
            clf.batches.store(0, Ordering::Relaxed);
            cache.refresh(&clf, &c, &e); // round 2: incremental
            assert!(!cache.last_refresh_was_full());
            (cache, clf.batches.into_inner())
        };
        let (reference, calls) = run(1);
        assert_eq!(calls, 1);
        // 40 sentences, every fourth below threshold: 30 ids re-scored.
        assert_eq!(reference.last_refresh_size(), 30);
        assert_eq!(reference.last_changes().len(), 30);
        for threads in [2usize, 3] {
            let (cache, calls) = run(threads);
            assert_eq!(calls, threads, "T={threads}: one batch per worker chunk");
            assert_eq!(cache.scores(), reference.scores(), "T={threads}");
            assert_eq!(cache.last_changes(), reference.last_changes());
            assert_eq!(cache.last_refresh_size(), 30);
        }
    }

    /// An exported-then-imported cache must continue the refresh cadence
    /// exactly: same full-pass schedule, bit-identical scores and
    /// journals as the never-interrupted cache.
    #[test]
    fn export_import_continues_the_refresh_cadence() {
        let (c, e) = setup();
        let mut clf = ClassifierKind::logreg().build(&e, 1);
        let sets: [(&[u32], &[u32]); 4] = [
            (&[0, 2], &[1, 3]),
            (&[0, 2, 4], &[1, 3, 5]),
            (&[0, 2, 4, 6], &[1, 3, 5, 7]),
            (&[0, 2, 4, 6, 8], &[1, 3, 5, 7, 9]),
        ];
        let mut reference = ScoreCache::new(c.len());
        reference.full_every = 3;
        let mut live = ScoreCache::new(c.len());
        live.full_every = 3;
        for (pos, neg) in &sets[..2] {
            clf.fit(&c, &e, pos, neg);
            reference.refresh(clf.as_ref(), &c, &e);
            live.refresh(clf.as_ref(), &c, &e);
        }
        let mut resumed = ScoreCache::import(&live.export()).with_threads(2);
        assert_eq!(resumed.epoch(), live.epoch());
        for (pos, neg) in &sets[2..] {
            clf.fit(&c, &e, pos, neg);
            reference.refresh(clf.as_ref(), &c, &e);
            resumed.refresh(clf.as_ref(), &c, &e);
            assert_eq!(
                resumed.last_refresh_was_full(),
                reference.last_refresh_was_full()
            );
            assert_eq!(resumed.scores(), reference.scores());
            assert_eq!(resumed.last_changes(), reference.last_changes());
        }
        assert_eq!(resumed.epoch(), reference.epoch());
    }

    /// Appended ids enter at the 0.5 prior, are journaled, sit above the
    /// refresh threshold, and the next incremental refresh scores them.
    #[test]
    fn append_grows_scores_and_journals_new_ids() {
        let (c, e) = setup();
        // The pre-append view: same first 37 sentences (same syms — the
        // vocab interns in sentence order), 3 yet to arrive.
        let texts: Vec<String> = (0..37)
            .map(|i| {
                if i % 2 == 0 {
                    format!("shuttle to the airport number {i}")
                } else {
                    format!("pizza with cheese number {i}")
                }
            })
            .collect();
        let c_small = Corpus::from_texts(texts.iter());
        let mut clf = ClassifierKind::logreg().build(&e, 1);
        clf.fit(&c, &e, &[0, 2, 4], &[1, 3, 5]);
        let mut cache = ScoreCache::new(c_small.len());
        cache.full_every = 100;
        cache.refresh(clf.as_ref(), &c_small, &e);
        let journal_before = cache.last_changes().len();
        cache.append(3);
        assert_eq!(cache.scores().len(), c.len());
        assert!(cache.scores()[c.len() - 3..].iter().all(|&s| s == 0.5));
        // New ids journaled, id-sorted.
        let tail = &cache.last_changes()[journal_before..];
        let first_new = c.len() as u32 - 3;
        assert_eq!(
            tail,
            [0, 1, 2].map(|k| (first_new + k, 0.5, 0.5)),
            "appended ids journaled at the prior"
        );
        let ids: Vec<u32> = cache.last_changes().iter().map(|&(id, _, _)| id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "journal stays sorted");
        // The next incremental refresh re-scores them (0.5 >= threshold).
        cache.refresh(clf.as_ref(), &c, &e);
        assert!(!cache.last_refresh_was_full());
        for id in c.len() - 3..c.len() {
            let mut want = Vec::new();
            clf.predict_batch(&c, &e, &[id as u32], &mut want);
            assert_eq!(cache.score(id as u32), want[0], "appended id {id} scored");
        }
    }

    #[test]
    fn full_only_mode_always_scores_everything() {
        let (c, e) = setup();
        let mut clf = ClassifierKind::logreg().build(&e, 1);
        clf.fit(&c, &e, &[0], &[1]);
        let mut cache = ScoreCache::full_only(c.len());
        for _ in 0..4 {
            cache.refresh(clf.as_ref(), &c, &e);
            assert_eq!(cache.last_refresh_size(), c.len());
        }
    }
}
