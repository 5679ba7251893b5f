//! Logistic regression over mean-embedding + hashed bag-of-words features.
//!
//! The fast alternative to the Kim CNN: same [`TextClassifier`] contract,
//! orders of magnitude cheaper to retrain. Used by experiments that sweep
//! many pipeline configurations, and as the comparison point in the
//! classifier-quality ablation.
//!
//! Every prediction path routes through [`FeatureBlock`] scoring — blocks
//! of [`BLOCK_ROWS`] sentences materialized into one contiguous arena and
//! scored by the shared kernels — so per-id, batched, sharded and threaded
//! execution are bit-identical by construction (there is only one scoring
//! arithmetic to diverge from).
//!
//! Training supports warm starts ([`LogRegConfig::warm_start`]): because
//! `fit` is a pure function of `(pos, neg, seed, cfg)` — the RNG is
//! reseeded and the parameters re-zeroed on entry — a refit on the exact
//! training set the model already holds is skipped outright, and across
//! *different* training sets the warm path keeps the per-sentence feature
//! arena (features depend only on the corpus and embeddings, which are
//! fixed for a classifier instance) and trains on the **active set**: the
//! embedding lanes, the bias, and the bag-of-words buckets some row of
//! this fit's training set touches.
//!
//! The active-set loop is the full-width loop with the work on exact
//! zeros left out, so it trains the same bits:
//!
//! * A bucket no training row touches is a fixed point of the step. It
//!   starts at `w = m = v = +0.0`; its gradient is
//!   `d·0.0 + l2_bow·0.0 = ±0.0 + +0.0 = +0.0` for any finite `d`; both
//!   Adam moments stay `+0.0`; and `w -= lr·0/(√0 + ε)` leaves `+0.0`.
//!   Parameters are re-zeroed at every fit, so the set is per fit.
//! * Active lanes run the same per-lane gradient and [`Param::adam_step`]
//!   arithmetic over a compact tensor laid out `[embedding | active
//!   buckets ascending | bias]` — lanes do not interact in either pass, so
//!   where a lane lives cannot change its value.
//! * The forward pass is [`dot_f32`] over the full-width vectors, replayed
//!   from the row's non-zeros by [`dot_f32_nonzeros`] with each product
//!   sent to the accumulator its *full-width* index selects.
//!
//! After the last epoch the compact weights are scattered into the
//! full-width vector every scoring path reads. The cold path
//! (`warm_start: false`) is the full-width dense loop, kept as the
//! reference the equivalence tests compare against. The saving scales with
//! the share of buckets the training set leaves untouched (every generated
//! corpus has a vocabulary under 200 words, so under 5 % of the 4096
//! buckets are active); with every bucket active the loop does the dense
//! loop's lane work and there is still nothing to select.

#![allow(clippy::needless_range_loop)] // index math mirrors the tensor strides

use crate::adam::{sigmoid, Param};
use crate::block::{FeatureBlock, BLOCK_ROWS};
use crate::features::{logreg_dim, logreg_features, BOW_BUCKETS};
use crate::kernels::{dot_f32, dot_f32_nonzeros};
use crate::model::TextClassifier;
use darwin_text::{Corpus, Embeddings};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Hyper-parameters for [`LogReg`].
#[derive(Clone, Debug, PartialEq)]
pub struct LogRegConfig {
    pub epochs: usize,
    pub lr: f32,
    /// L2 on the dense (mean-embedding) block.
    pub l2: f32,
    /// L2 on the hashed bag-of-words block. Kept much stronger than `l2`:
    /// the BoW block can memorize the exact surface of the training
    /// positives, which would zero out the embedding pathway Darwin needs
    /// for semantic generalization (paper §3, "bus" → "public transport").
    pub l2_bow: f32,
    /// Keep training state (feature arena, compact Adam tensor) across
    /// fits, train on the active set and skip refits on an unchanged
    /// training set. Bit-identical to the cold path; `false` keeps the
    /// full-width from-scratch reference alive.
    pub warm_start: bool,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig {
            epochs: 12,
            lr: 0.05,
            l2: 1e-4,
            l2_bow: 6e-3,
            warm_start: true,
        }
    }
}

/// Per-sentence feature rows cached across fits (warm starts only), in the
/// [`FeatureBlock`] layout: the dense embedding half plus the bag-of-words
/// half as ascending `(bucket, value)` runs — the non-zeros the active-set
/// loop works from. Valid because features are a pure function of
/// `(corpus, emb, id)` and a classifier instance always sees one corpus
/// (which only ever grows at the end) and one embedding table.
struct FeatureArena {
    slots: HashMap<u32, usize>,
    rows: FeatureBlock,
}

impl FeatureArena {
    fn new(emb_dim: usize) -> FeatureArena {
        FeatureArena {
            slots: HashMap::new(),
            rows: FeatureBlock::new(emb_dim),
        }
    }

    /// The arena row holding sentence `id`, materialized on first use.
    fn ensure(&mut self, corpus: &Corpus, emb: &Embeddings, id: u32) -> usize {
        *self
            .slots
            .entry(id)
            .or_insert_with(|| self.rows.push(corpus, emb, id))
    }
}

/// Binary logistic regression trained with Adam.
pub struct LogReg {
    cfg: LogRegConfig,
    /// Full-width weights `[embedding | BOW_BUCKETS | bias]` — what every
    /// scoring path reads.
    w: Vec<f32>,
    seed: u64,
    arena: FeatureArena,
    /// The active-set loop's compact parameters, kept for their
    /// allocations while the active-set size repeats.
    active: Param,
    /// The `(pos, neg)` of the last completed fit — the warm-start skip
    /// compares exactly (no hashing), so a skipped refit is provably the
    /// fit it replaces.
    last_data: Option<(Vec<u32>, Vec<u32>)>,
}

impl LogReg {
    pub fn new(emb: &Embeddings, cfg: LogRegConfig, seed: u64) -> LogReg {
        LogReg {
            cfg,
            w: vec![0.0; logreg_dim(emb)],
            seed,
            arena: FeatureArena::new(emb.dim()),
            active: Param::zeros(0),
            last_data: None,
        }
    }

    /// Score a block of materialized ids, appending to `out` in id order.
    fn score_block(
        &self,
        block: &mut FeatureBlock,
        corpus: &Corpus,
        emb: &Embeddings,
        ids: &[u32],
        out: &mut Vec<f32>,
    ) {
        for chunk in ids.chunks(BLOCK_ROWS) {
            block.fill(corpus, emb, chunk);
            block.score_into(&self.w, out);
        }
    }

    /// The full-width dense training loop — the reference arithmetic.
    fn fit_dense(
        &mut self,
        corpus: &Corpus,
        emb: &Embeddings,
        data: &mut [(u32, f32)],
        pos_weight: f32,
        rng: &mut SmallRng,
    ) {
        let dim = self.w.len();
        let emb_dim = dim - BOW_BUCKETS - 1;
        let cfg = &self.cfg;
        let mut w = Param::zeros(dim);
        let mut f = vec![0.0f32; dim];
        let mut step = 0;
        for _ in 0..cfg.epochs {
            data.shuffle(rng);
            for &(id, y) in data.iter() {
                logreg_features(corpus, emb, id, &mut f);
                let p = sigmoid(dot_f32(&w.w, &f));
                let cw = if y > 0.5 { pos_weight } else { 1.0 };
                let d = cw * (p - y);
                for i in 0..dim {
                    let l2 = if i < emb_dim { cfg.l2 } else { cfg.l2_bow };
                    w.g[i] = d * f[i] + l2 * w.w[i];
                }
                step += 1;
                w.adam_step(cfg.lr, step);
            }
        }
        self.w = w.w;
    }

    /// The active-set training loop: [`LogReg::fit_dense`] restricted to
    /// the lanes this training set can move (module docs).
    fn fit_active(
        &mut self,
        corpus: &Corpus,
        emb: &Embeddings,
        data: &[(u32, f32)],
        pos_weight: f32,
        rng: &mut SmallRng,
    ) {
        let dim = self.w.len();
        let emb_dim = dim - BOW_BUCKETS - 1;
        // Ids → arena rows once per fit. Shuffling draws from the length
        // alone, so `rows` goes through the permutations `data` would.
        let mut rows: Vec<(usize, f32)> = data
            .iter()
            .map(|&(id, y)| (self.arena.ensure(corpus, emb, id), y))
            .collect();
        let arena = &self.arena.rows;
        // Touched buckets ascending, and bucket → compact lane.
        let mut lane_of = vec![u32::MAX; BOW_BUCKETS];
        for &(r, _) in &rows {
            for &b in arena.bow_row(r).0 {
                lane_of[b as usize] = 0;
            }
        }
        let mut buckets: Vec<u32> = Vec::new();
        for b in 0..BOW_BUCKETS {
            if lane_of[b] == 0 {
                lane_of[b] = (emb_dim + buckets.len()) as u32;
                buckets.push(b as u32);
            }
        }
        let n = emb_dim + buckets.len() + 1;
        if self.active.len() == n {
            self.active.reset_zeros();
        } else {
            self.active = Param::zeros(n);
        }
        let (w, cfg) = (&mut self.active, &self.cfg);
        // The current row in the compact layout: zeros in the active
        // buckets it does not touch, the constant bias feature last.
        let mut f = vec![0.0f32; n];
        f[n - 1] = 1.0;
        let mut step = 0;
        for _ in 0..cfg.epochs {
            rows.shuffle(rng);
            for &(r, y) in &rows {
                let (idx, val) = arena.bow_row(r);
                f[..emb_dim].copy_from_slice(arena.dense_row(r));
                for (&b, &v) in idx.iter().zip(val) {
                    f[lane_of[b as usize] as usize] = v;
                }
                let z = dot_f32_nonzeros(
                    dim,
                    (0..emb_dim)
                        .map(|i| (i, i))
                        .chain(
                            idx.iter()
                                .map(|&b| (emb_dim + b as usize, lane_of[b as usize] as usize)),
                        )
                        .chain(std::iter::once((dim - 1, n - 1)))
                        .map(|(full, lane)| (full, w.w[lane], f[lane])),
                );
                let p = sigmoid(z);
                let cw = if y > 0.5 { pos_weight } else { 1.0 };
                let d = cw * (p - y);
                for i in 0..n {
                    let l2 = if i < emb_dim { cfg.l2 } else { cfg.l2_bow };
                    w.g[i] = d * f[i] + l2 * w.w[i];
                }
                step += 1;
                w.adam_step(cfg.lr, step);
                for &b in idx {
                    f[lane_of[b as usize] as usize] = 0.0;
                }
            }
        }
        // Untouched buckets hold the `+0.0` they never left.
        self.w.fill(0.0);
        self.w[..emb_dim].copy_from_slice(&w.w[..emb_dim]);
        for (k, &b) in buckets.iter().enumerate() {
            self.w[emb_dim + b as usize] = w.w[emb_dim + k];
        }
        self.w[dim - 1] = w.w[n - 1];
    }
}

impl TextClassifier for LogReg {
    fn fit(&mut self, corpus: &Corpus, emb: &Embeddings, pos: &[u32], neg: &[u32]) {
        let warm = self.cfg.warm_start;
        if warm {
            if let Some((lp, ln)) = &self.last_data {
                if lp.as_slice() == pos && ln.as_slice() == neg {
                    return; // fit is pure in (pos, neg): nothing would change
                }
            }
            self.last_data = Some((pos.to_vec(), neg.to_vec()));
        }
        let mut data: Vec<(u32, f32)> = pos
            .iter()
            .map(|&i| (i, 1.0))
            .chain(neg.iter().map(|&i| (i, 0.0)))
            .collect();
        if data.is_empty() {
            self.w.fill(0.0);
            return;
        }
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x10C);
        // Class-balanced loss: Darwin trains on few positives against many
        // sampled negatives; without re-weighting, predicted probabilities
        // collapse below the 0.5 benefit threshold of UniversalSearch.
        let pos_weight = if pos.is_empty() || neg.is_empty() {
            1.0
        } else {
            (neg.len() as f32 / pos.len() as f32).clamp(0.25, 2.0)
        };
        if warm {
            self.fit_active(corpus, emb, &data, pos_weight, &mut rng);
        } else {
            self.fit_dense(corpus, emb, &mut data, pos_weight, &mut rng);
        }
    }

    fn predict(&self, corpus: &Corpus, emb: &Embeddings, id: u32) -> f32 {
        let mut block = FeatureBlock::new(emb.dim());
        let mut out = Vec::with_capacity(1);
        self.score_block(&mut block, corpus, emb, &[id], &mut out);
        out[0]
    }

    fn predict_all(&self, corpus: &Corpus, emb: &Embeddings, out: &mut Vec<f32>) {
        out.clear();
        let ids: Vec<u32> = (0..corpus.len() as u32).collect();
        let mut block = FeatureBlock::new(emb.dim());
        self.score_block(&mut block, corpus, emb, &ids, out);
    }

    fn predict_batch(&self, corpus: &Corpus, emb: &Embeddings, ids: &[u32], out: &mut Vec<f32>) {
        let mut block = FeatureBlock::new(emb.dim());
        self.score_block(&mut block, corpus, emb, ids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_text::embed::EmbedConfig;
    use proptest::prelude::*;

    fn toy() -> (Corpus, Embeddings) {
        let mut texts = Vec::new();
        for i in 0..50 {
            texts.push(format!("take the shuttle to terminal {}", i % 9));
            texts.push(format!("the pasta with sauce number {}", i % 9));
        }
        let c = Corpus::from_texts(texts.iter());
        let e = Embeddings::train(
            &c,
            &EmbedConfig {
                dim: 12,
                ..Default::default()
            },
        );
        (c, e)
    }

    #[test]
    fn separates_toy_task() {
        let (c, e) = toy();
        let pos: Vec<u32> = (0..100).filter(|i| i % 2 == 0).collect();
        let neg: Vec<u32> = (0..100).filter(|i| i % 2 == 1).collect();
        let mut lr = LogReg::new(&e, LogRegConfig::default(), 7);
        lr.fit(&c, &e, &pos[..25], &neg[..25]);
        let acc: usize = pos[25..]
            .iter()
            .map(|&i| (lr.predict(&c, &e, i) > 0.5) as usize)
            .chain(
                neg[25..]
                    .iter()
                    .map(|&i| (lr.predict(&c, &e, i) <= 0.5) as usize),
            )
            .sum();
        assert!(acc >= 45, "accuracy {acc}/50");
    }

    #[test]
    fn untrained_predicts_half() {
        let (c, e) = toy();
        let lr = LogReg::new(&e, LogRegConfig::default(), 7);
        assert!((lr.predict(&c, &e, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn refit_resets_state() {
        let (c, e) = toy();
        let mut a = LogReg::new(&e, LogRegConfig::default(), 3);
        let mut b = LogReg::new(&e, LogRegConfig::default(), 3);
        // a: fit twice on same data; b: fit once. Final models must agree.
        a.fit(&c, &e, &[0, 2], &[1, 3]);
        a.fit(&c, &e, &[0, 2], &[1, 3]);
        b.fit(&c, &e, &[0, 2], &[1, 3]);
        for id in 0..6u32 {
            let (pa, pb) = (a.predict(&c, &e, id), b.predict(&c, &e, id));
            assert!((pa - pb).abs() < 1e-5, "{pa} vs {pb}");
        }
    }

    /// Warm-start is a buffer-reuse strategy, never an arithmetic change:
    /// a warm model must track a cold model bit for bit through a sequence
    /// of growing (and occasionally repeated) training sets.
    #[test]
    fn warm_start_tracks_cold_start_bit_for_bit() {
        let (c, e) = toy();
        let cold_cfg = LogRegConfig {
            warm_start: false,
            ..Default::default()
        };
        let mut warm = LogReg::new(&e, LogRegConfig::default(), 5);
        let mut cold = LogReg::new(&e, cold_cfg, 5);
        let sets: [(&[u32], &[u32]); 4] = [
            (&[0, 2], &[1, 3]),
            (&[0, 2, 4, 6], &[1, 3, 5]),
            (&[0, 2, 4, 6], &[1, 3, 5]), // repeat: warm skips, cold refits
            (&[0, 2, 4, 6, 8, 10], &[1, 3, 5, 7, 9]),
        ];
        for (round, (pos, neg)) in sets.iter().enumerate() {
            warm.fit(&c, &e, pos, neg);
            cold.fit(&c, &e, pos, neg);
            for id in (0..c.len() as u32).step_by(13) {
                let (pw, pc) = (warm.predict(&c, &e, id), cold.predict(&c, &e, id));
                assert_eq!(
                    pw.to_bits(),
                    pc.to_bits(),
                    "round {round} id {id}: warm {pw} vs cold {pc}"
                );
            }
        }
    }

    /// Embedding widths under test, by what `dim % DOT_LANES` leaves in
    /// `dot_f32`'s remainder: nothing (7: the bias sits in the body), the
    /// bias alone (8, 32), the last four buckets (12), the last five (29).
    const WIDTHS: [usize; 5] = [7, 8, 12, 29, 32];

    /// A corpus per embedding width whose vocabulary is large enough to
    /// reach the last five bag-of-words buckets, plus the ids the
    /// generated training sets draw from: ordinary sentences, the empty
    /// sentence, and every sentence touching one of those buckets.
    fn wide_fixture(emb_dim: usize) -> &'static (Corpus, Embeddings, Vec<u32>) {
        use std::sync::OnceLock;
        static FIXTURES: [OnceLock<(Corpus, Embeddings, Vec<u32>)>; 5] =
            [const { OnceLock::new() }; 5];
        let slot = WIDTHS
            .iter()
            .position(|&d| d == emb_dim)
            .expect("fixture width");
        FIXTURES[slot].get_or_init(|| {
            let mut texts: Vec<String> = Vec::new();
            for i in 0..8 {
                texts.push(format!("take the shuttle to terminal {i}"));
                texts.push(format!("the pasta with sauce number {i}"));
            }
            texts.push(String::new());
            // ~1 800 distinct words: symbol ids are interning order and
            // the bucket is a hash of the id, so vocabulary size is what
            // reaches buckets 4091..4096.
            for i in 0..300 {
                let words: Vec<String> = (0..6).map(|j| format!("w{}", i * 6 + j)).collect();
                texts.push(format!("{} near the terminal", words.join(" ")));
            }
            let c = Corpus::from_texts(texts.iter());
            let e = Embeddings::train(
                &c,
                &EmbedConfig {
                    dim: emb_dim,
                    ..Default::default()
                },
            );
            let mut pool: Vec<u32> = (0..17).collect(); // 16 ordinary + the empty one
            pool.extend((17..c.len() as u32).filter(|&id| {
                let toks = &c.sentence(id).tokens;
                toks.iter()
                    .any(|&t| crate::features::bow_bucket(t) >= BOW_BUCKETS - 5)
            }));
            assert!(c.sentence(16).tokens.is_empty());
            assert!(pool.len() > 17, "no sentence reaches the last buckets");
            (c, e, pool)
        })
    }

    /// First position where two vectors differ by bits (or in length).
    fn first_bit_diff(a: &[f32], b: &[f32]) -> Option<(usize, f32, f32)> {
        assert_eq!(a.len(), b.len());
        (0..a.len())
            .find(|&i| a[i].to_bits() != b[i].to_bits())
            .map(|i| (i, a[i], b[i]))
    }

    proptest! {
        // Release runs (CI) take the raised case count; a debug
        // `cargo test` stays quick.
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 12 } else { 1000 },
            ..Default::default()
        })]

        /// The active-set loop against the full-width reference over
        /// generated fit sequences — sets that grow, repeat (warm skips,
        /// cold refits) and shrink, with duplicate ids, ids on both
        /// sides, an empty `neg`, the empty sentence and rows in the
        /// dot remainder — comparing every full-width weight and every
        /// prediction by bits.
        #[test]
        fn active_set_fit_equals_dense_fit_bit_for_bit(
            emb_dim in prop::sample::select(WIDTHS.to_vec()),
            seed in 0u64..1000,
            steps in prop::collection::vec(
                (0usize..4, prop::collection::vec(0usize..1000, 1..5)),
                1..6,
            ),
        ) {
            let (c, e, pool) = wide_fixture(emb_dim);
            let cold_cfg = LogRegConfig { warm_start: false, ..Default::default() };
            let mut warm = LogReg::new(e, LogRegConfig::default(), seed);
            let mut cold = LogReg::new(e, cold_cfg, seed);
            let (mut pos, mut neg): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
            let (mut pw, mut pc) = (Vec::new(), Vec::new());
            for (round, (op, draws)) in steps.iter().enumerate() {
                // The special ids sit at the pool's end; folding the draw
                // range over it keeps them frequent.
                let ids = draws.iter().map(|&d| pool[d % pool.len()]);
                match op {
                    0 => pos.extend(ids),
                    1 => neg.extend(ids),
                    2 => {} // repeat the previous training set
                    _ => {
                        pos.truncate(pos.len() / 2);
                        neg.truncate(neg.len().saturating_sub(1));
                    }
                }
                warm.fit(c, e, &pos, &neg);
                cold.fit(c, e, &pos, &neg);
                prop_assert_eq!(
                    first_bit_diff(&warm.w, &cold.w), None,
                    "(lane, warm, cold) weight, round {} pos {:?} neg {:?}", round, &pos, &neg
                );
                warm.predict_all(c, e, &mut pw);
                cold.predict_all(c, e, &mut pc);
                prop_assert_eq!(
                    first_bit_diff(&pw, &pc), None,
                    "(id, warm, cold) prediction, round {}", round
                );
            }
        }
    }

    /// The invariant the active-set loop stands on, checked on the dense
    /// reference alone: a bucket no training row touches never leaves
    /// `+0.0`. A regulariser or optimiser change that moves untouched
    /// lanes (a bias-corrected decay, a non-zero init, momentum on the
    /// weights) fails here by name rather than in a trace digest.
    #[test]
    fn untouched_buckets_stay_exact_zero_in_the_dense_fit() {
        let (c, e, pool) = wide_fixture(12);
        let cold_cfg = LogRegConfig {
            warm_start: false,
            ..Default::default()
        };
        let mut cold = LogReg::new(e, cold_cfg, 11);
        let (pos, neg) = (&pool[..6], &pool[10..]);
        cold.fit(c, e, pos, neg);
        let mut touched = vec![false; BOW_BUCKETS];
        for &id in pos.iter().chain(neg) {
            for &t in &c.sentence(id).tokens {
                touched[crate::features::bow_bucket(t)] = true;
            }
        }
        let bow = &cold.w[e.dim()..e.dim() + BOW_BUCKETS];
        for (b, (&w, &hit)) in bow.iter().zip(&touched).enumerate() {
            if hit {
                assert_ne!(w, 0.0, "touched bucket {b} never moved");
            } else {
                assert_eq!(w.to_bits(), 0, "untouched bucket {b} holds {w:e}");
            }
        }
        assert!(touched.iter().filter(|&&t| t).count() < BOW_BUCKETS / 10);
    }

    #[test]
    fn predict_all_fast_path_agrees() {
        let (c, e) = toy();
        let mut lr = LogReg::new(&e, LogRegConfig::default(), 9);
        lr.fit(&c, &e, &[0, 2, 4], &[1, 3, 5]);
        let mut all = Vec::new();
        lr.predict_all(&c, &e, &mut all);
        for id in (0..c.len() as u32).step_by(17) {
            assert_eq!(all[id as usize], lr.predict(&c, &e, id));
        }
        // And the batch path, across a block boundary ordering.
        let ids: Vec<u32> = (0..c.len() as u32).rev().collect();
        let mut batch = Vec::new();
        lr.predict_batch(&c, &e, &ids, &mut batch);
        for (&id, &p) in ids.iter().zip(&batch) {
            assert_eq!(p, all[id as usize]);
        }
    }
}
