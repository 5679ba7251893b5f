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
//! * Active lanes run the same per-lane arithmetic over a compact tensor
//!   laid out `[embedding | active buckets ascending | bias]`, in one pass
//!   (`Param::grad_adam_step`): each lane takes the dense loop's gradient,
//!   then the [`Param::adam_step`] update. Lanes do not interact, so
//!   neither where a lane lives nor whether its gradient is stored in
//!   between can change its value.
//! * Adam's step constants (the bias corrections `1 − β^t`) depend on the
//!   step `t` alone, so they are computed once per `t` into a table the
//!   fit reads, not per step. Once a correction has rounded to exactly
//!   `1.0` (`bc1` from step 165, `bc2` from 17 321) the step runs a lane
//!   loop instance without that division: `x / 1.0` is `x`, bit for bit.
//!   On `x86_64` hosts with AVX2 the lane loop runs an AVX2 build of the
//!   same source, picked once per fit; same IEEE operations, same bits.
//! * The Adam lanes of a bucket that rarely used words touch decay toward
//!   subnormal values between touches, where a packed multiply, divide or
//!   square root pays a microcode assist. Every `REGROUP_STEPS` steps
//!   the loop swaps each bucket lane with a near-subnormal `w`, `m` or `v`
//!   to the front of the bucket region, moving `lane_of` and `buckets`
//!   with it, and the step runs that zone on the AVX2 instance's wide path
//!   (`adam.rs` module docs): the same bits, no assists. Bucket lanes are
//!   free to move, as the forward pass picks a bucket's accumulator by its
//!   full-width index and the final scatter reads `buckets`; the embedding
//!   prefix stays in place, as its accumulators follow position.
//! * The forward pass is [`dot_f32`] over the full-width vectors, replayed
//!   by [`dot_f32_nonzeros`]: the embedding lanes, a dense prefix, run
//!   `dot_f32`'s own chunked body, and the row's buckets and the bias
//!   follow with each product sent to the accumulator its *full-width*
//!   index selects.
//!
//! After the last epoch the compact weights are scattered into the
//! full-width vector every scoring path reads. The cold path
//! (`warm_start: false`) is the full-width dense loop, kept as the
//! reference the equivalence tests compare against: it computes Adam's
//! constants from `powi` at every step and divides by them in every lane.
//! The saving scales with the share of buckets the training set leaves
//! untouched (every generated corpus has a vocabulary under 200 words, so
//! under 5 % of the 4096 buckets are active); with every bucket active the
//! loop does the dense loop's lane work and there is still nothing to
//! select.

#![allow(clippy::needless_range_loop)] // index math mirrors the tensor strides

use crate::adam::{sigmoid, Adam, LaneLoop, Param};
use crate::block::{FeatureBlock, BLOCK_ROWS};
use crate::features::{logreg_dim, logreg_features, BOW_BUCKETS};
use crate::kernels::{dot_f32, dot_f32_nonzeros};
use crate::model::{TextClassifier, MAX_EPOCHS};
use darwin_text::{Corpus, Embeddings};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Steps between two groupings of the near-subnormal bucket lanes into the
/// zone ([`Param::group_near_subnormal`]).
const REGROUP_STEPS: usize = 64;

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

impl LogRegConfig {
    /// `Err` for `epochs` above [`MAX_EPOCHS`], whose fits could not run
    /// in bounded time or step-table memory.
    pub fn check(&self) -> Result<(), String> {
        if self.epochs > MAX_EPOCHS {
            return Err(format!("epochs {} above {MAX_EPOCHS}", self.epochs));
        }
        Ok(())
    }
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
    /// Adam's constants for steps `1..=steps.len()`, grown to the longest
    /// fit so far (they depend on the step alone).
    steps: Vec<Adam>,
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
            steps: Vec::new(),
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

    /// [`TextClassifier::fit`] with the active-set loop's lane instance
    /// given, and `regrouped` told each zone length it forms.
    fn fit_with(
        &mut self,
        corpus: &Corpus,
        emb: &Embeddings,
        pos: &[u32],
        neg: &[u32],
        lanes: LaneLoop,
        regrouped: impl FnMut(usize),
    ) {
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
            self.fit_active(corpus, emb, &data, pos_weight, &mut rng, lanes, regrouped);
        } else {
            self.fit_dense(corpus, emb, &mut data, pos_weight, &mut rng);
        }
    }

    /// The full-width dense training loop — the reference arithmetic, in
    /// two passes per step: the gradient into `g`, then
    /// [`Param::adam_step`].
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
    /// the lanes this training set can move (module docs), through the
    /// lane loop instance `lanes`. Every [`REGROUP_STEPS`] steps the
    /// near-subnormal bucket lanes are grouped into the zone, and
    /// `regrouped` is told its length.
    #[allow(clippy::too_many_arguments)]
    fn fit_active(
        &mut self,
        corpus: &Corpus,
        emb: &Embeddings,
        data: &[(u32, f32)],
        pos_weight: f32,
        rng: &mut SmallRng,
        lanes: LaneLoop,
        mut regrouped: impl FnMut(usize),
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
        let cfg = &self.cfg;
        Adam::extend_table(&mut self.steps, cfg.lr, cfg.epochs * rows.len());
        let w = &mut self.active;
        // The current row in the compact layout: zeros in the active
        // buckets it does not touch, the constant bias feature last.
        let mut f = vec![0.0f32; n];
        f[n - 1] = 1.0;
        let mut steps = self.steps.iter().enumerate();
        let mut zone = 0;
        for _ in 0..cfg.epochs {
            rows.shuffle(rng);
            for &(r, y) in &rows {
                let (t, &k) = steps.next().expect("one table entry per step");
                if t % REGROUP_STEPS == 0 {
                    // Bucket lanes may move: the forward pass picks a
                    // bucket's accumulator by its full-width index and the
                    // scatter below reads `buckets`. The embedding prefix
                    // stays, as its accumulators follow position.
                    zone = w.group_near_subnormal(emb_dim..n - 1, |i, j| {
                        buckets.swap(i - emb_dim, j - emb_dim);
                        for lane in [i, j] {
                            lane_of[buckets[lane - emb_dim] as usize] = lane as u32;
                        }
                    });
                    regrouped(zone);
                }
                let (idx, val) = arena.bow_row(r);
                let dense = arena.dense_row(r);
                f[..emb_dim].copy_from_slice(dense);
                for (&b, &v) in idx.iter().zip(val) {
                    f[lane_of[b as usize] as usize] = v;
                }
                let z = dot_f32_nonzeros(
                    dim,
                    (&w.w[..emb_dim], dense),
                    idx.iter()
                        .map(|&b| (emb_dim + b as usize, lane_of[b as usize] as usize))
                        .chain(std::iter::once((dim - 1, n - 1)))
                        .map(|(full, lane)| (full, w.w[lane], f[lane])),
                );
                let p = sigmoid(z);
                let cw = if y > 0.5 { pos_weight } else { 1.0 };
                let d = cw * (p - y);
                let l2 = [cfg.l2, cfg.l2_bow];
                w.grad_adam_step(&f, d, emb_dim, zone, l2, k, lanes);
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
        self.fit_with(corpus, emb, pos, neg, LaneLoop::detect(), |_| {});
    }

    fn predict_batch(&self, corpus: &Corpus, emb: &Embeddings, ids: &[u32], out: &mut Vec<f32>) {
        let mut block = FeatureBlock::new(emb.dim());
        self.score_block(&mut block, corpus, emb, ids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testing::{grouping_free_scores, score_all, score_one};
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
        let p = score_all(&lr, &c, &e);
        let acc = (pos[25..].iter().filter(|&&i| p[i as usize] > 0.5))
            .chain(neg[25..].iter().filter(|&&i| p[i as usize] <= 0.5))
            .count();
        assert!(acc >= 45, "accuracy {acc}/50");
    }

    #[test]
    fn untrained_predicts_half() {
        let (c, e) = toy();
        let lr = LogReg::new(&e, LogRegConfig::default(), 7);
        assert!((score_one(&lr, &c, &e, 0) - 0.5).abs() < 1e-6);
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
        let (pa, pb) = (score_all(&a, &c, &e), score_all(&b, &c, &e));
        for (pa, pb) in pa.iter().zip(&pb).take(6) {
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
            let (pw, pc) = (score_all(&warm, &c, &e), score_all(&cold, &c, &e));
            for (id, (pw, pc)) in pw.iter().zip(&pc).enumerate().step_by(13) {
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
                let toks = c.sentence(id).tokens();
                toks.iter()
                    .any(|&t| crate::features::bow_bucket(t) >= BOW_BUCKETS - 5)
            }));
            assert!(c.sentence(16).tokens().is_empty());
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
                let (pw, pc) = (score_all(&warm, c, e), score_all(&cold, c, e));
                prop_assert_eq!(
                    first_bit_diff(&pw, &pc), None,
                    "(id, warm, cold) prediction, round {}", round
                );
            }
        }
    }

    /// One fit long enough that its steps run past both points where
    /// Adam's bias corrections round to exactly `1.0` (steps 165 and
    /// 17 321; 1 460 rows × 12 epochs = 17 520 steps), which the short
    /// proptest fits never reach: rows drawn with repetition from the
    /// fixture pool, warm against cold, every weight and prediction by
    /// bits, at an embedding width whose dense prefix leaves a remainder
    /// (29) and, in release builds (CI), one that fills whole chunks (8).
    #[test]
    fn long_fit_warm_equals_cold_bit_for_bit() {
        use rand::Rng;
        let widths: &[usize] = if cfg!(debug_assertions) {
            &[29]
        } else {
            &[29, 8]
        };
        for &emb_dim in widths {
            let (c, e, pool) = wide_fixture(emb_dim);
            let mut rng = SmallRng::seed_from_u64(emb_dim as u64);
            let mut draw = |n: usize| -> Vec<u32> {
                (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
            };
            let (pos, neg) = (draw(500), draw(960));
            let cfg = LogRegConfig::default();
            assert!(cfg.epochs * (pos.len() + neg.len()) > 17_321);
            let cold_cfg = LogRegConfig {
                warm_start: false,
                ..cfg.clone()
            };
            let mut warm = LogReg::new(e, cfg, 13);
            let mut cold = LogReg::new(e, cold_cfg, 13);
            warm.fit(c, e, &pos, &neg);
            cold.fit(c, e, &pos, &neg);
            assert_eq!(
                first_bit_diff(&warm.w, &cold.w),
                None,
                "emb {emb_dim}: weights"
            );
            let (pw, pc) = (score_all(&warm, c, e), score_all(&cold, c, e));
            assert_eq!(first_bit_diff(&pw, &pc), None, "emb {emb_dim}: predictions");
        }
    }

    /// One fit of 2 600 rows × 12 epochs = 31 200 steps (release builds,
    /// as CI runs it; 900 rows in debug ones) in which bucket lanes enter
    /// and leave the zone: the 300 sentences of six words seen nowhere
    /// else each come once per epoch, so their buckets decay for a whole
    /// epoch between touches, and move back out when touched. Through
    /// every lane loop the host runs (the portable one groups the same
    /// lanes and runs the zone through its ordinary loop), every weight
    /// and prediction must equal the dense fit's by bits; the zone must be
    /// non-empty at some regroup and shrink at a later one.
    #[test]
    fn long_fit_with_a_moving_zone_equals_the_dense_fit() {
        use rand::Rng;
        let (c, e, _) = wide_fixture(29);
        let mut rng = SmallRng::seed_from_u64(29);
        let rare = 17..c.len() as u32;
        let (mut pos, mut neg): (Vec<u32>, Vec<u32>) = rare.partition(|id| id % 3 == 0);
        let rows = if cfg!(debug_assertions) { 900 } else { 2_600 };
        while pos.len() + neg.len() < rows {
            let id = rng.gen_range(0..16);
            if id % 2 == 0 {
                pos.push(id)
            } else {
                neg.push(id)
            }
        }
        let cfg = LogRegConfig::default();
        assert!(cfg!(debug_assertions) || cfg.epochs * rows >= 30_000);
        let cold_cfg = LogRegConfig {
            warm_start: false,
            ..cfg.clone()
        };
        let mut cold = LogReg::new(e, cold_cfg, 17);
        cold.fit(c, e, &pos, &neg);
        let pc = score_all(&cold, c, e);
        for (name, lanes) in LaneLoop::host_instances() {
            let mut warm = LogReg::new(e, cfg.clone(), 17);
            let mut zones = Vec::new();
            warm.fit_with(c, e, &pos, &neg, lanes, |zone| zones.push(zone));
            assert_eq!(first_bit_diff(&warm.w, &cold.w), None, "{name}: weights");
            let pw = score_all(&warm, c, e);
            assert_eq!(first_bit_diff(&pw, &pc), None, "{name}: predictions");
            let widest = zones.iter().copied().max().unwrap_or(0);
            let shrank = zones.windows(2).filter(|z| z[1] < z[0]).count();
            eprintln!(
                "{name}: {} regroups, widest zone {widest}, {shrank} shrank",
                zones.len()
            );
            assert!(widest > 0, "{name}: the zone was always empty");
            assert!(shrank > 0, "{name}: no lane ever left the zone");
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
            for &t in c.sentence(id).tokens() {
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

    /// One-id calls, one all-ids call and uneven chunkings give the same
    /// scores, for ids in order and for a call longer than one feature
    /// block that holds every id several times, backwards.
    #[test]
    fn scores_do_not_depend_on_grouping() {
        let (c, e) = toy();
        let mut lr = LogReg::new(&e, LogRegConfig::default(), 9);
        lr.fit(&c, &e, &[0, 2, 4], &[1, 3, 5]);
        let ids: Vec<u32> = (0..c.len() as u32).collect();
        let all = grouping_free_scores(&lr, &c, &e, &ids);
        let many: Vec<u32> = ids
            .iter()
            .rev()
            .cycle()
            .take(BLOCK_ROWS + 37)
            .copied()
            .collect();
        let got = grouping_free_scores(&lr, &c, &e, &many);
        for (&id, &p) in many.iter().zip(&got) {
            assert_eq!(p.to_bits(), all[id as usize].to_bits(), "id {id}");
        }
    }
}
