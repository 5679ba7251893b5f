//! The Kim (2014) sentence-classification CNN, from scratch.
//!
//! Architecture (paper §4.1): the input is the stacked word-embedding matrix
//! of the sentence; convolution filters of several widths slide over it;
//! each filter's activations are max-pooled over time; the pooled feature
//! vector passes through two fully-connected layers ("a 3-layer
//! convolutional neural network followed by two fully connected layers").
//! Embeddings are fixed (provided by `darwin-text`); only the filters and
//! dense layers train, via Adam on binary cross-entropy.
//!
//! The stacked matrix is never materialized: a sentence is read as its
//! symbols plus the shared embedding table, and every entry point (`fit`,
//! `predict`, `predict_batch`, `predict_all`, `loss`) runs the one
//! `KimCnn::forward`, which gathers a window's rows, applies all filters
//! of that width with [`affine_rows_f32`] and max-pools in position order.
//! While the weights stand still a filter's activation is a pure function
//! of the window's symbols, so a prediction pass keeps an `ActTable` per
//! width and computes each distinct window once. A looked-up value *is*
//! the computed value, so per-id, batched, sharded and threaded prediction
//! are bit-identical by construction; training runs the same routine with
//! no table (the weights move every minibatch). `fit` is a pure function
//! of `(pos, neg, seed, cfg)`, so under [`CnnConfig::warm_start`] a refit
//! on an unchanged training set is skipped.

#![allow(clippy::needless_range_loop)] // index math mirrors the tensor strides

use crate::adam::{bce, sigmoid, Param};
use crate::kernels::{affine_f32, affine_rows_f32};
use crate::model::TextClassifier;
use darwin_text::{Corpus, Embeddings, Sym};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters for [`KimCnn`].
#[derive(Clone, Debug, PartialEq)]
pub struct CnnConfig {
    /// Convolution widths (token windows).
    pub widths: Vec<usize>,
    /// Filters per width.
    pub filters: usize,
    /// Hidden units in the first fully-connected layer.
    pub hidden: usize,
    /// Maximum sentence length (longer sentences are truncated).
    pub max_len: usize,
    /// Training epochs (Figure 14 sweeps 4..12; more epochs overfit).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Minibatch size.
    pub batch: usize,
    /// Skip a refit on an unchanged training set (exact: `fit` is pure in
    /// `(pos, neg)`); `false` refits every time.
    pub warm_start: bool,
}

impl Default for CnnConfig {
    fn default() -> Self {
        CnnConfig {
            widths: vec![2, 3, 4],
            filters: 12,
            hidden: 24,
            max_len: 32,
            epochs: 8,
            lr: 0.01,
            batch: 16,
            warm_start: true,
        }
    }
}

/// Entries an [`ActTable`] holds before a miss computes without inserting
/// (~3 MB of activations per width at the default 12 filters).
const ACT_TABLE_CAP: usize = 1 << 16;

/// Slots a lookup probes before giving up. The hash is not keyed, so this
/// bounds what colliding corpus text can cost: a window that finds neither
/// itself nor a free slot is computed as if the table were full.
const MAX_PROBE: usize = 16;

/// One width's activations by window symbols, for one prediction pass
/// (the weights are fixed inside one). Purely a cache of values
/// [`affine_rows_f32`] computed — hit or miss never changes a score.
struct ActTable {
    filters: usize,
    cap: usize,
    /// Open addressing, linear probing: entry index + 1, 0 = free. Power
    /// of two, at least twice the entries.
    slots: Vec<u32>,
    /// Entry `e`'s symbols are `keys[key_off[e]..key_off[e + 1]]`.
    keys: Vec<Sym>,
    key_off: Vec<usize>,
    /// `entries × filters`.
    acts: Vec<f32>,
}

impl ActTable {
    fn new(filters: usize, cap: usize) -> ActTable {
        ActTable {
            filters,
            cap,
            slots: vec![0; 256],
            keys: Vec::new(),
            key_off: vec![0],
            acts: Vec::new(),
        }
    }

    fn key(&self, e: usize) -> &[Sym] {
        &self.keys[self.key_off[e]..self.key_off[e + 1]]
    }

    /// `Ok(entry)` holding `key`, or `Err(slot)`: the free slot it would
    /// take, if the probe met one.
    fn find(&self, key: &[Sym]) -> Result<usize, Option<usize>> {
        let hash = key.iter().fold(0u64, |h, s| {
            (h.rotate_left(5) ^ s.0 as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let mask = self.slots.len() - 1;
        let mut i = (hash >> 32) as usize & mask;
        for _ in 0..MAX_PROBE {
            match self.slots[i] as usize {
                0 => return Err(Some(i)),
                e if self.key(e - 1) == key => return Ok(e - 1),
                _ => i = (i + 1) & mask,
            }
        }
        Err(None)
    }

    /// The activations of the window `key`: looked up, or computed by
    /// `fill` — into the table while it has room, into `spill` otherwise.
    fn get_or_fill<'a>(
        &'a mut self,
        key: &[Sym],
        spill: &'a mut [f32],
        fill: impl FnOnce(&mut [f32]),
    ) -> &'a [f32] {
        let (f, entries) = (self.filters, self.key_off.len() - 1);
        let e = match self.find(key) {
            Ok(e) => e,
            Err(Some(slot)) if entries < self.cap => {
                self.keys.extend_from_slice(key);
                self.key_off.push(self.keys.len());
                self.acts.resize((entries + 1) * f, 0.0);
                fill(&mut self.acts[entries * f..]);
                self.slots[slot] = entries as u32 + 1;
                if (entries + 1) * 2 > self.slots.len() {
                    self.grow();
                }
                entries
            }
            Err(_) => {
                fill(spill);
                return spill;
            }
        };
        &self.acts[e * f..(e + 1) * f]
    }

    /// Double the slots and re-place every entry. One that finds no slot
    /// within the probe bound is left out: a later lookup recomputes it.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        for e in 0..self.key_off.len() - 1 {
            if let Err(Some(slot)) = self.find(self.key(e)) {
                self.slots[slot] = e as u32 + 1;
            }
        }
    }
}

/// The trained model. All tensors are flat `Vec<f32>` with explicit strides.
pub struct KimCnn {
    cfg: CnnConfig,
    dim: usize,
    /// One weight tensor per width: `filters × (width·dim)`.
    conv_w: Vec<Param>,
    conv_b: Vec<Param>,
    /// `hidden × total_filters`.
    fc1_w: Param,
    fc1_b: Param,
    /// `1 × hidden`.
    fc2_w: Param,
    fc2_b: Param,
    seed: u64,
    step: u32,
    /// The `(pos, neg)` of the last completed fit (exact compare, see
    /// `LogReg::last_data`).
    last_data: Option<(Vec<u32>, Vec<u32>)>,
}

/// Forward/backward scratch space, reused across samples.
struct Scratch {
    feat: Vec<f32>,     // total_filters
    argmax: Vec<usize>, // total_filters — pooling winners
    h: Vec<f32>,        // hidden (post-ReLU)
    hpre: Vec<f32>,     // hidden (pre-ReLU)
    dfeat: Vec<f32>,    // total_filters — loss gradient at `feat`
    win: Vec<f32>,      // widest window's gathered embedding rows
    acts: Vec<f32>,     // filters — a window's activations no table holds
}

impl KimCnn {
    pub fn new(dim: usize, cfg: CnnConfig, seed: u64) -> KimCnn {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
        let total = cfg.widths.len() * cfg.filters;
        let conv_w = cfg
            .widths
            .iter()
            .map(|&w| {
                let fan_in = (w * dim) as f32;
                Param::uniform(cfg.filters * w * dim, (6.0 / fan_in).sqrt(), &mut rng)
            })
            .collect();
        let conv_b = cfg
            .widths
            .iter()
            .map(|_| Param::zeros(cfg.filters))
            .collect();
        let fc1_w = Param::uniform(cfg.hidden * total, (6.0 / total as f32).sqrt(), &mut rng);
        let fc1_b = Param::zeros(cfg.hidden);
        let fc2_w = Param::uniform(cfg.hidden, (6.0 / cfg.hidden as f32).sqrt(), &mut rng);
        let fc2_b = Param::zeros(1);
        KimCnn {
            cfg,
            dim,
            conv_w,
            conv_b,
            fc1_w,
            fc1_b,
            fc2_w,
            fc2_b,
            seed,
            step: 0,
            last_data: None,
        }
    }

    pub fn config(&self) -> &CnnConfig {
        &self.cfg
    }

    fn total_filters(&self) -> usize {
        self.cfg.widths.len() * self.cfg.filters
    }

    fn scratch(&self) -> Scratch {
        let widest = self.cfg.widths.iter().copied().max().unwrap_or(0);
        Scratch {
            feat: vec![0.0; self.total_filters()],
            argmax: vec![0; self.total_filters()],
            h: vec![0.0; self.cfg.hidden],
            hpre: vec![0.0; self.cfg.hidden],
            dfeat: vec![0.0; self.total_filters()],
            win: vec![0.0; widest.min(self.cfg.max_len) * self.dim],
            acts: vec![0.0; self.cfg.filters],
        }
    }

    /// Every parameter an optimizer step moves.
    fn params_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        let dense = [
            &mut self.fc1_w,
            &mut self.fc1_b,
            &mut self.fc2_w,
            &mut self.fc2_b,
        ];
        (self.conv_w.iter_mut().chain(&mut self.conv_b)).chain(dense)
    }

    /// The tokens the network reads: the first `max_len`.
    fn clip<'t>(&self, toks: &'t [Sym]) -> &'t [Sym] {
        &toks[..toks.len().min(self.cfg.max_len)]
    }

    /// Positions a `width`-wide filter visits on `n` (clipped) tokens, and
    /// the token rows of each window. A sentence shorter than the filter
    /// is one zero-padded window, which never reaches past `max_len` rows.
    fn windows(&self, n: usize, width: usize) -> (usize, usize) {
        if n >= width {
            (n - width + 1, width)
        } else {
            (1, width.min(self.cfg.max_len))
        }
    }

    /// Forward pass over a sentence's symbols; fills the scratch and
    /// returns P(positive). With `tables` (one per width, this pass's) a
    /// window's activations are computed on first sight only.
    fn forward(
        &self,
        emb: &Embeddings,
        toks: &[Sym],
        mut tables: Option<&mut [ActTable]>,
        s: &mut Scratch,
    ) -> f32 {
        let toks = self.clip(toks);
        let (n, dim, filters) = (toks.len(), self.dim, self.cfg.filters);
        // Convolution + max-over-time pooling.
        for (wi, &width) in self.cfg.widths.iter().enumerate() {
            let (positions, rows) = self.windows(n, width);
            let feat = &mut s.feat[wi * filters..(wi + 1) * filters];
            let argmax = &mut s.argmax[wi * filters..(wi + 1) * filters];
            feat.fill(f32::NEG_INFINITY);
            argmax.fill(0);
            for t in 0..positions {
                let win = &mut s.win[..rows * dim];
                let mut compute = |acts: &mut [f32]| {
                    for (k, row) in win.chunks_exact_mut(dim).enumerate() {
                        match toks.get(t + k) {
                            Some(&sym) => row.copy_from_slice(emb.vector(sym)),
                            None => row.fill(0.0),
                        }
                    }
                    let (w, b) = (&self.conv_w[wi].w, &self.conv_b[wi].w);
                    affine_rows_f32(b, w, width * dim, win, acts);
                };
                let acts: &[f32] = match tables.as_deref_mut() {
                    Some(tables) => {
                        let key = &toks[t..(t + rows).min(n)];
                        tables[wi].get_or_fill(key, &mut s.acts, compute)
                    }
                    None => {
                        compute(&mut s.acts);
                        &s.acts
                    }
                };
                for f in 0..filters {
                    if acts[f] > feat[f] {
                        feat[f] = acts[f];
                        argmax[f] = t;
                    }
                }
            }
            feat.iter_mut().for_each(|z| *z = z.max(0.0)); // ReLU after pooling
        }
        // FC1 (ReLU) + FC2 (sigmoid).
        let total = self.total_filters();
        affine_rows_f32(&self.fc1_b.w, &self.fc1_w.w, total, &s.feat, &mut s.hpre);
        for (h, &z) in s.h.iter_mut().zip(&s.hpre) {
            *h = z.max(0.0);
        }
        sigmoid(affine_f32(self.fc2_b.w[0], &self.fc2_w.w, &s.h))
    }

    /// Backward pass for one sample (adds into parameter gradients).
    /// `dz2` is the loss gradient at the output logit — `p - y` for plain
    /// BCE, scaled by the class weight for balanced training. `toks` and
    /// `s` must be what the forward pass ran on.
    fn backward(&mut self, dz2: f32, emb: &Embeddings, toks: &[Sym], s: &mut Scratch) {
        let toks = self.clip(toks);
        let total = self.total_filters();
        // FC2.
        for hidx in 0..self.cfg.hidden {
            self.fc2_w.g[hidx] += dz2 * s.h[hidx];
        }
        self.fc2_b.g[0] += dz2;
        // FC1.
        s.dfeat.fill(0.0);
        for hidx in 0..self.cfg.hidden {
            if s.hpre[hidx] <= 0.0 {
                continue;
            }
            let dh = dz2 * self.fc2_w.w[hidx];
            let row = hidx * total;
            for fi in 0..total {
                self.fc1_w.g[row + fi] += dh * s.feat[fi];
                s.dfeat[fi] += dh * self.fc1_w.w[row + fi];
            }
            self.fc1_b.g[hidx] += dh;
        }
        // Conv, through the pooling argmax and the post-pool ReLU; the
        // winning window's rows come straight from the embedding table.
        let dim = self.dim;
        for (wi, &width) in self.cfg.widths.iter().enumerate() {
            let wlen = width * dim;
            let (_, rows) = self.windows(toks.len(), width);
            for f in 0..self.cfg.filters {
                let fi = wi * self.cfg.filters + f;
                if s.feat[fi] <= 0.0 {
                    continue; // ReLU gate closed
                }
                let df = s.dfeat[fi];
                if df == 0.0 {
                    continue;
                }
                let t = s.argmax[fi];
                let grow = &mut self.conv_w[wi].g[f * wlen..f * wlen + rows * dim];
                for (k, grow) in grow.chunks_exact_mut(dim).enumerate() {
                    match toks.get(t + k) {
                        Some(&sym) => {
                            for (g, xv) in grow.iter_mut().zip(emb.vector(sym)) {
                                *g += df * xv;
                            }
                        }
                        // A zero-padded row: what the stacked matrix fed.
                        None => grow.iter_mut().for_each(|g| *g += df * 0.0),
                    }
                }
                self.conv_b[wi].g[f] += df;
            }
        }
    }

    fn zero_grads(&mut self) {
        self.params_mut().for_each(Param::zero_grad);
    }

    fn step_all(&mut self) {
        self.step += 1;
        let (lr, t) = (self.cfg.lr, self.step);
        self.params_mut().for_each(|p| p.adam_step(lr, t));
    }

    /// Mean training BCE over the given examples (diagnostic).
    pub fn loss(&self, corpus: &Corpus, emb: &Embeddings, pos: &[u32], neg: &[u32]) -> f32 {
        let mut s = self.scratch();
        let mut total = 0.0;
        for (ids, y) in [(pos, 1.0), (neg, 0.0)] {
            for &id in ids {
                let toks = &corpus.sentence(id).tokens;
                total += bce(self.forward(emb, toks, None, &mut s), y);
            }
        }
        total / (pos.len() + neg.len()).max(1) as f32
    }

    /// [`TextClassifier::predict_batch`] with the activation tables capped
    /// at `cap` entries each.
    fn predict_batch_capped(
        &self,
        corpus: &Corpus,
        emb: &Embeddings,
        ids: &[u32],
        cap: usize,
        out: &mut Vec<f32>,
    ) {
        let mut s = self.scratch();
        let table = |_| ActTable::new(self.cfg.filters, cap);
        let mut tables: Vec<ActTable> = self.cfg.widths.iter().map(table).collect();
        out.reserve(ids.len());
        for &id in ids {
            let toks = &corpus.sentence(id).tokens;
            out.push(self.forward(emb, toks, Some(&mut tables), &mut s));
        }
    }
}

impl TextClassifier for KimCnn {
    fn fit(&mut self, corpus: &Corpus, emb: &Embeddings, pos: &[u32], neg: &[u32]) {
        let warm = self.cfg.warm_start;
        let same = |(lp, ln): &(Vec<u32>, Vec<u32>)| lp == pos && ln == neg;
        if warm && self.last_data.as_ref().is_some_and(same) {
            return; // fit is pure in (pos, neg): nothing would change
        }
        // Re-initialize: each retraining in the pipeline starts fresh on the
        // grown positive set (Algorithm 1 line 10 "train_classifier").
        // `new` is pure, so every reset is identical.
        *self = KimCnn {
            last_data: warm.then(|| (pos.to_vec(), neg.to_vec())),
            ..KimCnn::new(self.dim, self.cfg.clone(), self.seed)
        };
        let mut data: Vec<(u32, f32)> = pos
            .iter()
            .map(|&i| (i, 1.0))
            .chain(neg.iter().map(|&i| (i, 0.0)))
            .collect();
        if data.is_empty() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x7EA);
        let mut scratch = self.scratch();
        // Class-balanced loss (see LogReg::fit for the rationale).
        let pos_weight = if pos.is_empty() || neg.is_empty() {
            1.0
        } else {
            (neg.len() as f32 / pos.len() as f32).clamp(0.25, 2.0)
        };
        for _epoch in 0..self.cfg.epochs {
            data.shuffle(&mut rng);
            for batch in data.chunks(self.cfg.batch) {
                self.zero_grads();
                for &(id, y) in batch {
                    let toks = &corpus.sentence(id).tokens;
                    let p = self.forward(emb, toks, None, &mut scratch);
                    let w = if y > 0.5 { pos_weight } else { 1.0 };
                    self.backward(w * (p - y), emb, toks, &mut scratch);
                }
                // Average gradient over the batch.
                let inv = 1.0 / batch.len() as f32;
                self.params_mut()
                    .for_each(|p| p.g.iter_mut().for_each(|g| *g *= inv));
                self.step_all();
            }
        }
    }

    fn predict(&self, corpus: &Corpus, emb: &Embeddings, id: u32) -> f32 {
        let toks = &corpus.sentence(id).tokens;
        self.forward(emb, toks, None, &mut self.scratch())
    }

    fn predict_all(&self, corpus: &Corpus, emb: &Embeddings, out: &mut Vec<f32>) {
        out.clear();
        let ids: Vec<u32> = (0..corpus.len() as u32).collect();
        self.predict_batch(corpus, emb, &ids, out);
    }

    fn predict_batch(&self, corpus: &Corpus, emb: &Embeddings, ids: &[u32], out: &mut Vec<f32>) {
        self.predict_batch_capped(corpus, emb, ids, ACT_TABLE_CAP, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_text::embed::EmbedConfig;
    use proptest::prelude::*;
    use rand::Rng;

    fn toy() -> (Corpus, Embeddings, Vec<u32>, Vec<u32>) {
        let mut texts = Vec::new();
        for i in 0..60 {
            texts.push(format!("what is the best way to get to terminal {}", i % 7));
            texts.push(format!(
                "please order {} pizzas with cheese and olives",
                i % 5
            ));
        }
        let c = Corpus::from_texts(texts.iter());
        let e = Embeddings::train(
            &c,
            &EmbedConfig {
                dim: 12,
                ..Default::default()
            },
        );
        let pos = (0..120).filter(|i| i % 2 == 0).collect();
        let neg = (0..120).filter(|i| i % 2 == 1).collect();
        (c, e, pos, neg)
    }

    #[test]
    fn learns_separable_task() {
        let (c, e, pos, neg) = toy();
        let mut cnn = KimCnn::new(
            e.dim(),
            CnnConfig {
                epochs: 6,
                ..Default::default()
            },
            3,
        );
        cnn.fit(&c, &e, &pos[..30], &neg[..30]);
        let acc = pos[30..]
            .iter()
            .map(|&i| (cnn.predict(&c, &e, i) > 0.5) as usize)
            .chain(
                neg[30..]
                    .iter()
                    .map(|&i| (cnn.predict(&c, &e, i) <= 0.5) as usize),
            )
            .sum::<usize>();
        assert!(acc >= 54, "accuracy {acc}/60");
    }

    #[test]
    fn training_reduces_loss() {
        let (c, e, pos, neg) = toy();
        let mut cnn = KimCnn::new(
            e.dim(),
            CnnConfig {
                epochs: 4,
                ..Default::default()
            },
            5,
        );
        let before = cnn.loss(&c, &e, &pos, &neg);
        cnn.fit(&c, &e, &pos, &neg);
        let after = cnn.loss(&c, &e, &pos, &neg);
        assert!(after < before, "loss {before} -> {after}");
        assert!(after.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let (c, e, pos, neg) = toy();
        let mut a = KimCnn::new(
            e.dim(),
            CnnConfig {
                epochs: 2,
                ..Default::default()
            },
            11,
        );
        let mut b = KimCnn::new(
            e.dim(),
            CnnConfig {
                epochs: 2,
                ..Default::default()
            },
            11,
        );
        a.fit(&c, &e, &pos[..10], &neg[..10]);
        b.fit(&c, &e, &pos[..10], &neg[..10]);
        for id in 0..10u32 {
            assert_eq!(a.predict(&c, &e, id), b.predict(&c, &e, id));
        }
    }

    /// Warm-start is a buffer-reuse strategy, never an arithmetic change:
    /// a warm model must track a cold model bit for bit through growing
    /// (and occasionally repeated) training sets.
    #[test]
    fn warm_start_tracks_cold_start_bit_for_bit() {
        let (c, e, pos, neg) = toy();
        let base = CnnConfig {
            epochs: 2,
            ..Default::default()
        };
        let cold_cfg = CnnConfig {
            warm_start: false,
            ..base.clone()
        };
        let mut warm = KimCnn::new(e.dim(), base, 13);
        let mut cold = KimCnn::new(e.dim(), cold_cfg, 13);
        let sets: [(usize, usize); 3] = [(4, 4), (8, 8), (8, 8)];
        for (round, &(np, nn)) in sets.iter().enumerate() {
            warm.fit(&c, &e, &pos[..np], &neg[..nn]);
            cold.fit(&c, &e, &pos[..np], &neg[..nn]);
            for id in (0..c.len() as u32).step_by(11) {
                let (pw, pc) = (warm.predict(&c, &e, id), cold.predict(&c, &e, id));
                assert_eq!(
                    pw.to_bits(),
                    pc.to_bits(),
                    "round {round} id {id}: warm {pw} vs cold {pc}"
                );
            }
        }
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (c, e, pos, neg) = toy();
        let mut cnn = KimCnn::new(
            e.dim(),
            CnnConfig {
                epochs: 2,
                ..Default::default()
            },
            1,
        );
        cnn.fit(&c, &e, &pos[..5], &neg[..5]);
        for id in 0..c.len() as u32 {
            let p = cnn.predict(&c, &e, id);
            assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn gradient_check_fc2() {
        // Numeric vs analytic gradient on the final layer for one sample.
        let (c, e, _, _) = toy();
        let mut cnn = KimCnn::new(
            e.dim(),
            CnnConfig {
                epochs: 1,
                ..Default::default()
            },
            9,
        );
        let mut s = cnn.scratch();
        let toks = &c.sentence(0).tokens;
        let y = 1.0;
        let p = cnn.forward(&e, toks, None, &mut s);
        cnn.zero_grads();
        cnn.backward(p - y, &e, toks, &mut s);
        let analytic = cnn.fc2_w.g[0];
        let eps = 1e-3;
        let orig = cnn.fc2_w.w[0];
        cnn.fc2_w.w[0] = orig + eps;
        let lp = bce(cnn.forward(&e, toks, None, &mut s), y);
        cnn.fc2_w.w[0] = orig - eps;
        let lm = bce(cnn.forward(&e, toks, None, &mut s), y);
        cnn.fc2_w.w[0] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    /// The batched entry points must reproduce per-id `predict` bit for
    /// bit (the `TextClassifier` contract the sharded score cache leans
    /// on) — including across reused scratch buffers and sentences of
    /// very different lengths.
    #[test]
    fn batched_prediction_is_bit_identical() {
        let c = Corpus::from_texts([
            "hi",
            "the shuttle to the airport now leaves from the main gate",
            "ok",
            "what is the best way to get to the airport from here",
        ]);
        let e = Embeddings::train(
            &c,
            &EmbedConfig {
                dim: 8,
                ..Default::default()
            },
        );
        let mut cnn = KimCnn::new(
            e.dim(),
            CnnConfig {
                epochs: 2,
                ..Default::default()
            },
            6,
        );
        cnn.fit(&c, &e, &[1, 3], &[0, 2]);
        let per_id: Vec<f32> = (0..c.len() as u32)
            .map(|id| cnn.predict(&c, &e, id))
            .collect();
        let mut all = Vec::new();
        cnn.predict_all(&c, &e, &mut all);
        assert_eq!(all, per_id, "predict_all diverged from per-id predict");
        // A long sentence before a short one: stale scratch would leak
        // embeddings into the short sentence's padding.
        let ids = [1u32, 0, 3, 2, 1];
        let mut batch = Vec::new();
        cnn.predict_batch(&c, &e, &ids, &mut batch);
        let expect: Vec<f32> = ids.iter().map(|&id| per_id[id as usize]).collect();
        assert_eq!(batch, expect, "predict_batch diverged from per-id predict");
        // A batch crossing the BLOCK_ROWS boundary: the arena refill
        // between chunks must not perturb anything.
        let many: Vec<u32> = (0..crate::block::BLOCK_ROWS as u32 + 8)
            .map(|i| ids[i as usize % ids.len()])
            .collect();
        let mut big = Vec::new();
        cnn.predict_batch(&c, &e, &many, &mut big);
        let expect_big: Vec<f32> = many.iter().map(|&id| per_id[id as usize]).collect();
        assert_eq!(big, expect_big, "block-boundary batch diverged");
    }

    #[test]
    fn handles_empty_training_set() {
        let (c, e, _, _) = toy();
        let mut cnn = KimCnn::new(e.dim(), CnnConfig::default(), 2);
        cnn.fit(&c, &e, &[], &[]);
        assert!(cnn.predict(&c, &e, 0).is_finite());
    }

    #[test]
    fn short_sentence_shorter_than_widest_filter() {
        let c = Corpus::from_texts(["hi", "the shuttle to the airport now leaves"]);
        let e = Embeddings::train(
            &c,
            &EmbedConfig {
                dim: 8,
                ..Default::default()
            },
        );
        let mut cnn = KimCnn::new(
            e.dim(),
            CnnConfig {
                epochs: 2,
                ..Default::default()
            },
            4,
        );
        cnn.fit(&c, &e, &[0], &[1]);
        assert!(cnn.predict(&c, &e, 0).is_finite());
    }

    /// The stacked embedding matrix the convolution read before it
    /// gathered windows itself: `max_len × dim`, zero-padded / truncated,
    /// with its effective length. Oracle input only.
    fn stack(emb: &Embeddings, toks: &[Sym], max_len: usize) -> (Vec<f32>, usize) {
        let dim = emb.dim();
        let mut x = vec![0.0f32; max_len * dim];
        let n = toks.len().min(max_len);
        for (t, &sym) in toks.iter().take(n).enumerate() {
            x[t * dim..(t + 1) * dim].copy_from_slice(emb.vector(sym));
        }
        (x, n)
    }

    /// The forward pass as it stood before the multi-row kernel and the
    /// activation table: one `affine_f32` per (filter, position) over the
    /// stacked matrix. The oracle `forward` is held to.
    fn forward_x(cnn: &KimCnn, x: &[f32], n: usize, s: &mut Scratch) -> f32 {
        let dim = cnn.dim;
        for (wi, &width) in cnn.cfg.widths.iter().enumerate() {
            let wlen = width * dim;
            let positions = if n >= width { n - width + 1 } else { 1 };
            for f in 0..cnn.cfg.filters {
                let wrow = &cnn.conv_w[wi].w[f * wlen..(f + 1) * wlen];
                let bias = cnn.conv_b[wi].w[f];
                let mut best = f32::NEG_INFINITY;
                let mut best_t = 0;
                for t in 0..positions {
                    // Past the end of `x` the kernel's shorter-slice-wins
                    // semantics truncate the window.
                    let z = affine_f32(bias, wrow, &x[t * dim..]);
                    if z > best {
                        best = z;
                        best_t = t;
                    }
                }
                let fi = wi * cnn.cfg.filters + f;
                s.feat[fi] = best.max(0.0);
                s.argmax[fi] = best_t;
            }
        }
        let total = cnn.total_filters();
        for hidx in 0..cnn.cfg.hidden {
            let row = &cnn.fc1_w.w[hidx * total..(hidx + 1) * total];
            let z = affine_f32(cnn.fc1_b.w[hidx], row, &s.feat);
            s.hpre[hidx] = z;
            s.h[hidx] = z.max(0.0);
        }
        sigmoid(affine_f32(cnn.fc2_b.w[0], &cnn.fc2_w.w, &s.h))
    }

    /// The backward pass as it stood over the stacked matrix.
    fn backward_x(cnn: &mut KimCnn, dz2: f32, x: &[f32], s: &Scratch) {
        let total = cnn.total_filters();
        for hidx in 0..cnn.cfg.hidden {
            cnn.fc2_w.g[hidx] += dz2 * s.h[hidx];
        }
        cnn.fc2_b.g[0] += dz2;
        let mut dfeat = vec![0.0f32; total];
        for hidx in 0..cnn.cfg.hidden {
            if s.hpre[hidx] <= 0.0 {
                continue;
            }
            let dh = dz2 * cnn.fc2_w.w[hidx];
            let row = hidx * total;
            for fi in 0..total {
                cnn.fc1_w.g[row + fi] += dh * s.feat[fi];
                dfeat[fi] += dh * cnn.fc1_w.w[row + fi];
            }
            cnn.fc1_b.g[hidx] += dh;
        }
        let dim = cnn.dim;
        for (wi, &width) in cnn.cfg.widths.iter().enumerate() {
            let wlen = width * dim;
            for f in 0..cnn.cfg.filters {
                let fi = wi * cnn.cfg.filters + f;
                if s.feat[fi] <= 0.0 || dfeat[fi] == 0.0 {
                    continue;
                }
                let t = s.argmax[fi];
                let avail = wlen.min(x.len() - t * dim);
                let xwin = &x[t * dim..t * dim + avail];
                let grow = &mut cnn.conv_w[wi].g[f * wlen..f * wlen + avail];
                for (g, xv) in grow.iter_mut().zip(xwin) {
                    *g += dfeat[fi] * xv;
                }
                cnn.conv_b[wi].g[f] += dfeat[fi];
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A 12-word vocabulary and its embeddings at `dim`.
    fn vocab12(dim: usize) -> (Corpus, Embeddings) {
        let c = Corpus::from_texts(["a b c d e f g h i j k l"]);
        let cfg = EmbedConfig {
            dim,
            ..Default::default()
        };
        let e = Embeddings::train(&c, &cfg);
        (c, e)
    }

    /// A fresh network with every bias moved off zero (same `seed`, same
    /// network).
    fn net(dim: usize, cfg: &CnnConfig, seed: u64) -> KimCnn {
        let mut cnn = KimCnn::new(dim, cfg.clone(), seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        for p in cnn.params_mut().filter(|p| p.w.iter().all(|&w| w == 0.0)) {
            p.w.iter_mut()
                .for_each(|w| *w = rng.gen_range(-0.5f32..0.5));
        }
        cnn
    }

    /// `forward` (through a small table twice — first sight, then second,
    /// with whatever fit under the cap a hit — and with no table) and
    /// `backward` against the stacked-matrix oracle on one token
    /// sequence: pooled features, pooling winners, hidden layer, output
    /// and every gradient, by bits.
    fn assert_matches_oracle(emb: &Embeddings, cfg: &CnnConfig, seed: u64, toks: &[Sym], y: f32) {
        let (mut new, mut old) = (net(emb.dim(), cfg, seed), net(emb.dim(), cfg, seed));
        let (mut sn, mut so) = (new.scratch(), old.scratch());
        let (x, n) = stack(emb, toks, cfg.max_len);
        let want = forward_x(&old, &x, n, &mut so);
        let mut tables: Vec<ActTable> = (cfg.widths.iter())
            .map(|_| ActTable::new(cfg.filters, 8))
            .collect();
        for pass in ["first sight", "second sight", "no table"] {
            let tables = (pass != "no table").then_some(&mut tables[..]);
            let got = new.forward(emb, toks, tables, &mut sn);
            let ctx = format!("{pass}: toks {} cfg {cfg:?}", toks.len());
            assert_eq!(got.to_bits(), want.to_bits(), "output, {ctx}");
            assert_eq!(bits(&sn.feat), bits(&so.feat), "feat, {ctx}");
            assert_eq!(sn.argmax, so.argmax, "argmax, {ctx}");
            assert_eq!(bits(&sn.hpre), bits(&so.hpre), "hpre, {ctx}");
            assert_eq!(bits(&sn.h), bits(&so.h), "h, {ctx}");
        }
        new.backward(want - y, emb, toks, &mut sn);
        backward_x(&mut old, want - y, &x, &so);
        for (i, (pn, po)) in new.params_mut().zip(old.params_mut()).enumerate() {
            assert_eq!(bits(&pn.g), bits(&po.g), "gradient of param {i}, {cfg:?}");
        }
    }

    /// The lengths the window rule distinguishes — empty, one token,
    /// shorter than a filter, exactly `max_len`, longer than `max_len` —
    /// under filters narrower than, equal to and wider than `max_len`,
    /// for a `dim` with tail lanes and one without, and a filter count
    /// that is not a multiple of the kernel's row group.
    #[test]
    fn forward_and_backward_equal_the_oracle_on_the_edge_lengths() {
        for dim in [5usize, 8] {
            let (c, e) = vocab12(dim);
            let all = &c.sentence(0).tokens;
            for (max_len, filters) in [(3usize, 5usize), (6, 12), (1, 4)] {
                let cfg = CnnConfig {
                    widths: vec![2, 3, 4, 5],
                    filters,
                    hidden: 7,
                    max_len,
                    ..Default::default()
                };
                for len in [0, 1, 2, 3, 4, 5, 6, 7, 12] {
                    assert_matches_oracle(&e, &cfg, 3 + len as u64, &all[..len], 1.0);
                }
            }
        }
    }

    proptest! {
        // Release runs (CI) take the raised case count.
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 48 } else { 1500 },
            ..Default::default()
        })]

        #[test]
        fn forward_and_backward_equal_the_oracle_on_random_sentences(
            dim in prop::sample::select(vec![5usize, 8, 12]),
            widths in prop::sample::select(vec![vec![2usize, 3, 4], vec![1, 5], vec![3], vec![4, 2]]),
            filters in prop::sample::select(vec![1usize, 3, 4, 6, 12]),
            hidden in prop::sample::select(vec![1usize, 5, 8]),
            max_len in 1usize..8,
            draws in prop::collection::vec(0usize..12, 0..11),
            seed in 0u64..1000,
        ) {
            let (c, e) = vocab12(dim);
            let all = &c.sentence(0).tokens;
            // Few distinct symbols: windows repeat inside one sentence.
            let toks: Vec<Sym> = draws.iter().map(|&d| all[d % (1 + seed as usize % 12)]).collect();
            let cfg = CnnConfig { widths, filters, hidden, max_len, ..Default::default() };
            assert_matches_oracle(&e, &cfg, seed, &toks, (seed % 2) as f32);
        }
    }

    /// Sentences for the table tests: repeated windows across and within
    /// sentences, one shorter than every filter, an empty one, one longer
    /// than `max_len`.
    fn table_fixture() -> (Corpus, Embeddings, KimCnn) {
        let c = Corpus::from_texts([
            "the shuttle to the airport leaves from the main gate",
            "hi",
            "the shuttle to the airport leaves from the side gate",
            "",
            "to the airport to the airport to the airport to the airport",
            "ok then",
            "a pizza with cheese and olives and cheese and olives please",
        ]);
        let cfg = EmbedConfig {
            dim: 12,
            ..Default::default()
        };
        let e = Embeddings::train(&c, &cfg);
        let cfg = CnnConfig {
            epochs: 2,
            max_len: 10,
            ..Default::default()
        };
        let mut cnn = KimCnn::new(e.dim(), cfg, 21);
        cnn.fit(&c, &e, &[0, 2, 4], &[1, 5, 6]);
        (c, e, cnn)
    }

    /// `predict_batch` ≡ per-id `predict` by bits whatever the table does:
    /// every window of the second half a hit (the batch is the corpus
    /// twice), none ever (cap 0), and tables that fill up part-way through
    /// the first sentences (caps 3 and 10).
    #[test]
    fn table_hits_misses_and_overflow_leave_scores_bit_identical() {
        let (c, e, cnn) = table_fixture();
        let ids: Vec<u32> = (0..c.len() as u32).chain(0..c.len() as u32).collect();
        let want: Vec<u32> = ids
            .iter()
            .map(|&id| cnn.predict(&c, &e, id).to_bits())
            .collect();
        for cap in [0usize, 3, 10, ACT_TABLE_CAP] {
            let mut got = Vec::new();
            cnn.predict_batch_capped(&c, &e, &ids, cap, &mut got);
            assert_eq!(bits(&got), want, "cap {cap}");
        }
        let mut got = Vec::new();
        cnn.predict_batch(&c, &e, &ids, &mut got);
        assert_eq!(bits(&got), want, "predict_batch");
    }

    /// A table belongs to one pass: after a refit on a different set the
    /// next `predict_batch` scores with the new weights only, exactly as
    /// per-id `predict` (which never sees a table) does.
    #[test]
    fn nothing_from_one_pass_table_survives_into_the_next() {
        let (c, e, mut cnn) = table_fixture();
        let ids: Vec<u32> = (0..c.len() as u32).collect();
        let mut first = Vec::new();
        cnn.predict_batch(&c, &e, &ids, &mut first);
        cnn.fit(&c, &e, &[1, 5], &[0, 2, 4, 6]);
        let mut second = Vec::new();
        cnn.predict_batch(&c, &e, &ids, &mut second);
        let want: Vec<f32> = ids.iter().map(|&id| cnn.predict(&c, &e, id)).collect();
        assert_eq!(bits(&second), bits(&want));
        assert_ne!(bits(&second), bits(&first), "the refit moved no score");
    }

    /// The table itself: a hit returns what the first sight computed and
    /// never calls `fill`; growth keeps every entry reachable; past `cap`
    /// a miss fills the spill buffer and inserts nothing.
    #[test]
    fn act_table_looks_up_what_it_filled_and_stops_at_cap() {
        let cap = 1000;
        let mut table = ActTable::new(2, cap);
        let key = |i: u32| [Sym(i % 40), Sym(i / 40), Sym(7)];
        let mut spill = [0.0f32; 2];
        for round in 0..2 {
            for i in 0..1200u32 {
                let mut filled = false;
                let acts = table.get_or_fill(&key(i)[..2 + (i % 2) as usize], &mut spill, |a| {
                    filled = true;
                    a.copy_from_slice(&[i as f32, -(i as f32)]);
                });
                assert_eq!(acts, [i as f32, -(i as f32)], "round {round} key {i}");
                assert_eq!(
                    filled,
                    round == 0 || i >= cap as u32,
                    "round {round} key {i}"
                );
            }
            assert_eq!(table.key_off.len() - 1, cap);
            assert!(table.slots.len() >= 2 * cap);
        }
    }
}
