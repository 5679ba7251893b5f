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
//! Every entry point (`fit`, `predict_batch`, `loss`) runs the one
//! `KimCnn::forward`, in one of two instances. It stacks the sentence's
//! embedding rows once (`max_len × dim` scratch, zero rows up to the
//! widest window), reads each window as a slice of that stack, applies all
//! filters of the window's width with [`affine_outputs_f32`] — the
//! filters in the vector lanes, their weights in its [`output_slot`]
//! layout — and max-pools in position order with a `>` select. While the
//! weights stand still a filter's activation is a pure function of the
//! window's symbols, so the prediction instance keeps an `ActTable` per
//! width for one pass, probes it for each window (its symbols packed into
//! one `u128` key up to width 4), pools a hit straight from it, and stacks
//! a sentence only at its first miss; it keeps no pooling winners. A
//! looked-up value *is* the computed value, so one-id, batched, sharded
//! and threaded prediction are bit-identical by construction. Every
//! prediction pass (one `predict_batch` call) is compiled portable and for
//! AVX2, picked once per call by `LaneLoop::detect`.
//!
//! The training instance has no table (the weights move every minibatch)
//! and keeps the winners for `backward`. A minibatch's forward and
//! backward passes are one `#[inline(always)]` body, `KimCnn::accumulate`,
//! compiled twice — portable and for AVX2, without `fma` — and
//! `LaneLoop::detect` picks the instance once per fit. FC1's backward reads
//! a unit-major copy of its weights taken once per minibatch. Each step
//! then takes its Adam constants from a table grown once
//! (`Adam::extend_table`) and runs one pass per tensor that scales the
//! gradient sum to the mean, applies Adam and zeroes the sum
//! (`Param::mean_adam_step`). Every instance gives the bits of the
//! reference fit (stacked-matrix passes, a scaling pass, then
//! `Param::adam_step`) that the test module keeps. `fit` is a pure
//! function of `(pos, neg, seed, cfg)`, so under [`CnnConfig::warm_start`]
//! a refit on an unchanged training set is skipped.

#![allow(clippy::needless_range_loop)] // index math mirrors the tensor strides

use crate::adam::{bce, sigmoid, Adam, LaneLoop, Param};
use crate::kernels::{affine_f32, affine_outputs_f32, output_groups, output_slot};
use crate::model::{TextClassifier, MAX_EPOCHS};
use darwin_text::sentence::MAX_TOKENS;
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

/// Elements (`f32`s: 256 MiB) that each count [`CnnConfig::check`] makes
/// may reach.
const MAX_CNN_ELEMENTS: usize = 1 << 26;

impl CnnConfig {
    /// `Err` for a shape whose network over `dim`-wide embeddings could
    /// not be built or run in bounded memory: `epochs` above
    /// [`MAX_EPOCHS`], `max_len` or a width outside `1..=MAX_TOKENS`, or —
    /// counted with checked arithmetic — more than
    /// 2²⁶ elements in the conv weights (`filters × width × dim`,
    /// summed over the widths), FC1's weights (`hidden × widths ×
    /// filters`), the stacked sentence (`max_len × dim`) or the activation
    /// tables one prediction pass may fill (`widths × filters × 65 536`).
    pub fn check(&self, dim: usize) -> Result<(), String> {
        if self.epochs > MAX_EPOCHS {
            return Err(format!("epochs {} above {MAX_EPOCHS}", self.epochs));
        }
        let in_range = |v: &usize| (1..=MAX_TOKENS).contains(v);
        if !in_range(&self.max_len) {
            return Err(format!("max_len {} outside 1..={MAX_TOKENS}", self.max_len));
        }
        if let Some(w) = self.widths.iter().find(|w| !in_range(w)) {
            return Err(format!("width {w} outside 1..={MAX_TOKENS}"));
        }
        let conv = (self.widths.iter()).try_fold(0usize, |sum, &w| {
            sum.checked_add(self.filters.checked_mul(w)?.checked_mul(dim)?)
        });
        let total = self.widths.len().checked_mul(self.filters);
        let counts = [
            ("conv weights", conv),
            (
                "FC1 weights",
                total.and_then(|t| t.checked_mul(self.hidden)),
            ),
            ("stacked sentence", self.max_len.checked_mul(dim)),
            (
                "activation tables",
                total.and_then(|t| t.checked_mul(ACT_TABLE_CAP)),
            ),
        ];
        match counts
            .iter()
            .find(|(_, n)| !n.is_some_and(|n| n <= MAX_CNN_ELEMENTS))
        {
            Some((what, _)) => Err(format!("{what} past {MAX_CNN_ELEMENTS} elements")),
            None => Ok(()),
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

/// Symbols an [`ActTable`] key packs into one `u128` word.
const SYMS_PER_WORD: usize = 4;

/// What fills a key word past a window's last symbol. No symbol is this
/// large: every symbol indexes the embedding table, and the vocabulary
/// numbers its words below `fanout::MISS` (2³¹).
const PAD: u32 = u32::MAX;

/// The first four of `syms` as one key word: symbol `j` in bits
/// `32·j..32·(j + 1)`, [`PAD`] in the slots past the last. Windows of
/// different lengths differ in a symbol slot, so every window has its own
/// key.
#[inline(always)]
fn pack(syms: &[Sym]) -> u128 {
    (0..SYMS_PER_WORD)
        .rev()
        .fold(0, |w, j| w << 32 | syms.get(j).map_or(PAD, |s| s.0) as u128)
}

/// Key word `w` folded into the hash `h`.
#[inline(always)]
fn mix(h: u64, w: u128) -> u64 {
    let h = (h ^ w as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    (h ^ (w >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One width's activations by window symbols, for one prediction pass
/// (the weights are fixed inside one). Purely a cache of values
/// [`affine_outputs_f32`] computed — hit or miss never changes a score.
struct ActTable {
    filters: usize,
    cap: usize,
    /// Key words per entry: the width's longest window, four symbols to a
    /// word (one word up to width 4).
    words: usize,
    /// Open addressing, linear probing: entry index + 1, 0 = free. Power
    /// of two, at least twice the entries.
    slots: Vec<u32>,
    /// Entry `e`'s key is `keys[e·words..(e + 1)·words]`: its symbols
    /// four to a word, by [`pack`].
    keys: Vec<u128>,
    /// `entries × filters`.
    acts: Vec<f32>,
    /// The packed key of the window being looked up.
    probe: Vec<u128>,
}

impl ActTable {
    /// A table for windows of up to `syms` symbols.
    fn new(filters: usize, syms: usize, cap: usize) -> ActTable {
        let words = syms.div_ceil(SYMS_PER_WORD).max(1);
        ActTable {
            filters,
            cap,
            words,
            slots: vec![0; 256],
            keys: Vec::new(),
            acts: Vec::new(),
            probe: vec![0; words],
        }
    }

    fn entries(&self) -> usize {
        self.keys.len() / self.words
    }

    fn key(&self, e: usize) -> &[u128] {
        &self.keys[e * self.words..(e + 1) * self.words]
    }

    /// `Ok(entry)` holding the packed `key`, or `Err(slot)`: the free slot
    /// it would take, if the probe met one.
    #[inline(always)]
    fn lookup(&self, key: &[u128]) -> Result<usize, Option<usize>> {
        let hash = match key {
            [w] => mix(0, *w),
            _ => key.iter().fold(0, |h, &w| mix(h, w)),
        };
        let mask = self.slots.len() - 1;
        let mut i = (hash >> 32) as usize & mask;
        for _ in 0..MAX_PROBE {
            let e = match self.slots[i] as usize {
                0 => return Err(Some(i)),
                e => e - 1,
            };
            let same = match self.words {
                1 => self.keys[e] == key[0],
                _ => self.key(e) == key,
            };
            if same {
                return Ok(e);
            }
            i = (i + 1) & mask;
        }
        Err(None)
    }

    /// Looks `window` up, packed into `probe` four symbols to a word (one
    /// [`pack`] up to width 4): `Ok(entry)`, or `Err(slot)` as
    /// [`ActTable::lookup`]; a miss leaves the packed key for
    /// [`ActTable::claim`].
    #[inline(always)]
    fn find(&mut self, window: &[Sym]) -> Result<usize, Option<usize>> {
        match &mut self.probe[..] {
            [word] => *word = pack(window),
            words => {
                for (k, word) in words.iter_mut().enumerate() {
                    *word = pack(window.get(k * SYMS_PER_WORD..).unwrap_or(&[]));
                }
            }
        }
        self.lookup(&self.probe)
    }

    /// Entry `e`'s activations.
    #[inline(always)]
    fn acts(&self, e: usize) -> &[f32] {
        &self.acts[e * self.filters..(e + 1) * self.filters]
    }

    /// Where the activations of the window [`ActTable::find`] just missed
    /// go: a new entry under its key while the table has room and the
    /// probe met a free slot, `spill` otherwise. The caller fills them.
    fn claim<'a>(&'a mut self, miss: Option<usize>, spill: &'a mut [f32]) -> &'a mut [f32] {
        let (f, e) = (self.filters, self.entries());
        let Some(slot) = miss.filter(|_| e < self.cap) else {
            return spill;
        };
        self.keys.extend_from_slice(&self.probe);
        self.acts.resize((e + 1) * f, 0.0);
        self.slots[slot] = e as u32 + 1;
        if (e + 1) * 2 > self.slots.len() {
            self.grow();
        }
        &mut self.acts[e * f..]
    }

    /// Double the slots and re-place every entry. One that finds no slot
    /// within the probe bound is left out: a later lookup recomputes it.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        for e in 0..self.entries() {
            if let Err(Some(slot)) = self.lookup(self.key(e)) {
                self.slots[slot] = e as u32 + 1;
            }
        }
    }
}

/// FC1's backward over one group of `G` hidden units, whose gradient is
/// stored as a row of `G` per input and whose weights `units` holds unit
/// by unit (a row of `feat.len()` per unit). Each input's gradient row
/// takes `dh·x` in one vector pass, a closed unit's term being `-0.0`
/// (which adds nothing); then each open unit in order adds `dh·w` from
/// its weight row to every `dfeat`, so each `dfeat` sums its open units in
/// ascending order.
#[inline(always)]
fn fc1_back_group<const G: usize>(
    hpre: &[f32],
    dh: &[f32],
    units: &[f32],
    grad: &mut [f32],
    feat: &[f32],
    dfeat: &mut [f32],
) {
    let open: [bool; G] = std::array::from_fn(|k| hpre[k] > 0.0);
    let dh: &[f32; G] = dh[..G].try_into().unwrap();
    for (gr, &x) in grad.chunks_exact_mut(G).zip(feat) {
        for k in 0..G {
            gr[k] += if open[k] { dh[k] * x } else { -0.0 };
        }
    }
    for (k, row) in units.chunks_exact(feat.len()).enumerate() {
        if open[k] {
            for (d, &w) in dfeat.iter_mut().zip(row) {
                *d += dh[k] * w;
            }
        }
    }
}

/// The prediction instance's max-pooling of one window into the first `G`
/// features: the training instance's `>` select (NaN and ties keep the
/// earlier window), `G` lanes at a time, so a width's filters take the
/// kernel's groups of whole registers. Copied in and out whole: with the
/// stores between the lanes' loads the group stayed scalar.
#[inline(always)]
fn pool<const G: usize>(feat: &mut [f32], acts: &[f32]) {
    let v: [f32; G] = acts[..G].try_into().unwrap();
    let z: &mut [f32; G] = (&mut feat[..G]).try_into().unwrap();
    *z = std::array::from_fn(|k| if v[k] > z[k] { v[k] } else { z[k] });
}

/// Uniform weights for `outs` outputs of `inputs` inputs each, drawn output
/// by output, stored where [`affine_outputs_f32`] reads them.
fn affine_weights(outs: usize, inputs: usize, scale: f32, rng: &mut SmallRng) -> Param {
    let place = |k| output_slot(inputs, outs, k % inputs, k / inputs);
    Param::uniform_placed(outs * inputs, scale, rng, place)
}

/// The trained model. All tensors are flat `Vec<f32>` with explicit strides;
/// the weights [`affine_outputs_f32`] reads are in its [`output_slot`]
/// layout.
pub struct KimCnn {
    cfg: CnnConfig,
    dim: usize,
    /// One weight tensor per width: `filters` outputs of `width·dim` inputs.
    conv_w: Vec<Param>,
    conv_b: Vec<Param>,
    /// `hidden` outputs of `total_filters` inputs.
    fc1_w: Param,
    fc1_b: Param,
    /// `1 × hidden`.
    fc2_w: Param,
    fc2_b: Param,
    seed: u64,
    /// Adam's constants for steps `1..=steps.len()`, grown to the longest
    /// fit so far and kept across fits (see `LogReg::steps`).
    steps: Vec<Adam>,
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
    dh: Vec<f32>,       // hidden — loss gradient at `hpre` of an open unit
    /// `hidden × total_filters`: FC1's weights unit by unit, copied by
    /// [`KimCnn::copy_fc1_units`] once per minibatch for `backward`.
    fc1_units: Vec<f32>,
    /// Per width, filter-major (`filters × width·dim`): the conv weights'
    /// gradient sum over the minibatch so far, which
    /// [`KimCnn::fold_conv_grads`] adds into their `g`. Each filter's
    /// winning window is one contiguous run here.
    dconv: Vec<Vec<f32>>,
    stack: Vec<f32>, // the clipped sentence's embedding rows, `max_len × dim`
    acts: Vec<f32>,  // filters — a window's activations no table holds
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
                affine_weights(cfg.filters, w * dim, (6.0 / fan_in).sqrt(), &mut rng)
            })
            .collect();
        let conv_b = cfg
            .widths
            .iter()
            .map(|_| Param::zeros(cfg.filters))
            .collect();
        let fc1_w = affine_weights(cfg.hidden, total, (6.0 / total as f32).sqrt(), &mut rng);
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
            steps: Vec::new(),
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
        Scratch {
            feat: vec![0.0; self.total_filters()],
            argmax: vec![0; self.total_filters()],
            h: vec![0.0; self.cfg.hidden],
            hpre: vec![0.0; self.cfg.hidden],
            dfeat: vec![0.0; self.total_filters()],
            dh: vec![0.0; self.cfg.hidden],
            fc1_units: vec![0.0; self.fc1_w.len()],
            dconv: (self.conv_w.iter()).map(|p| vec![0.0; p.len()]).collect(),
            stack: vec![0.0; self.cfg.max_len * self.dim],
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

    /// Stacks the clipped tokens' embedding rows into `stack`, then zero
    /// rows up to the widest window's reach: window `t` of any width is
    /// then `stack[t·dim..(t + rows)·dim]`.
    fn stack(&self, emb: &Embeddings, toks: &[Sym], stack: &mut [f32]) {
        let widest = self.cfg.widths.iter().copied().max().unwrap_or(0);
        let rows = toks.len().max(widest.min(self.cfg.max_len));
        for (k, row) in stack[..rows * self.dim]
            .chunks_exact_mut(self.dim)
            .enumerate()
        {
            match toks.get(k) {
                Some(&sym) => row.copy_from_slice(emb.vector(sym)),
                None => row.fill(0.0),
            }
        }
    }

    /// The activations of width `wi`'s filters on window `t`, `rows` rows
    /// of the stacked sentence.
    #[inline(always)]
    fn conv(&self, wi: usize, t: usize, rows: usize, stack: &[f32], acts: &mut [f32]) {
        let (dim, inputs) = (self.dim, self.cfg.widths[wi] * self.dim);
        let win = &stack[t * dim..(t + rows) * dim];
        affine_outputs_f32(&self.conv_b[wi].w, &self.conv_w[wi].w, inputs, win, acts);
    }

    /// Forward pass over a sentence's symbols; fills the scratch and
    /// returns P(positive). One routine, two instances:
    ///
    /// * `TRAIN` (fit, `loss`): no table; the sentence is stacked up front,
    ///   every window convolved, and the pooling winners kept in
    ///   `s.argmax` for `backward`.
    /// * prediction: `tables` holds this pass's [`ActTable`] per width. A
    ///   window is probed first and a hit pooled straight from the table;
    ///   the sentence is stacked at its first miss only, and no winner is
    ///   kept.
    ///
    /// Both pool in position order with the same `>` select, so they give
    /// the same bits.
    #[inline(always)]
    fn forward<const TRAIN: bool>(
        &self,
        emb: &Embeddings,
        toks: &[Sym],
        tables: &mut [ActTable],
        s: &mut Scratch,
    ) -> f32 {
        let toks = self.clip(toks);
        let (n, filters) = (toks.len(), self.cfg.filters);
        let mut stacked = TRAIN;
        if TRAIN {
            self.stack(emb, toks, &mut s.stack);
        }
        // Convolution + max-over-time pooling.
        for (wi, &width) in self.cfg.widths.iter().enumerate() {
            let (positions, rows) = self.windows(n, width);
            let feat = &mut s.feat[wi * filters..(wi + 1) * filters];
            let argmax = &mut s.argmax[wi * filters..(wi + 1) * filters];
            feat.fill(f32::NEG_INFINITY);
            if TRAIN {
                argmax.fill(0);
            }
            for t in 0..positions {
                let acts: &[f32] = if TRAIN {
                    self.conv(wi, t, rows, &s.stack, &mut s.acts);
                    &s.acts
                } else {
                    let table = &mut tables[wi];
                    match table.find(&toks[t..(t + rows).min(n)]) {
                        Ok(e) => table.acts(e),
                        Err(miss) => {
                            if !stacked {
                                self.stack(emb, toks, &mut s.stack);
                                stacked = true;
                            }
                            let acts = table.claim(miss, &mut s.acts);
                            self.conv(wi, t, rows, &s.stack, acts);
                            acts
                        }
                    }
                };
                if TRAIN {
                    // `>` as a select: NaN and ties keep the earlier window.
                    for ((z, a), &v) in feat.iter_mut().zip(argmax.iter_mut()).zip(acts) {
                        let wins = v > *z;
                        *a = if wins { t } else { *a };
                        *z = if wins { v } else { *z };
                    }
                    continue;
                }
                for (f0, g) in output_groups(filters) {
                    let (z, v) = (&mut feat[f0..], &acts[f0..]);
                    match g {
                        8 => pool::<8>(z, v),
                        4 => pool::<4>(z, v),
                        _ => pool::<1>(z, v),
                    }
                }
            }
            feat.iter_mut().for_each(|z| *z = z.max(0.0)); // ReLU after pooling
        }
        // FC1 (ReLU) + FC2 (sigmoid).
        let total = self.total_filters();
        affine_outputs_f32(&self.fc1_b.w, &self.fc1_w.w, total, &s.feat, &mut s.hpre);
        for (h, &z) in s.h.iter_mut().zip(&s.hpre) {
            *h = z.max(0.0);
        }
        sigmoid(affine_f32(self.fc2_b.w[0], &self.fc2_w.w, &s.h))
    }

    /// Backward pass for one sample: adds into the parameter gradients,
    /// the conv weights' into `s.dconv` until [`KimCnn::fold_conv_grads`].
    /// `dz2` is the loss gradient at the output logit — `p - y` for plain
    /// BCE, scaled by the class weight for balanced training. `toks` and
    /// `s` must be what a training forward pass ran on (the winning
    /// windows are read from its stacked sentence), and `s.fc1_units` a
    /// copy of the current FC1 weights.
    #[inline(always)]
    fn backward(&mut self, dz2: f32, toks: &[Sym], s: &mut Scratch) {
        let n = self.clip(toks).len();
        let (hidden, filters) = (self.cfg.hidden, self.cfg.filters);
        // FC2.
        for hidx in 0..hidden {
            self.fc2_w.g[hidx] += dz2 * s.h[hidx];
        }
        self.fc2_b.g[0] += dz2;
        // FC1, a group of units at a time (see `fc1_back_group`), the
        // groups in order. A closed unit's bias term is `-0.0`, which
        // leaves every sum as it is (zeros of either sign, infinities and
        // NaN included): the same bits as skipping it, without a branch.
        for hidx in 0..hidden {
            s.dh[hidx] = dz2 * self.fc2_w.w[hidx];
            self.fc1_b.g[hidx] += if s.hpre[hidx] > 0.0 { s.dh[hidx] } else { -0.0 };
        }
        s.dfeat.fill(0.0);
        let total = self.total_filters();
        for (h0, g) in output_groups(hidden) {
            let block = h0 * total..(h0 + g) * total;
            let (w, grad) = (&s.fc1_units[block.clone()], &mut self.fc1_w.g[block]);
            let (open, dh) = (&s.hpre[h0..], &s.dh[h0..]);
            match g {
                8 => fc1_back_group::<8>(open, dh, w, grad, &s.feat, &mut s.dfeat),
                4 => fc1_back_group::<4>(open, dh, w, grad, &s.feat, &mut s.dfeat),
                _ => fc1_back_group::<1>(open, dh, w, grad, &s.feat, &mut s.dfeat),
            }
        }
        // Conv, through the pooling argmax and the post-pool ReLU; a
        // zero-padded row adds `df·0.0`, as the stacked matrix always fed.
        let dim = self.dim;
        for (wi, &width) in self.cfg.widths.iter().enumerate() {
            let (wlen, (_, rows)) = (width * dim, self.windows(n, width));
            for f in 0..filters {
                let fi = wi * filters + f;
                if s.feat[fi] <= 0.0 {
                    continue; // ReLU gate closed
                }
                let df = s.dfeat[fi];
                if df == 0.0 {
                    continue;
                }
                let t = s.argmax[fi];
                let win = &s.stack[t * dim..(t + rows) * dim];
                let grow = &mut s.dconv[wi][f * wlen..f * wlen + rows * dim];
                for (g, xv) in grow.iter_mut().zip(win) {
                    *g += df * xv;
                }
                self.conv_b[wi].g[f] += df;
            }
        }
    }

    /// Copies FC1's weights unit by unit into `s.fc1_units` (what
    /// `backward` reads them from): once per minibatch, as they move only
    /// at the step.
    fn copy_fc1_units(&self, s: &mut Scratch) {
        let total = self.total_filters();
        for (h0, g) in output_groups(self.cfg.hidden) {
            let block = &self.fc1_w.w[h0 * total..(h0 + g) * total];
            for (i, row) in block.chunks_exact(g).enumerate() {
                for (k, &w) in row.iter().enumerate() {
                    s.fc1_units[(h0 + k) * total + i] = w;
                }
            }
        }
    }

    /// Adds the conv weights' gradient sums from `s.dconv` into their `g`
    /// and zeroes them. Into a `g` of `+0.0` (the state every minibatch
    /// starts from) this moves each sum unchanged: a sum that starts at
    /// `+0.0` is never `-0.0`.
    #[inline(always)]
    fn fold_conv_grads(&mut self, s: &mut Scratch) {
        let filters = self.cfg.filters;
        for (p, d) in self.conv_w.iter_mut().zip(&mut s.dconv) {
            let wlen = d.len() / filters.max(1);
            for (f0, g) in output_groups(filters) {
                let block = &mut p.g[f0 * wlen..(f0 + g) * wlen];
                for (j, grow) in block.chunks_exact_mut(g).enumerate() {
                    for (k, gv) in grow.iter_mut().enumerate() {
                        *gv += d[(f0 + k) * wlen + j];
                    }
                }
            }
            d.fill(0.0);
        }
    }

    /// The forward and backward passes of one minibatch's examples
    /// (tokens, target), their gradients summed into `g`: the training
    /// step's body. Inlined into both instances [`KimCnn::accumulate_in`]
    /// picks from.
    #[inline(always)]
    fn accumulate<'t>(
        &mut self,
        emb: &Embeddings,
        examples: impl Iterator<Item = (&'t [Sym], f32)>,
        pos_weight: f32,
        s: &mut Scratch,
    ) {
        self.copy_fc1_units(s);
        for (toks, y) in examples {
            let p = self.forward::<true>(emb, toks, &mut [], s);
            let w = if y > 0.5 { pos_weight } else { 1.0 };
            self.backward(w * (p - y), toks, s);
        }
        self.fold_conv_grads(s);
    }

    /// [`KimCnn::accumulate`] compiled for AVX2: the same source, so the
    /// same IEEE operations per lane in wider registers. `fma` is not
    /// enabled and Rust never contracts `a·b + c`, so every bit is the
    /// portable instance's.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn accumulate_avx2<'t>(
        &mut self,
        emb: &Embeddings,
        examples: impl Iterator<Item = (&'t [Sym], f32)>,
        pos_weight: f32,
        s: &mut Scratch,
    ) {
        self.accumulate(emb, examples, pos_weight, s)
    }

    /// [`KimCnn::accumulate`] through the instance `lanes` names.
    fn accumulate_in<'t>(
        &mut self,
        lanes: LaneLoop,
        emb: &Embeddings,
        examples: impl Iterator<Item = (&'t [Sym], f32)>,
        pos_weight: f32,
        s: &mut Scratch,
    ) {
        #[cfg(target_arch = "x86_64")]
        if lanes.avx2() {
            // SAFETY: `avx2` is set only by `LaneLoop::detect`, after
            // `is_x86_feature_detected!("avx2")` returned true.
            unsafe { self.accumulate_avx2(emb, examples, pos_weight, s) };
            return;
        }
        self.accumulate(emb, examples, pos_weight, s)
    }

    /// [`TextClassifier::fit`] with its minibatch instance given.
    fn fit_with(
        &mut self,
        corpus: &Corpus,
        emb: &Embeddings,
        pos: &[u32],
        neg: &[u32],
        lanes: LaneLoop,
    ) {
        let warm = self.cfg.warm_start;
        let same = |(lp, ln): &(Vec<u32>, Vec<u32>)| lp == pos && ln == neg;
        if warm && self.last_data.as_ref().is_some_and(same) {
            return; // fit is pure in (pos, neg): nothing would change
        }
        // Re-initialize: each retraining in the pipeline starts fresh on the
        // grown positive set (Algorithm 1 line 10 "train_classifier").
        // `new` is pure, so every reset is identical; the step table
        // depends on `lr` alone and carries over.
        *self = KimCnn {
            last_data: warm.then(|| (pos.to_vec(), neg.to_vec())),
            steps: std::mem::take(&mut self.steps),
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
        let batch = self.cfg.batch.max(1);
        let len = self.cfg.epochs * data.len().div_ceil(batch);
        Adam::extend_table(&mut self.steps, self.cfg.lr, len);
        let mut step = 0;
        for _epoch in 0..self.cfg.epochs {
            data.shuffle(&mut rng);
            for chunk in data.chunks(batch) {
                let examples = chunk
                    .iter()
                    .map(|&(id, y)| (corpus.sentence(id).tokens(), y));
                self.accumulate_in(lanes, emb, examples, pos_weight, &mut scratch);
                // The mean gradient over the batch.
                let (k, inv) = (self.steps[step], 1.0 / chunk.len() as f32);
                step += 1;
                self.params_mut()
                    .for_each(|p| p.mean_adam_step(inv, k, lanes));
            }
        }
    }

    /// Mean training BCE over the given examples (diagnostic).
    pub fn loss(&self, corpus: &Corpus, emb: &Embeddings, pos: &[u32], neg: &[u32]) -> f32 {
        let mut s = self.scratch();
        let mut total = 0.0;
        for (ids, y) in [(pos, 1.0), (neg, 0.0)] {
            for &id in ids {
                let toks = corpus.sentence(id).tokens();
                total += bce(self.forward::<true>(emb, toks, &mut [], &mut s), y);
            }
        }
        total / (pos.len() + neg.len()).max(1) as f32
    }

    /// The prediction instance of [`KimCnn::forward`] over `ids`, through
    /// `tables`: the body of a prediction pass, inlined into both
    /// instances [`KimCnn::predict_in`] picks from.
    #[inline(always)]
    fn predict_pass(
        &self,
        corpus: &Corpus,
        emb: &Embeddings,
        ids: &[u32],
        tables: &mut [ActTable],
        s: &mut Scratch,
        out: &mut Vec<f32>,
    ) {
        for &id in ids {
            let toks = corpus.sentence(id).tokens();
            out.push(self.forward::<false>(emb, toks, tables, s));
        }
    }

    /// [`KimCnn::predict_pass`] compiled for AVX2, as
    /// [`KimCnn::accumulate_avx2`] is: the same bits in wider registers.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn predict_pass_avx2(
        &self,
        corpus: &Corpus,
        emb: &Embeddings,
        ids: &[u32],
        tables: &mut [ActTable],
        s: &mut Scratch,
        out: &mut Vec<f32>,
    ) {
        self.predict_pass(corpus, emb, ids, tables, s, out)
    }

    /// [`TextClassifier::predict_batch`] through the instance `lanes`
    /// names, with this pass's activation tables capped at `cap` entries
    /// each.
    fn predict_in(
        &self,
        lanes: LaneLoop,
        cap: usize,
        corpus: &Corpus,
        emb: &Embeddings,
        ids: &[u32],
        out: &mut Vec<f32>,
    ) {
        let mut s = self.scratch();
        let max_len = self.cfg.max_len;
        let table = |&w: &usize| ActTable::new(self.cfg.filters, w.min(max_len), cap);
        let mut tables: Vec<ActTable> = self.cfg.widths.iter().map(table).collect();
        out.reserve(ids.len());
        #[cfg(target_arch = "x86_64")]
        if lanes.avx2() {
            // SAFETY: `avx2` is set only by `LaneLoop::detect`, after
            // `is_x86_feature_detected!("avx2")` returned true.
            unsafe { self.predict_pass_avx2(corpus, emb, ids, &mut tables, &mut s, out) };
            return;
        }
        self.predict_pass(corpus, emb, ids, &mut tables, &mut s, out)
    }
}

impl TextClassifier for KimCnn {
    /// Minibatches of `cfg.batch` (at least one) examples, each through the
    /// widest instance of the training body this host runs.
    fn fit(&mut self, corpus: &Corpus, emb: &Embeddings, pos: &[u32], neg: &[u32]) {
        self.fit_with(corpus, emb, pos, neg, LaneLoop::detect());
    }

    /// One prediction pass: its own activation tables, through the widest
    /// instance this host runs.
    fn predict_batch(&self, corpus: &Corpus, emb: &Embeddings, ids: &[u32], out: &mut Vec<f32>) {
        self.predict_in(LaneLoop::detect(), ACT_TABLE_CAP, corpus, emb, ids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testing::{grouping_free_scores, score_all, score_one};
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
        let p = score_all(&cnn, &c, &e);
        let acc = (pos[30..].iter().filter(|&&i| p[i as usize] > 0.5))
            .chain(neg[30..].iter().filter(|&&i| p[i as usize] <= 0.5))
            .count();
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
        assert_eq!(score_all(&a, &c, &e), score_all(&b, &c, &e));
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
            let (pw, pc) = (score_all(&warm, &c, &e), score_all(&cold, &c, &e));
            for (id, (pw, pc)) in pw.iter().zip(&pc).enumerate().step_by(11) {
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
        for p in score_all(&cnn, &c, &e) {
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
        let toks = c.sentence(0).tokens();
        let y = 1.0;
        let p = cnn.forward::<true>(&e, toks, &mut [], &mut s);
        cnn.copy_fc1_units(&mut s);
        cnn.backward(p - y, toks, &mut s);
        cnn.fold_conv_grads(&mut s);
        let analytic = cnn.fc2_w.g[0];
        let eps = 1e-3;
        let orig = cnn.fc2_w.w[0];
        cnn.fc2_w.w[0] = orig + eps;
        let lp = bce(cnn.forward::<true>(&e, toks, &mut [], &mut s), y);
        cnn.fc2_w.w[0] = orig - eps;
        let lm = bce(cnn.forward::<true>(&e, toks, &mut [], &mut s), y);
        cnn.fc2_w.w[0] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    /// One-id calls, one all-ids call and uneven chunkings give the same
    /// scores (the sharded score cache leans on it), across sentences of
    /// very different lengths and a call longer than one feature block.
    #[test]
    fn scores_do_not_depend_on_grouping() {
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
        let all = score_all(&cnn, &c, &e);
        // A long sentence before a short one: stale scratch would leak
        // embeddings into the short sentence's padding.
        let ids = [1u32, 0, 3, 2, 1];
        let many: Vec<u32> = (0..crate::block::BLOCK_ROWS + 8)
            .map(|i| ids[i % ids.len()])
            .collect();
        let got = grouping_free_scores(&cnn, &c, &e, &many);
        let want: Vec<f32> = many.iter().map(|&id| all[id as usize]).collect();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn handles_empty_training_set() {
        let (c, e, _, _) = toy();
        let mut cnn = KimCnn::new(e.dim(), CnnConfig::default(), 2);
        cnn.fit(&c, &e, &[], &[]);
        assert!(score_one(&cnn, &c, &e, 0).is_finite());
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
        assert!(score_one(&cnn, &c, &e, 0).is_finite());
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

    /// Output `o`'s weights in an `output_slot` tensor of `outs` outputs.
    fn column(w: &[f32], outs: usize, o: usize) -> Vec<f32> {
        let inputs = w.len() / outs;
        (0..inputs)
            .map(|i| w[output_slot(inputs, outs, i, o)])
            .collect()
    }

    /// The forward pass as it stood before the multi-output kernel and the
    /// activation table: one `affine_f32` per (filter, position) over the
    /// stacked matrix. The oracle `forward` is held to.
    fn forward_x(cnn: &KimCnn, x: &[f32], n: usize, s: &mut Scratch) -> f32 {
        let dim = cnn.dim;
        for (wi, &width) in cnn.cfg.widths.iter().enumerate() {
            let positions = if n >= width { n - width + 1 } else { 1 };
            for f in 0..cnn.cfg.filters {
                let wrow = &column(&cnn.conv_w[wi].w, cnn.cfg.filters, f);
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
        for hidx in 0..cnn.cfg.hidden {
            let row = &column(&cnn.fc1_w.w, cnn.cfg.hidden, hidx);
            let z = affine_f32(cnn.fc1_b.w[hidx], row, &s.feat);
            s.hpre[hidx] = z;
            s.h[hidx] = z.max(0.0);
        }
        sigmoid(affine_f32(cnn.fc2_b.w[0], &cnn.fc2_w.w, &s.h))
    }

    /// The backward pass as it stood over the stacked matrix; the weight
    /// and gradient tensors are addressed through `output_slot`.
    fn backward_x(cnn: &mut KimCnn, dz2: f32, x: &[f32], s: &Scratch) {
        let (total, hidden, filters) = (cnn.total_filters(), cnn.cfg.hidden, cnn.cfg.filters);
        for hidx in 0..hidden {
            cnn.fc2_w.g[hidx] += dz2 * s.h[hidx];
        }
        cnn.fc2_b.g[0] += dz2;
        let mut dfeat = vec![0.0f32; total];
        for hidx in 0..hidden {
            if s.hpre[hidx] <= 0.0 {
                continue;
            }
            let dh = dz2 * cnn.fc2_w.w[hidx];
            for fi in 0..total {
                let k = output_slot(total, hidden, fi, hidx);
                cnn.fc1_w.g[k] += dh * s.feat[fi];
                dfeat[fi] += dh * cnn.fc1_w.w[k];
            }
            cnn.fc1_b.g[hidx] += dh;
        }
        let dim = cnn.dim;
        for (wi, &width) in cnn.cfg.widths.iter().enumerate() {
            let wlen = width * dim;
            for f in 0..filters {
                let fi = wi * filters + f;
                if s.feat[fi] <= 0.0 || dfeat[fi] == 0.0 {
                    continue;
                }
                let t = s.argmax[fi];
                let avail = wlen.min(x.len() - t * dim);
                let xwin = &x[t * dim..t * dim + avail];
                for (j, xv) in xwin.iter().enumerate() {
                    cnn.conv_w[wi].g[output_slot(wlen, filters, j, f)] += dfeat[fi] * xv;
                }
                cnn.conv_b[wi].g[f] += dfeat[fi];
            }
        }
    }

    /// The fit as it stood before the minibatch instances and the tabled
    /// step: the oracle passes over a stacked matrix per example, gradients
    /// zeroed per minibatch, scaled to the mean in their own pass, then
    /// `Param::adam_step` with the step counter: what `fit` is held to.
    fn reference_fit(
        cnn: &mut KimCnn,
        corpus: &Corpus,
        emb: &Embeddings,
        pos: &[u32],
        neg: &[u32],
    ) {
        *cnn = KimCnn::new(cnn.dim, cnn.cfg.clone(), cnn.seed);
        let mut data: Vec<(u32, f32)> = (pos.iter().map(|&i| (i, 1.0)))
            .chain(neg.iter().map(|&i| (i, 0.0)))
            .collect();
        if data.is_empty() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(cnn.seed ^ 0x7EA);
        let mut s = cnn.scratch();
        let pos_weight = if pos.is_empty() || neg.is_empty() {
            1.0
        } else {
            (neg.len() as f32 / pos.len() as f32).clamp(0.25, 2.0)
        };
        let mut t = 0;
        for _epoch in 0..cnn.cfg.epochs {
            data.shuffle(&mut rng);
            for batch in data.chunks(cnn.cfg.batch.max(1)) {
                cnn.params_mut().for_each(Param::zero_grad);
                for &(id, y) in batch {
                    let (x, n) = stack(emb, corpus.sentence(id).tokens(), cnn.cfg.max_len);
                    let p = forward_x(cnn, &x, n, &mut s);
                    let w = if y > 0.5 { pos_weight } else { 1.0 };
                    backward_x(cnn, w * (p - y), &x, &s);
                }
                let inv = 1.0 / batch.len() as f32;
                cnn.params_mut()
                    .for_each(|p| p.g.iter_mut().for_each(|g| *g *= inv));
                t += 1;
                let lr = cnn.cfg.lr;
                cnn.params_mut().for_each(|p| p.adam_step(lr, t));
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every weight of `a` and `b` and their predictions on the whole
    /// corpus, by bits.
    fn assert_same_model(a: &mut KimCnn, b: &mut KimCnn, c: &Corpus, e: &Embeddings, what: &str) {
        for (i, (pa, pb)) in a.params_mut().zip(b.params_mut()).enumerate() {
            assert_eq!(bits(&pa.w), bits(&pb.w), "{what}: weights of param {i}");
        }
        let (qa, qb) = (score_all(&*a, c, e), score_all(&*b, c, e));
        assert_eq!(bits(&qa), bits(&qb), "{what}: predictions");
    }

    /// `fit` against the reference fit, in every instance the host runs,
    /// over fits long enough that the step table's index and the Adam
    /// instance pick (`bc1` is exactly 1.0 from step 165) both matter:
    /// 40 examples in minibatches of 3 (the last one short) for 13 epochs
    /// is 182 steps. A balanced set and a one-class set (class weight 1),
    /// and a refit on a grown set, which reuses the grown table.
    #[test]
    fn fit_equals_the_reference_fit_bit_for_bit() {
        let (c, e, pos, neg) = toy();
        let cfg = CnnConfig {
            epochs: 13,
            batch: 3,
            ..Default::default()
        };
        let sets = [
            (&pos[..12], &neg[..28]),
            (&pos[..40], &[][..]),
            (&pos[..20], &neg[..30]),
        ];
        for (name, lanes) in LaneLoop::host_instances() {
            let mut got = KimCnn::new(e.dim(), cfg.clone(), 17);
            for (round, &(p, n)) in sets.iter().enumerate() {
                let steps = cfg.epochs * (p.len() + n.len()).div_ceil(cfg.batch);
                assert!(
                    steps > 165,
                    "{steps} steps stop short of the saturated step"
                );
                got.fit_with(&c, &e, p, n, lanes);
                let mut want = KimCnn::new(e.dim(), cfg.clone(), 17);
                reference_fit(&mut want, &c, &e, p, n);
                assert_same_model(
                    &mut got,
                    &mut want,
                    &c,
                    &e,
                    &format!("{name} round {round}"),
                );
            }
        }
    }

    /// A minibatch size of 0 trains as 1 does, and trains at all.
    #[test]
    fn batch_zero_fits_as_batch_one() {
        let (c, e, pos, neg) = toy();
        let at = |batch| {
            let cfg = CnnConfig {
                epochs: 2,
                batch,
                ..Default::default()
            };
            let mut cnn = KimCnn::new(e.dim(), cfg, 8);
            cnn.fit(&c, &e, &pos[..6], &neg[..6]);
            cnn
        };
        let (mut zero, mut one) = (at(0), at(1));
        assert_same_model(&mut zero, &mut one, &c, &e, "batch 0 vs 1");
        let untrained = KimCnn::new(e.dim(), zero.cfg.clone(), 8);
        assert_ne!(
            bits(&zero.fc2_w.w),
            bits(&untrained.fc2_w.w),
            "no step taken"
        );
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

    /// `forward`'s prediction instance (through a small table twice —
    /// first sight, then second, with whatever fit under the cap a hit),
    /// its training instance and `backward` against the stacked-matrix
    /// oracle on one token sequence: pooled features, pooling winners (the
    /// training instance's), hidden layer, output and every gradient, by
    /// bits.
    fn assert_matches_oracle(emb: &Embeddings, cfg: &CnnConfig, seed: u64, toks: &[Sym], y: f32) {
        let (mut new, mut old) = (net(emb.dim(), cfg, seed), net(emb.dim(), cfg, seed));
        let (mut sn, mut so) = (new.scratch(), old.scratch());
        let (x, n) = stack(emb, toks, cfg.max_len);
        let want = forward_x(&old, &x, n, &mut so);
        let mut tables: Vec<ActTable> = (cfg.widths.iter())
            .map(|&w| ActTable::new(cfg.filters, w.min(cfg.max_len), 8))
            .collect();
        for pass in ["first sight", "second sight", "training"] {
            let got = match pass {
                "training" => new.forward::<true>(emb, toks, &mut [], &mut sn),
                _ => new.forward::<false>(emb, toks, &mut tables, &mut sn),
            };
            let ctx = format!("{pass}: toks {} cfg {cfg:?}", toks.len());
            assert_eq!(got.to_bits(), want.to_bits(), "output, {ctx}");
            assert_eq!(bits(&sn.feat), bits(&so.feat), "feat, {ctx}");
            assert_eq!(bits(&sn.hpre), bits(&so.hpre), "hpre, {ctx}");
            assert_eq!(bits(&sn.h), bits(&so.h), "h, {ctx}");
        }
        assert_eq!(
            sn.argmax,
            so.argmax,
            "argmax: toks {} cfg {cfg:?}",
            toks.len()
        );
        new.copy_fc1_units(&mut sn);
        new.backward(want - y, toks, &mut sn);
        new.fold_conv_grads(&mut sn);
        let mut with_grads = net(emb.dim(), cfg, seed);
        backward_x(&mut with_grads, want - y, &x, &so);
        for (i, (pn, po)) in new.params_mut().zip(with_grads.params_mut()).enumerate() {
            assert_eq!(bits(&pn.g), bits(&po.g), "gradient of param {i}, {cfg:?}");
        }
        // The training body, in every instance the host runs, on a
        // one-example minibatch with target 0: the output logit's gradient
        // is then the output itself.
        backward_x(&mut old, want, &x, &so);
        for (name, lanes) in LaneLoop::host_instances() {
            let mut inst = net(emb.dim(), cfg, seed);
            let mut si = inst.scratch();
            inst.accumulate_in(lanes, emb, std::iter::once((toks, 0.0)), 1.0, &mut si);
            let ctx = format!("{name}: toks {} cfg {cfg:?}", toks.len());
            assert_eq!(inst.fc2_b.g[0].to_bits(), want.to_bits(), "output, {ctx}");
            assert_eq!(bits(&si.feat), bits(&so.feat), "feat, {ctx}");
            assert_eq!(si.argmax, so.argmax, "argmax, {ctx}");
            assert_eq!(bits(&si.hpre), bits(&so.hpre), "hpre, {ctx}");
            for (i, (pi, po)) in inst.params_mut().zip(old.params_mut()).enumerate() {
                assert_eq!(bits(&pi.g), bits(&po.g), "gradient of param {i}, {ctx}");
            }
        }
    }

    /// The lengths the window rule distinguishes — empty, one token,
    /// shorter than a filter, exactly `max_len`, longer than `max_len` —
    /// under filters narrower than, equal to and wider than `max_len`,
    /// for a `dim` with tail lanes and one without, and filter counts that
    /// split into every kind of the kernel's output groups (5 = 4 + 1,
    /// 12 = 8 + 4).
    #[test]
    fn forward_and_backward_equal_the_oracle_on_the_edge_lengths() {
        for dim in [5usize, 8] {
            let (c, e) = vocab12(dim);
            let all = c.sentence(0).tokens();
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
            let all = c.sentence(0).tokens();
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

    /// A pass scores as one-id calls do, by bits, whatever the table does:
    /// every window of the second half a hit (the pass is the corpus
    /// twice), none ever (cap 0), tables that fill up part-way through the
    /// first sentences (caps 3 and 10), and tables split across uneven
    /// chunkings of the pass.
    #[test]
    fn table_hits_misses_and_overflow_leave_scores_bit_identical() {
        let (c, e, cnn) = table_fixture();
        let ids: Vec<u32> = (0..c.len() as u32).chain(0..c.len() as u32).collect();
        let want: Vec<u32> = ids
            .iter()
            .map(|&id| score_one(&cnn, &c, &e, id).to_bits())
            .collect();
        for cap in [0usize, 3, 10, ACT_TABLE_CAP] {
            let mut got = Vec::new();
            cnn.predict_in(LaneLoop::detect(), cap, &c, &e, &ids, &mut got);
            assert_eq!(bits(&got), want, "cap {cap}");
        }
        let got = grouping_free_scores(&cnn, &c, &e, &ids);
        assert_eq!(bits(&got), want, "predict_batch");
    }

    /// A table belongs to one pass: after a refit on a different set the
    /// next `predict_batch` scores with the new weights only, exactly as
    /// one-id calls (whose tables hold one sentence) do.
    #[test]
    fn nothing_from_one_pass_table_survives_into_the_next() {
        let (c, e, mut cnn) = table_fixture();
        let ids: Vec<u32> = (0..c.len() as u32).collect();
        let mut first = Vec::new();
        cnn.predict_batch(&c, &e, &ids, &mut first);
        cnn.fit(&c, &e, &[1, 5], &[0, 2, 4, 6]);
        let mut second = Vec::new();
        cnn.predict_batch(&c, &e, &ids, &mut second);
        let want: Vec<f32> = ids.iter().map(|&id| score_one(&cnn, &c, &e, id)).collect();
        assert_eq!(bits(&second), bits(&want));
        assert_ne!(bits(&second), bits(&first), "the refit moved no score");
    }

    /// The table itself, for windows of up to 3 symbols (one key word)
    /// and up to 6 (two): a hit returns what the first sight stored, keys
    /// of every length up to the widest are told apart, growth keeps every
    /// entry reachable, and past `cap` a miss hands out the spill buffer
    /// and inserts nothing.
    #[test]
    fn act_table_looks_up_what_it_filled_and_stops_at_cap() {
        let cap = 1000;
        for syms in [3usize, 6] {
            let mut table = ActTable::new(2, syms, cap);
            // Key `i`: `i / syms` followed by zeros, `1 + i % syms` long,
            // so keys that share a first symbol differ in length alone.
            let key = |i: u32| {
                let mut k = [Sym(0); 6];
                k[0] = Sym(i / syms as u32);
                k
            };
            let len = |i: u32| 1 + i as usize % syms;
            let mut spill = [0.0f32; 2];
            for round in 0..2 {
                for i in 0..1200u32 {
                    let want = [i as f32, -(i as f32)];
                    let (acts, filled) = match table.find(&key(i)[..len(i)]) {
                        Ok(e) => (table.acts(e), false),
                        Err(miss) => {
                            let acts = table.claim(miss, &mut spill);
                            acts.copy_from_slice(&want);
                            (&*acts, true)
                        }
                    };
                    let ctx = format!("syms {syms} round {round} key {i}");
                    assert_eq!(acts, want, "{ctx}");
                    assert_eq!(filled, round == 0 || i >= cap as u32, "{ctx}");
                }
                assert_eq!(table.entries(), cap);
                assert!(table.slots.len() >= 2 * cap);
            }
        }
    }

    /// A corpus with the lengths the window rule distinguishes at
    /// `max_len` 6 — empty, one token, shorter than a filter, exactly
    /// `max_len`, longer — and windows that repeat within and across
    /// sentences.
    fn edge_corpus(dim: usize) -> (Corpus, Embeddings) {
        let c = Corpus::from_texts([
            "",
            "a",
            "a b",
            "a b c",
            "a b c d e f",
            "a b c d e f g h i j k l",
            "b c d b c d b c d",
            "a b",
            "f e d c b a",
            "a b c d e f",
        ]);
        let cfg = EmbedConfig {
            dim,
            ..Default::default()
        };
        let e = Embeddings::train(&c, &cfg);
        (c, e)
    }

    /// The prediction instance against the training instance (no table,
    /// every window convolved, the stacked sentence) and one-id calls,
    /// by bits, in every instance the host runs: tables that never hold a
    /// window (cap 0), hold one (cap 1) or take the default cap, over the
    /// corpus twice (the second time every stored window a hit); filters
    /// narrower than, as wide as and wider than `max_len`, keys of one and
    /// of two words.
    #[test]
    fn prediction_instance_equals_the_training_instance_bit_for_bit() {
        for dim in [5usize, 8] {
            let (c, e) = edge_corpus(dim);
            let ids: Vec<u32> = (0..c.len() as u32).chain(0..c.len() as u32).collect();
            for (widths, filters) in [(vec![2usize, 3, 4], 12usize), (vec![1, 5, 6, 9], 5)] {
                let cfg = CnnConfig {
                    widths,
                    filters,
                    hidden: 9,
                    max_len: 6,
                    ..Default::default()
                };
                let cnn = net(dim, &cfg, dim as u64);
                let mut s = cnn.scratch();
                let want: Vec<u32> = (ids.iter())
                    .map(|&id| {
                        let toks = c.sentence(id).tokens();
                        cnn.forward::<true>(&e, toks, &mut [], &mut s).to_bits()
                    })
                    .collect();
                let per_id: Vec<f32> = ids.iter().map(|&id| score_one(&cnn, &c, &e, id)).collect();
                assert_eq!(bits(&per_id), want, "one-id calls, dim {dim} {cfg:?}");
                for (name, lanes) in LaneLoop::host_instances() {
                    for cap in [0, 1, ACT_TABLE_CAP] {
                        let mut got = Vec::new();
                        cnn.predict_in(lanes, cap, &c, &e, &ids, &mut got);
                        let ctx = format!("{name} cap {cap} dim {dim} {cfg:?}");
                        assert_eq!(bits(&got), want, "{ctx}");
                    }
                }
            }
        }
    }
}
