//! Blocked feature materialization for the refresh hot path.
//!
//! The old scoring loop re-derived a 4129-dimensional dense feature vector
//! per sentence per pass — a 16 KB zero-fill followed by a dense dot in
//! which all but a handful of bag-of-words lanes were zero. A
//! [`FeatureBlock`] materializes a batch of sentences into one contiguous,
//! reusable allocation split by structure: the dense mean-embedding rows
//! side by side (unit-stride input for [`crate::kernels::dot_f32`]), and
//! the bag-of-words half as a CSR-style sparse block (ascending bucket ids
//! plus accumulated weights per row). Scoring a row then touches
//! `emb_dim + nnz + 1` lanes instead of `logreg_dim`.
//!
//! Bit-exactness argument (the repo's signature invariant): within one
//! sentence every bag-of-words increment adds the *same* constant
//! `w = 1/√len` starting from 0.0, so folding a sorted run of `k` equal
//! buckets by `k` sequential adds reproduces the dense scatter-add's value
//! for that bucket exactly, and a sequential dense dot over the sparse
//! block in bucket order only ever adds `w[b] * 0.0 = ±0.0` terms between
//! the non-zeros — which cannot change a running sum that is `+0.0` or
//! non-zero. The canonical score below is therefore the *definition* of
//! logistic-regression scoring for every path in this crate; scalar,
//! batched, sharded and threaded execution all route through it.

use crate::adam::sigmoid;
use crate::features::{bow_bucket, BOW_BUCKETS};
use crate::kernels::{dot_f32, sparse_dot_f32};
use darwin_text::{Corpus, Embeddings};

/// Rows scored per [`FeatureBlock`] refill in the batched prediction
/// paths. Sized so a block (dense rows + sparse triplets) stays well
/// inside L2 for the default 32-dim embeddings.
pub const BLOCK_ROWS: usize = 512;

/// A batch of sentences materialized as dense embedding rows plus a
/// CSR-style sparse bag-of-words block. Reusable: [`FeatureBlock::fill`]
/// clears and refills without releasing capacity.
pub struct FeatureBlock {
    emb_dim: usize,
    rows: usize,
    /// `rows × emb_dim`, the ×4-rescaled mean embeddings.
    dense: Vec<f32>,
    /// Ascending bucket ids per row, concatenated.
    bow_idx: Vec<u32>,
    /// Accumulated 1/√len weights, parallel to `bow_idx`.
    bow_val: Vec<f32>,
    /// `rows + 1` prefix offsets into `bow_idx`/`bow_val`.
    row_off: Vec<usize>,
    /// Per-sentence bucket scratch (sorted in place each row).
    buckets: Vec<u32>,
}

impl FeatureBlock {
    pub fn new(emb_dim: usize) -> FeatureBlock {
        FeatureBlock {
            emb_dim,
            rows: 0,
            dense: Vec::new(),
            bow_idx: Vec::new(),
            bow_val: Vec::new(),
            row_off: vec![0],
            buckets: Vec::new(),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Materialize features for `ids`, replacing the previous contents.
    pub fn fill(&mut self, corpus: &Corpus, emb: &Embeddings, ids: &[u32]) {
        self.rows = 0;
        self.dense.clear();
        self.bow_idx.clear();
        self.bow_val.clear();
        self.row_off.truncate(1);
        for &id in ids {
            self.push(corpus, emb, id);
        }
    }

    /// Materialize sentence `id` as one more row; returns the row's index.
    pub fn push(&mut self, corpus: &Corpus, emb: &Embeddings, id: u32) -> usize {
        debug_assert_eq!(self.emb_dim, emb.dim());
        let dim = self.emb_dim;
        let r = self.rows;
        self.rows += 1;
        self.dense.resize((r + 1) * dim, 0.0);
        let toks = &corpus.sentence(id).tokens;
        let row = &mut self.dense[r * dim..];
        emb.mean_into(toks, row);
        // Same rescale as `logreg_features`: keep the embedding block
        // competitive with the bag-of-words block.
        row.iter_mut().for_each(|x| *x *= 4.0);
        if !toks.is_empty() {
            let w = 1.0 / (toks.len() as f32).sqrt();
            self.buckets.clear();
            self.buckets
                .extend(toks.iter().map(|&t| bow_bucket(t) as u32));
            self.buckets.sort_unstable();
            // Fold runs of equal buckets by repeated addition of the
            // run's shared weight — the dense scatter-add's exact value.
            let mut i = 0;
            while i < self.buckets.len() {
                let b = self.buckets[i];
                let mut val = 0.0f32;
                while i < self.buckets.len() && self.buckets[i] == b {
                    val += w;
                    i += 1;
                }
                self.bow_idx.push(b);
                self.bow_val.push(val);
            }
        }
        self.row_off.push(self.bow_idx.len());
        r
    }

    /// Row `r`'s rescaled mean embedding (`emb_dim` lanes).
    #[inline]
    pub fn dense_row(&self, r: usize) -> &[f32] {
        &self.dense[r * self.emb_dim..(r + 1) * self.emb_dim]
    }

    /// Row `r`'s bag-of-words entries: ascending bucket ids and their
    /// (strictly positive) values.
    #[inline]
    pub fn bow_row(&self, r: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.row_off[r], self.row_off[r + 1]);
        (&self.bow_idx[lo..hi], &self.bow_val[lo..hi])
    }

    /// The canonical logistic-regression score for row `r` under the flat
    /// weight vector `w` (`emb_dim + BOW_BUCKETS + 1` long):
    /// `sigmoid((dense·w_emb + bow·w_bow) + w_bias)`, with the dense half
    /// through [`dot_f32`] and the sparse half in ascending bucket order.
    #[inline]
    pub fn score_row(&self, w: &[f32], r: usize) -> f32 {
        let dim = self.emb_dim;
        debug_assert_eq!(w.len(), dim + BOW_BUCKETS + 1);
        let (idx, val) = self.bow_row(r);
        let z = dot_f32(&w[..dim], self.dense_row(r))
            + sparse_dot_f32(&w[dim..dim + BOW_BUCKETS], idx, val);
        sigmoid(z + w[dim + BOW_BUCKETS])
    }

    /// Score every row, appending to `out` in row order.
    pub fn score_into(&self, w: &[f32], out: &mut Vec<f32>) {
        out.reserve(self.rows);
        for r in 0..self.rows {
            out.push(self.score_row(w, r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{logreg_dim, logreg_features};
    use darwin_text::embed::EmbedConfig;

    fn setup() -> (Corpus, Embeddings) {
        let mut texts: Vec<String> = (0..30)
            .map(|i| {
                format!(
                    "the shuttle number {} goes to the airport gate {}",
                    i,
                    i % 4
                )
            })
            .collect();
        texts.push(String::new()); // empty sentence
        texts.push("repeat repeat repeat repeat".into()); // bucket collisions
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

    /// The scalar reference: dense features via `logreg_features`, scored
    /// with the same kernel grouping the block uses. The non-trivial claim
    /// under test is that the CSR fold reproduces the dense scatter-add
    /// bit for bit.
    fn scalar_score(c: &Corpus, e: &Embeddings, w: &[f32], id: u32) -> f32 {
        let dim = e.dim();
        let mut f = vec![0.0f32; logreg_dim(e)];
        logreg_features(c, e, id, &mut f);
        let mut bow = 0.0f32;
        for (a, b) in w[dim..dim + BOW_BUCKETS]
            .iter()
            .zip(&f[dim..dim + BOW_BUCKETS])
        {
            bow += a * b;
        }
        let z = dot_f32(&w[..dim], &f[..dim]) + bow;
        sigmoid(z + w[dim + BOW_BUCKETS])
    }

    #[test]
    fn blocked_scoring_matches_scalar_bit_for_bit() {
        let (c, e) = setup();
        let n = logreg_dim(&e);
        // Deterministic, sign-mixed weights (including negatives so the
        // ±0.0 argument in the module docs is actually exercised).
        let w: Vec<f32> = (0..n)
            .map(|i| (((i * 2654435761) % 1000) as f32 / 500.0) - 1.0)
            .collect();
        let ids: Vec<u32> = (0..c.len() as u32).collect();
        let mut block = FeatureBlock::new(e.dim());
        block.fill(&c, &e, &ids);
        let mut out = Vec::new();
        block.score_into(&w, &mut out);
        for (&id, &got) in ids.iter().zip(&out) {
            let want = scalar_score(&c, &e, &w, id);
            assert_eq!(got.to_bits(), want.to_bits(), "id {id}: {got} vs {want}");
        }
    }

    #[test]
    fn refill_reuses_allocation_and_stays_identical() {
        let (c, e) = setup();
        let n = logreg_dim(&e);
        let w: Vec<f32> = (0..n).map(|i| ((i % 7) as f32) * 0.1 - 0.3).collect();
        let mut block = FeatureBlock::new(e.dim());
        block.fill(&c, &e, &[5, 6, 7, 8, 9, 10, 11]);
        let mut first = Vec::new();
        block.score_into(&w, &mut first);
        block.fill(&c, &e, &[0, 1, 2]); // shrink
        block.fill(&c, &e, &[5, 6, 7, 8, 9, 10, 11]); // regrow
        let mut second = Vec::new();
        block.score_into(&w, &mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn empty_sentence_scores_like_bias_only() {
        let (c, e) = setup();
        let n = logreg_dim(&e);
        let w = vec![0.25f32; n];
        let empty_id = 30u32; // the pushed empty text
        assert!(c.sentence(empty_id).tokens.is_empty());
        let mut block = FeatureBlock::new(e.dim());
        block.fill(&c, &e, &[empty_id]);
        let mut out = Vec::new();
        block.score_into(&w, &mut out);
        assert_eq!(out[0], sigmoid(0.25)); // dense 0, bow empty, bias 0.25
    }

    #[test]
    fn repeated_tokens_fold_into_one_bucket_entry() {
        let (c, e) = setup();
        let repeat_id = 31u32;
        let mut block = FeatureBlock::new(e.dim());
        block.fill(&c, &e, &[repeat_id]);
        // 4 identical tokens → exactly one sparse entry of weight 4·(1/√4).
        assert_eq!(block.row_off[1] - block.row_off[0], 1);
        let w = 1.0 / (4.0f32).sqrt();
        assert_eq!(block.bow_val[0], w + w + w + w);
    }
}
