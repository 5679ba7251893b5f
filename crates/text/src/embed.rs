//! Word embeddings by reflective random indexing.
//!
//! The paper feeds SpaCy's pre-trained vectors to the benefit classifier so
//! that it generalizes across semantically related rules ("on identifying
//! the importance of 'bus' …, Darwin identifies 'public transport' as
//! another possibility due to their related semantics", §3). We reproduce
//! that property without external vector files:
//!
//! 1. every token starts from a deterministic pseudo-random unit vector
//!    seeded by its string hash (so vectors are stable across runs and
//!    corpora), and
//! 2. a small number of *reflection* passes blend each token's vector with
//!    the mean vector of its corpus context windows.
//!
//! After smoothing, tokens that appear in similar contexts (e.g. `bus` and
//! `shuttle` both in "… to the airport") have high cosine similarity, which
//! is exactly the signal the classifier needs.

#![allow(clippy::needless_range_loop)] // index math mirrors the tensor strides

use crate::corpus::Corpus;
use crate::vocab::Sym;

/// Configuration for [`Embeddings::train`].
#[derive(Clone, Debug)]
pub struct EmbedConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Context window radius (tokens on each side).
    pub window: usize,
    /// Number of reflection (smoothing) passes.
    pub passes: usize,
    /// Weight kept on the token's own vector per pass (rest goes to context).
    pub self_weight: f32,
    /// Seed for the deterministic base vectors.
    pub seed: u64,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        EmbedConfig {
            dim: 32,
            window: 2,
            passes: 2,
            self_weight: 0.4,
            seed: 0xDA21,
        }
    }
}

/// Dense word vectors for every token of a corpus vocabulary.
#[derive(Clone)]
pub struct Embeddings {
    dim: usize,
    /// Row-major `vocab_len × dim`.
    table: Vec<f32>,
}

impl Embeddings {
    /// Train embeddings over `corpus` (see module docs).
    pub fn train(corpus: &Corpus, cfg: &EmbedConfig) -> Embeddings {
        let v = corpus.vocab().len();
        let dim = cfg.dim;
        let mut table = vec![0.0f32; v * dim];

        // Base vectors: splitmix64 stream seeded by (global seed, token hash).
        for (sym, tok) in corpus.vocab().iter() {
            let mut state = cfg.seed ^ fnv1a(tok);
            let row = &mut table[sym.index() * dim..(sym.index() + 1) * dim];
            for x in row.iter_mut() {
                *x = unit_uniform(&mut state) * 2.0 - 1.0;
            }
            normalize(row);
        }

        // Context weights damp very frequent tokens (articles, shared slot
        // fillers): without damping every word's context is dominated by
        // the same handful of high-frequency neighbors and all vectors
        // collapse together.
        let ctx_weight: Vec<f32> = (0..v)
            .map(|w| 1.0 / (1.0 + (corpus.vocab().freq(Sym(w as u32)) as f32).ln().max(0.0)))
            .collect();

        // Reflection passes.
        let mut ctx_sum = vec![0.0f32; v * dim];
        let mut ctx_cnt = vec![0.0f32; v];
        for _ in 0..cfg.passes {
            ctx_sum.iter_mut().for_each(|x| *x = 0.0);
            ctx_cnt.iter_mut().for_each(|x| *x = 0.0);
            for s in corpus.sentences() {
                let toks = s.tokens();
                for (i, &t) in toks.iter().enumerate() {
                    let lo = i.saturating_sub(cfg.window);
                    let hi = (i + cfg.window + 1).min(toks.len());
                    for j in lo..hi {
                        if j == i {
                            continue;
                        }
                        let c = toks[j];
                        let wgt = ctx_weight[c.index()];
                        let src = c.index() * dim;
                        let dst = t.index() * dim;
                        for d in 0..dim {
                            ctx_sum[dst + d] += wgt * table[src + d];
                        }
                        ctx_cnt[t.index()] += wgt;
                    }
                }
            }
            for w in 0..v {
                if ctx_cnt[w] == 0.0 {
                    continue;
                }
                let inv = 1.0 / ctx_cnt[w];
                let row = w * dim;
                for d in 0..dim {
                    table[row + d] = cfg.self_weight * table[row + d]
                        + (1.0 - cfg.self_weight) * ctx_sum[row + d] * inv;
                }
                normalize(&mut table[row..row + dim]);
            }
        }

        Embeddings { dim, table }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of token rows.
    pub fn len(&self) -> usize {
        self.table.len().checked_div(self.dim).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The vector for token `s`.
    pub fn vector(&self, s: Sym) -> &[f32] {
        &self.table[s.index() * self.dim..(s.index() + 1) * self.dim]
    }

    /// Extend the table with zero rows up to `vocab_len` tokens.
    ///
    /// Appended corpora can intern symbols the (deliberately frozen)
    /// training pass never saw; without rows for them [`Embeddings::vector`]
    /// would index past the table. A zero vector is the right OOV
    /// embedding here: it contributes nothing to a sentence's mean and has
    /// zero cosine similarity to everything — and because growth is
    /// deterministic, featurization of a grown corpus is bit-identical
    /// whether the corpus was appended to or rebuilt from scratch against
    /// the same frozen embeddings. Shrinking is refused; growing to a
    /// smaller `vocab_len` is a no-op.
    pub fn grow_to(&mut self, vocab_len: usize) {
        let want = vocab_len * self.dim;
        if want > self.table.len() {
            self.table.resize(want, 0.0);
        }
    }

    /// Cosine similarity between two tokens' vectors.
    pub fn similarity(&self, a: Sym, b: Sym) -> f32 {
        cosine(self.vector(a), self.vector(b))
    }

    /// Mean vector of a token sequence, written into `out` (len == dim).
    pub fn mean_into(&self, tokens: &[Sym], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        out.iter_mut().for_each(|x| *x = 0.0);
        if tokens.is_empty() {
            return;
        }
        for &t in tokens {
            let v = self.vector(t);
            for d in 0..self.dim {
                out[d] += v[d];
            }
        }
        let inv = 1.0 / tokens.len() as f32;
        out.iter_mut().for_each(|x| *x *= inv);
    }
}

/// Cosine similarity of two equal-length vectors (0 if either is zero).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

fn normalize(v: &mut [f32]) {
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        v.iter_mut().for_each(|x| *x /= n);
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// splitmix64 → f32 in [0, 1).
fn unit_uniform(state: &mut u64) -> f32 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;

    fn ctx_corpus() -> Corpus {
        // "bus" and "shuttle" share contexts; "pizza" does not.
        let mut texts = Vec::new();
        for _ in 0..30 {
            texts.push("take the bus to the airport".to_string());
            texts.push("take the shuttle to the airport".to_string());
            texts.push("i ate pizza with extra cheese".to_string());
        }
        Corpus::from_texts(texts)
    }

    #[test]
    fn cooccurring_words_are_similar() {
        let c = ctx_corpus();
        let e = Embeddings::train(&c, &EmbedConfig::default());
        let bus = c.vocab().get("bus").unwrap();
        let shuttle = c.vocab().get("shuttle").unwrap();
        let pizza = c.vocab().get("pizza").unwrap();
        assert!(
            e.similarity(bus, shuttle) > e.similarity(bus, pizza) + 0.1,
            "bus~shuttle {} vs bus~pizza {}",
            e.similarity(bus, shuttle),
            e.similarity(bus, pizza)
        );
    }

    #[test]
    fn vectors_are_unit_norm() {
        let c = ctx_corpus();
        let e = Embeddings::train(&c, &EmbedConfig::default());
        for (sym, _) in c.vocab().iter() {
            let n: f32 = e.vector(sym).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "norm {n}");
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let c = ctx_corpus();
        let e1 = Embeddings::train(&c, &EmbedConfig::default());
        let e2 = Embeddings::train(&c, &EmbedConfig::default());
        let s = c.vocab().get("bus").unwrap();
        assert_eq!(e1.vector(s), e2.vector(s));
    }

    #[test]
    fn mean_into_averages() {
        let c = ctx_corpus();
        let e = Embeddings::train(&c, &EmbedConfig::default());
        let a = c.vocab().get("bus").unwrap();
        let b = c.vocab().get("pizza").unwrap();
        let mut out = vec![0.0; e.dim()];
        e.mean_into(&[a, b], &mut out);
        for d in 0..e.dim() {
            let want = (e.vector(a)[d] + e.vector(b)[d]) / 2.0;
            assert!((out[d] - want).abs() < 1e-6);
        }
        e.mean_into(&[], &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn cosine_edge_cases() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
    }
}
