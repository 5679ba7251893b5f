//! Feature extraction shared by the classifiers.
//!
//! Logistic regression consumes the mean embedding concatenated with a
//! hashed bag-of-words. (The CNN's "matrix created by stacking the
//! word-embedding vectors of the words appearing in the sentence", paper
//! §4.1, is never built: `cnn.rs` reads windows of it straight from the
//! sentence's symbols and the embedding table.)

use darwin_text::{Corpus, Embeddings, Sym};

/// Number of hashed bag-of-words buckets used by [`logreg_features`].
pub const BOW_BUCKETS: usize = 4096;

/// Mean embedding (dim) ++ hashed bag-of-words (BOW_BUCKETS) ++ bias (1).
pub fn logreg_dim(emb: &Embeddings) -> usize {
    emb.dim() + BOW_BUCKETS + 1
}

/// Fill `out` (length [`logreg_dim`]) with logistic-regression features.
pub fn logreg_features(corpus: &Corpus, emb: &Embeddings, id: u32, out: &mut [f32]) {
    let dim = emb.dim();
    debug_assert_eq!(out.len(), logreg_dim(emb));
    out.iter_mut().for_each(|x| *x = 0.0);
    let toks = &corpus.sentence(id).tokens;
    emb.mean_into(toks, &mut out[..dim]);
    // The mean of unit vectors has small magnitude; rescale so the
    // embedding block competes with the bag-of-words block instead of
    // being optimized away (the embeddings are what let the classifier
    // generalize to rule families it has not seen labeled yet).
    out[..dim].iter_mut().for_each(|x| *x *= 4.0);
    if !toks.is_empty() {
        let w = 1.0 / (toks.len() as f32).sqrt();
        for &t in toks {
            out[dim + bow_bucket(t)] += w;
        }
    }
    out[dim + BOW_BUCKETS] = 1.0; // bias
}

#[inline]
pub(crate) fn bow_bucket(t: Sym) -> usize {
    // Fibonacci hashing of the symbol id.
    ((t.0 as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as usize % BOW_BUCKETS
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_text::embed::EmbedConfig;

    fn setup() -> (Corpus, Embeddings) {
        let c = Corpus::from_texts([
            "the shuttle goes to the airport",
            "pizza with extra cheese",
            "",
        ]);
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
    fn logreg_features_have_bias_and_bow() {
        let (c, e) = setup();
        let mut f = vec![0.0; logreg_dim(&e)];
        logreg_features(&c, &e, 0, &mut f);
        assert_eq!(f[logreg_dim(&e) - 1], 1.0, "bias");
        let bow_mass: f32 = f[e.dim()..e.dim() + BOW_BUCKETS].iter().sum();
        assert!(bow_mass > 0.0);
    }

    #[test]
    fn empty_sentence_features_are_finite() {
        let (c, e) = setup();
        let mut f = vec![0.0; logreg_dim(&e)];
        logreg_features(&c, &e, 2, &mut f);
        assert!(f.iter().all(|x| x.is_finite()));
        assert_eq!(f[logreg_dim(&e) - 1], 1.0);
    }

    #[test]
    fn same_sentence_same_features() {
        let (c, e) = setup();
        let mut a = vec![0.0; logreg_dim(&e)];
        let mut b = vec![0.0; logreg_dim(&e)];
        logreg_features(&c, &e, 0, &mut a);
        logreg_features(&c, &e, 0, &mut b);
        assert_eq!(a, b);
    }
}
