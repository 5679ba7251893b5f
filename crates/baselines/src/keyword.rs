//! Keyword Sampling baseline (paper §4.4).
//!
//! "We asked annotators to provide 10 distinct keywords as a heuristic to
//! filter the dataset. The KS technique randomly samples instances from
//! the filtered dataset and asks for its label." Labels train the same
//! classifier as every other technique; F1 is measured per budget step.

use darwin_classifier::ClassifierKind;
use darwin_eval::Curve;
use darwin_text::{Corpus, Embeddings};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Result of a KS run.
pub struct KeywordSamplingResult {
    pub f1_curve: Curve,
    pub scores: Vec<f32>,
    pub labeled: Vec<u32>,
    /// Size of the keyword-filtered pool.
    pub pool_size: usize,
}

/// The keyword-filtered random labeling loop.
pub struct KeywordSampling {
    pub classifier: ClassifierKind,
    pub retrain_every: usize,
    pub seed: u64,
}

impl Default for KeywordSampling {
    fn default() -> Self {
        KeywordSampling {
            classifier: ClassifierKind::logreg(),
            retrain_every: 5,
            seed: 42,
        }
    }
}

impl KeywordSampling {
    pub fn run(
        &self,
        corpus: &Corpus,
        emb: &Embeddings,
        keywords: &[&str],
        labels: &[bool],
        budget: usize,
    ) -> KeywordSamplingResult {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let keys: Vec<_> = keywords
            .iter()
            .filter_map(|k| corpus.vocab().get(k))
            .collect();
        let mut pool: Vec<u32> = (0..corpus.len() as u32)
            .filter(|&id| {
                corpus
                    .sentence(id)
                    .tokens()
                    .iter()
                    .any(|t| keys.contains(t))
            })
            .collect();
        let pool_size = pool.len();
        pool.shuffle(&mut rng);

        let mut labeled: Vec<u32> = Vec::new();
        let mut clf = self.classifier.build(emb, self.seed);
        let mut scores = vec![0.5f32; corpus.len()];
        let all: Vec<u32> = (0..corpus.len() as u32).collect();
        let mut f1_curve = Curve::new("KS");

        for (q, &pick) in pool.iter().take(budget).enumerate() {
            labeled.push(pick);
            let q = q + 1;
            if q % self.retrain_every == 0 || q == budget.min(pool.len()) {
                let pos: Vec<u32> = labeled
                    .iter()
                    .copied()
                    .filter(|&i| labels[i as usize])
                    .collect();
                let neg: Vec<u32> = labeled
                    .iter()
                    .copied()
                    .filter(|&i| !labels[i as usize])
                    .collect();
                if !pos.is_empty() && !neg.is_empty() {
                    clf.fit(corpus, emb, &pos, &neg);
                    scores.clear();
                    clf.predict_batch(corpus, emb, &all, &mut scores);
                }
                f1_curve.push(q, darwin_eval::f1_score(&scores, labels, 0.5));
            }
        }

        KeywordSamplingResult {
            f1_curve,
            scores,
            labeled,
            pool_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_text::embed::EmbedConfig;

    fn fixture() -> (Corpus, Vec<bool>) {
        let mut texts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..25 {
            texts.push(format!("the shuttle to the airport leaves at {i}"));
            labels.push(true);
            texts.push(format!("take the bus to the airport at {i}"));
            labels.push(true);
            texts.push(format!("order a pizza with {i} toppings"));
            labels.push(false);
            texts.push(format!("the pool opens at {i}"));
            labels.push(false);
        }
        (Corpus::from_texts(texts.iter()), labels)
    }

    #[test]
    fn filters_pool_by_keywords() {
        let (corpus, labels) = fixture();
        let emb = Embeddings::train(
            &corpus,
            &EmbedConfig {
                dim: 8,
                ..Default::default()
            },
        );
        let ks = KeywordSampling::default();
        let res = ks.run(&corpus, &emb, &["shuttle", "bus", "airport"], &labels, 30);
        assert_eq!(
            res.pool_size, 50,
            "only transport sentences pass the filter"
        );
        for &id in &res.labeled {
            let text = corpus.text(id);
            assert!(
                text.contains("shuttle") || text.contains("bus") || text.contains("airport"),
                "{text}"
            );
        }
    }

    #[test]
    fn keyword_bias_limits_but_trains_a_classifier() {
        let (corpus, labels) = fixture();
        let emb = Embeddings::train(
            &corpus,
            &EmbedConfig {
                dim: 16,
                ..Default::default()
            },
        );
        let ks = KeywordSampling::default();
        let res = ks.run(&corpus, &emb, &["shuttle", "pizza"], &labels, 40);
        assert!(!res.f1_curve.is_empty());
        // With one pos and one neg keyword it can learn something.
        assert!(res.f1_curve.last() > 0.3, "F1 {}", res.f1_curve.last());
    }

    #[test]
    fn unknown_keywords_yield_empty_pool() {
        let (corpus, labels) = fixture();
        let emb = Embeddings::train(
            &corpus,
            &EmbedConfig {
                dim: 8,
                ..Default::default()
            },
        );
        let ks = KeywordSampling::default();
        let res = ks.run(&corpus, &emb, &["zeppelin"], &labels, 10);
        assert_eq!(res.pool_size, 0);
        assert!(res.labeled.is_empty());
    }
}
