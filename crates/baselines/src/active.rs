//! Active learning baseline (paper §4.4).
//!
//! "AL improves its performance by selecting the instance with the highest
//! entropy and asking the oracle for its label. It then re-trains the
//! classifier using the new label." Each instance label costs one oracle
//! question — the same budget currency as Darwin's rule questions, which
//! is the point of the comparison: one YES about a rule yields hundreds of
//! labels, one instance query yields one.

use darwin_classifier::{ClassifierKind, TextClassifier};
use darwin_eval::Curve;
use darwin_text::{Corpus, Embeddings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of an AL run: the label-budget F1 curve plus final scores.
pub struct ActiveLearningResult {
    pub f1_curve: Curve,
    pub scores: Vec<f32>,
    pub labeled: Vec<u32>,
}

/// Entropy-based uncertainty sampling.
pub struct ActiveLearning {
    pub classifier: ClassifierKind,
    /// Retrain (and measure F1) every this many acquired labels.
    pub retrain_every: usize,
    pub seed: u64,
}

impl Default for ActiveLearning {
    fn default() -> Self {
        ActiveLearning {
            classifier: ClassifierKind::logreg(),
            retrain_every: 5,
            seed: 42,
        }
    }
}

impl ActiveLearning {
    /// Run with `budget` instance queries, starting from `seed_ids`
    /// (pre-labeled for free, mirroring how Darwin gets a seed rule).
    /// `labels` is the ground truth used both to answer instance queries
    /// and to measure F1.
    pub fn run(
        &self,
        corpus: &Corpus,
        emb: &Embeddings,
        seed_ids: &[u32],
        labels: &[bool],
        budget: usize,
    ) -> ActiveLearningResult {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut labeled: Vec<u32> = seed_ids.to_vec();
        let mut clf = self.classifier.build(emb, self.seed);
        let mut scores: Vec<f32> = vec![0.5; corpus.len()];
        let all: Vec<u32> = (0..corpus.len() as u32).collect();
        let mut f1_curve = Curve::new("AL");

        let retrain =
            |labeled: &Vec<u32>, clf: &mut Box<dyn TextClassifier>, scores: &mut Vec<f32>| {
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
                if pos.is_empty() || neg.is_empty() {
                    return;
                }
                clf.fit(corpus, emb, &pos, &neg);
                scores.clear();
                clf.predict_batch(corpus, emb, &all, scores);
            };
        retrain(&labeled, &mut clf, &mut scores);

        for q in 1..=budget {
            // Highest-entropy (closest to 0.5) unlabeled instance; random
            // tie-breaking among near-ties to avoid degenerate loops.
            let mut best: Option<(u32, f32)> = None;
            for id in 0..corpus.len() as u32 {
                if labeled.contains(&id) {
                    continue;
                }
                let margin = (scores[id as usize] - 0.5).abs() + rng.gen_range(0.0f32..1e-4);
                if best.is_none_or(|(_, m)| margin < m) {
                    best = Some((id, margin));
                }
            }
            let Some((pick, _)) = best else { break };
            labeled.push(pick); // the oracle reveals labels[pick]

            if q % self.retrain_every == 0 || q == budget {
                retrain(&labeled, &mut clf, &mut scores);
                f1_curve.push(q, darwin_eval::f1_score(&scores, labels, 0.5));
            }
        }

        ActiveLearningResult {
            f1_curve,
            scores,
            labeled,
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
        for i in 0..30 {
            texts.push(format!("the shuttle to the airport leaves at {i}"));
            labels.push(true);
            texts.push(format!("order a pizza with {i} toppings"));
            labels.push(false);
            texts.push(format!("the pool opens at {i}"));
            labels.push(false);
        }
        (Corpus::from_texts(texts.iter()), labels)
    }

    #[test]
    fn improves_with_budget() {
        let (corpus, labels) = fixture();
        let emb = Embeddings::train(
            &corpus,
            &EmbedConfig {
                dim: 16,
                ..Default::default()
            },
        );
        let al = ActiveLearning::default();
        let seed: Vec<u32> = vec![0, 1, 3, 4]; // one pos, three neg
        let res = al.run(&corpus, &emb, &seed, &labels, 40);
        assert!(!res.f1_curve.is_empty());
        assert!(
            res.f1_curve.last() > 0.6,
            "final F1 {}",
            res.f1_curve.last()
        );
        assert_eq!(res.labeled.len(), seed.len() + 40);
    }

    #[test]
    fn respects_budget_and_never_relabels() {
        let (corpus, labels) = fixture();
        let emb = Embeddings::train(
            &corpus,
            &EmbedConfig {
                dim: 8,
                ..Default::default()
            },
        );
        let al = ActiveLearning::default();
        let res = al.run(&corpus, &emb, &[0, 1], &labels, 10);
        let mut seen = std::collections::HashSet::new();
        for &id in &res.labeled {
            assert!(seen.insert(id), "instance {id} labeled twice");
        }
    }
}
