//! The classifier abstraction used by the pipeline.

use crate::cnn::{CnnConfig, KimCnn};
use crate::logreg::{LogReg, LogRegConfig};
use darwin_text::{Corpus, Embeddings};

/// A binary short-text classifier ("Any short text classifier would be
/// ideal for this task", paper §3.3 footnote). `Sync` because prediction
/// is `&self` and [`crate::ScoreCache`] fans id chunks out across threads
/// against one shared classifier.
pub trait TextClassifier: Send + Sync {
    /// Train from scratch on positive ids vs. negative ids.
    fn fit(&mut self, corpus: &Corpus, emb: &Embeddings, pos: &[u32], neg: &[u32]);

    /// P(positive) for one sentence.
    fn predict(&self, corpus: &Corpus, emb: &Embeddings, id: u32) -> f32;

    /// P(positive) for every sentence, in id order.
    fn predict_all(&self, corpus: &Corpus, emb: &Embeddings, out: &mut Vec<f32>) {
        out.clear();
        out.extend((0..corpus.len() as u32).map(|id| self.predict(corpus, emb, id)));
    }

    /// P(positive) for each id in `ids`, appended to `out` in `ids` order.
    /// This is the unit of work of [`crate::ScoreCache`]: one call per
    /// worker chunk, concatenated in chunk order, must reproduce
    /// [`TextClassifier::predict_all`] bit for bit — implementations that
    /// override either method must keep per-id scores identical across all
    /// three entry points.
    fn predict_batch(&self, corpus: &Corpus, emb: &Embeddings, ids: &[u32], out: &mut Vec<f32>) {
        out.extend(ids.iter().map(|&id| self.predict(corpus, emb, id)));
    }

    /// Notification that `texts` were appended to the corpus, which now
    /// holds `new_len` sentences. Local classifiers are stateless with
    /// respect to corpus size — every `fit`/`predict` call receives the
    /// corpus and embeddings as arguments — so the default is a no-op.
    /// Classifiers that *mirror* the corpus elsewhere (a wire classifier
    /// ships it to a worker at connect) override this to forward the
    /// growth.
    fn corpus_appended(&mut self, _texts: &[String], _new_len: usize) {}
}

/// Which classifier the pipeline should train (paper default: the Kim CNN;
/// logistic regression is the fast ablation).
#[derive(Clone, Debug, PartialEq)]
pub enum ClassifierKind {
    Cnn(CnnConfig),
    LogReg(LogRegConfig),
}

impl ClassifierKind {
    /// Default CNN matching the paper's architecture description.
    pub fn cnn() -> ClassifierKind {
        ClassifierKind::Cnn(CnnConfig::default())
    }

    /// CNN with an explicit number of training epochs (Figure 14 sweeps this).
    pub fn cnn_with_epochs(epochs: usize) -> ClassifierKind {
        ClassifierKind::Cnn(CnnConfig {
            epochs,
            ..Default::default()
        })
    }

    pub fn logreg() -> ClassifierKind {
        ClassifierKind::LogReg(LogRegConfig::default())
    }

    /// Set the warm-start knob of the underlying config (bit-identical to
    /// cold starts; `false` selects the from-scratch reference path).
    pub fn with_warm_start(mut self, warm: bool) -> ClassifierKind {
        match &mut self {
            ClassifierKind::Cnn(cfg) => cfg.warm_start = warm,
            ClassifierKind::LogReg(cfg) => cfg.warm_start = warm,
        }
        self
    }

    /// Instantiate an untrained classifier.
    pub fn build(&self, emb: &Embeddings, seed: u64) -> Box<dyn TextClassifier> {
        match self {
            ClassifierKind::Cnn(cfg) => Box::new(KimCnn::new(emb.dim(), cfg.clone(), seed)),
            ClassifierKind::LogReg(cfg) => Box::new(LogReg::new(emb, cfg.clone(), seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_text::embed::EmbedConfig;

    /// Both classifier kinds separate an easy synthetic task.
    #[test]
    fn kinds_build_and_learn() {
        let mut texts: Vec<String> = Vec::new();
        for i in 0..40 {
            texts.push(format!("the shuttle to the airport leaves at {i}"));
            texts.push(format!("order a pizza with {i} toppings"));
        }
        let c = Corpus::from_texts(texts.iter());
        let e = Embeddings::train(
            &c,
            &EmbedConfig {
                dim: 16,
                ..Default::default()
            },
        );
        let pos: Vec<u32> = (0..80).filter(|i| i % 2 == 0).collect();
        let neg: Vec<u32> = (0..80).filter(|i| i % 2 == 1).collect();
        for kind in [ClassifierKind::cnn_with_epochs(6), ClassifierKind::logreg()] {
            let mut clf = kind.build(&e, 42);
            clf.fit(&c, &e, &pos[..20], &neg[..20]);
            // Held-out accuracy well above chance.
            let mut correct = 0;
            for &id in pos[20..].iter() {
                if clf.predict(&c, &e, id) > 0.5 {
                    correct += 1;
                }
            }
            for &id in neg[20..].iter() {
                if clf.predict(&c, &e, id) <= 0.5 {
                    correct += 1;
                }
            }
            assert!(correct >= 32, "{kind:?}: {correct}/40 correct");
        }
    }

    #[test]
    fn predict_all_matches_predict() {
        let c = Corpus::from_texts(["a b c", "d e f", "a d"]);
        let e = Embeddings::train(
            &c,
            &EmbedConfig {
                dim: 8,
                ..Default::default()
            },
        );
        let mut clf = ClassifierKind::logreg().build(&e, 1);
        clf.fit(&c, &e, &[0], &[1]);
        let mut all = Vec::new();
        clf.predict_all(&c, &e, &mut all);
        assert_eq!(all.len(), 3);
        for id in 0..3u32 {
            assert_eq!(all[id as usize], clf.predict(&c, &e, id));
        }
    }
}
