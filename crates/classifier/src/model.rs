//! The classifier abstraction used by the pipeline: train on two id sets,
//! score a list of ids.

use crate::cnn::{CnnConfig, KimCnn};
use crate::logreg::{LogReg, LogRegConfig};
use darwin_text::{Corpus, Embeddings};

/// A binary short-text classifier ("Any short text classifier would be
/// ideal for this task", paper §3.3 footnote). Scoring has one verb,
/// [`TextClassifier::predict_batch`], and per-id scores do not depend on
/// how ids are grouped into calls. `Sync` because scoring is `&self` and
/// [`crate::ScoreCache`] fans id chunks out across threads against one
/// shared classifier.
pub trait TextClassifier: Send + Sync {
    /// Train from scratch on positive ids vs. negative ids.
    fn fit(&mut self, corpus: &Corpus, emb: &Embeddings, pos: &[u32], neg: &[u32]);

    /// P(positive) for each id in `ids`, appended to `out` in `ids` order.
    fn predict_batch(&self, corpus: &Corpus, emb: &Embeddings, ids: &[u32], out: &mut Vec<f32>);

    /// Notification that `texts` were appended to the corpus, which now
    /// holds `new_len` sentences. Local classifiers are stateless with
    /// respect to corpus size — every `fit`/`predict_batch` call receives
    /// the corpus and embeddings as arguments — so the default is a no-op.
    /// Classifiers that *mirror* the corpus elsewhere (a wire classifier
    /// ships it to a worker at connect) override this to forward the
    /// growth.
    fn corpus_appended(&mut self, _texts: &[String], _new_len: usize) {}
}

/// Most training epochs a classifier config may ask for
/// ([`LogRegConfig::check`], [`CnnConfig::check`]); the paper's Figure 14
/// sweeps 4..12.
pub const MAX_EPOCHS: usize = 1 << 10;

/// Most Adam steps one fit may take (2²⁴: a 192 MiB step table, and
/// seconds to minutes of training), whatever its epochs and row count.
pub const MAX_FIT_STEPS: usize = 1 << 24;

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

    /// `Err` for a fit on `rows` training rows that would take more than
    /// [`MAX_FIT_STEPS`] Adam steps: `epochs × rows` for LogReg (one step
    /// per row), `epochs × ⌈rows / batch⌉` for the CNN, counted with
    /// checked arithmetic.
    pub fn check_fit(&self, rows: usize) -> Result<(), String> {
        let steps = match self {
            ClassifierKind::Cnn(cfg) => cfg.epochs.checked_mul(rows.div_ceil(cfg.batch.max(1))),
            ClassifierKind::LogReg(cfg) => cfg.epochs.checked_mul(rows),
        };
        match steps {
            Some(steps) if steps <= MAX_FIT_STEPS => Ok(()),
            _ => Err(format!(
                "a fit on {rows} rows takes more than {MAX_FIT_STEPS} steps"
            )),
        }
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
/// Scoring helpers for the crate's tests, all through the one verb.
pub(crate) mod testing {
    use super::TextClassifier;
    use darwin_text::{Corpus, Embeddings};

    /// Every sentence's score, from one all-ids call.
    pub fn score_all(clf: &dyn TextClassifier, c: &Corpus, e: &Embeddings) -> Vec<f32> {
        let ids: Vec<u32> = (0..c.len() as u32).collect();
        let mut out = Vec::new();
        clf.predict_batch(c, e, &ids, &mut out);
        out
    }

    /// One sentence's score, from a one-id call.
    pub fn score_one(clf: &dyn TextClassifier, c: &Corpus, e: &Embeddings, id: u32) -> f32 {
        let mut out = Vec::new();
        clf.predict_batch(c, e, &[id], &mut out);
        out[0]
    }

    /// The scores of `ids` from one call, after checking by bits that
    /// one-id calls and uneven chunkings of `ids`, each call appending to
    /// what the previous ones left, give the same scores.
    pub fn grouping_free_scores(
        clf: &dyn TextClassifier,
        c: &Corpus,
        e: &Embeddings,
        ids: &[u32],
    ) -> Vec<f32> {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut whole = Vec::new();
        clf.predict_batch(c, e, ids, &mut whole);
        assert_eq!(whole.len(), ids.len());
        for sizes in [&[1usize][..], &[2, 5, 1], &[3, 1, 4, 1, 5, 9, 2, 6]] {
            let mut out = Vec::new();
            let mut rest = ids;
            for &k in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(k.min(rest.len()));
                clf.predict_batch(c, e, head, &mut out);
                rest = tail;
            }
            assert_eq!(bits(&out), bits(&whole), "chunk sizes {sizes:?}");
        }
        whole
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
            let scores = testing::score_all(clf.as_ref(), &c, &e);
            let correct = (pos[20..].iter().filter(|&&id| scores[id as usize] > 0.5))
                .chain(neg[20..].iter().filter(|&&id| scores[id as usize] <= 0.5))
                .count();
            assert!(correct >= 32, "{kind:?}: {correct}/40 correct");
        }
    }

    /// Both kinds: one-id calls, one all-ids call and uneven chunkings
    /// give the same scores, also for ids repeated and out of order.
    #[test]
    fn scores_do_not_depend_on_grouping() {
        let c = Corpus::from_texts(["a b c", "d e f", "a d", "", "c b a d e f a"]);
        let e = Embeddings::train(
            &c,
            &EmbedConfig {
                dim: 8,
                ..Default::default()
            },
        );
        let ids = [4u32, 0, 3, 1, 1, 2, 0, 4, 3];
        for kind in [ClassifierKind::cnn_with_epochs(2), ClassifierKind::logreg()] {
            let mut clf = kind.build(&e, 1);
            clf.fit(&c, &e, &[0, 4], &[1, 3]);
            let all = testing::score_all(clf.as_ref(), &c, &e);
            let got = testing::grouping_free_scores(clf.as_ref(), &c, &e, &ids);
            for (&id, &p) in ids.iter().zip(&got) {
                assert_eq!(p.to_bits(), all[id as usize].to_bits(), "{kind:?} id {id}");
            }
        }
    }
}
