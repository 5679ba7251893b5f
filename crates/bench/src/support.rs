//! Shared plumbing for the experiment binaries.

use darwin_classifier::ClassifierKind;
use darwin_core::{Darwin, DarwinConfig, GroundTruthOracle, RunResult, Seed};
use darwin_datasets::Dataset;
use darwin_eval::Curve;
use darwin_grammar::Heuristic;
use darwin_index::{IndexConfig, IndexSet};
use darwin_text::embed::EmbedConfig;
use darwin_text::Embeddings;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Global scale factor from `DARWIN_SCALE` (default 1.0 = paper sizes).
pub fn scale() -> f64 {
    std::env::var("DARWIN_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scale a corpus size, keeping a sensible floor.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(500)
}

/// A dataset bundled with its index and embeddings, ready for runs.
pub struct Prepared {
    pub data: Dataset,
    pub index: IndexSet,
    pub emb: Embeddings,
}

/// Default index configuration for experiments (phrase depth 6 keeps the
/// trie manageable while still indexing every rule the traversals need;
/// the paper's depth-10 sketches are supported via `IndexConfig`).
pub fn experiment_index_config() -> IndexConfig {
    IndexConfig {
        max_phrase_len: 6,
        min_count: 2,
        ..Default::default()
    }
}

/// Generate, analyze and index a dataset.
pub fn prepare(make: impl FnOnce(usize, u64) -> Dataset, n: usize, seed: u64) -> Prepared {
    let data = make(n, seed);
    let t = Instant::now();
    let index = IndexSet::build(&data.corpus, &experiment_index_config());
    eprintln!(
        "[prepare] {}: {} sentences, {} rules indexed in {:.1}s",
        data.name,
        data.len(),
        index.rules(),
        t.elapsed().as_secs_f64()
    );
    let emb = Embeddings::train(&data.corpus, &EmbedConfig::default());
    Prepared { data, index, emb }
}

impl Prepared {
    /// A Darwin instance over this dataset with shared embeddings.
    pub fn darwin(&self, cfg: DarwinConfig) -> Darwin<'_> {
        Darwin::with_embeddings(&self.data.corpus, &self.index, cfg, self.emb.clone())
    }

    /// Run from the dataset's default seed rule against a ground-truth
    /// oracle; returns the run and the coverage-vs-questions curve.
    pub fn run_coverage(&self, cfg: DarwinConfig, label: impl Into<String>) -> (RunResult, Curve) {
        let darwin = self.darwin(cfg);
        let seed = Heuristic::phrase(&self.data.corpus, self.data.seed_rules[0])
            .expect("default seed rule parses");
        let mut oracle = GroundTruthOracle::new(&self.data.labels, 0.8);
        let run = darwin.run(Seed::Rule(seed), &mut oracle);
        let curve = coverage_curve(&run, &self.data.labels, label);
        (run, curve)
    }

    /// F-score-vs-questions curve: retrain a classifier on the positives
    /// known after each checkpoint and measure corpus-wide F1.
    pub fn fscore_curve(
        &self,
        run: &RunResult,
        label: impl Into<String>,
        checkpoints: &[usize],
        kind: &ClassifierKind,
    ) -> Curve {
        let mut curve = Curve::new(label);
        let mut rng = StdRng::seed_from_u64(0xF5);
        for &q in checkpoints {
            let pos = run.positives_after(q.min(run.questions()));
            if pos.is_empty() {
                curve.push(q, 0.0);
                continue;
            }
            let mut neg = Vec::new();
            let want = (pos.len() * 3).clamp(50, self.data.len() / 3);
            let mut guard = 0;
            while neg.len() < want && guard < want * 20 {
                let id = rng.gen_range(0..self.data.len() as u32);
                if pos.binary_search(&id).is_err() {
                    neg.push(id);
                }
                guard += 1;
            }
            let mut clf = kind.build(&self.emb, 0xF5);
            clf.fit(&self.data.corpus, &self.emb, &pos, &neg);
            let all: Vec<u32> = (0..self.data.len() as u32).collect();
            let mut scores = Vec::new();
            clf.predict_batch(&self.data.corpus, &self.emb, &all, &mut scores);
            curve.push(q, darwin_eval::f1_score(&scores, &self.data.labels, 0.5));
        }
        curve
    }
}

/// Coverage (recall of positives) after each question.
pub fn coverage_curve(run: &RunResult, labels: &[bool], label: impl Into<String>) -> Curve {
    let mut curve = Curve::new(label);
    curve.push(0, darwin_eval::coverage(&run.positives_after(0), labels));
    for q in 1..=run.questions() {
        curve.push(q, darwin_eval::coverage(&run.positives_after(q), labels));
    }
    curve
}

/// Standard checkpoint grid for F-score curves.
pub fn checkpoints(budget: usize) -> Vec<usize> {
    let step = (budget / 10).max(5);
    let mut out: Vec<usize> = (step..=budget).step_by(step).collect();
    if out.last() != Some(&budget) {
        out.push(budget);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_datasets::directions;

    #[test]
    fn prepare_and_run_small() {
        let prep = prepare(directions::generate, 1500, 7);
        let cfg = DarwinConfig {
            budget: 8,
            n_candidates: 1500,
            ..Default::default()
        };
        let (run, curve) = prep.run_coverage(cfg, "t");
        assert!(!curve.is_empty());
        assert!(run.questions() <= 8);
        // Coverage is monotone.
        for w in curve.ys.windows(2) {
            assert!(w[1] + 1e-12 >= w[0]);
        }
    }

    #[test]
    fn checkpoint_grid() {
        let c = checkpoints(100);
        assert_eq!(c.last(), Some(&100));
        assert!(c.len() >= 5);
        let c2 = checkpoints(12);
        assert_eq!(c2.last(), Some(&12));
    }
}
