//! The load generator: raw texts and ground-truth labels made from
//! `--seed`. The program under test receives only these — the analysed
//! corpus the dataset generators build along the way is dropped, so every
//! repetition pays for its own analysis. Generation time is reported as
//! `bench.loadgen_s` and is part of no other metric.

use darwin_datasets::{directions, professions, Dataset};

/// Which synthetic corpus a workload labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Intent detection, 3.8 % positive (paper size 15.3k).
    Directions,
    /// Entity extraction, 1.1 % positive, generated block by block so a
    /// 100k corpus never holds two copies of its text.
    ProfessionsStreamed,
}

/// What a session is given: sentences, their labels, and the seed rules
/// the dataset suggests (the first that parses is used).
pub struct Inputs {
    pub texts: Vec<String>,
    pub labels: Vec<bool>,
    pub seed_rules: Vec<&'static str>,
}

impl Inputs {
    pub fn truth_count(&self, upto: usize) -> usize {
        self.labels[..upto].iter().filter(|&&l| l).count()
    }
}

pub fn generate(source: Source, n: usize, seed: u64) -> Inputs {
    let data: Dataset = match source {
        Source::Directions => directions::generate(n, seed),
        Source::ProfessionsStreamed => professions::generate_streamed(n, seed),
    };
    let texts = (0..data.corpus.len() as u32)
        .map(|id| data.corpus.text(id))
        .collect();
    Inputs {
        texts,
        labels: data.labels,
        seed_rules: data.seed_rules,
    }
}
