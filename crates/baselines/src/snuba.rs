//! mini-Snuba: automatic heuristic generation from a labeled subset.
//!
//! Faithful to the parts of Snuba the comparison exercises (paper §4.2):
//!
//! 1. candidate heuristics are n-grams (n ≤ 3) occurring in the *labeled
//!    positives* — Snuba generates heuristics from the labeled set's
//!    features only, which is exactly why it cannot discover families with
//!    no evidence in the sample;
//! 2. each candidate is scored by F1 on the labeled subset;
//! 3. a committee is selected greedily, trading quality against diversity
//!    (penalizing Jaccard overlap with already-selected rules on the
//!    labeled set), until no candidate clears the quality bar.
//!
//! The returned rules are then applied to the full corpus; coverage of the
//! union is the Figure 7/8 metric.

use darwin_grammar::{Heuristic, PhrasePattern};
use darwin_index::fx::{FxHashMap, FxHashSet};
use darwin_index::IdSet;
use darwin_text::{Corpus, Sym};

/// Committee-selection parameters.
#[derive(Clone, Debug)]
pub struct SnubaConfig {
    /// Maximum n-gram length for candidate heuristics.
    pub max_ngram: usize,
    /// Maximum committee size.
    pub max_rules: usize,
    /// Minimum F1 (on the labeled subset) for a rule to be considered.
    pub min_f1: f64,
    /// Weight of the diversity penalty (0 = pure quality).
    pub diversity: f64,
}

impl Default for SnubaConfig {
    fn default() -> Self {
        SnubaConfig {
            max_ngram: 3,
            max_rules: 60,
            min_f1: 0.25,
            diversity: 0.4,
        }
    }
}

/// The outcome: the committee plus its corpus-wide coverage.
pub struct SnubaResult {
    pub rules: Vec<Heuristic>,
    /// Union of the rules' coverage over the full corpus, sorted.
    pub positives: Vec<u32>,
}

/// The mini-Snuba rule miner.
pub struct Snuba {
    cfg: SnubaConfig,
}

impl Snuba {
    pub fn new(cfg: SnubaConfig) -> Snuba {
        Snuba { cfg }
    }

    /// Mine rules from `labeled` ids with ground-truth `labels` (the full
    /// label vector — only the labeled ids are consulted), then apply them
    /// corpus-wide.
    pub fn run(&self, corpus: &Corpus, labeled: &[u32], labels: &[bool]) -> SnubaResult {
        let pos: Vec<u32> = labeled
            .iter()
            .copied()
            .filter(|&i| labels[i as usize])
            .collect();
        if pos.is_empty() {
            return SnubaResult {
                rules: Vec::new(),
                positives: Vec::new(),
            };
        }
        let labeled_set: Vec<u32> = labeled.to_vec();

        // 1. Candidates: n-grams from labeled positives.
        let mut cand_set: FxHashSet<Vec<Sym>> = FxHashSet::default();
        for &id in &pos {
            let toks = corpus.sentence(id).tokens();
            for start in 0..toks.len() {
                for len in 1..=self.cfg.max_ngram.min(toks.len() - start) {
                    cand_set.insert(toks[start..start + len].to_vec());
                }
            }
        }

        // 2. Score by F1 on the labeled subset.
        struct Scored {
            gram: Vec<Sym>,
            f1: f64,
            matches: Vec<u32>, // within the labeled subset
        }
        let mut scored: Vec<Scored> = Vec::with_capacity(cand_set.len());
        let total_pos = pos.len() as f64;
        for gram in cand_set {
            let pat = PhrasePattern::from_tokens(gram.iter().copied());
            let matches: Vec<u32> = labeled_set
                .iter()
                .copied()
                .filter(|&i| pat.matches(corpus.sentence(i)))
                .collect();
            if matches.is_empty() {
                continue;
            }
            let tp = matches.iter().filter(|&&i| labels[i as usize]).count() as f64;
            let precision = tp / matches.len() as f64;
            let recall = tp / total_pos;
            let f1 = if precision + recall == 0.0 {
                0.0
            } else {
                2.0 * precision * recall / (precision + recall)
            };
            if f1 >= self.cfg.min_f1 {
                scored.push(Scored { gram, f1, matches });
            }
        }

        // 3. Greedy diverse committee.
        let mut committee: Vec<Scored> = Vec::new();
        let mut chosen_grams: FxHashSet<Vec<Sym>> = FxHashSet::default();
        while committee.len() < self.cfg.max_rules {
            let mut best: Option<(usize, f64)> = None;
            for (i, s) in scored.iter().enumerate() {
                if chosen_grams.contains(&s.gram) {
                    continue;
                }
                let overlap = committee
                    .iter()
                    .map(|c| jaccard(&c.matches, &s.matches))
                    .fold(0.0f64, f64::max);
                let value = s.f1 * (1.0 - self.cfg.diversity * overlap);
                if best.is_none_or(|(_, bv)| value > bv) {
                    best = Some((i, value));
                }
            }
            let Some((i, value)) = best else { break };
            if value < self.cfg.min_f1 * 0.5 {
                break; // remaining candidates are dominated or redundant
            }
            chosen_grams.insert(scored[i].gram.clone());
            committee.push(Scored {
                gram: scored[i].gram.clone(),
                f1: scored[i].f1,
                matches: scored[i].matches.clone(),
            });
        }

        // 4. Apply corpus-wide.
        let rules: Vec<Heuristic> = committee
            .iter()
            .map(|s| Heuristic::Phrase(PhrasePattern::from_tokens(s.gram.iter().copied())))
            .collect();
        let mut union = IdSet::with_universe(corpus.len());
        for r in &rules {
            for id in r.coverage(corpus) {
                union.insert(id);
            }
        }
        SnubaResult {
            rules,
            positives: union.iter().collect(),
        }
    }
}

fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let sa: FxHashMap<u32, ()> = a.iter().map(|&x| (x, ())).collect();
    let inter = b.iter().filter(|x| sa.contains_key(x)).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_datasets::directions;

    #[test]
    fn finds_rules_present_in_seed() {
        let d = directions::generate(4000, 3);
        // A big random sample will contain shuttle sentences.
        let sample = d.seed_sample(1500, 1);
        let result = Snuba::new(SnubaConfig::default()).run(&d.corpus, &sample, &d.labels);
        assert!(!result.rules.is_empty());
        let vocab = d.corpus.vocab();
        let texts: Vec<String> = result.rules.iter().map(|r| r.display(vocab)).collect();
        // Some transport-ish signature should be mined.
        assert!(
            texts.iter().any(|t| t.contains("shuttle")
                || t.contains("get to")
                || t.contains("bart")
                || t.contains("bus")),
            "rules: {texts:?}"
        );
    }

    #[test]
    fn cannot_discover_families_absent_from_seed() {
        let d = directions::generate(6000, 3);
        let biased = d.biased_seed_sample(800, "shuttle", 2);
        let result = Snuba::new(SnubaConfig::default()).run(&d.corpus, &biased, &d.labels);
        let shuttle = d.corpus.vocab().get("shuttle").unwrap();
        for rule in &result.rules {
            if let Heuristic::Phrase(p) = rule {
                assert!(
                    !p.tokens().any(|t| t == shuttle),
                    "Snuba mined 'shuttle' without seeing it"
                );
            }
        }
        // Its union therefore misses most shuttle positives.
        let shuttle_pos: Vec<u32> = (0..d.len() as u32)
            .filter(|&i| d.labels[i as usize] && d.corpus.sentence(i).tokens().contains(&shuttle))
            .collect();
        let covered = shuttle_pos
            .iter()
            .filter(|id| result.positives.binary_search(id).is_ok())
            .count();
        // Some shuttle positives are reachable through shared context
        // n-grams ("is there a", "to the airport"), but without the token
        // itself Snuba cannot cover the family fully.
        assert!(
            (covered as f64) < 0.9 * shuttle_pos.len() as f64,
            "covered {covered}/{} shuttle positives",
            shuttle_pos.len()
        );
    }

    #[test]
    fn empty_or_negative_only_seed_yields_nothing() {
        let d = directions::generate(1000, 3);
        let negatives: Vec<u32> = (0..d.len() as u32)
            .filter(|&i| !d.labels[i as usize])
            .take(50)
            .collect();
        let r = Snuba::new(SnubaConfig::default()).run(&d.corpus, &negatives, &d.labels);
        assert!(r.rules.is_empty());
        assert!(r.positives.is_empty());
        let r2 = Snuba::new(SnubaConfig::default()).run(&d.corpus, &[], &d.labels);
        assert!(r2.rules.is_empty());
    }

    #[test]
    fn more_seed_data_does_not_hurt_coverage() {
        let d = directions::generate(5000, 3);
        let small = d.seed_sample(100, 1);
        let large = d.seed_sample(2500, 1);
        let snuba = Snuba::new(SnubaConfig::default());
        let cov = |ids: &[u32]| darwin_eval::coverage(ids, &d.labels);
        let c_small = cov(&snuba.run(&d.corpus, &small, &d.labels).positives);
        let c_large = cov(&snuba.run(&d.corpus, &large, &d.labels).positives);
        // Allow sampling noise; large seeds must not be dramatically worse.
        assert!(
            c_large + 0.12 >= c_small,
            "small {c_small} vs large {c_large}"
        );
    }
}
