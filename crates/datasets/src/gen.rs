//! Template-mixture corpus generation.
//!
//! A dataset is two weighted mixtures of *families* — positive and negative
//! — where each family holds several templates over shared slot banks.
//! Family weights follow a Zipf profile so a few families dominate and a
//! long tail of rarer families exists (that tail is what makes rule
//! discovery non-trivial: high-coverage rules run out and the system must
//! find the tail families).

use crate::{Dataset, Task};
use darwin_text::Corpus;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Block size of [`Spec::generate_streamed`]: sentences are sampled,
/// shuffled and analyzed in blocks of this many rows, so the raw text of
/// at most one block is ever alive. Pinned — the streamed output is
/// deterministic in `(n, seed)` alone, so this constant is part of the
/// generator's definition.
pub const GEN_CHUNK: usize = 65_536;

/// A surface-pattern family: several templates sharing a signature.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    /// Stable diagnostic key (e.g. `"shuttle"`, `"caused-by"`).
    pub key: &'static str,
    /// Relative sampling weight within its mixture (before the Zipf tilt).
    pub weight: f64,
    /// Templates with `{BANK}` slots.
    pub templates: &'static [&'static str],
}

/// A slot bank: `{name}` in templates draws uniformly from `words`.
pub type Bank = (&'static str, &'static [&'static str]);

/// Everything needed to generate one dataset.
pub struct Spec {
    pub name: &'static str,
    pub task: Task,
    pub positive_rate: f64,
    pub pos_families: &'static [Family],
    pub neg_families: &'static [Family],
    pub banks: &'static [Bank],
    pub keywords: &'static [&'static str],
    pub seed_rules: &'static [&'static str],
}

impl Spec {
    /// Generate `n` sentences with the spec's positive rate. Deterministic
    /// in `(n, seed)`.
    pub fn generate(&self, n: usize, seed: u64) -> Dataset {
        assert!(n > 0, "dataset size must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ fnv(self.name));
        let n_pos = ((n as f64) * self.positive_rate).round() as usize;
        let n_neg = n - n_pos;

        let family_names = self.family_names();
        let mut rows: Vec<(String, bool, u16)> = Vec::with_capacity(n);
        self.sample_mixture(self.pos_families, n_pos, true, 0, &mut rows, &mut rng);
        let neg_base = self.pos_families.len() as u16;
        self.sample_mixture(
            self.neg_families,
            n_neg,
            false,
            neg_base,
            &mut rows,
            &mut rng,
        );
        rows.shuffle(&mut rng);

        let mut corpus = Corpus::new();
        corpus.append_texts(rows.iter().map(|(t, _, _)| t.as_str()), num_threads(n));
        let labels = rows.iter().map(|&(_, l, _)| l).collect();
        let family = rows.iter().map(|&(_, _, f)| f).collect();

        Dataset {
            name: self.name,
            task: self.task,
            corpus,
            labels,
            family,
            family_names,
            keywords: self.keywords.to_vec(),
            seed_rules: self.seed_rules.to_vec(),
        }
    }

    /// Generate `n` sentences in [`GEN_CHUNK`]-sized blocks: each block
    /// samples its share of positives, shuffles locally and is analyzed
    /// (tokenize → intern → tag → parse) before the next block's text is
    /// produced — the raw strings of at most one block are ever alive, so
    /// memory stays bounded at million-sentence scale. Deterministic in
    /// `(n, seed)`; the positive count equals [`Spec::generate`]'s exactly
    /// (per-block quotas telescope to the rounded total), though the
    /// sentence *order* is block-locally shuffled rather than globally.
    pub fn generate_streamed(&self, n: usize, seed: u64) -> Dataset {
        assert!(n > 0, "dataset size must be positive");
        let n_pos_total = ((n as f64) * self.positive_rate).round() as usize;
        let neg_base = self.pos_families.len() as u16;

        let threads = num_threads(GEN_CHUNK);
        let mut corpus = Corpus::new();
        let mut labels: Vec<bool> = Vec::with_capacity(n);
        let mut family: Vec<u16> = Vec::with_capacity(n);
        let mut rows: Vec<(String, bool, u16)> = Vec::with_capacity(GEN_CHUNK.min(n));

        let mut start = 0usize;
        while start < n {
            let end = (start + GEN_CHUNK).min(n);
            // Per-block quota: floor-difference of the cumulative positive
            // count, so block quotas telescope to exactly `n_pos_total`.
            let quota = end * n_pos_total / n - start * n_pos_total / n;
            // Per-block RNG keyed on the block start: any block can be
            // regenerated independently of the others.
            let mut rng =
                StdRng::seed_from_u64(seed ^ fnv(self.name) ^ (start as u64).wrapping_mul(0x9E37));
            rows.clear();
            self.sample_mixture(self.pos_families, quota, true, 0, &mut rows, &mut rng);
            self.sample_mixture(
                self.neg_families,
                (end - start) - quota,
                false,
                neg_base,
                &mut rows,
                &mut rng,
            );
            rows.shuffle(&mut rng);
            corpus.append_texts(rows.iter().map(|(t, _, _)| t.as_str()), threads);
            labels.extend(rows.iter().map(|&(_, l, _)| l));
            family.extend(rows.iter().map(|&(_, _, f)| f));
            start = end;
        }

        Dataset {
            name: self.name,
            task: self.task,
            corpus,
            labels,
            family,
            family_names: self.family_names(),
            keywords: self.keywords.to_vec(),
            seed_rules: self.seed_rules.to_vec(),
        }
    }

    /// Diagnostic family keys, positives first — the index space of
    /// [`Dataset::family`].
    fn family_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        names.extend(self.pos_families.iter().map(|f| f.key));
        names.extend(self.neg_families.iter().map(|f| f.key));
        names
    }

    fn sample_mixture(
        &self,
        families: &'static [Family],
        count: usize,
        label: bool,
        base: u16,
        rows: &mut Vec<(String, bool, u16)>,
        rng: &mut StdRng,
    ) {
        // Zipf tilt over the declared order: family i keeps
        // weight_i / (i+1)^0.5 so earlier families dominate gently.
        let weights: Vec<f64> = families
            .iter()
            .enumerate()
            .map(|(i, f)| f.weight / ((i + 1) as f64).sqrt())
            .collect();
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let total = *cumulative.last().expect("non-empty family list");

        for _ in 0..count {
            let x = rng.gen_range(0.0..total);
            let fi = cumulative
                .partition_point(|&c| c <= x)
                .min(families.len() - 1);
            let fam = &families[fi];
            let tmpl = fam.templates[rng.gen_range(0..fam.templates.len())];
            rows.push((self.fill(tmpl, rng), label, base + fi as u16));
        }
    }

    /// Replace `{BANK}` slots with uniformly drawn entries.
    fn fill(&self, template: &str, rng: &mut StdRng) -> String {
        let mut out = String::with_capacity(template.len() + 16);
        for (i, part) in template.split_whitespace().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            if let Some(name) = part.strip_prefix('{').and_then(|p| p.strip_suffix('}')) {
                let bank = self
                    .banks
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("dataset {}: unknown bank {{{name}}}", self.name));
                out.push_str(bank.1[rng.gen_range(0..bank.1.len())]);
            } else {
                out.push_str(part);
            }
        }
        out
    }
}

fn num_threads(n: usize) -> usize {
    if n >= 50_000 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(8)
    } else {
        1
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    static BANKS: &[Bank] = &[("X", &["alpha", "beta"]), ("Y", &["one", "two", "three"])];
    static POS: &[Family] = &[
        Family {
            key: "p1",
            weight: 3.0,
            templates: &["good {X} thing", "nice {X} stuff"],
        },
        Family {
            key: "p2",
            weight: 1.0,
            templates: &["great {Y} item"],
        },
    ];
    static NEG: &[Family] = &[Family {
        key: "n1",
        weight: 1.0,
        templates: &["bad {X} thing about {Y}"],
    }];

    fn spec() -> Spec {
        Spec {
            name: "toy",
            task: Task::Intents,
            positive_rate: 0.25,
            pos_families: POS,
            neg_families: NEG,
            banks: BANKS,
            keywords: &["good"],
            seed_rules: &["good"],
        }
    }

    #[test]
    fn respects_size_and_rate() {
        let d = spec().generate(400, 1);
        assert_eq!(d.len(), 400);
        assert_eq!(d.positives(), 100);
        let s = d.stats();
        assert!((s.positive_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = spec().generate(100, 5);
        let b = spec().generate(100, 5);
        for i in 0..100u32 {
            assert_eq!(a.corpus.text(i), b.corpus.text(i));
            assert_eq!(a.labels[i as usize], b.labels[i as usize]);
        }
        let c = spec().generate(100, 6);
        let differs = (0..100u32).any(|i| a.corpus.text(i) != c.corpus.text(i));
        assert!(differs);
    }

    #[test]
    fn streamed_is_deterministic_and_matches_rate() {
        let a = spec().generate_streamed(400, 9);
        assert_eq!(a.len(), 400);
        assert_eq!(a.positives(), spec().generate(400, 9).positives());
        let b = spec().generate_streamed(400, 9);
        for i in 0..400u32 {
            assert_eq!(a.corpus.text(i), b.corpus.text(i));
            assert_eq!(a.labels[i as usize], b.labels[i as usize]);
            assert_eq!(a.family[i as usize], b.family[i as usize]);
        }
        let c = spec().generate_streamed(400, 10);
        assert!((0..400u32).any(|i| a.corpus.text(i) != c.corpus.text(i)));
    }

    /// Positive quotas telescope exactly across block boundaries: a size
    /// past one GEN_CHUNK still lands the rounded global positive count.
    #[test]
    fn streamed_quota_telescopes_across_blocks() {
        let n = GEN_CHUNK + 4_000;
        let d = spec().generate_streamed(n, 3);
        assert_eq!(d.len(), n);
        assert_eq!(d.positives(), ((n as f64) * 0.25).round() as usize);
        // Every slot filled, same as the in-memory generator.
        for i in (0..n as u32).step_by(977) {
            assert!(!d.corpus.text(i).contains('{'));
        }
    }

    #[test]
    fn family_ids_match_labels() {
        let d = spec().generate(300, 2);
        for i in 0..d.len() {
            let fam = d.family_names[d.family[i] as usize];
            let is_pos_family = fam.starts_with('p');
            assert_eq!(d.labels[i], is_pos_family, "family {fam}");
        }
    }

    #[test]
    fn slots_are_filled() {
        let d = spec().generate(200, 3);
        for i in 0..d.len() as u32 {
            let t = d.corpus.text(i);
            assert!(!t.contains('{'), "unfilled slot in {t}");
        }
    }

    #[test]
    fn earlier_families_dominate() {
        let d = spec().generate(2000, 4);
        let p1 = d
            .family
            .iter()
            .filter(|&&f| d.family_names[f as usize] == "p1")
            .count();
        let p2 = d
            .family
            .iter()
            .filter(|&&f| d.family_names[f as usize] == "p2")
            .count();
        assert!(p1 > p2 * 2, "p1={p1} p2={p2}");
    }
}
