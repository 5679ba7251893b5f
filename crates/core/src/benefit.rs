//! Benefit scoring (paper §3.3).
//!
//! The benefit of heuristic `r` is the expected gain in the positive set:
//! `Σ_{s ∈ C_r \ P} p_s`, with `p_s` the classifier's positive probability.
//! The benefit *per new instance* gates UniversalSearch (rules whose
//! average is below 0.5 are expected to be mostly negative).
//!
//! ## Exact, order-independent sums
//!
//! The incremental engine maintains per-rule benefit sums by delta —
//! subtracting a sentence's contribution when `P` absorbs it, adding
//! `new − old` when the classifier re-scores it. Floating-point addition is
//! not associative, so f64 sums patched in delta order would drift from a
//! from-scratch recomputation by ULPs — enough to flip an argmax tie and
//! make delta-maintained selection ask something a from-scratch
//! [`benefit`] call would not. Scores are therefore
//! [quantized](quantize) to integer units of 2⁻³⁰ before summing: integer
//! addition is associative, so any update order produces bit-identical
//! sums, and a sum converts back to `f64` exactly (`i64 → f64` is exact
//! below 2⁵³, i.e. corpora up to ~8M sentences).

use darwin_index::IdSet;

/// Fixed-point scale for score sums: 2³⁰ units per probability point.
pub const SCORE_SCALE: f64 = (1u64 << 30) as f64;

/// Quantize one classifier score to fixed-point units.
#[inline]
pub fn quantize(score: f32) -> i64 {
    (score as f64 * SCORE_SCALE) as i64
}

/// Benefit of a rule given its postings, the current positive set and the
/// per-sentence scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Benefit {
    /// `Σ quantize(p_s)` over the new (not-yet-positive) covered sentences.
    pub sum_q: i64,
    /// Number of new sentences the rule would add.
    pub new_instances: usize,
}

impl Benefit {
    /// Total benefit `Σ p_s` in probability units.
    pub fn total(&self) -> f64 {
        self.sum_q as f64 / SCORE_SCALE
    }

    /// Benefit per new instance (0 when the rule adds nothing).
    pub fn average(&self) -> f64 {
        if self.new_instances == 0 {
            0.0
        } else {
            self.total() / self.new_instances as f64
        }
    }
}

/// Compute the benefit of a rule with coverage `postings` from scratch.
pub fn benefit(postings: &[u32], p: &IdSet, scores: &[f32]) -> Benefit {
    let mut sum_q = 0i64;
    let mut new_instances = 0usize;
    for &s in postings {
        if !p.contains(s) {
            sum_q += quantize(scores[s as usize]);
            new_instances += 1;
        }
    }
    Benefit {
        sum_q,
        new_instances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_new_instances() {
        let p = IdSet::from_ids(&[0, 1], 10);
        let scores = vec![0.9, 0.8, 0.7, 0.6, 0.5];
        let b = benefit(&[0, 1, 2, 3], &p, &scores);
        assert_eq!(b.new_instances, 2);
        assert!((b.total() - (0.7 + 0.6)).abs() < 1e-6);
        assert!((b.average() - 0.65).abs() < 1e-6);
    }

    #[test]
    fn fully_covered_rule_has_zero_benefit() {
        let p = IdSet::from_ids(&[0, 1, 2], 10);
        let scores = vec![1.0; 3];
        let b = benefit(&[0, 1, 2], &p, &scores);
        assert_eq!(b.new_instances, 0);
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.average(), 0.0);
    }

    #[test]
    fn empty_postings() {
        let p = IdSet::with_universe(4);
        let b = benefit(&[], &p, &[0.5; 4]);
        assert_eq!(b.new_instances, 0);
        assert_eq!(b.average(), 0.0);
    }

    #[test]
    fn quantized_sums_are_order_independent() {
        // The guarantee delta maintenance relies on: any order of adding
        // and removing contributions lands on the same integer.
        let scores: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).fract()).collect();
        let forward: i64 = scores.iter().map(|&s| quantize(s)).sum();
        let mut patched = forward;
        for &s in scores.iter().rev() {
            patched -= quantize(s);
        }
        for &s in &scores {
            patched += quantize(s);
        }
        assert_eq!(patched, forward);
    }
}
