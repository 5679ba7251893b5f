//! Order statistics the benchmark reports: medians, the pinned tail
//! percentile and the rule that pins it.

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// The `pct`-th percentile of an ascending sample by nearest rank
/// (`pct` in 0..=100). Empty samples read 0.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct`-th percentile among `n >= 1` samples.
/// The epsilon keeps products that are whole in exact arithmetic (80 % of
/// 50) from being rounded up a rank by floating-point error.
fn rank(n: usize, pct: f64) -> usize {
    (((pct / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Samples strictly beyond the nearest-rank `pct`-th percentile of `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// The tail percentile a sample of `n` supports: p90 from 100 samples up,
/// otherwise the highest whole percentile that still leaves ten samples
/// beyond it. Below 20 samples such a percentile would sit under the
/// median, so no tail can be claimed and the rule falls back to p50.
pub fn tail_percentile(n: usize) -> f64 {
    if n >= 100 {
        return 90.0;
    }
    if n < 20 {
        return 50.0;
    }
    (100.0 * (n - 10) as f64 / n as f64).floor()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(5000), 90.0);
        // 50 samples: p80 leaves exactly ten beyond it.
        assert_eq!(tail_percentile(50), 80.0);
        assert_eq!(samples_beyond(50, 80.0), 10);
        // 84 samples: floor(100 * 74 / 84) = 88, eleven beyond.
        assert_eq!(tail_percentile(84), 88.0);
        assert!(samples_beyond(84, 88.0) >= 10);
        for n in 20..100 {
            assert!(
                samples_beyond(n, tail_percentile(n)) >= 10,
                "n = {n} leaves fewer than ten beyond"
            );
            assert!(tail_percentile(n) >= 50.0);
        }
    }

    #[test]
    fn tail_rule_falls_back_to_the_median_under_twenty_samples() {
        for n in 0..20 {
            assert_eq!(tail_percentile(n), 50.0, "n = {n}");
        }
    }
}
