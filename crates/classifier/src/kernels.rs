//! Chunked f32 kernels shared by every scoring path.
//!
//! The repo's signature invariant — every fast path replays the reference
//! trace bit for bit — makes "equivalent" arithmetic a trap: two dot
//! products that merely compute the same real number can differ in their
//! f32 rounding. These kernels resolve that by construction: there is
//! exactly one implementation of each inner loop, with a *fixed* lane
//! count and reduction order, and the scalar per-id paths, the blocked
//! batch paths and the training loops all call it. Batching, sharding and
//! threading then change only *which buffers* feed the kernel, never the
//! arithmetic. ([`dot_f32_nonzeros`] is not a second dot product: it
//! drives [`dot_f32`]'s reduction tree from a sparse operand, and is the
//! one definition of that.)
//!
//! The shapes are chosen for auto-vectorization, not explicit SIMD: eight
//! independent accumulators over `chunks_exact(8)` give the optimizer a
//! branch-free, alias-free body it lowers to packed multiply-adds on any
//! target, while the fixed pairwise combine at the end keeps the result
//! deterministic across targets and optimization levels (f32 addition is
//! evaluated exactly as written; Rust never licenses reassociation).

/// Lane width of [`dot_f32`]. Part of the numeric contract: changing it
/// changes the reduction tree and therefore every score in the system.
pub const DOT_LANES: usize = 8;

/// Dot product over the common prefix of `a` and `b` (shorter slice
/// wins), with a fixed 8-lane accumulation and pairwise combine.
///
/// NaN and infinity propagate as IEEE-754 dictates; empty input gives
/// `0.0`.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; DOT_LANES];
    let mut ca = a.chunks_exact(DOT_LANES);
    let mut cb = b.chunks_exact(DOT_LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for lane in 0..DOT_LANES {
            acc[lane] += xa[lane] * xb[lane];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    combine(acc, tail)
}

/// Fixed pairwise reduction: ((0+1)+(2+3)) + ((4+5)+(6+7)), then tail.
#[inline]
fn combine(acc: [f32; DOT_LANES], tail: f32) -> f32 {
    let lo = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let hi = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    (lo + hi) + tail
}

/// [`dot_f32`] over two `len`-long vectors, given only the positions where
/// the second is non-zero: `terms` yields `(index, a[index], b[index])`
/// in ascending `index`, and may include positions where `b` is zero.
///
/// This replays the dense kernel's reduction tree — product `index` goes
/// to accumulator `index % DOT_LANES`, positions in the remainder past the
/// last full chunk go to the sequential tail, then the same fixed combine
/// — so the result equals `dot_f32(a, b)` bit for bit whenever every
/// skipped `a[index]` is finite: a skipped term is `a·0.0 = ±0.0`, and
/// adding `±0.0` to an accumulator that is `+0.0` or non-zero (it starts
/// at `+0.0`, and a sum is `-0.0` only when both operands are) is the
/// identity.
#[inline]
pub fn dot_f32_nonzeros(len: usize, terms: impl Iterator<Item = (usize, f32, f32)>) -> f32 {
    let body = len - len % DOT_LANES;
    let mut acc = [0.0f32; DOT_LANES];
    let mut tail = 0.0f32;
    terms.for_each(|(i, x, y)| {
        debug_assert!(i < len);
        if i < body {
            acc[i % DOT_LANES] += x * y;
        } else {
            tail += x * y;
        }
    });
    combine(acc, tail)
}

/// `bias + dot_f32(w, x)` — the convolution-window / dense-layer kernel.
/// One definition so the CNN's forward pass is the same arithmetic
/// whether it runs per id, batched, or inside training.
#[inline]
pub fn affine_f32(bias: f32, w: &[f32], x: &[f32]) -> f32 {
    bias + dot_f32(w, x)
}

/// Sparse dot: `Σ w[idx[k]] * val[k]`, accumulated sequentially in `k`
/// order. The bag-of-words half of the blocked logistic-regression score;
/// `idx` entries must be in bounds of `w`.
#[inline]
pub fn sparse_dot_f32(w: &[f32], idx: &[u32], val: &[f32]) -> f32 {
    let mut z = 0.0f32;
    for (&i, &v) in idx.iter().zip(val) {
        z += w[i as usize] * v;
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_dot(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum::<f64>()
    }

    #[test]
    fn matches_reference_within_f32_tolerance() {
        let a: Vec<f32> = (0..131)
            .map(|i| ((i * 37) % 19) as f32 * 0.25 - 2.0)
            .collect();
        let b: Vec<f32> = (0..131)
            .map(|i| ((i * 11) % 23) as f32 * 0.5 - 5.0)
            .collect();
        let got = dot_f32(&a, &b) as f64;
        let want = reference_dot(&a, &b);
        assert!(
            (got - want).abs() < 1e-3 * (1.0 + want.abs()),
            "{got} vs {want}"
        );
    }

    #[test]
    fn deterministic_across_calls_and_lengths() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 64, 100] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
            assert_eq!(dot_f32(&a, &b), dot_f32(&a, &b), "n={n}");
        }
    }

    #[test]
    fn empty_and_mismatched_lengths() {
        assert_eq!(dot_f32(&[], &[]), 0.0);
        assert_eq!(dot_f32(&[1.0, 2.0], &[]), 0.0);
        // Shorter slice wins: only the common prefix contributes.
        assert_eq!(dot_f32(&[2.0, 3.0, 100.0], &[4.0, 5.0]), 23.0);
        assert_eq!(dot_f32(&[2.0, 3.0], &[4.0, 5.0, 100.0]), 23.0);
    }

    #[test]
    fn nan_and_infinity_propagate() {
        let mut a = vec![1.0f32; 20];
        let b = vec![1.0f32; 20];
        a[13] = f32::NAN;
        assert!(dot_f32(&a, &b).is_nan());
        a[13] = f32::INFINITY;
        assert_eq!(dot_f32(&a, &b), f32::INFINITY);
    }

    /// The non-zeros replay against the dense kernel on the expanded
    /// vector, for lengths whose remainder is 0, 1 and 5 lanes, with
    /// non-zeros in the body, on both sides of the body/remainder seam and
    /// (where there is one) throughout the remainder. Weights are
    /// sign-mixed so skipped terms are both `+0.0` and `-0.0`.
    #[test]
    fn nonzeros_replay_equals_dense_dot_bit_for_bit() {
        for len in [64usize, 65, 69, 4129] {
            let body = len - len % DOT_LANES;
            let a: Vec<f32> = (0..len)
                .map(|i| (((i * 2654435761) % 1000) as f32 / 500.0) - 1.0)
                .collect();
            let mut nz: Vec<usize> = vec![0, 3, 8, 11, 12, 40, body - 1];
            nz.extend(body..len);
            let mut b = vec![0.0f32; len];
            for &i in &nz {
                b[i] = ((i % 7) as f32 + 1.0) * -0.37;
            }
            let want = dot_f32(&a, &b);
            let got = dot_f32_nonzeros(len, nz.iter().map(|&i| (i, a[i], b[i])));
            assert_eq!(got.to_bits(), want.to_bits(), "len {len}: {got} vs {want}");
            // Yielding a zero position is allowed: it is the dense term.
            let with_zero = [1usize].iter().chain(&nz[1..]);
            let got = dot_f32_nonzeros(len, with_zero.map(|&i| (i, a[i], b[i])));
            let mut b1 = b.clone();
            b1[0] = 0.0;
            assert_eq!(got.to_bits(), dot_f32(&a, &b1).to_bits(), "len {len}");
        }
        assert_eq!(dot_f32_nonzeros(0, std::iter::empty()).to_bits(), 0);
        assert_eq!(dot_f32_nonzeros(9, std::iter::empty()).to_bits(), 0);
    }

    #[test]
    fn affine_adds_bias() {
        assert_eq!(affine_f32(1.5, &[2.0], &[3.0]), 7.5);
        assert_eq!(affine_f32(0.25, &[], &[]), 0.25);
    }

    #[test]
    fn sparse_dot_accumulates_in_index_order() {
        let w = [0.0f32, 10.0, 20.0, 30.0];
        assert_eq!(sparse_dot_f32(&w, &[3, 1], &[2.0, 0.5]), 65.0);
        assert_eq!(sparse_dot_f32(&w, &[], &[]), 0.0);
    }

    #[test]
    fn sparse_dot_propagates_nan() {
        let w = [1.0f32, f32::NAN];
        assert!(sparse_dot_f32(&w, &[0, 1], &[1.0, 1.0]).is_nan());
    }
}
