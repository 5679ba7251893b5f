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
//! drives [`dot_f32`]'s reduction tree from a dense prefix and a sparse
//! rest, and is the one definition of that. Nor is [`affine_rows_f32`] a
//! second affine: it runs [`affine_f32`]'s reduction for several weight
//! rows against one input in step, each row's sum untouched, and is the
//! one definition of *that* — the CNN's convolution and its first dense
//! layer.)
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
    let mut acc = [0.0f32; DOT_LANES];
    let (ra, rb) = chunk_body(&mut acc, &a[..n], &b[..n]);
    let mut tail = 0.0f32;
    for (x, y) in ra.iter().zip(rb) {
        tail += x * y;
    }
    combine(acc, tail)
}

/// [`dot_f32`]'s packed body: the products of each whole `DOT_LANES`
/// chunk of `a` and `b` (same length), lane `k` into `acc[k]`, chunk by
/// chunk. Returns what is left past the last whole chunk.
#[inline(always)]
fn chunk_body<'a>(
    acc: &mut [f32; DOT_LANES],
    a: &'a [f32],
    b: &'a [f32],
) -> (&'a [f32], &'a [f32]) {
    let mut ca = a.chunks_exact(DOT_LANES);
    let mut cb = b.chunks_exact(DOT_LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for lane in 0..DOT_LANES {
            acc[lane] += xa[lane] * xb[lane];
        }
    }
    (ca.remainder(), cb.remainder())
}

/// Fixed pairwise reduction: ((0+1)+(2+3)) + ((4+5)+(6+7)), then tail.
#[inline]
fn combine(acc: [f32; DOT_LANES], tail: f32) -> f32 {
    let lo = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let hi = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    (lo + hi) + tail
}

/// [`dot_f32`] over two `len`-long vectors `a` and `b`, given a dense
/// prefix and then only the positions where `b` is non-zero: `prefix` is
/// `(a[..p], b[..p])`, and `terms` yields `(index, a[index], b[index])`
/// for positions from `p` on, in ascending `index`, and may include
/// positions where `b` is zero.
///
/// This replays the dense kernel's reduction tree — product `index` goes
/// to accumulator `index % DOT_LANES`, positions in the remainder past the
/// last full chunk go to the sequential tail, then the same fixed combine
/// — so the result equals `dot_f32(a, b)` bit for bit whenever every
/// skipped `a[index]` is finite: a skipped term is `a·0.0 = ±0.0`, and
/// adding `±0.0` to an accumulator that is `+0.0` or non-zero (it starts
/// at `+0.0`, and a sum is `-0.0` only when both operands are) is the
/// identity. The prefix's whole chunks run [`dot_f32`]'s own packed body
/// (they are chunks of `a` and `b` too, so each accumulator still takes
/// its products in ascending `index`); its last `p % DOT_LANES` lanes go
/// by index like the terms.
#[inline]
pub fn dot_f32_nonzeros(
    len: usize,
    prefix: (&[f32], &[f32]),
    terms: impl Iterator<Item = (usize, f32, f32)>,
) -> f32 {
    let (pa, pb) = prefix;
    assert!(pa.len() == pb.len() && pa.len() <= len, "prefix within len");
    let body = len - len % DOT_LANES;
    let mut acc = [0.0f32; DOT_LANES];
    let (ra, rb) = chunk_body(&mut acc, pa, pb);
    let rest = (pa.len() - ra.len()..).zip(ra.iter().zip(rb));
    let mut tail = 0.0f32;
    rest.map(|(i, (&x, &y))| (i, x, y))
        .chain(terms)
        .for_each(|(i, x, y)| {
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

/// Rows whose accumulator chains [`affine_rows_f32`] keeps in flight
/// together. Not part of the numeric contract: each row's sum is
/// [`affine_f32`]'s whatever this is.
const ROW_GROUP: usize = 4;

/// The multi-row form of [`affine_f32`]: for every `r`,
/// `out[r] = affine_f32(bias[r], &w[r * stride..(r + 1) * stride], x)`,
/// bit for bit — all filters of one width on one window, or a dense
/// layer on its input.
///
/// One [`dot_f32`] is a single dependent add chain per lane, so a lone row
/// waits on add latency. Here `ROW_GROUP` (four) rows advance through `x` in
/// step: every row still adds its own products in [`dot_f32`]'s order into
/// its own eight lanes, runs the same sequential tail and the same
/// `combine` — only which independent chains are in flight changes, never
/// a sum. Rows past the last full group go through [`affine_f32`] itself.
pub fn affine_rows_f32(bias: &[f32], w: &[f32], stride: usize, x: &[f32], out: &mut [f32]) {
    let rows = out.len();
    assert!(bias.len() == rows && w.len() == rows * stride);
    // Shorter operand wins, as in `dot_f32`.
    let n = stride.min(x.len());
    let x = &x[..n];
    let grouped = rows - rows % ROW_GROUP;
    let body = n - n % DOT_LANES;
    for r in (0..grouped).step_by(ROW_GROUP) {
        let ws: [&[f32]; ROW_GROUP] = std::array::from_fn(|k| &w[(r + k) * stride..][..n]);
        let mut acc = [[0.0f32; DOT_LANES]; ROW_GROUP];
        for i in (0..body).step_by(DOT_LANES) {
            let xc = &x[i..i + DOT_LANES];
            for k in 0..ROW_GROUP {
                let wc = &ws[k][i..i + DOT_LANES];
                for lane in 0..DOT_LANES {
                    acc[k][lane] += wc[lane] * xc[lane];
                }
            }
        }
        for k in 0..ROW_GROUP {
            out[r + k] = bias[r + k] + finish_row(acc[k], &ws[k][body..], &x[body..]);
        }
    }
    for r in grouped..rows {
        out[r] = affine_f32(bias[r], &w[r * stride..(r + 1) * stride], x);
    }
}

/// A grouped row's epilogue: [`dot_f32`]'s sequential tail and `combine`.
/// Out of line so the optimizer lowers the group's body row by row
/// (contiguous loads) instead of transposing the rows' lanes to run their
/// reduction trees side by side — measured 1.7× on the whole kernel; the
/// sums are the same either way.
#[inline(never)]
fn finish_row(acc: [f32; DOT_LANES], w_tail: &[f32], x_tail: &[f32]) -> f32 {
    let mut tail = 0.0f32;
    for (wv, xv) in w_tail.iter().zip(x_tail) {
        tail += wv * xv;
    }
    combine(acc, tail)
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
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
    /// vector, for lengths whose remainder is 0 (the last position lands
    /// in the body), 1 and 5 lanes, with non-zeros in the body, on both
    /// sides of the body/remainder seam and (where there is one)
    /// throughout the remainder, behind dense prefixes of 0, 5, 8, 32 and
    /// 33 lanes. Weights are sign-mixed so skipped terms are both `+0.0`
    /// and `-0.0`.
    #[test]
    fn nonzeros_replay_equals_dense_dot_bit_for_bit() {
        for len in [64usize, 65, 69, 4129] {
            let body = len - len % DOT_LANES;
            let a: Vec<f32> = (0..len)
                .map(|i| (((i * 2654435761) % 1000) as f32 / 500.0) - 1.0)
                .collect();
            // Non-zeros at a few body positions, on both sides of the seam
            // and throughout the remainder; the first 33 lanes (the dense
            // prefixes) hold their own zeros too.
            let seam = [0, 3, 8, 11, 12, 40, body - 1];
            let b: Vec<f32> = (0..len)
                .map(|i| {
                    let hit = seam.contains(&i) || i >= body || (i < 33 && i % 4 != 1);
                    if hit {
                        ((i % 7) as f32 + 1.0) * -0.37
                    } else {
                        0.0
                    }
                })
                .collect();
            let nz: Vec<usize> = (0..len).filter(|&i| b[i] != 0.0).collect();
            for p in [0usize, 5, 8, 32, 33] {
                let what = format!("len {len} prefix {p}");
                let terms = nz.iter().filter(|&&i| i >= p);
                let prefix = (&a[..p], &b[..p]);
                let want = dot_f32(&a, &b);
                let got = dot_f32_nonzeros(len, prefix, terms.map(|&i| (i, a[i], b[i])));
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
                // Yielding a zero position is allowed: it is the dense term.
                let z = p + 1;
                let mut b1 = b.clone();
                b1[z] = 0.0;
                let mut ids: Vec<usize> = nz.iter().copied().filter(|&i| i >= p).collect();
                ids.push(z);
                ids.sort_unstable();
                ids.dedup();
                let got = dot_f32_nonzeros(len, prefix, ids.iter().map(|&i| (i, a[i], b1[i])));
                assert_eq!(got.to_bits(), dot_f32(&a, &b1).to_bits(), "{what}");
            }
            // The whole vector as a prefix is the dense kernel.
            let got = dot_f32_nonzeros(len, (&a, &b), std::iter::empty());
            assert_eq!(got.to_bits(), dot_f32(&a, &b).to_bits(), "len {len}");
        }
        let none = (&[][..], &[][..]);
        assert_eq!(dot_f32_nonzeros(0, none, std::iter::empty()).to_bits(), 0);
        assert_eq!(dot_f32_nonzeros(9, none, std::iter::empty()).to_bits(), 0);
    }

    #[test]
    fn affine_adds_bias() {
        assert_eq!(affine_f32(1.5, &[2.0], &[3.0]), 7.5);
        assert_eq!(affine_f32(0.25, &[], &[]), 0.25);
    }

    /// Both NaN, or the same bits.
    fn same_f32(a: f32, b: f32) -> bool {
        (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
    }

    /// `affine_rows_f32` against `affine_f32` row by row.
    fn assert_rows_match(bias: &[f32], w: &[f32], stride: usize, x: &[f32]) {
        let mut out = vec![f32::NAN; bias.len()];
        affine_rows_f32(bias, w, stride, x, &mut out);
        for (r, &got) in out.iter().enumerate() {
            let want = affine_f32(bias[r], &w[r * stride..(r + 1) * stride], x);
            assert!(
                same_f32(got, want),
                "stride {stride} x {} row {r}/{}: {got} vs {want}",
                x.len(),
                bias.len()
            );
        }
    }

    /// The multi-row kernel equals per-row `affine_f32` by bits: window
    /// lengths with and without tail lanes (dims 5, 8, 12, 32 × widths
    /// 1..=4), row counts on both sides of a multiple of four, sign-mixed
    /// weights, an input shorter than the rows (shorter operand wins), and
    /// NaN/∞ weights landing in the body, the tail, grouped and leftover
    /// rows.
    #[test]
    fn multi_row_affine_equals_per_row_affine_bit_for_bit() {
        for dim in [5usize, 8, 12, 32] {
            for width in 1..=4 {
                let stride = dim * width;
                for rows in [0usize, 1, 3, 4, 5, 12, 14] {
                    let w: Vec<f32> = (0..rows * stride)
                        .map(|i| (((i * 2654435761) % 1000) as f32 / 500.0) - 1.0)
                        .collect();
                    let bias: Vec<f32> = (0..rows).map(|r| r as f32 * 0.125 - 0.5).collect();
                    let x: Vec<f32> = (0..stride).map(|i| (i as f32 * 0.7).sin()).collect();
                    assert_rows_match(&bias, &w, stride, &x);
                    assert_rows_match(&bias, &w, stride, &x[..stride - dim]);
                    assert_rows_match(&bias, &w, stride, &[]);
                    for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                        for at in [0, stride - 1, w.len().saturating_sub(1), w.len() / 2] {
                            if at < w.len() {
                                let mut w = w.clone();
                                w[at] = special;
                                assert_rows_match(&bias, &w, stride, &x);
                            }
                        }
                    }
                }
            }
        }
    }

    proptest! {
        // Release runs (CI) take the raised case count.
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 64 } else { 2000 },
            ..Default::default()
        })]

        #[test]
        fn multi_row_affine_equals_per_row_affine_on_random_shapes(
            rows in 0usize..15,
            stride in 0usize..70,
            short in 0usize..9,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut draw = |n: usize| -> Vec<f32> {
                (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
            };
            let (bias, w) = (draw(rows), draw(rows * stride));
            let x = draw(stride.saturating_sub(short));
            assert_rows_match(&bias, &w, stride, &x);
        }
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
