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
//! rest, and is the one definition of that. Nor is [`affine_outputs_f32`]
//! a second affine: it runs [`affine_f32`]'s reduction for several outputs
//! of one input side by side, one output per vector lane, each output's
//! sum untouched, and is the one definition of *that* — the CNN's
//! convolution and its first dense layer, whose weights are stored in its
//! [`output_slot`] layout.)
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

/// Where [`affine_outputs_f32`] keeps the weight of output `o` on input `i`,
/// in a tensor of `outs` outputs of `inputs` inputs each: input-major within
/// each group of outputs it computes side by side (see
/// [`output_groups`]), the groups one after another.
#[inline]
pub fn output_slot(inputs: usize, outs: usize, i: usize, o: usize) -> usize {
    let (o0, g) = output_groups(outs)
        .find(|&(o0, g)| o < o0 + g)
        .expect("output in range");
    o0 * inputs + i * g + (o - o0)
}

/// The groups of outputs [`affine_outputs_f32`] computes side by side, as
/// `(first output, outputs)`: eights while eight are left, then a four,
/// then ones. Group `(o0, g)`'s weights are `inputs × g` from
/// `o0 · inputs` on, a row of `g` per input.
pub fn output_groups(outs: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut o0 = 0;
    std::iter::from_fn(move || {
        let g = match outs - o0 {
            0 => return None,
            8.. => 8,
            4..=7 => 4,
            _ => 1,
        };
        o0 += g;
        Some((o0 - g, g))
    })
}

/// The multi-output form of [`affine_f32`]: for each of `out.len()`
/// outputs `o`, `out[o] = affine_f32(bias[o], &w_o, x)` bit for bit, where
/// `w_o` is output `o`'s `inputs` weights, kept at
/// [`output_slot`]`(inputs, outs, i, o)`. All filters of one width on one
/// window, or a dense layer on its input.
///
/// The outputs sit in the lanes: a group of outputs (see
/// [`output_groups`]) goes through `x` together, each input element
/// broadcast against the contiguous row of the group's weights on it.
/// Each output keeps [`dot_f32`]'s own eight accumulators, its sequential
/// tail and its `combine`, side by side with the rest of its group, and
/// adds its products into them in [`dot_f32`]'s order — so the sums are
/// the per-row sums, while no output needs a horizontal reduction.
/// Shorter operand wins, as in `dot_f32`: inputs past the end of `x` are
/// left out.
#[inline(always)]
pub fn affine_outputs_f32(bias: &[f32], w: &[f32], inputs: usize, x: &[f32], out: &mut [f32]) {
    let outs = out.len();
    assert!(bias.len() == outs && w.len() == inputs * outs);
    let x = &x[..inputs.min(x.len())];
    for (o0, g) in output_groups(outs) {
        let (b, w, out) = (&bias[o0..], &w[o0 * inputs..], &mut out[o0..]);
        match g {
            8 => affine_group::<8>(b, w, x, out),
            4 => affine_group::<4>(b, w, x, out),
            _ => affine_group::<1>(b, w, x, out),
        }
    }
}

/// One group of [`affine_outputs_f32`]: the first `G` outputs of `out`
/// from the rows of `G` weights that `w` starts with, one per input of
/// `x`. Accumulator `[lane][g]` is output `g`'s [`dot_f32`] lane `lane`.
#[inline(always)]
fn affine_group<const G: usize>(bias: &[f32], w: &[f32], x: &[f32], out: &mut [f32]) {
    let body = x.len() - x.len() % DOT_LANES;
    let (wb, wt) = w[..x.len() * G].split_at(body * G);
    let mut acc = [[0.0f32; G]; DOT_LANES];
    for (wc, xc) in wb
        .chunks_exact(DOT_LANES * G)
        .zip(x.chunks_exact(DOT_LANES))
    {
        // Written out lane by lane: the accumulators stay in registers.
        let [a0, a1, a2, a3, a4, a5, a6, a7] = &mut acc;
        axpy(a0, &wc[..G], xc[0]);
        axpy(a1, &wc[G..2 * G], xc[1]);
        axpy(a2, &wc[2 * G..3 * G], xc[2]);
        axpy(a3, &wc[3 * G..4 * G], xc[3]);
        axpy(a4, &wc[4 * G..5 * G], xc[4]);
        axpy(a5, &wc[5 * G..6 * G], xc[5]);
        axpy(a6, &wc[6 * G..7 * G], xc[6]);
        axpy(a7, &wc[7 * G..], xc[7]);
    }
    let mut tail = [0.0f32; G];
    for (wr, &xv) in wt.chunks_exact(G).zip(&x[body..]) {
        for g in 0..G {
            tail[g] += wr[g] * xv;
        }
    }
    for g in 0..G {
        let lanes = std::array::from_fn(|lane| acc[lane][g]);
        out[g] = bias[g] + combine(lanes, tail[g]);
    }
}

/// `acc[g] += w[g]·x` for each of the `G` outputs of a group.
#[inline(always)]
fn axpy<const G: usize>(acc: &mut [f32; G], w: &[f32], x: f32) {
    for (a, &wv) in acc.iter_mut().zip(&w[..G]) {
        *a += wv * x;
    }
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
    use crate::adam::LaneLoop;
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

    /// [`affine_outputs_f32`] compiled for AVX2, as the CNN's training
    /// instance compiles it.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn affine_outputs_avx2(bias: &[f32], w: &[f32], inputs: usize, x: &[f32], out: &mut [f32]) {
        affine_outputs_f32(bias, w, inputs, x, out)
    }

    /// `affine_outputs_f32` through the instance `lanes` names.
    fn affine_outputs_in(
        lanes: LaneLoop,
        bias: &[f32],
        w: &[f32],
        inputs: usize,
        x: &[f32],
        out: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if lanes.avx2() {
            // SAFETY: `avx2` is set only by `LaneLoop::detect`, after
            // `is_x86_feature_detected!("avx2")` returned true.
            unsafe { affine_outputs_avx2(bias, w, inputs, x, out) };
            return;
        }
        affine_outputs_f32(bias, w, inputs, x, out)
    }

    /// `affine_outputs_f32`, through the instance `lanes` names, against
    /// `affine_f32` on each output's weights gathered from their slots.
    fn assert_outputs_match(lanes: LaneLoop, bias: &[f32], w: &[f32], inputs: usize, x: &[f32]) {
        let outs = bias.len();
        let mut out = vec![f32::NAN; outs];
        affine_outputs_in(lanes, bias, w, inputs, x, &mut out);
        for (o, &got) in out.iter().enumerate() {
            let row: Vec<f32> = (0..inputs)
                .map(|i| w[output_slot(inputs, outs, i, o)])
                .collect();
            let want = affine_f32(bias[o], &row, x);
            assert!(
                same_f32(got, want),
                "inputs {inputs} x {} output {o}/{outs}: {got} vs {want}",
                x.len(),
            );
        }
    }

    /// Output counts on both sides of every group boundary (8, then 4,
    /// then 1).
    const OUTS: [usize; 11] = [0, 1, 3, 4, 5, 7, 8, 9, 12, 13, 24];

    /// The multi-output kernel equals per-row `affine_f32` by bits, in
    /// every instance the host runs: window lengths with and without tail
    /// lanes (dims 5, 8, 12, 32 × widths 1..=4), the output counts of
    /// `OUTS`, sign-mixed weights, an input shorter than the rows (shorter
    /// operand wins) and an empty one, and NaN/±∞ weights landing in the
    /// body, the tail, and every kind of group.
    #[test]
    fn multi_output_affine_equals_per_row_affine_bit_for_bit() {
        for (_, lanes) in LaneLoop::host_instances() {
            for dim in [5usize, 8, 12, 32] {
                for width in 1..=4 {
                    let inputs = dim * width;
                    for outs in OUTS {
                        let w: Vec<f32> = (0..inputs * outs)
                            .map(|i| (((i * 2654435761) % 1000) as f32 / 500.0) - 1.0)
                            .collect();
                        let bias: Vec<f32> = (0..outs).map(|o| o as f32 * 0.125 - 0.5).collect();
                        let x: Vec<f32> = (0..inputs).map(|i| (i as f32 * 0.7).sin()).collect();
                        let check =
                            |w: &[f32], x: &[f32]| assert_outputs_match(lanes, &bias, w, inputs, x);
                        check(&w, &x);
                        check(&w, &x[..inputs - dim]);
                        check(&w, &[]);
                        let edges = |n: usize| [0, n / 2, n.saturating_sub(1)];
                        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                            for o in edges(outs).into_iter().filter(|&o| o < outs) {
                                for i in edges(inputs) {
                                    let mut w = w.clone();
                                    w[output_slot(inputs, outs, i, o)] = special;
                                    check(&w, &x);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The layout is a permutation, grouped as the kernel computes: eights
    /// while eight are left, then a four, then ones, each group's weights
    /// one contiguous block of a row per input.
    #[test]
    fn output_slots_permute_the_tensor_group_by_group() {
        for outs in OUTS.into_iter().chain([2, 11, 16, 36]) {
            let widths: Vec<usize> = output_groups(outs).map(|(_, g)| g).collect();
            let eights = outs / 8;
            let four = usize::from(outs % 8 >= 4);
            let mut want = vec![8; eights];
            want.extend(std::iter::repeat_n(4, four));
            want.extend(std::iter::repeat_n(1, outs - 8 * eights - 4 * four));
            assert_eq!(widths, want, "outs {outs}");
            for inputs in [0usize, 1, 5, 32] {
                let mut seen = vec![false; inputs * outs];
                for (o0, g) in output_groups(outs) {
                    for i in 0..inputs {
                        for k in 0..g {
                            let at = output_slot(inputs, outs, i, o0 + k);
                            assert_eq!(at, o0 * inputs + i * g + k, "outs {outs} inputs {inputs}");
                            assert!(!std::mem::replace(&mut seen[at], true));
                        }
                    }
                }
                assert!(seen.iter().all(|&s| s));
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
        fn multi_output_affine_equals_per_row_affine_on_random_shapes(
            outs in 0usize..27,
            inputs in 0usize..70,
            short in 0usize..9,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut draw = |n: usize| -> Vec<f32> {
                (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
            };
            let (bias, w) = (draw(outs), draw(inputs * outs));
            let x = draw(inputs.saturating_sub(short));
            for (_, lanes) in LaneLoop::host_instances() {
                assert_outputs_match(lanes, &bias, &w, inputs, &x);
            }
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
