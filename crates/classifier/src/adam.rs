//! Adam-optimized parameter tensors.
//!
//! The Adam lane expression is written once, `Adam::lane`, generic over
//! the arithmetic it runs in (`Arith`): plain `f32` in the zipped-slice
//! loops LLVM packs, and, for the lanes of a LogReg step's *zone* on the
//! AVX2 instance, `Wide`: four lanes whose every product, quotient, root
//! and sum is taken in f64 and rounded to f32 after each operation.
//!
//! The zone is there for microcode assists. On the x86 hosts measured, a
//! packed `vmulps`, `vdivps` or `vsqrtps` with a subnormal operand or
//! result costs ~34 ns instead of ~0.5 ns, once per instruction however
//! many of its lanes are subnormal (`vaddps`, `vsubps` and the f32 ↔ f64
//! conversions cost none). The Adam lanes of rarely touched bag-of-words
//! buckets decay toward zero between touches and meet such values; the
//! LogReg fit keeps them side by side (`Param::group_near_subnormal`)
//! and passes their count to `Param::grad_adam_step` as the zone. In f64
//! none of this arithmetic leaves the normal range, so the wide path pays
//! no assist, and it gives the f32 bits:
//!
//! * the product of two f32 values is exact in f64 (24 + 24 ≤ 53 bits),
//!   so rounding it once gives the f32 product;
//! * rounding +, −, ÷ and √ first to binary64 and then to binary32 is
//!   innocuous, since 53 ≥ 2·24 + 2;
//! * no f64 value here underflows or overflows (the smallest non-zero
//!   product of two f32 values is 2⁻²⁹⁸, the largest quotient 2²⁷⁷).
//!
//! (NaNs aside: where two NaN operands with different payloads meet,
//! which payload survives is the compiler's choice of operand order in
//! either path. A fit over finite data makes no NaN.)
//!
//! LLVM knows the second fact as well and folds `fptrunc(op(fpext a,
//! fpext b))` back into the f32 operation, assist included, so each f64
//! result passes through an empty `asm!` before it is rounded
//! (ARCHITECTURE.md "Subnormal operands in the optimizer").

use rand::rngs::SmallRng;
use rand::Rng;
use std::ops::{Add, Div, Mul, Range, Sub};

/// A flat parameter tensor with its gradient accumulator and Adam moments.
#[derive(Clone, Debug)]
pub struct Param {
    pub w: Vec<f32>,
    pub g: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Param {
    /// Zero-initialized parameters (biases).
    pub fn zeros(n: usize) -> Param {
        Param {
            w: vec![0.0; n],
            g: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Uniform Glorot-style initialization in `[-scale, scale]`.
    pub fn uniform(n: usize, scale: f32, rng: &mut SmallRng) -> Param {
        let w = (0..n).map(|_| rng.gen_range(-scale..scale)).collect();
        Param {
            w,
            g: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// [`Param::uniform`] with the `k`-th value drawn stored at `place(k)`,
    /// a permutation of `0..n`: the same values, in another layout.
    pub(crate) fn uniform_placed(
        n: usize,
        scale: f32,
        rng: &mut SmallRng,
        place: impl Fn(usize) -> usize,
    ) -> Param {
        let mut p = Param::zeros(n);
        for k in 0..n {
            p.w[place(k)] = rng.gen_range(-scale..scale);
        }
        p
    }

    pub fn len(&self) -> usize {
        self.w.len()
    }

    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Reset accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.g.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Reset weights, gradients and Adam moments to the all-zero state of
    /// [`Param::zeros`] without releasing the allocations — the warm-start
    /// training paths lean on this being *exactly* equivalent to building
    /// a fresh zero tensor.
    pub fn reset_zeros(&mut self) {
        self.w.iter_mut().for_each(|x| *x = 0.0);
        self.g.iter_mut().for_each(|x| *x = 0.0);
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
    }

    /// One Adam step over the accumulated gradient; `t` is the 1-based step
    /// counter shared across all parameters of the model.
    pub fn adam_step(&mut self, lr: f32, t: u32) {
        let k = Adam::new(lr, t);
        let lanes = self.w.iter_mut().zip(&mut self.m).zip(&mut self.v);
        for (((w, m), v), &g) in lanes.zip(&self.g) {
            k.lane::<0, f32>(w, m, v, g);
        }
    }

    /// The L2-regularised gradient and the Adam step in one pass: lane `i`
    /// takes the gradient `d·x[i] + λ·w[i]`, with `λ = l2[0]` below `split`
    /// and `l2[1]` from it on, and then the update [`Param::adam_step`]
    /// gives it with step constants `k`. Every lane evaluates the same f32
    /// expression in the same order and lanes never interact, so the result
    /// is bit for bit that of writing the gradient into `g` and calling
    /// `adam_step`; `g` itself is neither read nor written.
    ///
    /// Lanes `split..split + zone` are the zone: the AVX2 instance steps
    /// them in `Wide` arithmetic, which gives the same bits without the
    /// microcode assists near-subnormal values cost (module docs); the
    /// portable instance runs them through its ordinary loop. Either path
    /// is exact for any lane, so `zone` decides time, never bits.
    ///
    /// The instance of the lane loop is picked here: by how many of `k`'s
    /// bias corrections are exactly `1.0` (their divisions are dropped,
    /// see [`Adam::lane`]) and by `lanes`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn grad_adam_step(
        &mut self,
        x: &[f32],
        d: f32,
        split: usize,
        zone: usize,
        l2: [f32; 2],
        k: Adam,
        lanes: LaneLoop,
    ) {
        match k.saturated() {
            0 => self.grad_adam_step_with::<0>(x, d, split, zone, l2, k, lanes),
            1 => self.grad_adam_step_with::<1>(x, d, split, zone, l2, k, lanes),
            _ => self.grad_adam_step_with::<2>(x, d, split, zone, l2, k, lanes),
        }
    }

    /// [`Param::grad_adam_step`] through the lane loop instance that skips
    /// the first `SAT` bias corrections; legal when `SAT <= k.saturated()`.
    #[allow(clippy::too_many_arguments)]
    fn grad_adam_step_with<const SAT: u8>(
        &mut self,
        x: &[f32],
        d: f32,
        split: usize,
        zone: usize,
        l2: [f32; 2],
        k: Adam,
        lanes: LaneLoop,
    ) {
        let n = self.w.len();
        assert_eq!(x.len(), n, "one input per lane");
        debug_assert!(SAT <= k.saturated());
        // The zone runs in whole groups of four lanes: widened to them
        // where the tensor has room, narrowed where it has not. Either path
        // is exact for any lane, so this moves time, never bits.
        let zone_end = split + 4 * zone.div_ceil(4).min((n - split) / 4);
        let regions = [
            (0..split, l2[0], false),
            (split..zone_end, l2[1], true),
            (zone_end..n, l2[1], false),
        ];
        for (r, l2, in_zone) in regions {
            let (w, m, v) = (
                &mut self.w[r.clone()],
                &mut self.m[r.clone()],
                &mut self.v[r.clone()],
            );
            let x = &x[r];
            #[cfg(target_arch = "x86_64")]
            if lanes.avx2 {
                // SAFETY: `avx2` is set only by `LaneLoop::detect`, after
                // `is_x86_feature_detected!("avx2")` returned true.
                if in_zone {
                    unsafe { grad_adam_zone_avx2::<SAT>(w, m, v, x, d, l2, k) };
                } else {
                    unsafe { grad_adam_lanes_avx2::<SAT>(w, m, v, x, d, l2, k) };
                }
                continue;
            }
            // The portable instance runs the zone through its ordinary loop.
            let _ = in_zone;
            grad_adam_lanes::<SAT>(w, m, v, x, d, l2, k);
        }
    }

    /// Moves every lane of `lanes` that holds a non-zero `w`, `m` or `v`
    /// below its [`NEAR_SUBNORMAL`] margin to the front of `lanes`, calling
    /// `swapped(i, j)` for each pair of lanes exchanged, and returns how
    /// many such lanes there are: the zone [`Param::grad_adam_step`] takes.
    /// Lanes never interact, so a permutation moves values, never changes
    /// them.
    pub(crate) fn group_near_subnormal(
        &mut self,
        lanes: Range<usize>,
        mut swapped: impl FnMut(usize, usize),
    ) -> usize {
        let [mw, mm, mv] = NEAR_SUBNORMAL;
        let near = |x: f32, margin: f32| x != 0.0 && x.abs() < margin;
        let mut front = lanes.start;
        for i in lanes.clone() {
            if near(self.w[i], mw) || near(self.m[i], mm) || near(self.v[i], mv) {
                if i != front {
                    for t in [&mut self.w, &mut self.g, &mut self.m, &mut self.v] {
                        t.swap(i, front);
                    }
                    swapped(i, front);
                }
                front += 1;
            }
        }
        front - lanes.start
    }

    /// The minibatch step over an accumulated gradient sum: lane `i` takes
    /// `g[i]·scale` as its gradient (`scale` is `1/len` for the mean), then
    /// the update [`Param::adam_step`] gives it with step constants `k`,
    /// and `g[i]` is zeroed for the next minibatch — one pass, bit for bit
    /// the scaling pass, `adam_step` and [`Param::zero_grad`] in turn.
    ///
    /// The lane loop instance is picked as in [`Param::grad_adam_step`].
    pub(crate) fn mean_adam_step(&mut self, scale: f32, k: Adam, lanes: LaneLoop) {
        match k.saturated() {
            0 => self.mean_adam_step_with::<0>(scale, k, lanes),
            1 => self.mean_adam_step_with::<1>(scale, k, lanes),
            _ => self.mean_adam_step_with::<2>(scale, k, lanes),
        }
    }

    /// [`Param::mean_adam_step`] through the lane loop instance that skips
    /// the first `SAT` bias corrections; legal when `SAT <= k.saturated()`.
    fn mean_adam_step_with<const SAT: u8>(&mut self, scale: f32, k: Adam, lanes: LaneLoop) {
        debug_assert!(SAT <= k.saturated());
        let (w, m, v, g) = (&mut self.w, &mut self.m, &mut self.v, &mut self.g);
        #[cfg(target_arch = "x86_64")]
        if lanes.avx2 {
            // SAFETY: `avx2` is set only by `LaneLoop::detect`, after
            // `is_x86_feature_detected!("avx2")` returned true.
            unsafe { mean_adam_lanes_avx2::<SAT>(w, m, v, g, scale, k) };
            return;
        }
        mean_adam_lanes::<SAT>(w, m, v, g, scale, k);
    }
}

/// The minibatch step's lane loop over zipped slices.
#[inline(always)]
fn mean_adam_lanes<const SAT: u8>(
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &mut [f32],
    scale: f32,
    k: Adam,
) {
    let lanes = w.iter_mut().zip(m).zip(v);
    for (((w, m), v), g) in lanes.zip(g) {
        k.lane::<SAT, f32>(w, m, v, *g * scale);
        *g = 0.0;
    }
}

/// [`mean_adam_lanes`] compiled for AVX2, like [`grad_adam_lanes_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mean_adam_lanes_avx2<const SAT: u8>(
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &mut [f32],
    scale: f32,
    k: Adam,
) {
    mean_adam_lanes::<SAT>(w, m, v, g, scale, k)
}

/// The fused step's lane loop over zipped slices (no bounds checks), which
/// LLVM turns into packed arithmetic.
#[inline(always)]
fn grad_adam_lanes<const SAT: u8>(
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    x: &[f32],
    d: f32,
    l2: f32,
    k: Adam,
) {
    let lanes = w.iter_mut().zip(m).zip(v);
    for (((w, m), v), &x) in lanes.zip(x) {
        k.grad_lane::<SAT, f32>(w, m, v, x, d, l2);
    }
}

/// [`grad_adam_lanes`] compiled for AVX2: the same source, so the same IEEE
/// operations per lane in 8-wide registers. `fma` is not enabled, and Rust
/// never contracts `a·b + c` anyway, so every bit is the portable loop's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn grad_adam_lanes_avx2<const SAT: u8>(
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    x: &[f32],
    d: f32,
    l2: f32,
    k: Adam,
) {
    grad_adam_lanes::<SAT>(w, m, v, x, d, l2, k)
}

/// The zone's lane loop on the AVX2 instance: [`Adam::grad_lane`] in
/// [`Wide`] arithmetic, four lanes at a time over whole groups of four.
/// Bit for bit [`grad_adam_lanes`], without its assists.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn grad_adam_zone_avx2<const SAT: u8>(
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    x: &[f32],
    d: f32,
    l2: f32,
    k: Adam,
) {
    let (d, l2) = (Wide::from(d), Wide::from(l2));
    let (w, m, v, x) = (
        w.as_chunks_mut::<4>(),
        m.as_chunks_mut::<4>(),
        v.as_chunks_mut::<4>(),
        x.as_chunks::<4>(),
    );
    assert!(w.1.is_empty(), "the zone is whole groups of four");
    for (((w, m), v), x) in w.0.iter_mut().zip(m.0).zip(v.0).zip(x.0) {
        let (mut wl, mut ml, mut vl) = (Wide::load(w), Wide::load(m), Wide::load(v));
        k.grad_lane::<SAT, Wide>(&mut wl, &mut ml, &mut vl, Wide::load(x), d, l2);
        wl.store(w);
        ml.store(m);
        vl.store(v);
    }
}

#[cfg(target_arch = "x86_64")]
use wide::Wide;

/// The zone's arithmetic on the AVX2 instance (module docs).
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::Arith;
    use std::arch::asm;
    use std::arch::x86_64::*;
    use std::ops::{Add, Div, Mul, Sub};

    /// Four f32 lanes whose every operation is taken in f64 and rounded to
    /// f32: bit for bit the f32 operation, without its microcode assists.
    /// Every operation runs AVX instructions, so a `Wide` is made only
    /// inside `grad_adam_zone_avx2` (and its tests), which run after
    /// `LaneLoop::detect` found AVX2; the type is private to `adam.rs`.
    #[derive(Clone, Copy)]
    pub(super) struct Wide(__m128);

    impl Wide {
        #[inline(always)]
        pub(super) fn load(x: &[f32; 4]) -> Wide {
            // SAFETY: `x` holds four f32 values.
            Wide(unsafe { _mm_loadu_ps(x.as_ptr()) })
        }

        #[inline(always)]
        pub(super) fn store(self, x: &mut [f32; 4]) {
            // SAFETY: `x` has room for four f32 values.
            unsafe { _mm_storeu_ps(x.as_mut_ptr(), self.0) };
        }
    }

    impl From<f32> for Wide {
        #[inline(always)]
        fn from(x: f32) -> Wide {
            // SAFETY: a `Wide` exists only where AVX2 was detected.
            Wide(unsafe { _mm_set1_ps(x) })
        }
    }

    /// The lanes of `x` exactly in f64.
    #[target_feature(enable = "avx2")]
    fn widen(x: Wide) -> __m256d {
        _mm256_cvtps_pd(x.0)
    }

    /// `x` rounded to f32 after an empty `asm!` that holds it in its
    /// register: LLVM cannot see that `x` is an operation on widened f32
    /// values, so it cannot fold the pair back into the f32 operation,
    /// which would pay the assist again.
    #[target_feature(enable = "avx2")]
    fn round(mut x: __m256d) -> Wide {
        // SAFETY: the template is empty; `x` leaves its register unchanged.
        unsafe {
            asm!("/* {0} */", inout(ymm_reg) x, options(pure, nomem, nostack, preserves_flags))
        };
        Wide(_mm256_cvtpd_ps(x))
    }

    macro_rules! wide_op {
        ($trait:ident, $method:ident, $pd:ident) => {
            impl $trait for Wide {
                type Output = Wide;
                #[inline(always)]
                fn $method(self, o: Wide) -> Wide {
                    // SAFETY: a `Wide` exists only where AVX2 was detected.
                    unsafe { round($pd(widen(self), widen(o))) }
                }
            }
        };
    }
    wide_op!(Add, add, _mm256_add_pd);
    wide_op!(Sub, sub, _mm256_sub_pd);
    wide_op!(Mul, mul, _mm256_mul_pd);
    wide_op!(Div, div, _mm256_div_pd);

    impl Arith for Wide {
        #[inline(always)]
        fn sqrt(self) -> Wide {
            // SAFETY: a `Wide` exists only where AVX2 was detected.
            unsafe { round(_mm256_sqrt_pd(widen(self))) }
        }
    }
}

/// Which compiled instance of the fused step's lane loop runs: the AVX2
/// one where the host has AVX2, the portable one elsewhere. Only
/// [`LaneLoop::detect`] can select AVX2.
#[derive(Clone, Copy)]
pub(crate) struct LaneLoop {
    avx2: bool,
}

impl LaneLoop {
    /// The portable loop, built for the compilation target's baseline.
    pub(crate) const PORTABLE: LaneLoop = LaneLoop { avx2: false };

    /// The widest instance this host runs.
    pub(crate) fn detect() -> LaneLoop {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return LaneLoop { avx2: true };
        }
        LaneLoop::PORTABLE
    }

    /// Whether this is the AVX2 instance; set only by [`LaneLoop::detect`].
    pub(crate) fn avx2(self) -> bool {
        self.avx2
    }

    /// Every instance this host runs: the portable one always, the AVX2
    /// one where it is detected (with a note on stderr where it is not).
    #[cfg(test)]
    pub(crate) fn host_instances() -> Vec<(&'static str, LaneLoop)> {
        let mut loops = vec![("portable", LaneLoop::PORTABLE)];
        let host = LaneLoop::detect();
        if host.avx2 {
            loops.push(("avx2", host));
        } else {
            eprintln!("note: AVX2 not detected; only the portable instance is tested here");
        }
        loops
    }
}

const B1: f32 = 0.9;
const B2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// The magnitudes below which a non-zero `w`, `m` or `v` puts its lane in
/// the zone: 2⁻⁴⁰, 2⁻⁹⁰ and 2⁻¹¹⁰. Each leaves room for a value to fall
/// between regroups before its products (`λ·w`, `β·m`, `(1 − β)·g·g`)
/// reach the subnormal range; a lane that gets there early costs time,
/// never bits.
const NEAR_SUBNORMAL: [f32; 3] = [pow2(-40), pow2(-90), pow2(-110)];

/// `2^e` for a normal exponent `e`.
const fn pow2(e: i32) -> f32 {
    f32::from_bits(((127 + e) as u32) << 23)
}

/// Adam's bias correction `1 − β^t` at step `t`.
fn correction(b: f32, t: u32) -> f32 {
    1.0 - b.powi(t as i32)
}

/// The arithmetic an Adam lane is written in: `f32`, or (the zone on the
/// AVX2 instance) `Wide`, which gives the same bits (module docs).
trait Arith:
    Copy + From<f32> + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    fn sqrt(self) -> Self;
}

impl Arith for f32 {
    #[inline(always)]
    fn sqrt(self) -> f32 {
        f32::sqrt(self)
    }
}

/// One Adam step's constants: the learning rate and the bias corrections
/// `1 − β^t` of step `t`.
#[derive(Clone, Copy)]
pub(crate) struct Adam {
    lr: f32,
    bc1: f32,
    bc2: f32,
}

impl Adam {
    pub(crate) fn new(lr: f32, t: u32) -> Adam {
        Adam {
            lr,
            bc1: correction(B1, t),
            bc2: correction(B2, t),
        }
    }

    /// Grows `table` to `len` steps, `table[t - 1]` holding step `t`'s
    /// constants from [`Adam::new`]. They depend on `t` alone (and the
    /// fixed `lr`), so a table grown once serves every later fit.
    ///
    /// A correction that has reached exactly `1.0` is carried forward, not
    /// recomputed: `β^t` only shrinks as `t` grows, so `Adam::new` gives
    /// `1.0` there too, while its `powi` passes through subnormal values
    /// (`0.9^t` from `t ≈ 830`, `0.999^t` from `t ≈ 87 000`) whose
    /// multiplies pay microcode assists. Once both are `1.0` the rest of
    /// the table is copies, with no `powi` left to evaluate.
    pub(crate) fn extend_table(table: &mut Vec<Adam>, lr: f32, len: usize) {
        while table.len() < len {
            let t = table.len() as u32 + 1;
            let k = match table.last() {
                Some(&k) if k.saturated() == 2 => return table.resize(len, k),
                Some(k) if k.saturated() == 1 => Adam {
                    lr,
                    bc1: 1.0,
                    bc2: correction(B2, t),
                },
                _ => Adam::new(lr, t),
            };
            table.push(k);
        }
    }

    /// How many leading bias corrections (`bc1`, then `bc2`) are exactly
    /// `1.0`. `B1 < B2`, so `bc1` reaches `1.0` first (at `t = 165`; `bc2`
    /// at `t = 17 321`).
    fn saturated(self) -> u8 {
        match (self.bc1 == 1.0, self.bc2 == 1.0) {
            (false, _) => 0,
            (true, false) => 1,
            (true, true) => 2,
        }
    }

    /// The update of one lane with gradient `g` — the only place the Adam
    /// expression is written. Inlined into zipped-slice loops, which LLVM
    /// turns into packed arithmetic (IEEE per lane, never contracted), and,
    /// in `Wide` arithmetic, into the zone's loop.
    ///
    /// The instance `SAT` leaves out the division by the first `SAT` bias
    /// corrections, which the caller has found to be exactly `1.0`.
    /// `x / 1.0` is `x`, bits included, for every `x` that is not a
    /// signalling NaN (zeros keep their sign, subnormals and infinities
    /// pass through), and `m` and `v` are always results of arithmetic,
    /// never a signalling NaN. So every instance gives `SAT = 0`'s bits.
    #[inline(always)]
    fn lane<const SAT: u8, T: Arith>(self, w: &mut T, m: &mut T, v: &mut T, g: T) {
        let c = T::from;
        *m = c(B1) * *m + c(1.0 - B1) * g;
        *v = c(B2) * *v + c(1.0 - B2) * g * g;
        let mhat = if SAT >= 1 { *m } else { *m / c(self.bc1) };
        let vhat = if SAT >= 2 { *v } else { *v / c(self.bc2) };
        *w = *w - c(self.lr) * mhat / (vhat.sqrt() + c(EPS));
    }

    /// The fused step's lane: the L2-regularised gradient `d·x + λ·w`,
    /// then [`Adam::lane`].
    #[inline(always)]
    fn grad_lane<const SAT: u8, T: Arith>(
        self,
        w: &mut T,
        m: &mut T,
        v: &mut T,
        x: T,
        d: T,
        l2: T,
    ) {
        let g = d * x + l2 * *w;
        self.lane::<SAT, T>(w, m, v, g);
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy loss for prediction `p` and target `y ∈ {0,1}`.
#[inline]
pub fn bce(p: f32, y: f32) -> f32 {
    let p = p.clamp(1e-7, 1.0 - 1e-7);
    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)] // the oracles are indexed loops
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // Minimize (w-3)^2; gradient 2(w-3).
        let mut p = Param::zeros(1);
        for t in 1..=500 {
            p.zero_grad();
            p.g[0] = 2.0 * (p.w[0] - 3.0);
            p.adam_step(0.05, t);
        }
        assert!((p.w[0] - 3.0).abs() < 0.05, "w = {}", p.w[0]);
    }

    /// `adam_step` as an indexed loop: the oracle the vectorised
    /// zipped-slice loops are held to.
    fn adam_step_indexed(p: &mut Param, lr: f32, t: u32) {
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..p.w.len() {
            let g = p.g[i];
            p.m[i] = B1 * p.m[i] + (1.0 - B1) * g;
            p.v[i] = B2 * p.v[i] + (1.0 - B2) * g * g;
            let mhat = p.m[i] / bc1;
            let vhat = p.v[i] / bc2;
            p.w[i] -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }

    /// The step counters under test: the first two, and each side of the
    /// steps where `bc1` (165) and then `bc2` (17 321) round to exactly
    /// `1.0`, and the longest fit of a paper-size session (12 × 2 324).
    const TS: [u32; 7] = [1, 2, 164, 165, 17_320, 17_321, 27_888];
    const L2: [f32; 2] = [1e-4, 6e-3];
    const LR: f32 = 0.05;

    /// Mid-training state over `n` lanes with its input row: every third
    /// lane is untouched (`x = 0`, `w = m = v = +0.0`), the others hold
    /// non-zero weights and moments.
    fn state(n: usize, seed: u64) -> (Param, Vec<f32>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = Param::uniform(n, 0.5, &mut rng);
        let mut x = vec![0.0; n];
        for i in 0..n {
            if i % 3 == 2 {
                p.w[i] = 0.0;
            } else {
                x[i] = rng.gen_range(-1.0..1.0);
                p.m[i] = rng.gen_range(-0.1..0.1);
                p.v[i] = rng.gen_range(0.0..0.01);
            }
        }
        (p, x)
    }

    /// Lane counts under test: every remainder the packed body can leave,
    /// and the active-set width of a paper-size fit.
    fn lengths() -> impl Iterator<Item = usize> {
        (1..=13).chain([228])
    }

    fn assert_same_bits(a: &Param, b: &Param, what: &str) {
        for (name, x, y) in [("w", &a.w, &b.w), ("m", &a.m, &b.m), ("v", &a.v, &b.v)] {
            for (i, (x, y)) in x.iter().zip(y).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: {name}[{i}] {x:e} vs {y:e}"
                );
            }
        }
    }

    #[test]
    fn zipped_adam_step_equals_the_indexed_loop_bit_for_bit() {
        for n in lengths() {
            for t in TS {
                let (mut p, _) = state(n, n as u64 ^ t as u64);
                let mut rng = SmallRng::seed_from_u64(t as u64);
                for (i, g) in p.g.iter_mut().enumerate() {
                    *g = if i % 3 == 2 {
                        0.0
                    } else {
                        rng.gen_range(-1.0..1.0)
                    };
                }
                let mut want = p.clone();
                adam_step_indexed(&mut want, LR, t);
                p.adam_step(LR, t);
                assert_same_bits(&p, &want, &format!("n {n} t {t}"));
            }
        }
    }

    /// The fused step through the lane instance that drops `sat` bias
    /// corrections; `None` is the instance `grad_adam_step` picks.
    #[allow(clippy::too_many_arguments)]
    fn fused_step(
        p: &mut Param,
        x: &[f32],
        d: f32,
        split: usize,
        zone: usize,
        t: u32,
        lanes: LaneLoop,
        sat: Option<u8>,
    ) {
        let k = Adam::new(LR, t);
        match sat {
            None => p.grad_adam_step(x, d, split, zone, L2, k, lanes),
            Some(0) => p.grad_adam_step_with::<0>(x, d, split, zone, L2, k, lanes),
            Some(1) => p.grad_adam_step_with::<1>(x, d, split, zone, L2, k, lanes),
            Some(2) => p.grad_adam_step_with::<2>(x, d, split, zone, L2, k, lanes),
            Some(_) => unreachable!(),
        }
    }

    /// The fused step against its definition: the gradient written into
    /// `g` by an indexed pass, then the indexed Adam loop (which divides by
    /// both corrections from `powi` at every step). Each lane loop runs
    /// every instance that is legal at `t` — the one dividing by both
    /// corrections, and those dropping the ones that are exactly `1.0` —
    /// and the instance the step picks. `d·0.0` is `-0.0` for `d < 0`, so
    /// the untouched lanes check that the sum with `λ·(+0.0)` still leaves
    /// them at `+0.0`.
    #[test]
    fn fused_step_equals_gradient_then_adam_step_bit_for_bit() {
        for (name, lanes) in LaneLoop::host_instances() {
            for t in TS {
                let instances = (0..=Adam::new(LR, t).saturated()).map(Some);
                for sat in instances.chain([None]) {
                    for n in lengths() {
                        for split in [0, 1, n - 1, n] {
                            for d in [-0.75f32, 0.0, 0.6] {
                                let what =
                                    format!("{name} {sat:?} n {n} split {split} d {d} t {t}");
                                let (mut p, x) = state(n, (n * 31 + split) as u64 ^ t as u64);
                                let mut want = p.clone();
                                for i in 0..n {
                                    let l2 = if i < split { L2[0] } else { L2[1] };
                                    want.g[i] = d * x[i] + l2 * want.w[i];
                                }
                                adam_step_indexed(&mut want, LR, t);
                                fused_step(&mut p, &x, d, split, 0, t, lanes, sat);
                                assert_same_bits(&p, &want, &what);
                                for i in (2..n).step_by(3) {
                                    let lane = [p.w[i], p.m[i], p.v[i]].map(f32::to_bits);
                                    assert_eq!(lane, [0; 3], "{what}: untouched lane {i} moved");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Values that exercise the zone's arithmetic: signed zeros,
    /// subnormals of both signs (the smallest, one mid-range, the largest),
    /// the neighbours of 2⁻¹²⁶, values whose square (2⁻⁶⁴, 2⁻⁷⁰, 2⁻⁸⁰) or
    /// whose `(1 − β)·g` (3e-36) underflows, ordinary values, infinities
    /// and NaNs (the default one and one with a payload).
    fn specials() -> Vec<f32> {
        let sub = [1, 0x0040_0000, 0x007f_ffff].map(f32::from_bits);
        let mut v = vec![0.0, -0.0];
        v.extend(sub.iter().flat_map(|&x| [x, -x]));
        let tiny = f32::MIN_POSITIVE;
        v.extend([tiny, -tiny, f32::from_bits(tiny.to_bits() + 1)]);
        v.extend([pow2(-64), -pow2(-70), pow2(-80), 3e-36, -1e-20]);
        v.extend([0.5, -0.75, 1.0, 3.0, 1e30, -2.5e-3]);
        v.extend([
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc0_1234),
        ]);
        v
    }

    /// `a` and `b` by bits, except that two NaNs compare equal (their
    /// payloads are counted in `payloads` when they differ): which NaN
    /// operand's payload survives an operation is the compiler's choice
    /// once it may commute the operands, in either path.
    fn same_or_both_nan(a: f32, b: f32, payloads: &mut usize) -> bool {
        if a.is_nan() && b.is_nan() {
            *payloads += (a.to_bits() != b.to_bits()) as usize;
            return true;
        }
        a.to_bits() == b.to_bits()
    }

    /// The zone against the plain loop: states drawn from [`specials`]
    /// (lane by lane, `w`, `m`, `v` and `x` drawn independently), stepped
    /// with zones of 0, 1, 3, 4, 5, 8 and 9 lanes and one covering the
    /// whole bucket half, after embedding halves of 0 and 3 lanes, through
    /// every SAT instance and every lane loop the host runs, compared with
    /// the same step at zone 0 by bits (NaN against NaN by NaN-ness; any
    /// payload that differs is reported).
    #[test]
    fn wide_lane_equals_lane_bit_for_bit() {
        let vals = specials();
        let mut payloads = 0;
        for (name, lanes) in LaneLoop::host_instances() {
            for t in TS {
                let k = Adam::new(LR, t);
                for sat in 0..=k.saturated() {
                    for seed in 0..8u64 {
                        let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 8);
                        let n = 40;
                        let mut pick = || vals[rng.gen_range(0..vals.len())];
                        let mut p = Param::zeros(n);
                        let mut x = vec![0.0; n];
                        for i in 0..n {
                            (p.w[i], p.m[i], p.v[i], x[i]) = (pick(), pick(), pick(), pick());
                        }
                        let d = [-0.75, 0.0, 0.6, f32::from_bits(3), 1e-30][seed as usize % 5];
                        for split in [0, 3] {
                            for zone in [0, 1, 3, 4, 5, 8, 9, n - split] {
                                let what = format!(
                                    "{name} SAT {sat} t {t} seed {seed} split {split} zone {zone}"
                                );
                                let mut want = p.clone();
                                let mut got = p.clone();
                                fused_step(&mut want, &x, d, split, 0, t, lanes, Some(sat));
                                fused_step(&mut got, &x, d, split, zone, t, lanes, Some(sat));
                                for (field, a, b) in [
                                    ("w", &got.w, &want.w),
                                    ("m", &got.m, &want.m),
                                    ("v", &got.v, &want.v),
                                ] {
                                    for i in 0..n {
                                        assert!(
                                            same_or_both_nan(a[i], b[i], &mut payloads),
                                            "{what}: {field}[{i}] {:e} vs {:e} (lane state w {:e} m {:e} v {:e} x {:e})",
                                            a[i], b[i], p.w[i], p.m[i], p.v[i], x[i]
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if payloads > 0 {
            eprintln!("note: {payloads} NaN results differ in payload only");
        }
    }

    /// Draws f32 values that are zero or subnormal half the time, near the
    /// bottom of the normal range (where products and quotients underflow)
    /// a quarter of the time, and of any exponent (infinities and NaNs
    /// included) otherwise, each with a random sign and fraction.
    fn subnormal_heavy(rng: &mut SmallRng) -> f32 {
        let exp: u32 = match rng.gen_range(0..4) {
            0 | 1 => 0,
            2 => rng.gen_range(1..64),
            _ => rng.gen_range(0..256),
        };
        f32::from_bits(rand::RngCore::next_u32(rng) & 0x807f_ffff | exp << 23)
    }

    /// Each wide binary operation against its f32 operation over 10⁷
    /// subnormal-heavy pairs (release builds; 2¹⁶ in debug ones), by bits,
    /// NaN against NaN by NaN-ness.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_ops_equal_f32_ops_on_subnormal_heavy_pairs() {
        if !LaneLoop::detect().avx2() {
            eprintln!("note: AVX2 not detected; there is no wide arithmetic to test");
            return;
        }
        let pairs = if cfg!(debug_assertions) {
            1 << 16
        } else {
            10_000_000
        };
        // SAFETY: AVX2 was detected above.
        let payloads = unsafe { wide_binary_ops_avx2(pairs) };
        if payloads > 0 {
            eprintln!("note: {payloads} NaN results differ in payload only");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn wide_binary_ops_avx2(pairs: usize) -> usize {
        let mut rng = SmallRng::seed_from_u64(43);
        let mut payloads = 0;
        for _ in 0..pairs.div_ceil(4) {
            let a: [f32; 4] = std::array::from_fn(|_| subnormal_heavy(&mut rng));
            let b: [f32; 4] = std::array::from_fn(|_| subnormal_heavy(&mut rng));
            let (wa, wb) = (Wide::load(&a), Wide::load(&b));
            let f32_ops: [fn(f32, f32) -> f32; 4] =
                [|x, y| x + y, |x, y| x - y, |x, y| x * y, |x, y| x / y];
            let wide_ops = [wa + wb, wa - wb, wa * wb, wa / wb];
            for ((op, f32_op), wide) in ["+", "-", "*", "/"].iter().zip(f32_ops).zip(wide_ops) {
                let mut got = [0.0f32; 4];
                wide.store(&mut got);
                for i in 0..4 {
                    let want = f32_op(a[i], b[i]);
                    assert!(
                        same_or_both_nan(got[i], want, &mut payloads),
                        "{:e} {op} {:e}: wide {:e} ({:#x}), f32 {:e} ({:#x})",
                        a[i],
                        b[i],
                        got[i],
                        got[i].to_bits(),
                        want,
                        want.to_bits()
                    );
                }
            }
        }
        payloads
    }

    /// The wide square root against `f32::sqrt` on every one of the 2³²
    /// bit patterns (release builds; every 4 099th group of four in debug
    /// ones), by bits, NaN against NaN by NaN-ness.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_sqrt_equals_f32_sqrt_on_every_bit_pattern() {
        if !LaneLoop::detect().avx2() {
            eprintln!("note: AVX2 not detected; there is no wide arithmetic to test");
            return;
        }
        let stride = if cfg!(debug_assertions) { 4099 } else { 1 };
        // SAFETY: AVX2 was detected above.
        let (groups, payloads) = unsafe { wide_sqrt_avx2(stride) };
        if stride == 1 {
            assert_eq!(groups, 1 << 30, "every bit pattern, four at a time");
        }
        if payloads > 0 {
            eprintln!("note: {payloads} NaN results differ in payload only");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn wide_sqrt_avx2(stride: usize) -> (usize, usize) {
        let (mut groups, mut payloads) = (0, 0);
        for base in (0..=u32::MAX / 4).step_by(stride) {
            let x: [f32; 4] = std::array::from_fn(|i| f32::from_bits(base * 4 + i as u32));
            let mut got = [0.0f32; 4];
            Wide::load(&x).sqrt().store(&mut got);
            for i in 0..4 {
                let want = x[i].sqrt();
                assert!(
                    same_or_both_nan(got[i], want, &mut payloads),
                    "sqrt {:#x}: wide {:#x}, f32 {:#x}",
                    x[i].to_bits(),
                    got[i].to_bits(),
                    want.to_bits()
                );
            }
            groups += 1;
        }
        (groups, payloads)
    }

    /// Grouping moves exactly the lanes with a non-zero `w`, `m` or `v`
    /// under its margin to the front of the range, reports each swap, and
    /// moves every lane's values as a unit.
    #[test]
    fn group_near_subnormal_fronts_the_near_subnormal_lanes() {
        let [mw, mm, mv] = NEAR_SUBNORMAL;
        let mut p = Param::zeros(10);
        // Lane 0 lies outside the range; 1, 4, 6 and 9 are near subnormal.
        let lanes = [
            (mw / 4.0, 0.0, 0.0),
            (1.0, 0.5, 0.1),
            (0.0, mm / 2.0, 0.0),
            (0.0, 0.0, 0.0),
            (1.0, 0.5, mv / 2.0),
            (mw, mm, mv),
            (-mw / 2.0, 0.3, 0.2),
            (0.0, -0.0, 0.0),
            (f32::NAN, 1.0, 1.0),
            (2.0, f32::from_bits(1), 1.0),
        ];
        for (i, &(w, m, v)) in lanes.iter().enumerate() {
            (p.w[i], p.m[i], p.v[i], p.g[i]) = (w, m, v, i as f32);
        }
        let mut order: Vec<usize> = (0..10).collect();
        let zone = p.group_near_subnormal(1..10, |i, j| order.swap(i, j));
        assert_eq!(zone, 4);
        assert_eq!(order, [0, 2, 4, 6, 9, 5, 3, 7, 8, 1]);
        for (at, &from) in order.iter().enumerate() {
            let (w, m, v) = lanes[from];
            let bits = |x: f32| x.to_bits();
            assert_eq!(bits(p.w[at]), bits(w), "w at {at}");
            assert_eq!(bits(p.m[at]), bits(m), "m at {at}");
            assert_eq!(bits(p.v[at]), bits(v), "v at {at}");
            assert_eq!(p.g[at], from as f32, "g at {at}");
        }
    }

    /// The minibatch step against its definition: `g` scaled in an indexed
    /// pass, the indexed Adam loop, then `g` zeroed — through every lane
    /// loop, every instance legal at `t` and the one the step picks, at
    /// the scales of a full minibatch of 16, a short last one of 3, and
    /// one of 1. The untouched lanes hold `g = +0.0`, so their moments and
    /// weights must stay `+0.0`.
    #[test]
    fn mean_step_equals_scale_then_adam_step_bit_for_bit() {
        for (name, lanes) in LaneLoop::host_instances() {
            for t in TS {
                let k = Adam::new(LR, t);
                let instances = (0..=k.saturated()).map(Some);
                for sat in instances.chain([None]) {
                    for n in lengths() {
                        for scale in [1.0f32 / 16.0, 1.0 / 3.0, 1.0] {
                            let what = format!("{name} {sat:?} n {n} scale {scale} t {t}");
                            let (mut p, x) = state(n, n as u64 ^ t as u64);
                            p.g.copy_from_slice(&x);
                            let mut want = p.clone();
                            for i in 0..n {
                                want.g[i] *= scale;
                            }
                            adam_step_indexed(&mut want, LR, t);
                            match sat {
                                None => p.mean_adam_step(scale, k, lanes),
                                Some(0) => p.mean_adam_step_with::<0>(scale, k, lanes),
                                Some(1) => p.mean_adam_step_with::<1>(scale, k, lanes),
                                Some(2) => p.mean_adam_step_with::<2>(scale, k, lanes),
                                Some(_) => unreachable!(),
                            }
                            assert_same_bits(&p, &want, &what);
                            assert!(p.g.iter().all(|g| g.to_bits() == 0), "{what}: g not zeroed");
                            for i in (2..n).step_by(3) {
                                let lane = [p.w[i], p.m[i], p.v[i]].map(f32::to_bits);
                                assert_eq!(lane, [0; 3], "{what}: untouched lane {i} moved");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The table a fit reads its constants from equals `Adam::new` bit for
    /// bit, grown in uneven pieces as successive fits grow it, past the
    /// 130 080 steps of `stream_ingest`'s final fit, and the corrections
    /// become exactly `1.0` at the steps the lane instances are picked by:
    /// `bc1` from 165, `bc2` from 17 321.
    #[test]
    fn step_table_equals_adam_new_and_saturates_at_165_and_17_321() {
        let mut table = Vec::new();
        for len in [0, 100, 17_320, 17_000, 40_000, 140_000] {
            Adam::extend_table(&mut table, LR, len);
        }
        assert_eq!(table.len(), 140_000);
        for (i, k) in table.iter().enumerate() {
            let t = i as u32 + 1;
            let want = Adam::new(LR, t);
            let bits = |k: &Adam| [k.lr, k.bc1, k.bc2].map(f32::to_bits);
            assert_eq!(bits(k), bits(&want), "t {t}");
            let sat = match t {
                ..=164 => 0,
                165..=17_320 => 1,
                _ => 2,
            };
            assert_eq!(k.saturated(), sat, "t {t}: bc1 {:e} bc2 {:e}", k.bc1, k.bc2);
        }
    }

    #[test]
    fn uniform_init_in_range_and_seeded() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p = Param::uniform(100, 0.5, &mut rng);
        assert!(p.w.iter().all(|&x| (-0.5..0.5).contains(&x)));
        let mut rng2 = SmallRng::seed_from_u64(7);
        let q = Param::uniform(100, 0.5, &mut rng2);
        assert_eq!(p.w, q.w);
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(50.0) > 0.999);
        assert!(sigmoid(-50.0) < 0.001);
        // Stability at extremes.
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn bce_is_finite_and_ordered() {
        assert!(bce(0.9, 1.0) < bce(0.1, 1.0));
        assert!(bce(0.0, 1.0).is_finite());
        assert!(bce(1.0, 0.0).is_finite());
    }
}
