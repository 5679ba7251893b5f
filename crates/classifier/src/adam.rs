//! Adam-optimized parameter tensors.

use rand::rngs::SmallRng;
use rand::Rng;

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
            k.lane::<0>(w, m, v, g);
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
    /// The instance of the lane loop is picked here: by how many of `k`'s
    /// bias corrections are exactly `1.0` (their divisions are dropped,
    /// see [`Adam::lane`]) and by `lanes`.
    pub(crate) fn grad_adam_step(
        &mut self,
        x: &[f32],
        d: f32,
        split: usize,
        l2: [f32; 2],
        k: Adam,
        lanes: LaneLoop,
    ) {
        match k.saturated() {
            0 => self.grad_adam_step_with::<0>(x, d, split, l2, k, lanes),
            1 => self.grad_adam_step_with::<1>(x, d, split, l2, k, lanes),
            _ => self.grad_adam_step_with::<2>(x, d, split, l2, k, lanes),
        }
    }

    /// [`Param::grad_adam_step`] through the lane loop instance that skips
    /// the first `SAT` bias corrections; legal when `SAT <= k.saturated()`.
    fn grad_adam_step_with<const SAT: u8>(
        &mut self,
        x: &[f32],
        d: f32,
        split: usize,
        l2: [f32; 2],
        k: Adam,
        lanes: LaneLoop,
    ) {
        assert_eq!(x.len(), self.w.len(), "one input per lane");
        debug_assert!(SAT <= k.saturated());
        let (w0, w1) = self.w.split_at_mut(split);
        let (m0, m1) = self.m.split_at_mut(split);
        let (v0, v1) = self.v.split_at_mut(split);
        let (x0, x1) = x.split_at(split);
        for (w, m, v, x, l2) in [(w0, m0, v0, x0, l2[0]), (w1, m1, v1, x1, l2[1])] {
            #[cfg(target_arch = "x86_64")]
            if lanes.avx2 {
                // SAFETY: `avx2` is set only by `LaneLoop::detect`, after
                // `is_x86_feature_detected!("avx2")` returned true.
                unsafe { grad_adam_lanes_avx2::<SAT>(w, m, v, x, d, l2, k) };
                continue;
            }
            grad_adam_lanes::<SAT>(w, m, v, x, d, l2, k);
        }
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
        k.lane::<SAT>(w, m, v, *g * scale);
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
        let g = d * x + l2 * *w;
        k.lane::<SAT>(w, m, v, g);
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
            bc1: 1.0 - B1.powi(t as i32),
            bc2: 1.0 - B2.powi(t as i32),
        }
    }

    /// Grows `table` to `len` steps, `table[t - 1]` holding step `t`'s
    /// constants from [`Adam::new`]. They depend on `t` alone (and the
    /// fixed `lr`), so a table grown once serves every later fit.
    pub(crate) fn extend_table(table: &mut Vec<Adam>, lr: f32, len: usize) {
        for t in table.len() + 1..=len {
            table.push(Adam::new(lr, t as u32));
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
    /// turns into packed arithmetic (IEEE per lane, never contracted).
    ///
    /// The instance `SAT` leaves out the division by the first `SAT` bias
    /// corrections, which the caller has found to be exactly `1.0`.
    /// `x / 1.0` is `x`, bits included, for every `x` that is not a
    /// signalling NaN (zeros keep their sign, subnormals and infinities
    /// pass through), and `m` and `v` are always results of arithmetic,
    /// never a signalling NaN. So every instance gives `SAT = 0`'s bits.
    #[inline(always)]
    fn lane<const SAT: u8>(self, w: &mut f32, m: &mut f32, v: &mut f32, g: f32) {
        *m = B1 * *m + (1.0 - B1) * g;
        *v = B2 * *v + (1.0 - B2) * g * g;
        let mhat = if SAT >= 1 { *m } else { *m / self.bc1 };
        let vhat = if SAT >= 2 { *v } else { *v / self.bc2 };
        *w -= self.lr * mhat / (vhat.sqrt() + EPS);
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
    fn fused_step(
        p: &mut Param,
        x: &[f32],
        d: f32,
        split: usize,
        t: u32,
        lanes: LaneLoop,
        sat: Option<u8>,
    ) {
        let k = Adam::new(LR, t);
        match sat {
            None => p.grad_adam_step(x, d, split, L2, k, lanes),
            Some(0) => p.grad_adam_step_with::<0>(x, d, split, L2, k, lanes),
            Some(1) => p.grad_adam_step_with::<1>(x, d, split, L2, k, lanes),
            Some(2) => p.grad_adam_step_with::<2>(x, d, split, L2, k, lanes),
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
                                fused_step(&mut p, &x, d, split, t, lanes, sat);
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
    /// bit, grown in uneven pieces as successive fits grow it, and the
    /// corrections become exactly `1.0` at the steps the lane instances are
    /// picked by: `bc1` from 165, `bc2` from 17 321.
    #[test]
    fn step_table_equals_adam_new_and_saturates_at_165_and_17_321() {
        let mut table = Vec::new();
        for len in [0, 100, 17_320, 17_000, 40_000] {
            Adam::extend_table(&mut table, LR, len);
        }
        assert_eq!(table.len(), 40_000);
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
