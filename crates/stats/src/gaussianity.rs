//! Measures of deviation from the standard normal distribution.
//!
//! Two scores from the paper:
//!
//! * The **PCA score** of a direction with variance `σ²` is
//!   `(σ² − log σ² − 1)/2` — the KL divergence `KL(N(0,σ²) ‖ N(0,1))`
//!   (paper §II-C, footnote 1). It is zero iff `σ² = 1` and grows in both
//!   directions.
//! * The **ICA score** of a (unit-variance) projection `s` is the signed
//!   negentropy proxy `E[G(s)] − E[G(ν)]`, `ν ~ N(0,1)`, with the paper's
//!   log-cosh contrast `G(u) = log cosh u` — the bracketed numbers of
//!   Table I. The sign convention is:
//!   **positive for sub-Gaussian** directions (multi-modal cluster
//!   structure — exactly what the paper's views surface; Table I's initial
//!   scores are positive) and negative for super-Gaussian (heavy-tailed)
//!   directions. Non-zero either way means "not Gaussian, worth showing".
//!
//! FastICA's non-linearity `g = G′ = tanh` is owned here ([`tanh`]) rather
//! than taken from the host's libm: it is built from `+`, `−`, `×`, `÷`,
//! selects and bit casts only, so it has no branches, vectorizes over a
//! buffer (FastICA's block step evaluates it that way, about 3× faster
//! than glibc's `tanh` per value), and gives the same bits on every IEEE
//! host. It stays within 2 ulp of glibc's.

use std::sync::OnceLock;

/// PCA informativeness score `(σ² − log σ² − 1)/2` for a direction with
/// variance `sigma2` under the whitened data. Returns `+∞` for `σ² ≤ 0`
/// (a fully collapsed direction maximally contradicts the unit model).
pub fn pca_score(sigma2: f64) -> f64 {
    if sigma2 <= 0.0 {
        return f64::INFINITY;
    }
    0.5 * (sigma2 - sigma2.ln() - 1.0)
}

/// First and second derivatives `(g(u), g′(u))` of the paper's log-cosh
/// contrast `G(u) = log cosh u` (§II-C, α = 1), where `g = G′ = tanh` is
/// the FastICA non-linearity and `g′ = 1 − tanh²`. The owned [`tanh`] is
/// evaluated once and shared by both.
#[inline]
pub fn g_pair(u: f64) -> (f64, f64) {
    let t = tanh(u);
    (t, 1.0 - t * t)
}

/// Cephes' rational form of `tanh` on `|u| < 0.625`:
/// `tanh u = u + u·s·P(s)/Q(s)`, `s = u²`, with `Q` monic.
const TANH_P: [f64; 3] = [
    -9.643_991_794_250_523e-1,
    -9.928_772_310_019_186e1,
    -1.614_687_684_417_084_5e3,
];
const TANH_Q: [f64; 3] = [
    1.128_116_784_916_329_3e2,
    2.235_488_390_601_004_6e3,
    4.844_063_053_251_255e3,
];
/// Cephes' Padé form of `e^r` on `|r| ≤ ln 2 / 2`:
/// `e^r = 1 + 2·r·P(r²) / (Q(r²) − r·P(r²))`.
const EXP_P: [f64; 3] = [1.261_771_930_748_105_9e-4, 3.029_944_077_074_419_6e-2, 1.0];
const EXP_Q: [f64; 4] = [
    3.001_985_051_386_644_5e-6,
    2.524_483_403_496_841e-3,
    2.272_655_482_081_550_3e-1,
    2.0,
];
/// Cody–Waite split of ln 2: `LN2_HI` has few enough bits that `n·LN2_HI`
/// is exact for every `n` the kernel sees.
const LN2_HI: f64 = 6.931_457_519_531_25e-1;
const LN2_LO: f64 = 1.428_606_820_309_417_2e-6;
/// Adding `1.5·2⁵²` rounds any `|x| < 2⁵¹` to the nearest integer, which
/// then sits in the low bits of the sum.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// `e^y` for the `y = 2|u| ∈ [1.25, 44)` that [`tanh`] feeds it (other
/// inputs give finite garbage or NaN, which `tanh` selects away or keeps):
/// `y = n·ln 2 + r` with `n` rounded to nearest, `e^r` by Padé, and `2ⁿ`
/// built straight into the exponent field from the low bits of the
/// rounding sum.
#[inline]
fn exp_kernel(y: f64) -> f64 {
    let t = y * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let n = t - ROUND_SHIFT;
    let r = y - n * LN2_HI - n * LN2_LO;
    let rr = r * r;
    let px = r * ((EXP_P[0] * rr + EXP_P[1]) * rr + EXP_P[2]);
    let qx = ((EXP_Q[0] * rr + EXP_Q[1]) * rr + EXP_Q[2]) * rr + EXP_Q[3];
    let e_r = 1.0 + 2.0 * (px / (qx - px));
    let two_n = f64::from_bits((t.to_bits() << 52).wrapping_add(1023 << 52));
    e_r * two_n
}

/// `tanh u` without the host's libm: Cephes' rational form below
/// `|u| = 0.625`, `1 − 2/(e^{2|u|} + 1)` above it, and ±1 from `|u| = 22`
/// (where the exact value rounds to 1) and at ±∞. Both forms are always
/// computed and one is selected, so there are no branches and a loop over
/// a buffer vectorizes; no fused multiply-add is used, so every IEEE host
/// gives the same bits. The sign is put back by `copysign`, which makes
/// the function odd bit for bit (−0.0 stays −0.0); a subnormal `u`
/// returns `u`, and NaN stays NaN. Within 2 ulp of glibc's `tanh`.
#[inline]
pub fn tanh(u: f64) -> f64 {
    let a = u.abs();
    let s = a * a;
    let p = (TANH_P[0] * s + TANH_P[1]) * s + TANH_P[2];
    let q = ((s + TANH_Q[0]) * s + TANH_Q[1]) * s + TANH_Q[2];
    let small = a + a * s * p / q;
    let large = 1.0 - 2.0 / (exp_kernel(2.0 * a) + 1.0);
    // NaN fails both comparisons and takes `large`, which stays NaN.
    let t = if a < 0.625 {
        small
    } else if a >= 22.0 {
        1.0
    } else {
        large
    };
    t.copysign(u)
}

/// `E[log cosh ν]` for `ν ~ N(0, 1)`, integrated numerically once and
/// cached.
pub fn gaussian_ln_cosh() -> f64 {
    static CACHE: OnceLock<f64> = OnceLock::new();
    *CACHE.get_or_init(|| gaussian_expectation_of(ln_cosh))
}

/// Numerically stable `log cosh(x)` (avoids overflow of `cosh` for |x| ≳ 710).
#[inline]
pub fn ln_cosh(x: f64) -> f64 {
    let a = x.abs();
    // log cosh x = |x| + log(1 + e^{-2|x|}) − log 2
    a + (-2.0 * a).exp().ln_1p() - std::f64::consts::LN_2
}

/// `E[f(ν)]` for `ν ~ N(0,1)` by composite Simpson integration over
/// `[−12, 12]` (the tail mass beyond is ≈ 1e−32).
pub fn gaussian_expectation_of(f: impl Fn(f64) -> f64) -> f64 {
    let a = -12.0;
    let b = 12.0;
    let n = 4800; // even
    let h = (b - a) / n as f64;
    let phi = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let mut acc = f(a) * phi(a) + f(b) * phi(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * f(x) * phi(x);
    }
    acc * h / 3.0
}

/// Signed ICA score of a sample: `mean(log cosh s) − E[log cosh ν]`.
///
/// The caller is responsible for standardizing `s` to zero mean and unit
/// variance (FastICA components already are).
pub fn negentropy_offset(s: &[f64]) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let mean_g = s.iter().map(|&u| ln_cosh(u)).sum::<f64>() / s.len() as f64;
    mean_g - gaussian_ln_cosh()
}

/// Standardize a sample to zero mean / unit (population) variance in place.
/// Constant samples are centered only.
pub fn standardize_inplace(s: &mut [f64]) {
    let n = s.len();
    if n == 0 {
        return;
    }
    let mean = s.iter().sum::<f64>() / n as f64;
    let var = s.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let inv_sd = if var > 0.0 { 1.0 / var.sqrt() } else { 1.0 };
    for x in s.iter_mut() {
        *x = (*x - mean) * inv_sd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn pca_score_zero_at_unit_variance() {
        assert_eq!(pca_score(1.0), 0.0);
    }

    #[test]
    fn pca_score_positive_off_unity_and_symmetric_in_log() {
        assert!(pca_score(2.0) > 0.0);
        assert!(pca_score(0.5) > 0.0);
        // KL(N(0,σ²)‖N(0,1)) is not symmetric in σ² ↔ 1/σ², but both must
        // be positive and the larger deviation must score higher.
        assert!(pca_score(4.0) > pca_score(2.0));
        assert!(pca_score(0.1) > pca_score(0.5));
    }

    #[test]
    fn pca_score_collapsed_direction_is_infinite() {
        assert_eq!(pca_score(0.0), f64::INFINITY);
        assert_eq!(pca_score(-1.0), f64::INFINITY);
    }

    #[test]
    fn ln_cosh_matches_naive_for_moderate_x() {
        for &x in &[-3.0, -0.5, 0.0, 0.1, 2.0] {
            assert!((ln_cosh(x) - x.cosh().ln()).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn ln_cosh_no_overflow_for_huge_x() {
        let v = ln_cosh(1e4);
        assert!((v - (1e4 - std::f64::consts::LN_2)).abs() < 1e-9);
    }

    #[test]
    fn logcosh_gaussian_expectation_known_value() {
        // Literature value E[log cosh ν] ≈ 0.3746 (FastICA negentropy tables).
        let e = gaussian_ln_cosh();
        assert!((e - 0.37457).abs() < 1e-4, "got {e}");
    }

    #[test]
    fn derivatives_are_consistent() {
        // Finite differences of G match g; of g match g'.
        let h = 1e-6;
        for &u in &[-2.0, -0.3, 0.7, 1.9] {
            let (g, g_prime) = g_pair(u);
            let dg = (ln_cosh(u + h) - ln_cosh(u - h)) / (2.0 * h);
            assert!((dg - g).abs() < 1e-6, "u={u}");
            let dgp = (g_pair(u + h).0 - g_pair(u - h).0) / (2.0 * h);
            assert!((dgp - g_prime).abs() < 1e-5, "u={u}");
        }
    }

    #[test]
    fn g_pair_matches_separate_formulas_bitwise() {
        // The one-evaluation pair must reproduce the two separate
        // derivative formulas of the general log-cosh contrast at α = 1
        // bit for bit — signed zeros, subnormals and saturated tanh
        // included — because FastICA's fixed-point bytes depend on them.
        let alpha = 1.0_f64;
        let g = |u: f64| tanh(alpha * u);
        let g_prime = |u: f64| {
            let t = tanh(alpha * u);
            alpha * (1.0 - t * t)
        };
        let mut grid = vec![0.0, 1e-310, 0.5, 20.0, 800.0, 1e-3, 0.7, 1.9, 3.3, 38.5];
        grid.extend((0..64).map(|i| i as f64 * 0.37 - 4.1));
        let grid: Vec<f64> = grid.iter().flat_map(|&u| [u, -u]).collect();
        for &u in &grid {
            let (a, b) = g_pair(u);
            assert_eq!(a.to_bits(), g(u).to_bits(), "g({u:e})");
            assert_eq!(b.to_bits(), g_prime(u).to_bits(), "g'({u:e})");
        }
    }

    /// Distance in units in the last place, over the ordered bit patterns.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |x: f64| {
            let i = x.to_bits() as i64;
            if i < 0 {
                i64::MIN - i
            } else {
                i
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    #[test]
    fn tanh_stays_within_two_ulp_of_libm() {
        let mut rng = Rng::seed_from_u64(2018);
        let uniform = (0..1_000_000).map(|_| rng.uniform() * 60.0 - 30.0);
        // Log-spaced from 1e-320 (subnormal) up to 1, both signs.
        let tiny = (0..=3200).flat_map(|i| {
            let u = 10f64.powf(-320.0 + i as f64 * 0.1);
            [u, -u]
        });
        let mut worst = (0, 0.0);
        for u in uniform.chain(tiny) {
            let d = ulps(tanh(u), u.tanh());
            if d > worst.0 {
                worst = (d, u);
            }
        }
        assert!(worst.0 <= 2, "{} ulp at u = {:e}", worst.0, worst.1);
    }

    #[test]
    fn tanh_is_odd_bit_for_bit() {
        assert_eq!(tanh(0.0).to_bits(), 0.0_f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0_f64).to_bits());
        let mut rng = Rng::seed_from_u64(7);
        let draws = (0..100_000).map(|_| (rng.uniform() - 0.5) * 50.0);
        for u in draws.chain([0.625, 0.624_999_999_999_999_9, 22.0, 1e-300, 5e-324]) {
            assert_eq!(tanh(-u).to_bits(), (-tanh(u)).to_bits(), "u = {u:e}");
        }
    }

    #[test]
    fn tanh_keeps_subnormals_saturates_and_keeps_nan() {
        for u in [5e-324, 1e-310, f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE] {
            assert_eq!(tanh(u).to_bits(), u.to_bits(), "u = {u:e}");
            assert_eq!(tanh(-u).to_bits(), (-u).to_bits(), "u = -{u:e}");
        }
        for u in [22.0, 22.5, 30.0, 800.0, 1e300, f64::MAX, f64::INFINITY] {
            assert_eq!(tanh(u), 1.0, "u = {u:e}");
            assert_eq!(tanh(-u), -1.0, "u = -{u:e}");
        }
        assert!(tanh(f64::NAN).is_nan());
        assert!(tanh(-f64::NAN).is_nan());
        assert!(g_pair(f64::NAN).0.is_nan() && g_pair(f64::NAN).1.is_nan());
    }

    #[test]
    fn negentropy_near_zero_for_gaussian_sample() {
        let mut rng = Rng::seed_from_u64(123);
        let mut s = rng.standard_normal_vec(200_000);
        standardize_inplace(&mut s);
        let score = negentropy_offset(&s);
        assert!(score.abs() < 0.003, "score {score}");
    }

    #[test]
    fn negentropy_negative_for_super_gaussian_logcosh() {
        // Laplace-like: sign * exponential. With the log-cosh contrast,
        // heavy tails lower E[G] below the Gaussian reference.
        let mut rng = Rng::seed_from_u64(7);
        let mut s: Vec<f64> = (0..100_000)
            .map(|_| {
                let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                sign * (-(1.0 - rng.uniform()).ln())
            })
            .collect();
        standardize_inplace(&mut s);
        let score = negentropy_offset(&s);
        assert!(score < -0.02, "score {score}");
    }

    #[test]
    fn negentropy_positive_for_sub_gaussian_logcosh() {
        // Uniform distribution is sub-Gaussian: E[log cosh] exceeds the
        // Gaussian reference (≈0.4154 vs ≈0.3746).
        let mut rng = Rng::seed_from_u64(8);
        let mut s: Vec<f64> = (0..100_000).map(|_| rng.uniform() - 0.5).collect();
        standardize_inplace(&mut s);
        let score = negentropy_offset(&s);
        assert!(score > 0.02, "score {score}");
    }

    #[test]
    fn bimodal_cluster_structure_scores_positive_logcosh() {
        // Two separated clusters along a line — what the ICA view hunts
        // for, and why Table I's initial scores are positive.
        let mut rng = Rng::seed_from_u64(9);
        let mut s: Vec<f64> = (0..50_000)
            .map(|_| {
                let c = if rng.bernoulli(0.5) { -2.0 } else { 2.0 };
                rng.normal(c, 0.3)
            })
            .collect();
        standardize_inplace(&mut s);
        let score = negentropy_offset(&s);
        assert!(score > 0.03, "score {score}");
    }

    #[test]
    fn standardize_inplace_moments() {
        let mut s = vec![10.0, 12.0, 14.0, 16.0];
        standardize_inplace(&mut s);
        let mean: f64 = s.iter().sum::<f64>() / 4.0;
        let var: f64 = s.iter().map(|x| x * x).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardize_constant_sample() {
        let mut s = vec![3.0, 3.0];
        standardize_inplace(&mut s);
        assert_eq!(s, vec![0.0, 0.0]);
    }

    #[test]
    fn negentropy_empty_sample_is_zero() {
        assert_eq!(negentropy_offset(&[]), 0.0);
    }
}
