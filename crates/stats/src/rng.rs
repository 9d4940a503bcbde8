//! Deterministic pseudo-random number generation.
//!
//! A self-contained xoshiro256++ generator (public-domain algorithm by
//! Blackman & Vigna) seeded through SplitMix64. We implement it in-repo
//! instead of depending on `rand` so that (a) every experiment table is
//! reproducible bit-for-bit across platforms and crate-version bumps, and
//! (b) the library has zero runtime dependencies.

use sider_linalg::Matrix;

/// xoshiro256++ pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second Box–Muller output.
    spare_normal: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            state,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = rotl(s[0].wrapping_add(s[3]), 23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` (Lemire-style rejection-free for our
    /// non-cryptographic needs: simple modulo with 64→128 multiply).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below: n must be positive");
        // Multiply-shift maps the 64-bit output to [0, n) with negligible bias.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal via Box–Muller (caches the second output).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid log(0) by nudging u1 away from zero.
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Take the cached second Box–Muller output, if one is pending.
    ///
    /// [`Rng::standard_normal`] generates normals in pairs and caches the
    /// second; a consumer that draws an odd count and then drops the
    /// generator (e.g. a per-row substream) would silently waste it. This
    /// hands the spare to the caller — `sider_maxent` carries it into the
    /// next row's draw, deterministically, so odd-`d` sampling performs
    /// the same number of Box–Muller transforms as a single shared stream.
    #[inline]
    pub fn take_spare_normal(&mut self) -> Option<f64> {
        self.spare_normal.take()
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Vector of iid standard normals.
    pub fn standard_normal_vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.standard_normal()).collect()
    }

    /// `n × d` matrix of iid standard normals.
    pub fn standard_normal_matrix(&mut self, n: usize, d: usize) -> Matrix {
        Matrix::from_vec(n, d, (0..n * d).map(|_| self.standard_normal()).collect())
    }

    /// Sample `k` distinct indices from `[0, n)` (k ≤ n).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k > n");
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: first k positions are a uniform sample.
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Draw from a discrete distribution given (unnormalized) weights.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index: weights must sum to > 0");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Counter-seeded substream: a generator that depends only on
    /// `(master, index)`, never on draw order or thread scheduling — the
    /// primitive behind deterministic parallel sampling (substream `i`
    /// drives row `i`, so any work distribution produces the same bytes).
    ///
    /// The index is folded into the master seed with a golden-ratio
    /// multiply plus a SplitMix64 scramble, then expanded into xoshiro
    /// state by the usual SplitMix64 cascade in [`Rng::seed_from_u64`];
    /// adjacent indices land in statistically unrelated states.
    pub fn substream(master: u64, index: u64) -> Rng {
        let mut folded = master ^ index.wrapping_mul(0x9E3779B97F4A7C15);
        let scrambled = splitmix64(&mut folded);
        Rng::seed_from_u64(scrambled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut r = Rng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Rng::seed_from_u64(3);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[r.below(5)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "{counts:?}");
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = Rng::seed_from_u64(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut r = Rng::seed_from_u64(9);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = Rng::seed_from_u64(17);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.75)).count();
        assert!((hits as f64 / 100_000.0 - 0.75).abs() < 0.01);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = Rng::seed_from_u64(23);
        let s = r.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = Rng::seed_from_u64(29);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn substream_depends_only_on_master_and_index() {
        let a = Rng::substream(99, 7).next_u64();
        let b = Rng::substream(99, 7).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, Rng::substream(99, 8).next_u64());
        assert_ne!(a, Rng::substream(100, 7).next_u64());
    }

    #[test]
    fn substreams_look_independent() {
        // Adjacent substreams must not be correlated: pooled normals from
        // many substreams still have standard moments.
        let n_streams = 2000;
        let per = 10;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 0..n_streams {
            let mut r = Rng::substream(12345, i);
            for _ in 0..per {
                let x = r.standard_normal();
                sum += x;
                sum_sq += x * x;
            }
        }
        let n = (n_streams * per) as f64;
        let mean = sum / n;
        let var = sum_sq / n - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn take_spare_normal_returns_the_second_of_each_pair() {
        let mut a = Rng::seed_from_u64(321);
        let mut b = Rng::seed_from_u64(321);
        let first_a = a.standard_normal();
        let spare = a.take_spare_normal().expect("pair leaves a spare");
        assert_eq!(a.take_spare_normal(), None, "spare is consumed once");
        // The spare is exactly what the paired generator returns next.
        let first_b = b.standard_normal();
        assert_eq!(first_a, first_b);
        assert_eq!(spare, b.standard_normal());
        // After an even number of draws there is nothing pending.
        let mut c = Rng::seed_from_u64(321);
        c.standard_normal();
        c.standard_normal();
        assert_eq!(c.take_spare_normal(), None);
    }

    #[test]
    fn standard_normal_matrix_shape() {
        let mut r = Rng::seed_from_u64(37);
        let m = r.standard_normal_matrix(4, 3);
        assert_eq!(m.shape(), (4, 3));
        assert!(m.is_finite());
    }

    #[test]
    #[should_panic(expected = "below")]
    fn below_zero_panics() {
        let mut r = Rng::seed_from_u64(1);
        let _ = r.below(0);
    }
}
