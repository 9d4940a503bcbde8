//! Percentiles, the tail rule and success accounting.

/// 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// sorted samples: the smallest rank whose share of samples is ≥ `p`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "a percentile needs samples");
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Ascending copy.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Mean without the lowest and the highest sample (the plain mean of two
/// or fewer; the median of three).
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    if s.len() > 2 {
        mean(&s[1..s.len() - 1])
    } else {
        mean(&s)
    }
}

/// Samples a tail percentile needs strictly beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles tried for the tail, highest first. p99.9 is left out: at
/// the sample counts a run affords it never has ten samples beyond it.
pub const TAIL_LADDER: [u32; 4] = [99, 90, 75, 50];

/// A resolved tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile used (99, 90, 75 or 50).
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples beyond it; below 20 samples none has, and the
/// median stands in (its `beyond` then says so).
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let at = |p: u32| {
        let rank = nearest_rank(n, f64::from(p));
        Tail {
            percentile: p,
            value: sorted[rank - 1],
            samples: n,
            beyond: n - rank,
        }
    };
    TAIL_LADDER
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= TAIL_BEYOND)
        .unwrap_or_else(|| at(50))
}

/// How one attempted request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// 2xx and every output check passed.
    Ok,
    /// The server answered with a non-2xx status.
    Status(u16),
    /// Connect, send or receive failed, or the reply was not HTTP.
    Transport(String),
    /// 2xx, but an output check failed.
    Check(String),
}

/// Requests attempted and how they ended.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that ended in [`Outcome::Ok`].
    pub ok: u64,
    /// The first few failures, for the run record.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one attempt.
    pub fn record(&mut self, what: &str, outcome: &Outcome) {
        self.attempted += 1;
        let failure = match outcome {
            Outcome::Ok => {
                self.ok += 1;
                return;
            }
            Outcome::Status(s) => format!("{what}: status {s}"),
            Outcome::Transport(e) => format!("{what}: transport: {e}"),
            Outcome::Check(e) => format!("{what}: check: {e}"),
        };
        if self.failures.len() < 8 {
            self.failures.push(failure);
        }
    }

    /// Add another tally.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        for f in &other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f.clone());
            }
        }
    }

    /// Attempts that did not end in [`Outcome::Ok`].
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Successful share of attempts (0 when nothing was attempted).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.ok as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 3.0]), 3.0);
        assert_eq!(trimmed_mean(&[1.0, 100.0, 2.0, 4.0]), 3.0);
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let series = |n: usize| -> Vec<f64> { (1..=n).map(|x| x as f64).collect() };
        // 1000 samples: p99 is rank 990, ten beyond.
        let t = tail(&series(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));
        // 999 samples: p99 is rank 990, nine beyond; p90 has 99 beyond.
        let t = tail(&series(999));
        assert_eq!((t.percentile, t.value, t.beyond), (90, 900.0, 99));
        // 100 samples: p90 is rank 90, ten beyond.
        assert_eq!(tail(&series(100)).percentile, 90);
        // 99 samples: p90 has nine beyond; p75 (rank 75) has 24.
        let t = tail(&series(99));
        assert_eq!((t.percentile, t.beyond), (75, 24));
        // 20 samples: only the median has ten beyond.
        let t = tail(&series(20));
        assert_eq!((t.percentile, t.value, t.beyond), (50, 10.0, 10));
        // Fewer than 20: the median stands in and says it is short.
        let t = tail(&series(12));
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (50, 6.0, 6, 12)
        );
    }

    #[test]
    fn success_rate_counts_transport_errors_and_non_2xx_as_failures() {
        let mut t = Tally::default();
        t.record("view", &Outcome::Ok);
        t.record("view", &Outcome::Status(404));
        t.record("create", &Outcome::Status(429));
        t.record("update", &Outcome::Transport("connect: refused".into()));
        t.record("view", &Outcome::Check("3 data points, want 150".into()));
        t.record("view", &Outcome::Ok);
        assert_eq!(t.attempted, 6);
        assert_eq!(t.failed(), 4);
        assert!((t.success_rate() - 2.0 / 6.0).abs() < 1e-15);
        assert_eq!(t.failures.len(), 4);
        let mut all = Tally::default();
        all.merge(&t);
        all.record("health", &Outcome::Ok);
        assert_eq!((all.attempted, all.ok), (7, 3));
        assert_eq!(Tally::default().success_rate(), 0.0);
    }
}
