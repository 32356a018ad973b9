//! Random distributions implemented from scratch on top of `rand`.
//!
//! The offline crate set does not include `rand_distr`, so the distributions
//! the workload generators and simulators need are implemented here:
//!
//! - [`Normal`] / [`LogNormal`] — Box–Muller (both variates used via caching).
//! - [`Exponential`] — inverse CDF.
//! - [`Poisson`] — Knuth's product method for small means, normal
//!   approximation with continuity correction for large means.
//! - [`Beta`] — ratio of Marsaglia–Tsang gammas (with the alpha < 1
//!   boost), used for request difficulty and document quality.
//! - [`Zipf`] — inverse-CDF over precomputed weights, used for topic
//!   popularity (long-tail example reuse, Fig. 10).
//!
//! All samplers take `&mut impl Rng` so callers control determinism.

use rand::{Rng, RngExt};

/// Error returned when constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError(pub &'static str);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.0)
    }
}

impl std::error::Error for ParamError {}

/// Gaussian distribution sampled with the Box–Muller transform.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation. `std_dev` must be non-negative and finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, ParamError> {
        if !std_dev.is_finite() || std_dev < 0.0 || !mean.is_finite() {
            return Err(ParamError("Normal requires finite mean and std_dev >= 0"));
        }
        Ok(Self { mean, std_dev })
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// Draws one standard-normal variate via Box–Muller.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Box–Muller; u1 is kept away from zero so ln() is finite.
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal distribution: `exp(Normal(mu, sigma))`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    inner: Normal,
}

impl LogNormal {
    /// Creates a log-normal with location `mu` and scale `sigma` (of the
    /// underlying normal).
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        Ok(Self {
            inner: Normal::new(mu, sigma)?,
        })
    }

    /// Creates a log-normal from the desired *median* and multiplicative
    /// spread (sigma of the log), which is how token-length distributions
    /// are specified in `ic-workloads`.
    pub fn from_median(median: f64, sigma: f64) -> Result<Self, ParamError> {
        if median <= 0.0 || !median.is_finite() {
            return Err(ParamError("LogNormal median must be positive"));
        }
        Self::new(median.ln(), sigma)
    }

    /// Draws one sample (always positive).
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        self.inner.sample(rng).exp()
    }
}

/// Exponential distribution with rate `lambda`, sampled by inverse CDF.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda > 0`.
    pub fn new(rate: f64) -> Result<Self, ParamError> {
        if !(rate > 0.0) || !rate.is_finite() {
            return Err(ParamError("Exponential requires rate > 0"));
        }
        Ok(Self { rate })
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.rate
    }

    /// The mean (`1 / rate`) of the distribution.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

/// Poisson distribution.
///
/// Knuth's method is exact but O(lambda); above a threshold the normal
/// approximation with continuity correction is used, which is accurate to
/// well under the noise floor of any experiment in this repository.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with mean `lambda >= 0`.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if !(lambda >= 0.0) || !lambda.is_finite() {
            return Err(ParamError("Poisson requires lambda >= 0"));
        }
        Ok(Self { lambda })
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            // Knuth: multiply uniforms until the product drops below e^-lambda.
            let l = (-self.lambda).exp();
            let mut k: u64 = 0;
            let mut p = 1.0;
            loop {
                p *= rng.random::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let x = self.lambda + self.lambda.sqrt() * standard_normal(rng);
            x.round().max(0.0) as u64
        }
    }
}

/// Samples `Gamma(shape, 1)` with the Marsaglia–Tsang method.
fn sample_gamma_shape(shape: f64, rng: &mut impl Rng) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma_shape(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Beta distribution, sampled as a ratio of gammas.
#[derive(Debug, Clone, Copy)]
pub struct Beta {
    a: f64,
    b: f64,
}

impl Beta {
    /// Creates a beta distribution with `alpha > 0` and `beta > 0`.
    pub fn new(a: f64, b: f64) -> Result<Self, ParamError> {
        if !(a > 0.0) || !(b > 0.0) || !a.is_finite() || !b.is_finite() {
            return Err(ParamError("Beta requires alpha > 0 and beta > 0"));
        }
        Ok(Self { a, b })
    }

    /// Draws one sample in `(0, 1)`.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let x = sample_gamma_shape(self.a, rng);
        let y = sample_gamma_shape(self.b, rng);
        if x + y == 0.0 {
            return 0.5;
        }
        x / (x + y)
    }

    /// The mean `alpha / (alpha + beta)`.
    pub fn mean(&self) -> f64 {
        self.a / (self.a + self.b)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Rank 0 is the most popular item. Sampling is by binary search over the
/// precomputed cumulative weights, so draws are O(log n).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n >= 1` ranks with exponent
    /// `s >= 0` (s = 0 degenerates to uniform).
    pub fn new(n: usize, s: f64) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError("Zipf requires n >= 1"));
        }
        if !(s >= 0.0) || !s.is_finite() {
            return Err(ParamError("Zipf requires exponent >= 0"));
        }
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cumulative.push(acc);
        }
        Ok(Self { cumulative })
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let u: f64 = rng.random::<f64>() * total;
        // First index whose cumulative weight exceeds u.
        match self
            .cumulative
            .binary_search_by(|w| w.partial_cmp(&u).expect("weights are finite"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    /// Probability mass of a given rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        let total = *self.cumulative.last().expect("non-empty");
        let lo = if rank == 0 {
            0.0
        } else {
            self.cumulative[rank - 1]
        };
        (self.cumulative[rank] - lo) / total
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the support is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use crate::welford::RunningStats;

    fn stats_of(mut f: impl FnMut(&mut rand::rngs::StdRng) -> f64, n: usize) -> RunningStats {
        let mut rng = rng_from_seed(2024);
        let mut s = RunningStats::new();
        for _ in 0..n {
            s.push(f(&mut rng));
        }
        s
    }

    #[test]
    fn normal_moments_match() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let s = stats_of(|r| d.sample(r), 50_000);
        assert!((s.mean() - 3.0).abs() < 0.05, "mean {}", s.mean());
        assert!((s.std_dev() - 2.0).abs() < 0.05, "std {}", s.std_dev());
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn lognormal_is_positive_with_right_median() {
        let d = LogNormal::from_median(100.0, 0.5).unwrap();
        let mut rng = rng_from_seed(5);
        let mut samples: Vec<f64> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 100.0).abs() / 100.0 < 0.05, "median {median}");
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::new(0.25).unwrap();
        let s = stats_of(|r| d.sample(r), 50_000);
        assert!((s.mean() - 4.0).abs() < 0.1, "mean {}", s.mean());
    }

    #[test]
    fn poisson_small_and_large_means() {
        for lambda in [0.5, 4.0, 80.0] {
            let d = Poisson::new(lambda).unwrap();
            let s = stats_of(|r| d.sample(r) as f64, 30_000);
            assert!(
                (s.mean() - lambda).abs() < 0.05 * lambda.max(2.0),
                "lambda {lambda} mean {}",
                s.mean()
            );
            // Poisson variance equals the mean.
            assert!(
                (s.variance() - lambda).abs() < 0.1 * lambda.max(2.0),
                "lambda {lambda} var {}",
                s.variance()
            );
        }
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let d = Poisson::new(0.0).unwrap();
        let mut rng = rng_from_seed(1);
        assert_eq!(d.sample(&mut rng), 0);
    }

    #[test]
    fn gamma_moments_match() {
        // Gamma(shape k, scale th): mean k*th, var k*th^2.
        for (k, th) in [(0.5, 2.0), (2.0, 1.5), (9.0, 0.5)] {
            let s = stats_of(|r| th * sample_gamma_shape(k, r), 60_000);
            assert!(
                (s.mean() - k * th).abs() < 0.05 * (k * th),
                "k={k} mean {}",
                s.mean()
            );
            assert!(
                (s.variance() - k * th * th).abs() < 0.12 * (k * th * th),
                "k={k} var {}",
                s.variance()
            );
        }
    }

    #[test]
    fn beta_mean_matches_and_is_bounded() {
        let d = Beta::new(2.0, 6.0).unwrap();
        let mut rng = rng_from_seed(3);
        let mut s = RunningStats::new();
        for _ in 0..30_000 {
            let x = d.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x));
            s.push(x);
        }
        assert!((s.mean() - 0.25).abs() < 0.01, "mean {}", s.mean());
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let d = Zipf::new(1000, 1.1).unwrap();
        let mut rng = rng_from_seed(11);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[999] * 10);
        // The empirical head mass should match the pmf within noise.
        let head = counts[0] as f64 / 100_000.0;
        assert!((head - d.pmf(0)).abs() < 0.01);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let d = Zipf::new(10, 0.0).unwrap();
        let mut rng = rng_from_seed(13);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 100_000.0 - 0.1).abs() < 0.01);
        }
    }

    #[test]
    fn zipf_samples_in_range() {
        let d = Zipf::new(3, 2.0).unwrap();
        let mut rng = rng_from_seed(17);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) < 3);
        }
    }
}
