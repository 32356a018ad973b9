//! Statistics substrate for the IC-Cache reproduction.
//!
//! The IC-Cache paper leans on a handful of statistical primitives that
//! appear all over the system: exponential moving averages for load tracking
//! (§4.2) and example-gain tracking (§4.3), decaying counters for cache
//! eviction (§4.3, 0.9/hour decay), latency percentiles (§6.4), empirical
//! CDFs (Figs. 3, 10), Pearson correlation (Fig. 7), and a collection of
//! random distributions used by the workload generators and the simulator.
//!
//! Only the `rand` crate is available offline, so the distributions that
//! would normally come from `rand_distr` (Normal, Gamma, Beta, Dirichlet,
//! Zipf, Poisson, ...) are implemented here from scratch, together with the
//! small numeric utilities the rest of the workspace shares.
//!
//! # Examples
//!
//! ```
//! use ic_stats::dist::Normal;
//! use ic_stats::rng::rng_from_seed;
//!
//! let mut rng = rng_from_seed(7);
//! let n = Normal::new(0.0, 1.0).unwrap();
//! let x = n.sample(&mut rng);
//! assert!(x.is_finite());
//! ```

pub mod correlation;
pub mod dist;
pub mod ema;
pub mod histogram;
pub mod idmap;
pub mod percentile;
pub mod rng;
pub mod welford;

pub use correlation::{pearson, spearman};
pub use dist::{Beta, Dirichlet, Exponential, Gamma, LogNormal, Normal, Poisson, Zipf};
pub use ema::{DecayingCounter, Ema};
pub use histogram::{Cdf, Histogram};
pub use idmap::IdMap;
pub use percentile::{PercentileSnapshot, Percentiles};
pub use rng::{SeedStream, rng_from_seed, split_mix64};
pub use welford::RunningStats;

/// Numerically-stable logistic sigmoid.
///
/// Used by the quality model (`ic-llmsim`), the proxy helpfulness model
/// (`ic-selector`) and the RouteLLM baseline classifier.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Clamps a value into the closed unit interval.
#[inline]
pub fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// Linear interpolation between `a` and `b` by `t in [0, 1]`.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_monotonic_and_bounded() {
        let mut prev = 0.0;
        for i in -100..=100 {
            let x = i as f64 / 10.0;
            let y = sigmoid(x);
            assert!((0.0..=1.0).contains(&y));
            assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn sigmoid_midpoint_is_half() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_extremes_saturate() {
        assert!(sigmoid(100.0) > 1.0 - 1e-12);
        assert!(sigmoid(-100.0) < 1e-12);
        // Large magnitudes must not overflow to NaN.
        assert!(sigmoid(1e308).is_finite());
        assert!(sigmoid(-1e308).is_finite());
    }

    #[test]
    fn clamp01_clamps() {
        assert_eq!(clamp01(-0.5), 0.0);
        assert_eq!(clamp01(1.5), 1.0);
        assert_eq!(clamp01(0.25), 0.25);
    }

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 4.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 4.0, 1.0), 4.0);
        assert_eq!(lerp(2.0, 4.0, 0.5), 3.0);
    }
}
