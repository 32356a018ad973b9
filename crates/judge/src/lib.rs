//! LLM-as-a-judge autorater simulation.
//!
//! The paper evaluates response quality with the LLM-as-a-judge framework
//! (§2.1, §6.1): an expert model compares two responses side-by-side and
//! emits a seven-point Likert score in `{-3..3}`, where a mean score within
//! `[-0.3, 0.3]` counts as a tie, and win rate is
//! `(#wins + 0.5 * #ties) / #total`. To reduce order bias, each pair is
//! sampled eight times per input order (16 comparisons, §6.1).
//!
//! Here a judge observes the *latent* qualities of two responses through
//! noise and a position bias, then maps the perceived gap onto the Likert
//! scale. Judge noise levels are calibrated so that the judge–judge and
//! judge–human agreement rates reproduce Table 4 (`tab04_judges`).
//!
//! # Examples
//!
//! ```
//! use ic_judge::{Autorater, JudgeConfig};
//! use ic_stats::rng::rng_from_seed;
//!
//! let judge = Autorater::new(JudgeConfig::default());
//! let mut rng = rng_from_seed(1);
//! // Model A is clearly better: expect a positive mean score.
//! let score = judge.score_balanced(0.9, 0.4, 8, &mut rng);
//! assert!(score > 1.0);
//! ```

pub mod agreement;
pub mod eval;

pub use agreement::{Rater, agreement_matrix, pairwise_agreement};
pub use eval::{PairwiseEval, Verdict, average_score, win_rate};

use ic_stats::dist::Normal;
use rand::Rng;

/// The paper's tie band: a mean score within `[-0.3, 0.3]` is a tie (§6.1).
pub const TIE_BAND: f64 = 0.3;

/// Perceived-gap thresholds for Likert magnitudes 1, 2 and 3.
pub const SCORE_THRESHOLDS: [f64; 3] = [0.04, 0.13, 0.28];

/// Configuration of one autorater.
#[derive(Debug, Clone)]
pub struct JudgeConfig {
    /// Standard deviation of the noise on the perceived quality gap.
    pub noise: f64,
    /// Additive bias toward the first-listed response (position bias that
    /// balanced sampling cancels out).
    pub order_bias: f64,
}

impl Default for JudgeConfig {
    fn default() -> Self {
        Self {
            noise: 0.10,
            order_bias: 0.03,
        }
    }
}

impl JudgeConfig {
    /// A sharper judge (Gemini-2.5-Pro-class in Table 4).
    pub fn sharp() -> Self {
        Self {
            noise: 0.08,
            ..Self::default()
        }
    }

    /// A noisier judge (human-rater-class agreement in Table 4).
    pub fn noisy() -> Self {
        Self {
            noise: 0.22,
            order_bias: 0.05,
        }
    }
}

/// A pairwise quality judge.
#[derive(Debug, Clone)]
pub struct Autorater {
    config: JudgeConfig,
}

impl Autorater {
    /// Creates a judge.
    pub fn new(config: JudgeConfig) -> Self {
        Self { config }
    }

    /// The default-calibrated judge used across the experiments.
    pub fn standard() -> Self {
        Self::new(JudgeConfig::default())
    }

    /// One order-sensitive comparison: response A (listed first, latent
    /// quality `q_a`) versus response B. Returns a Likert score in
    /// `{-3..3}`; positive favours A.
    pub fn score_pair(&self, q_a: f64, q_b: f64, rng: &mut impl Rng) -> i8 {
        let noise = Normal::new(0.0, self.config.noise)
            .expect("valid noise")
            .sample(rng);
        let perceived = (q_a - q_b) + self.config.order_bias + noise;
        let sign = if perceived >= 0.0 { 1i8 } else { -1i8 };
        let mag = perceived.abs();
        let [t1, t2, t3] = SCORE_THRESHOLDS;
        let level = if mag < t1 {
            0
        } else if mag < t2 {
            1
        } else if mag < t3 {
            2
        } else {
            3
        };
        sign * level
    }

    /// The paper's balanced protocol: `samples_per_order` comparisons in
    /// each presentation order (§6.1 uses 8, i.e. 16 total), returning the
    /// mean score from A's perspective. Order bias cancels in expectation.
    pub fn score_balanced(
        &self,
        q_a: f64,
        q_b: f64,
        samples_per_order: u32,
        rng: &mut impl Rng,
    ) -> f64 {
        assert!(samples_per_order > 0, "need at least one sample per order");
        let mut sum = 0.0;
        for _ in 0..samples_per_order {
            sum += f64::from(self.score_pair(q_a, q_b, rng));
            // Flipped order: negate to recover A's perspective.
            sum -= f64::from(self.score_pair(q_b, q_a, rng));
        }
        sum / (2.0 * f64::from(samples_per_order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_stats::RunningStats;
    use ic_stats::rng::rng_from_seed;

    #[test]
    fn equal_quality_scores_near_zero() {
        let judge = Autorater::standard();
        let mut rng = rng_from_seed(1);
        let mut s = RunningStats::new();
        for _ in 0..500 {
            s.push(judge.score_balanced(0.7, 0.7, 8, &mut rng));
        }
        assert!(s.mean().abs() < 0.1, "mean {}", s.mean());
    }

    #[test]
    fn larger_gap_gives_larger_score() {
        let judge = Autorater::standard();
        let mut rng = rng_from_seed(2);
        let small_gap = judge.score_balanced(0.65, 0.60, 64, &mut rng);
        let big_gap = judge.score_balanced(0.95, 0.40, 64, &mut rng);
        assert!(big_gap > small_gap);
        assert!(big_gap > 2.0);
    }

    #[test]
    fn scores_are_antisymmetric_in_expectation() {
        let judge = Autorater::standard();
        let mut rng = rng_from_seed(3);
        let mut fwd = RunningStats::new();
        let mut rev = RunningStats::new();
        for _ in 0..400 {
            fwd.push(judge.score_balanced(0.8, 0.5, 8, &mut rng));
            rev.push(judge.score_balanced(0.5, 0.8, 8, &mut rng));
        }
        assert!((fwd.mean() + rev.mean()).abs() < 0.1);
    }

    #[test]
    fn single_order_comparison_shows_position_bias() {
        // With identical qualities, the first position should win slightly
        // more often than it loses under a single-order protocol — the bias
        // that §6.1's balanced sampling exists to cancel.
        let judge = Autorater::new(JudgeConfig {
            order_bias: 0.08,
            ..JudgeConfig::default()
        });
        let mut rng = rng_from_seed(4);
        let mut sum = 0i64;
        for _ in 0..4000 {
            sum += i64::from(judge.score_pair(0.7, 0.7, &mut rng));
        }
        assert!(sum > 200, "expected positive bias, got {sum}");
    }

    #[test]
    fn scores_stay_in_likert_range() {
        let judge = Autorater::new(JudgeConfig::noisy());
        let mut rng = rng_from_seed(5);
        for _ in 0..2000 {
            let s = judge.score_pair(1.0, 0.0, &mut rng);
            assert!((-3..=3).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let judge = Autorater::standard();
        let mut rng = rng_from_seed(6);
        let _ = judge.score_balanced(0.5, 0.5, 0, &mut rng);
    }
}
