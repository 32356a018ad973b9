//! Beta–Bernoulli Thompson sampling (Appendix A.2).
//!
//! "Thompson sampling maintains a Beta distribution for each model,
//! representing our belief about its performance. After each comparison or
//! round, we update these distributions and sample from them to make
//! selections." This context-free bandit backs the paper's sample-
//! complexity analysis (Theorems 1–3) and serves as an ablation against
//! the contextual router.

use ic_llmsim::ModelId;
use ic_stats::dist::Beta;
use rand::Rng;

/// Per-arm Beta posterior.
#[derive(Debug, Clone)]
struct BetaArm {
    model: ModelId,
    wins: f64,
    losses: f64,
}

/// A Beta–Bernoulli Thompson-sampling bandit.
///
/// # Examples
///
/// ```
/// use ic_llmsim::ModelId;
/// use ic_router::BetaBandit;
/// use ic_stats::rng::rng_from_seed;
///
/// let mut b = BetaBandit::new(vec![ModelId(0), ModelId(1)]);
/// let mut rng = rng_from_seed(1);
/// for _ in 0..300 {
///     b.update(ModelId(1), true);
///     b.update(ModelId(0), false);
/// }
/// assert_eq!(b.best_arm(), ModelId(1));
/// let _ = b.sample_arm(&mut rng);
/// ```
#[derive(Debug, Clone)]
pub struct BetaBandit {
    arms: Vec<BetaArm>,
}

impl BetaBandit {
    /// Creates a bandit with uniform Beta(1, 1) priors.
    ///
    /// # Panics
    ///
    /// Panics on an empty arm set.
    pub fn new(models: Vec<ModelId>) -> Self {
        assert!(!models.is_empty(), "need at least one arm");
        Self {
            arms: models
                .into_iter()
                .map(|model| BetaArm {
                    model,
                    wins: 0.0,
                    losses: 0.0,
                })
                .collect(),
        }
    }

    /// Thompson-samples every arm's posterior and returns the winner.
    pub fn sample_arm(&self, rng: &mut impl Rng) -> ModelId {
        self.arms
            .iter()
            .map(|a| {
                let d = Beta::new(1.0 + a.wins, 1.0 + a.losses).expect("valid posterior");
                (a.model, d.sample(rng))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty")
            .0
    }

    /// Records a win (true) or loss (false) for an arm.
    pub fn update(&mut self, model: ModelId, win: bool) {
        if let Some(a) = self.arms.iter_mut().find(|a| a.model == model) {
            if win {
                a.wins += 1.0;
            } else {
                a.losses += 1.0;
            }
        }
    }

    /// Posterior-mean estimate of an arm's win probability.
    pub fn posterior_mean(&self, model: ModelId) -> f64 {
        self.arms
            .iter()
            .find(|a| a.model == model)
            .map_or(0.5, |a| (1.0 + a.wins) / (2.0 + a.wins + a.losses))
    }

    /// Arm with the highest posterior mean.
    pub fn best_arm(&self) -> ModelId {
        self.arms
            .iter()
            .max_by(|a, b| {
                self.posterior_mean(a.model)
                    .total_cmp(&self.posterior_mean(b.model))
            })
            .expect("non-empty")
            .model
    }

    /// Total observations across arms.
    pub fn total_updates(&self) -> u64 {
        self.arms.iter().map(|a| (a.wins + a.losses) as u64).sum()
    }

    /// Additive gossip merge: folds a peer's Beta posteriors into this
    /// bandit, discounting the peer's pseudo-counts by `discount` (the
    /// staleness factor — stale remote evidence counts for less than
    /// fresh local evidence). Arms unknown to this bandit are ignored;
    /// Beta sufficient statistics are additive, so the merged posterior
    /// is exactly the posterior of the combined (discounted) evidence.
    ///
    /// # Panics
    ///
    /// Panics if `discount` is outside `[0, 1]` (programming error).
    pub fn merge_discounted(&mut self, peer: &BetaBandit, discount: f64) {
        assert!(
            (0.0..=1.0).contains(&discount),
            "discount must be in [0, 1], got {discount}"
        );
        for arm in &mut self.arms {
            if let Some(p) = peer.arms.iter().find(|a| a.model == arm.model) {
                arm.wins += discount * p.wins;
                arm.losses += discount * p.losses;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_stats::rng::rng_from_seed;
    use rand::RngExt;

    /// Bradley–Terry comparison environment matching Appendix A.2.
    fn run_identification(
        true_utils: &[f64],
        rounds: usize,
        seed: u64,
    ) -> (BetaBandit, Vec<usize>) {
        let models: Vec<ModelId> = (0..true_utils.len()).map(ModelId).collect();
        let mut b = BetaBandit::new(models);
        let mut rng = rng_from_seed(seed);
        let mut picks = vec![0usize; true_utils.len()];
        for _ in 0..rounds {
            let arm = b.sample_arm(&mut rng);
            picks[arm.0] += 1;
            // Bernoulli reward with the arm's true utility.
            let win = rng.random::<f64>() < true_utils[arm.0];
            b.update(arm, win);
        }
        (b, picks)
    }

    #[test]
    fn theorem1_failure_probability_decays_with_rounds() {
        // P(identified best != true best) should fall as T grows.
        let utils = [0.45, 0.6, 0.5];
        let trials = 30;
        let errors_at = |rounds: usize| -> usize {
            (0..trials)
                .filter(|&s| {
                    let (b, _) = run_identification(&utils, rounds, 100 + s as u64);
                    b.best_arm() != ModelId(1)
                })
                .count()
        };
        let early = errors_at(40);
        let late = errors_at(800);
        assert!(
            late <= early,
            "error count should not grow with data: {early} -> {late}"
        );
        assert!(late <= 2, "too many identification errors at T=800: {late}");
    }

    #[test]
    fn suboptimal_arms_are_sampled_logarithmically() {
        // Thompson sampling pulls suboptimal arms O(log T / gap^2) times:
        // the pull share of bad arms must shrink over time.
        let utils = [0.3, 0.75];
        let (_, picks_short) = run_identification(&utils, 200, 7);
        let (_, picks_long) = run_identification(&utils, 4000, 7);
        let bad_share_short = picks_short[0] as f64 / 200.0;
        let bad_share_long = picks_long[0] as f64 / 4000.0;
        assert!(
            bad_share_long < bad_share_short / 2.0,
            "bad-arm share should shrink: {bad_share_short} -> {bad_share_long}"
        );
    }

    #[test]
    fn theorem2_smaller_gap_needs_more_samples() {
        // Delta_min in the denominator: distinguishing 0.50 vs 0.52 takes
        // far longer than 0.3 vs 0.7. At a budget where the wide gap is
        // always solved, the narrow gap should still show errors.
        let trials = 25;
        let errors = |utils: [f64; 2]| -> usize {
            (0..trials)
                .filter(|&s| {
                    let models = vec![ModelId(0), ModelId(1)];
                    let mut b = BetaBandit::new(models);
                    let mut rng = rng_from_seed(500 + s as u64);
                    for _ in 0..150 {
                        let arm = b.sample_arm(&mut rng);
                        let win = rng.random::<f64>() < utils[arm.0];
                        b.update(arm, win);
                    }
                    b.best_arm() != ModelId(1)
                })
                .count()
        };
        let wide = errors([0.3, 0.7]);
        let narrow = errors([0.50, 0.54]);
        assert!(
            narrow > wide,
            "narrow gap should be harder: wide {wide} vs narrow {narrow}"
        );
    }

    #[test]
    fn posterior_mean_tracks_observations() {
        let mut b = BetaBandit::new(vec![ModelId(0)]);
        assert_eq!(b.posterior_mean(ModelId(0)), 0.5);
        for _ in 0..8 {
            b.update(ModelId(0), true);
        }
        for _ in 0..2 {
            b.update(ModelId(0), false);
        }
        // (1 + 8) / (2 + 10) = 0.75.
        assert!((b.posterior_mean(ModelId(0)) - 0.75).abs() < 1e-12);
        assert_eq!(b.total_updates(), 10);
    }

    #[test]
    fn unknown_model_reads_neutral() {
        let b = BetaBandit::new(vec![ModelId(0)]);
        assert_eq!(b.posterior_mean(ModelId(42)), 0.5);
    }

    #[test]
    fn discounted_merge_folds_peer_evidence() {
        let mut local = BetaBandit::new(vec![ModelId(0), ModelId(1)]);
        let mut peer = BetaBandit::new(vec![ModelId(0), ModelId(1)]);
        for _ in 0..8 {
            peer.update(ModelId(1), true);
        }
        for _ in 0..8 {
            peer.update(ModelId(0), false);
        }
        local.merge_discounted(&peer, 0.5);
        // 4 discounted wins: (1 + 4) / (2 + 4) for arm 1.
        assert!((local.posterior_mean(ModelId(1)) - 5.0 / 6.0).abs() < 1e-12);
        assert!((local.posterior_mean(ModelId(0)) - 1.0 / 6.0).abs() < 1e-12);
        // Full discount equals plain addition; zero discount is a no-op.
        let mut zero = BetaBandit::new(vec![ModelId(1)]);
        zero.merge_discounted(&peer, 0.0);
        assert_eq!(zero.posterior_mean(ModelId(1)), 0.5);
        // Peer arms the local bandit does not track are ignored.
        let mut narrow = BetaBandit::new(vec![ModelId(7)]);
        narrow.merge_discounted(&peer, 1.0);
        assert_eq!(narrow.total_updates(), 0);
    }

    #[test]
    #[should_panic(expected = "discount must be in")]
    fn merge_rejects_out_of_range_discount() {
        let mut b = BetaBandit::new(vec![ModelId(0)]);
        let peer = b.clone();
        b.merge_discounted(&peer, 1.5);
    }
}
