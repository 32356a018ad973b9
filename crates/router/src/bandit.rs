//! Linear contextual Thompson sampling.
//!
//! Each arm `m` keeps a Bayesian linear-regression posterior over reward:
//! precision `A_m = lambda I + sum(x xT)` and moment `b_m = sum(r x)`.
//! A decision draws `w ~ N(A^{-1} b, v^2 A^{-1})` per arm and scores the
//! context `x` as `wT x`; the highest sampled score wins. This is the
//! "lightweight, data-efficient approach often used in online
//! recommendation systems" the paper adopts (§4.2), with ~0.5M-parameter
//! scale replaced by the feature dimension of this reproduction.
//!
//! The Cholesky factor of `A` and the mean `A^{-1} b` are functions of
//! `(A, b)` alone, and an arm's `(A, b)` moves only when that arm
//! learns — a minority of decisions. Each arm therefore keeps both until
//! [`ContextualBandit::update`] or [`ContextualBandit::apply_stats`]
//! touches it; a decision between two lessons pays the `dim` normal
//! draws, one back substitution and two dot products, nothing else.
//! [`ContextualBandit::refits`] against [`ContextualBandit::evaluations`]
//! says how often that was enough.

use ic_llmsim::ModelId;
use ic_stats::dist::standard_normal;
use rand::Rng;

use crate::linalg::{Matrix, dot};

/// Posterior state of one arm.
#[derive(Debug, Clone)]
struct Arm {
    model: ModelId,
    a: Matrix,
    b: Vec<f64>,
    pulls: u64,
    /// What a decision reads of the current `(a, b)`. `None` from
    /// construction and from every change of `a` or `b` until the next
    /// decision refits it.
    posterior: Option<Posterior>,
}

impl Arm {
    fn new(model: ModelId, dim: usize, lambda: f64) -> Self {
        Self {
            model,
            a: Matrix::scaled_identity(dim, lambda),
            b: vec![0.0; dim],
            pulls: 0,
            posterior: None,
        }
    }
}

/// The part of an arm's posterior a decision samples from.
#[derive(Debug, Clone)]
struct Posterior {
    /// Cholesky factor of `A`.
    l: Matrix,
    /// Posterior mean `A^{-1} b`.
    mu: Vec<f64>,
}

/// A linear contextual Thompson-sampling bandit.
///
/// # Examples
///
/// ```
/// use ic_llmsim::ModelId;
/// use ic_router::ContextualBandit;
/// use ic_stats::rng::rng_from_seed;
///
/// let mut bandit = ContextualBandit::new(vec![ModelId(0), ModelId(1)], 3, 1.0, 0.3);
/// let mut rng = rng_from_seed(1);
/// // Arm 1 pays off on feature[1]; train and check it wins there.
/// for _ in 0..200 {
///     bandit.update(ModelId(0), &[1.0, 1.0, 0.0], 0.2);
///     bandit.update(ModelId(1), &[1.0, 1.0, 0.0], 0.9);
/// }
/// let scores = bandit.sample_scores(&[1.0, 1.0, 0.0], &mut rng);
/// let best = scores.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
/// assert_eq!(best, ModelId(1));
/// ```
#[derive(Debug, Clone)]
pub struct ContextualBandit {
    arms: Vec<Arm>,
    dim: usize,
    /// Ridge prior strength.
    lambda: f64,
    /// Thompson exploration scale (posterior-noise multiplier).
    pub exploration: f64,
    /// The `dim` standard normals of the arm being scored, then the
    /// posterior noise `L^{-T} z` solved in place.
    z: Vec<f64>,
    evaluations: u64,
    refits: u64,
}

impl ContextualBandit {
    /// Creates a bandit over the given arms and feature dimension.
    ///
    /// # Panics
    ///
    /// Panics on an empty arm set, zero dimension, or non-positive prior.
    pub fn new(models: Vec<ModelId>, dim: usize, lambda: f64, exploration: f64) -> Self {
        assert!(!models.is_empty(), "need at least one arm");
        assert!(dim > 0, "need at least one feature");
        assert!(lambda > 0.0, "ridge prior must be positive");
        let arms = models
            .into_iter()
            .map(|model| Arm::new(model, dim, lambda))
            .collect();
        Self {
            arms,
            dim,
            lambda,
            exploration,
            z: vec![0.0; dim],
            evaluations: 0,
            refits: 0,
        }
    }

    /// The arm set in registration order.
    pub fn models(&self) -> Vec<ModelId> {
        self.arms.iter().map(|a| a.model).collect()
    }

    /// Number of updates an arm has absorbed.
    pub fn pulls(&self, model: ModelId) -> u64 {
        self.arms
            .iter()
            .find(|a| a.model == model)
            .map_or(0, |a| a.pulls)
    }

    /// Posterior-mean score of every arm on `x` (no exploration noise).
    pub fn mean_scores(&self, x: &[f64]) -> Vec<(ModelId, f64)> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        self.arms
            .iter()
            .map(|arm| {
                let mu = arm.a.solve_spd(&arm.b).expect("A is SPD by construction");
                (arm.model, dot(&mu, x))
            })
            .collect()
    }

    /// Thompson-sampled score of every arm on `x`. Refits the factor
    /// and mean of each arm that learned since its last decision.
    pub fn sample_scores(&mut self, x: &[f64], rng: &mut impl Rng) -> Vec<(ModelId, f64)> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let Self {
            arms,
            exploration,
            z,
            evaluations,
            refits,
            ..
        } = self;
        arms.iter_mut()
            .map(|arm| {
                *evaluations += 1;
                let Posterior { l, mu } = arm.posterior.get_or_insert_with(|| {
                    *refits += 1;
                    let l = arm.a.cholesky().expect("A is SPD by construction");
                    let y = l.solve_lower(&arm.b);
                    let mu = l.solve_lower_transpose(&y);
                    Posterior { l, mu }
                });
                // w = mu + v * L^{-T} z draws from N(mu, v^2 A^{-1}).
                z.fill_with(|| standard_normal(rng));
                l.solve_lower_transpose_in_place(z);
                let score = dot(mu, x) + *exploration * dot(z, x);
                (arm.model, score)
            })
            .collect()
    }

    /// Arm scorings done by [`Self::sample_scores`] (one per arm per
    /// decision) since construction; clones carry the count on.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// How many of [`Self::evaluations`] had to refactor `A` and re-solve
    /// the mean because the arm had learned since its last decision.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Absorbs one observed reward for `(arm, context)`.
    pub fn update(&mut self, model: ModelId, x: &[f64], reward: f64) {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let Some(arm) = self.arms.iter_mut().find(|a| a.model == model) else {
            return; // Unknown arm (e.g. model retired mid-flight): ignore.
        };
        arm.a.add_outer(x);
        for (bi, xi) in arm.b.iter_mut().zip(x) {
            *bi += reward * xi;
        }
        arm.pulls += 1;
        arm.posterior = None;
    }

    /// Feature dimension of the contexts this bandit scores.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Folds a peer replica's sufficient-statistic delta for one arm into
    /// this posterior, scaled by `scale` (the gossip staleness discount):
    /// `A += scale * d_a`, `b += scale * d_b`. The delta must be the pure
    /// observation part (`sum(x xT)`, `sum(r x)`) — never the peer's
    /// ridge prior, which every replica already owns — so merging keeps
    /// `A` SPD and never double-counts the prior. Unknown arms are
    /// ignored (a replica may learn of a fleet change late).
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch or a negative scale.
    pub fn apply_stats(
        &mut self,
        model: ModelId,
        d_a: &Matrix,
        d_b: &[f64],
        pulls: u64,
        scale: f64,
    ) {
        assert_eq!(d_a.n(), self.dim, "feature dimension mismatch");
        assert_eq!(d_b.len(), self.dim, "feature dimension mismatch");
        assert!(scale >= 0.0, "scale must be non-negative, got {scale}");
        let Some(arm) = self.arms.iter_mut().find(|a| a.model == model) else {
            return;
        };
        arm.a.add_scaled(d_a, scale);
        for (bi, di) in arm.b.iter_mut().zip(d_b) {
            *bi += scale * di;
        }
        arm.pulls += pulls;
        arm.posterior = None;
    }

    /// Registers a new arm at runtime (model fleet changes, §8).
    pub fn add_arm(&mut self, model: ModelId) {
        if self.arms.iter().any(|a| a.model == model) {
            return;
        }
        self.arms.push(Arm::new(model, self.dim, self.lambda));
    }

    /// Removes an arm (model retired).
    pub fn remove_arm(&mut self, model: ModelId) -> bool {
        let before = self.arms.len();
        self.arms.retain(|a| a.model != model);
        self.arms.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_stats::rng::rng_from_seed;

    #[test]
    fn learns_context_dependent_routing() {
        // Arm 0 is good when feature[1] is low, arm 1 when high: the
        // bandit must learn to split on context, which a context-free
        // bandit cannot.
        let mut b = ContextualBandit::new(vec![ModelId(0), ModelId(1)], 2, 1.0, 0.2);
        for i in 0..400 {
            let hard = i % 2 == 0;
            let x = [1.0, if hard { 1.0 } else { 0.0 }];
            let r0 = if hard { 0.2 } else { 0.8 };
            let r1 = if hard { 0.9 } else { 0.5 };
            b.update(ModelId(0), &x, r0);
            b.update(ModelId(1), &x, r1);
        }
        let easy = b.mean_scores(&[1.0, 0.0]);
        let hard = b.mean_scores(&[1.0, 1.0]);
        let best = |s: &[(ModelId, f64)]| s.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
        assert_eq!(best(&easy), ModelId(0));
        assert_eq!(best(&hard), ModelId(1));
    }

    #[test]
    fn exploration_noise_shrinks_with_data() {
        let mut b = ContextualBandit::new(vec![ModelId(0)], 2, 1.0, 1.0);
        let x = [1.0, 0.5];
        let spread = |b: &mut ContextualBandit, seed: u64| {
            let mut rng = rng_from_seed(seed);
            let draws: Vec<f64> = (0..200)
                .map(|_| b.sample_scores(&x, &mut rng)[0].1)
                .collect();
            let mean = draws.iter().sum::<f64>() / draws.len() as f64;
            (draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / draws.len() as f64).sqrt()
        };
        let before = spread(&mut b, 3);
        for _ in 0..500 {
            b.update(ModelId(0), &x, 0.7);
        }
        let after = spread(&mut b, 4);
        assert!(
            after < before / 3.0,
            "posterior should concentrate: {before} -> {after}"
        );
    }

    #[test]
    fn converges_to_best_arm_under_thompson_policy() {
        // Appendix A.2 Theorem 1: the probability of picking a suboptimal
        // arm vanishes. Run the full explore/exploit loop and check the
        // tail window is almost always the best arm.
        let mut b = ContextualBandit::new(vec![ModelId(0), ModelId(1), ModelId(2)], 1, 1.0, 0.5);
        let mut rng = rng_from_seed(5);
        let true_reward = [0.4, 0.7, 0.55];
        let mut last_100 = Vec::new();
        for t in 0..1500 {
            let scores = b.sample_scores(&[1.0], &mut rng);
            let pick = scores.iter().max_by(|a, c| a.1.total_cmp(&c.1)).unwrap().0;
            let noise = 0.1 * standard_normal(&mut rng);
            b.update(pick, &[1.0], true_reward[pick.0] + noise);
            if t >= 1400 {
                last_100.push(pick);
            }
        }
        let best_frac = last_100.iter().filter(|m| m.0 == 1).count() as f64 / 100.0;
        assert!(best_frac > 0.9, "best-arm rate {best_frac}");
    }

    #[test]
    fn apply_stats_matches_direct_updates() {
        // A posterior rebuilt from a shipped delta at scale 1 must be
        // bitwise what the same updates produce applied directly.
        let mut direct = ContextualBandit::new(vec![ModelId(0)], 2, 1.0, 0.2);
        let mut merged = ContextualBandit::new(vec![ModelId(0)], 2, 1.0, 0.2);
        let mut d_a = Matrix::zeros(2);
        let mut d_b = vec![0.0; 2];
        let updates = [([1.0, 0.5], 0.8), ([0.2, 1.0], 0.3), ([1.0, 1.0], 0.6)];
        for (x, r) in &updates {
            direct.update(ModelId(0), x, *r);
            d_a.add_outer(x);
            for (bi, xi) in d_b.iter_mut().zip(x) {
                *bi += r * xi;
            }
        }
        merged.apply_stats(ModelId(0), &d_a, &d_b, updates.len() as u64, 1.0);
        assert_eq!(merged.pulls(ModelId(0)), 3);
        let a = direct.mean_scores(&[1.0, 0.7]);
        let b = merged.mean_scores(&[1.0, 0.7]);
        assert_eq!(a[0].1.to_bits(), b[0].1.to_bits());
        // A discounted merge moves the posterior less than the full one.
        let mut half = ContextualBandit::new(vec![ModelId(0)], 2, 1.0, 0.2);
        half.apply_stats(ModelId(0), &d_a, &d_b, 3, 0.5);
        let h = half.mean_scores(&[1.0, 0.7]);
        assert!(h[0].1 > 0.0 && h[0].1 < b[0].1);
        // Unknown arms are ignored.
        half.apply_stats(ModelId(9), &d_a, &d_b, 3, 1.0);
        assert_eq!(half.pulls(ModelId(9)), 0);
    }

    #[test]
    fn unknown_arm_updates_are_ignored() {
        let mut b = ContextualBandit::new(vec![ModelId(0)], 2, 1.0, 0.1);
        b.update(ModelId(9), &[1.0, 0.0], 1.0);
        assert_eq!(b.pulls(ModelId(9)), 0);
        assert_eq!(b.pulls(ModelId(0)), 0);
    }

    #[test]
    fn arms_can_be_added_and_removed_at_runtime() {
        let mut b = ContextualBandit::new(vec![ModelId(0)], 2, 1.0, 0.1);
        b.add_arm(ModelId(1));
        b.add_arm(ModelId(1)); // Duplicate: no-op.
        assert_eq!(b.models(), vec![ModelId(0), ModelId(1)]);
        assert!(b.remove_arm(ModelId(0)));
        assert!(!b.remove_arm(ModelId(0)));
        assert_eq!(b.models(), vec![ModelId(1)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_panics() {
        let b = ContextualBandit::new(vec![ModelId(0)], 3, 1.0, 0.1);
        let _ = b.mean_scores(&[1.0]);
    }
}
