//! The assembled Request Router.

use ic_llmsim::{Catalog, ModelId, Request};
use ic_stats::RunningStats;
use rand::{Rng, RngExt};

use crate::bandit::ContextualBandit;
use crate::features::{ROUTE_FEATURE_DIM, RouteFeatures};
use crate::load::{LoadBias, LoadTracker, normalize_costs};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Ridge prior of the per-arm linear model.
    pub lambda: f64,
    /// Thompson exploration scale.
    pub exploration: f64,
    /// Maximum tanh bias magnitude.
    pub bias_lambda0: f64,
    /// tanh sensitivity (per unit of load deviation).
    pub bias_gamma: f64,
    /// Always-on cost preference: score units subtracted per unit of
    /// normalized cost even at low load, so the router offloads whenever
    /// quality is comparable ("many requests may still be offloaded to
    /// small models" below threshold, §4.2).
    pub base_cost_weight: f64,
    /// Operational load threshold: requests/second the large-model fleet
    /// can absorb before the overload bias engages. The default matches
    /// one 8-GPU large replica; deployments should size this to their
    /// actual fleet.
    pub load_threshold: f64,
    /// EMA smoothing for the load signal.
    pub load_alpha: f64,
    /// Solicit feedback when the arm-score standard deviation falls below
    /// this gate (the paper's 0.1, §4.2).
    pub uncertainty_gate: f64,
    /// Seed for the feature projections.
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            lambda: 1.0,
            exploration: 0.25,
            bias_lambda0: 1.5,
            bias_gamma: 0.4,
            base_cost_weight: 0.06,
            load_threshold: 1.0,
            load_alpha: 0.15,
            uncertainty_gate: 0.1,
            seed: 0xBAD17,
        }
    }
}

/// The outcome of one routing decision.
#[derive(Debug, Clone)]
pub struct RouteDecision {
    /// The model that should serve the request.
    pub chosen: ModelId,
    /// Load-adjusted sampled scores, one per arm (decision order).
    pub scores: Vec<(ModelId, f64)>,
    /// Whether this request should be tagged for preference feedback
    /// (uncertainty gate fired).
    pub solicit_feedback: bool,
    /// When soliciting, the Thompson-sampled alternative to compare
    /// against the chosen model.
    pub second_choice: Option<ModelId>,
    /// The bias magnitude that was applied (auto-scaling signal).
    pub applied_bias: f64,
    /// The context vector the arms were scored on —
    /// [`RequestRouter::features`] of the routed pair. Feedback for this
    /// decision is learned on the same vector
    /// ([`RequestRouter::record_reward_on`],
    /// [`RequestRouter::record_preference_on`]) instead of extracting it
    /// a second time.
    pub features: [f64; ROUTE_FEATURE_DIM],
}

/// The load- and quality-aware request router.
///
/// # Examples
///
/// ```
/// use ic_llmsim::{Catalog, ModelId};
/// use ic_router::{RequestRouter, RouterConfig};
/// use ic_workloads::{Dataset, WorkloadGenerator};
/// use ic_stats::rng::rng_from_seed;
///
/// let catalog = Catalog::standard();
/// let small = catalog.by_name("gemma-2-2b").unwrap();
/// let large = catalog.by_name("gemma-2-27b").unwrap();
/// let mut router = RequestRouter::new(
///     vec![small, large],
///     &catalog,
///     64,
///     RouterConfig::default(),
/// );
/// let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 3);
/// let request = wg.generate_requests(1).pop().unwrap();
/// let mut rng = rng_from_seed(4);
/// let decision = router.route(&request, &[0.3], &mut rng);
/// assert!(decision.chosen == small || decision.chosen == large);
/// ```
#[derive(Debug, Clone)]
pub struct RequestRouter {
    bandit: ContextualBandit,
    features: RouteFeatures,
    load: LoadTracker,
    bias: LoadBias,
    costs: Vec<(ModelId, f64)>,
    config: RouterConfig,
    decisions: u64,
    solicited: u64,
}

impl RequestRouter {
    /// Creates a router over the given candidate models.
    pub fn new(
        models: Vec<ModelId>,
        catalog: &Catalog,
        embedding_dim: usize,
        config: RouterConfig,
    ) -> Self {
        let raw_costs: Vec<f64> = models
            .iter()
            .map(|&m| catalog.get(m).cost_per_1k_tokens)
            .collect();
        let normalized = normalize_costs(&raw_costs);
        let costs = models.iter().copied().zip(normalized).collect();
        Self {
            bandit: ContextualBandit::new(
                models,
                ROUTE_FEATURE_DIM,
                config.lambda,
                config.exploration,
            ),
            features: RouteFeatures::new(embedding_dim, config.seed),
            load: LoadTracker::new(config.load_alpha),
            bias: LoadBias::new(
                config.bias_lambda0,
                config.bias_gamma,
                config.load_threshold,
            ),
            config,
            costs,
            decisions: 0,
            solicited: 0,
        }
    }

    /// Feeds a load observation (requests/second).
    pub fn observe_load(&mut self, rps: f64) {
        self.load.observe(rps);
    }

    /// The smoothed load estimate.
    pub fn current_load(&self) -> f64 {
        self.load.current()
    }

    /// The bandit's context vector for a request and the selector's
    /// predicted utilities — a pure function of the pair.
    pub fn features(
        &self,
        request: &Request,
        selection_utilities: &[f64],
    ) -> [f64; ROUTE_FEATURE_DIM] {
        self.features.extract(request, selection_utilities)
    }

    /// Routes one request given the selector's predicted utilities for the
    /// examples that would accompany it.
    pub fn route(
        &mut self,
        request: &Request,
        selection_utilities: &[f64],
        rng: &mut impl Rng,
    ) -> RouteDecision {
        let x = self.features.extract(request, selection_utilities);
        let mut adjusted = self.bandit.sample_scores(&x, rng);
        let load = self.load.current();
        let applied_bias = self.bias.bias(load);

        // Load-adjusted scores (Theorem 4's logits), over the sampled
        // ones in place.
        for (m, s) in &mut adjusted {
            let cost = self
                .costs
                .iter()
                .find(|(cm, _)| cm == m)
                .map_or(0.0, |(_, c)| *c);
            *s = self
                .bias
                .adjust(*s - self.config.base_cost_weight * cost, cost, load);
        }

        let chosen = adjusted
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty arms")
            .0;

        // Uncertainty gate: near-uniform scores => solicit feedback.
        let mut stats = RunningStats::new();
        for &(_, s) in &adjusted {
            stats.push(s);
        }
        let solicit = adjusted.len() > 1 && stats.std_dev() < self.config.uncertainty_gate;
        let second_choice = if solicit {
            // Probabilistic second pick by relative (softmax) score among
            // the non-chosen arms — "probabilistically sample a second
            // choice based on its relative confidence" (§4.2).
            let others: Vec<(ModelId, f64)> = adjusted
                .iter()
                .copied()
                .filter(|&(m, _)| m != chosen)
                .collect();
            let max_s = others
                .iter()
                .map(|&(_, s)| s)
                .fold(f64::NEG_INFINITY, f64::max);
            let weights: Vec<f64> = others.iter().map(|&(_, s)| (s - max_s).exp()).collect();
            let total: f64 = weights.iter().sum();
            let mut draw = rng.random::<f64>() * total;
            let mut pick = others.last().map(|&(m, _)| m);
            for (&(m, _), w) in others.iter().zip(&weights) {
                if draw < *w {
                    pick = Some(m);
                    break;
                }
                draw -= w;
            }
            pick
        } else {
            None
        };

        self.decisions += 1;
        if solicit {
            self.solicited += 1;
        }
        RouteDecision {
            chosen,
            scores: adjusted,
            solicit_feedback: solicit,
            second_choice,
            applied_bias,
            features: x,
        }
    }

    /// Absorbs an observed reward (judge score mapped to `[0, 1]`, or a
    /// thumbs-up/down) for a served request.
    pub fn record_reward(
        &mut self,
        model: ModelId,
        request: &Request,
        selection_utilities: &[f64],
        reward: f64,
    ) {
        let x = self.features.extract(request, selection_utilities);
        self.record_reward_on(model, &x, reward);
    }

    /// [`Self::record_reward`] on a context vector already in hand
    /// ([`RouteDecision::features`]).
    pub fn record_reward_on(&mut self, model: ModelId, x: &[f64; ROUTE_FEATURE_DIM], reward: f64) {
        self.bandit.update(model, x, reward);
    }

    /// Absorbs a pairwise preference ("which response do you prefer?"):
    /// the winner gets reward 1 on this context, the loser 0 — the
    /// Bradley–Terry-style comparison signal of Appendix A.2.
    pub fn record_preference(
        &mut self,
        request: &Request,
        selection_utilities: &[f64],
        preferred: ModelId,
        other: ModelId,
    ) {
        let x = self.features.extract(request, selection_utilities);
        self.record_preference_on(&x, preferred, other);
    }

    /// [`Self::record_preference`] on a context vector already in hand
    /// ([`RouteDecision::features`]).
    pub fn record_preference_on(
        &mut self,
        x: &[f64; ROUTE_FEATURE_DIM],
        preferred: ModelId,
        other: ModelId,
    ) {
        self.bandit.update(preferred, x, 1.0);
        self.bandit.update(other, x, 0.0);
    }

    /// Fraction of decisions that requested feedback — the data-efficiency
    /// metric of the selective-feedback design.
    pub fn solicitation_rate(&self) -> f64 {
        if self.decisions == 0 {
            return 0.0;
        }
        self.solicited as f64 / self.decisions as f64
    }

    /// Total routing decisions made.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Updates an arm's posterior has absorbed.
    pub fn arm_pulls(&self, model: ModelId) -> u64 {
        self.bandit.pulls(model)
    }

    /// `(arm evaluations, posterior refits)` of this router's bandit
    /// since construction (see [`crate::ContextualBandit::refits`]); a
    /// clone starts from its original's counts.
    pub fn posterior_counts(&self) -> (u64, u64) {
        (self.bandit.evaluations(), self.bandit.refits())
    }

    /// The candidate models.
    pub fn models(&self) -> Vec<ModelId> {
        self.bandit.models()
    }

    /// Adds a model at runtime (fleet upgrade, §8).
    pub fn add_model(&mut self, model: ModelId, catalog: &Catalog) {
        self.bandit.add_arm(model);
        let raw: Vec<f64> = self
            .bandit
            .models()
            .iter()
            .map(|&m| catalog.get(m).cost_per_1k_tokens)
            .collect();
        let normalized = normalize_costs(&raw);
        self.costs = self.bandit.models().into_iter().zip(normalized).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::{GenSetup, Generator};
    use ic_stats::rng::rng_from_seed;
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn setup() -> (Catalog, ModelId, ModelId, WorkloadGenerator) {
        let catalog = Catalog::standard();
        let small = catalog.by_name("gemma-2-2b").unwrap();
        let large = catalog.by_name("gemma-2-27b").unwrap();
        let wg = WorkloadGenerator::new(Dataset::MsMarco, 31);
        (catalog, small, large, wg)
    }

    #[test]
    fn trained_router_approaches_oracle_reward() {
        // The principled property: after online training on observed
        // quality, routing decisions approach the oracle policy
        // argmax_m (E[quality | m, request] - cost_weight * cost_m).
        let (catalog, small, large, mut wg) = setup();
        let generator = Generator::new();
        let config = RouterConfig {
            exploration: 0.3,
            ..RouterConfig::default()
        };
        let cost_weight = config.base_cost_weight;
        let mut router = RequestRouter::new(vec![small, large], &catalog, 64, config);
        let mut rng = rng_from_seed(32);
        // Online training loop: route, observe latent quality as reward.
        let requests = wg.generate_requests(1500);
        for r in &requests {
            let d = router.route(r, &[], &mut rng);
            let spec = catalog.get(d.chosen);
            let out = generator.generate(spec, r, &GenSetup::bare(), &mut rng);
            router.record_reward(d.chosen, r, &[], out.quality);
        }
        // Evaluate regret against the oracle on fresh traffic.
        let eval = wg.generate_requests(400);
        let costs = [(small, 0.0), (large, 1.0)];
        let mut oracle_sum = 0.0;
        let mut achieved_sum = 0.0;
        let mut agree = 0usize;
        for r in &eval {
            let objective = |m: ModelId| {
                let q = generator.base_quality(catalog.get(m), r);
                let c = costs.iter().find(|(cm, _)| *cm == m).unwrap().1;
                q - cost_weight * c
            };
            let oracle_pick = if objective(small) >= objective(large) {
                small
            } else {
                large
            };
            oracle_sum += objective(oracle_pick);
            let d = router.route(r, &[], &mut rng);
            achieved_sum += objective(d.chosen);
            if d.chosen == oracle_pick {
                agree += 1;
            }
        }
        let regret = (oracle_sum - achieved_sum) / eval.len() as f64;
        assert!(regret < 0.04, "per-request regret too high: {regret}");
        // On bare (no-example) MS MARCO the oracle overwhelmingly prefers
        // the large model (the paper's motivating gap); the router should
        // agree with the oracle on most requests.
        let agreement = agree as f64 / eval.len() as f64;
        assert!(agreement > 0.85, "oracle agreement too low: {agreement}");
    }

    #[test]
    fn overload_shifts_traffic_to_cheap_model() {
        let (catalog, small, large, mut wg) = setup();
        let mut router = RequestRouter::new(
            vec![small, large],
            &catalog,
            64,
            RouterConfig {
                load_threshold: 4.0,
                ..RouterConfig::default()
            },
        );
        let mut rng = rng_from_seed(33);
        // Teach the router that the large model is always better.
        let train = wg.generate_requests(400);
        for r in &train {
            router.record_reward(large, r, &[], 0.9);
            router.record_reward(small, r, &[], 0.55);
        }
        let eval = wg.generate_requests(200);
        // Low load: large model should dominate.
        for _ in 0..50 {
            router.observe_load(1.0);
        }
        let low_large = eval
            .iter()
            .filter(|r| router.route(r, &[], &mut rng).chosen == large)
            .count();
        // Overload: bias must push traffic to the small model.
        for _ in 0..200 {
            router.observe_load(40.0);
        }
        let high_large = eval
            .iter()
            .filter(|r| router.route(r, &[], &mut rng).chosen == large)
            .count();
        assert!(
            low_large as f64 / 200.0 > 0.7,
            "large should win at low load: {low_large}/200"
        );
        assert!(
            (high_large as f64) < (low_large as f64) * 0.4,
            "overload must offload: {high_large} vs {low_large}"
        );
    }

    #[test]
    fn feedback_is_gated_by_uncertainty() {
        let (catalog, small, large, mut wg) = setup();
        let mut router = RequestRouter::new(
            vec![small, large],
            &catalog,
            64,
            RouterConfig {
                exploration: 0.05,
                uncertainty_gate: 0.1,
                ..RouterConfig::default()
            },
        );
        let mut rng = rng_from_seed(34);
        // Untrained: scores near zero for both arms -> high solicitation.
        let reqs = wg.generate_requests(100);
        for r in &reqs {
            let _ = router.route(r, &[], &mut rng);
        }
        let early_rate = router.solicitation_rate();
        assert!(
            early_rate > 0.5,
            "untrained router should ask: {early_rate}"
        );
        // Train a clear separation -> solicitation should drop.
        let train = wg.generate_requests(600);
        for r in &train {
            router.record_reward(large, r, &[], 0.95);
            router.record_reward(small, r, &[], 0.2);
        }
        let mut late_solicits = 0usize;
        for r in &reqs {
            if router.route(r, &[], &mut rng).solicit_feedback {
                late_solicits += 1;
            }
        }
        assert!(
            (late_solicits as f64 / reqs.len() as f64) < early_rate * 0.6,
            "confident router should ask less: {late_solicits}/100 vs {early_rate}"
        );
    }

    #[test]
    fn solicited_decisions_carry_a_distinct_second_choice() {
        let (catalog, small, large, mut wg) = setup();
        let mut router =
            RequestRouter::new(vec![small, large], &catalog, 64, RouterConfig::default());
        let mut rng = rng_from_seed(35);
        for r in &wg.generate_requests(50) {
            let d = router.route(r, &[], &mut rng);
            if d.solicit_feedback {
                let second = d.second_choice.expect("solicit implies second");
                assert_ne!(second, d.chosen);
            }
        }
    }

    #[test]
    fn preference_updates_move_the_posterior() {
        let (catalog, small, large, mut wg) = setup();
        let mut router =
            RequestRouter::new(vec![small, large], &catalog, 64, RouterConfig::default());
        let mut rng = rng_from_seed(36);
        let reqs = wg.generate_requests(300);
        for r in &reqs {
            router.record_preference(r, &[], small, large);
        }
        // After consistent preferences for the small model, it should win.
        let small_wins = reqs
            .iter()
            .filter(|r| router.route(r, &[], &mut rng).chosen == small)
            .count();
        assert!(
            small_wins as f64 / reqs.len() as f64 > 0.8,
            "preferences should steer routing: {small_wins}/300"
        );
    }

    #[test]
    fn a_decision_carries_the_vector_its_feedback_is_learned_on() {
        // Router `carried` learns on `RouteDecision::features`, router
        // `fresh` re-extracts from the same `(request, utilities)` pair
        // as every caller did before the decision carried them. The
        // vector must be a fresh extract bit for bit, and the two
        // routers' posteriors (their next sampled scores under equal RNG
        // streams, and every learned statistic) must stay
        // indistinguishable.
        let (catalog, small, large, mut wg) = setup();
        let mk = || RequestRouter::new(vec![small, large], &catalog, 64, RouterConfig::default());
        let (mut carried, mut fresh) = (mk(), mk());
        let (mut rng_c, mut rng_f) = (rng_from_seed(37), rng_from_seed(37));
        let utilities: [&[f64]; 3] = [&[], &[0.4], &[0.1, 0.35, 0.2]];
        for (i, r) in wg.generate_requests(120).iter().enumerate() {
            let u = utilities[i % 3];
            let dc = carried.route(r, u, &mut rng_c);
            let df = fresh.route(r, u, &mut rng_f);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dc.features), bits(&carried.features(r, u)));
            assert_eq!(dc.chosen, df.chosen);
            for ((_, sc), (_, sf)) in dc.scores.iter().zip(&df.scores) {
                assert_eq!(sc.to_bits(), sf.to_bits(), "request {i}");
            }
            let reward = 0.3 + 0.005 * i as f64;
            carried.record_reward_on(dc.chosen, &dc.features, reward);
            fresh.record_reward(df.chosen, r, u, reward);
            if i % 4 == 0 {
                carried.record_preference_on(&dc.features, small, large);
                fresh.record_preference(r, u, small, large);
            }
        }
        // `Debug` prints every statistic in shortest round-trip form.
        assert_eq!(format!("{carried:?}"), format!("{fresh:?}"));
        assert_eq!(carried.posterior_counts(), fresh.posterior_counts());
    }

    #[test]
    fn models_can_be_added_at_runtime() {
        let (catalog, small, large, _) = setup();
        let mut router = RequestRouter::new(vec![small], &catalog, 64, RouterConfig::default());
        assert_eq!(router.models().len(), 1);
        router.add_model(large, &catalog);
        assert_eq!(router.models().len(), 2);
    }
}
