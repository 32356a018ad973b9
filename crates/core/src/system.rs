//! The assembled IC-Cache system: Algorithm 1's `ServeRequests`.

use ic_llmsim::{
    Example, ExampleId, ExampleStore, GenOutcome, GenSetup, Generator, ModelId, Request,
    signal_noise,
};
use ic_manager::ExampleManager;
use ic_router::{ROUTE_FEATURE_DIM, RequestRouter};
use ic_selector::{ExampleSelector, ProxyFeatures, Selection};
use ic_stats::Ema;
use ic_stats::rng::rng_from_seed;
use rand::RngExt;
use rand::rngs::StdRng;
use std::collections::HashMap;

use crate::config::IcCacheConfig;
use crate::failover::FailoverState;

/// The outcome of serving one request.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The request served.
    pub request_id: ic_llmsim::RequestId,
    /// The model that served it.
    pub model: ModelId,
    /// Whether the request was offloaded (served by a non-primary model).
    pub offloaded: bool,
    /// The examples that were prepended (empty on the primary path).
    pub selection: Selection,
    /// The generation result. `outcome.quality` is latent ground truth —
    /// evaluation code may read it; the system itself only used feedback.
    pub outcome: GenOutcome,
    /// Whether this request was tagged for preference feedback.
    pub solicited_feedback: bool,
    /// The load bias that was active at decision time.
    pub applied_bias: f64,
}

/// Report from one maintenance cycle.
#[derive(Debug, Default)]
pub struct MaintenanceReport {
    /// Examples replayed (best-of-n refinement).
    pub replayed: usize,
    /// Total quality improvement from replay.
    pub replay_improvement: f64,
    /// Examples evicted by the knapsack policy.
    pub evicted: usize,
}

/// Smoothing factor of the completion-latency EMA that drives the
/// Little's-law load estimate.
const LATENCY_EMA_ALPHA: f64 = 0.2;

/// The IC-Cache serving system (single-process reference implementation;
/// the paper's deployment shards these components across gRPC services,
/// §5).
pub struct IcCacheSystem {
    config: IcCacheConfig,
    selector: ExampleSelector,
    /// The Request Router: one logical router owns every request.
    router: RequestRouter,
    /// EMA of observed end-to-end completion latency; with the work in
    /// flight it turns into the router's Little's-law demand estimate
    /// ([`IcCacheSystem::observe_completion`]).
    latency_ema: Ema,
    /// Routing decisions of fresh servings since the last
    /// [`IcCacheSystem::begin_run`] (failover retries are not counted).
    run_decisions: u64,
    manager: ExampleManager,
    failover: FailoverState,
    /// EMA of feedback quality for *bare* (unaugmented) servings per
    /// model; the baseline against which per-example utility labels are
    /// computed.
    bare_quality: HashMap<ModelId, Ema>,
    /// Pending preference comparisons: (request snapshot, utilities,
    /// chosen, second).
    rng: StdRng,
    next_example_id: u64,
    served: u64,
    offloaded: u64,
    /// Normalized per-model costs, precomputed at build time — the
    /// feedback path used to rebuild the whole cost vector per call.
    cost_norm: HashMap<ModelId, f64>,
    /// The model selections are computed against: examples target the
    /// cheapest offload candidate (the primary when there is none).
    offload_target: ModelId,
}

impl std::fmt::Debug for IcCacheSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IcCacheSystem")
            .field("served", &self.served)
            .field("offloaded", &self.offloaded)
            .field("cached_examples", &self.manager.cache().len())
            .finish()
    }
}

impl IcCacheSystem {
    /// Builds the system from a configuration.
    pub fn new(config: IcCacheConfig) -> Self {
        let selector = ExampleSelector::standard();
        let router = RequestRouter::new(
            config.models.clone(),
            &config.catalog,
            64,
            config.router.clone(),
        );
        let manager = ExampleManager::new(config.manager.clone());
        let rng = rng_from_seed(config.seed);
        let cost_norm = config
            .models
            .iter()
            .map(|&m| (m, normalized_cost(&config, m)))
            .collect();
        let offload_target = (config.offload_models().first().copied()).unwrap_or(config.primary);
        Self {
            selector,
            router,
            latency_ema: Ema::new(LATENCY_EMA_ALPHA),
            run_decisions: 0,
            manager,
            failover: FailoverState::default(),
            bare_quality: HashMap::new(),
            rng,
            next_example_id: 0x1000_0000,
            served: 0,
            offloaded: 0,
            cost_norm,
            offload_target,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IcCacheConfig {
        &self.config
    }

    /// The model-pool health the router avoids down models by (driven by
    /// pool outages).
    pub fn failover_mut(&mut self) -> &mut FailoverState {
        &mut self.failover
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Fraction of requests offloaded off the primary model.
    pub fn offload_ratio(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.offloaded as f64 / self.served as f64
        }
    }

    /// Number of cached examples.
    pub fn cached_examples(&self) -> usize {
        self.manager.cache().len()
    }

    /// Read access to the manager (experiments inspect cache stats).
    pub fn manager(&self) -> &ExampleManager {
        &self.manager
    }

    /// Read access to the selector.
    pub fn selector(&self) -> &ExampleSelector {
        &self.selector
    }

    /// Read access to the router.
    pub fn router(&self) -> &RequestRouter {
        &self.router
    }

    /// Feeds a serving-load observation (requests/second) to the
    /// router: the engine's windowed arrival rate, or a warm-up loop's
    /// fixed load.
    pub fn observe_load(&mut self, rps: f64) {
        self.router.observe_load(rps);
    }

    /// Feeds one completion into the latency EMA and converts it into a
    /// Little's-law demand estimate for the router (`lambda = L / W`,
    /// with `in_system` jobs in flight across the cluster).
    pub fn observe_completion(&mut self, e2e_s: f64, in_system: u32) {
        self.latency_ema.observe(e2e_s);
        let w = self.latency_ema.value();
        if w > 0.0 {
            self.router.observe_load(f64::from(in_system) / w);
        }
    }

    /// Starts a run: re-arms the completion-latency EMA and zeroes the
    /// run's decision count, keeping the router's learned posterior and
    /// load view.
    pub fn begin_run(&mut self) {
        self.latency_ema = Ema::new(LATENCY_EMA_ALPHA);
        self.run_decisions = 0;
    }

    /// Routing decisions of fresh servings since the last
    /// [`IcCacheSystem::begin_run`]; a failover retry's decision is not
    /// counted, so one logical request counts once.
    pub fn run_decisions(&self) -> u64 {
        self.run_decisions
    }

    /// Runs the selection step only (no routing, no generation, no
    /// learning) — used by ablations and baselines that reuse the example
    /// cache without the router.
    pub fn with_selection(&self, request: &Request) -> Selection {
        let spec = self.config.catalog.get(self.offload_target);
        self.selector.select(request, self.manager.cache(), spec)
    }

    /// Stage-1-only retrieval (relevance top-k) — the "w/o stage-2"
    /// ablation path of Fig. 16.
    pub fn stage1_ids(&self, request: &Request, k: usize) -> Vec<ExampleId> {
        self.selector
            .stage1(request)
            .into_iter()
            .take(k)
            .map(|(id, _)| id)
            .collect()
    }

    /// Replaces the router configuration (rebuilding the bandit from a
    /// fresh prior) — used by the Fig. 13 offload-aggressiveness sweep.
    /// Call before warm-up: learned state is discarded.
    pub fn set_router_config(&mut self, cfg: ic_router::RouterConfig) {
        self.router = RequestRouter::new(
            self.config.models.clone(),
            &self.config.catalog,
            64,
            cfg.clone(),
        );
        self.config.router = cfg;
    }

    /// Seeds the example cache from a pre-generated bank (Appendix A.4's
    /// example-pool initialization) and indexes admitted entries: the
    /// manager's cache keeps each example's plaintext and metadata, the
    /// selector's index its vector.
    pub fn seed_examples(&mut self, examples: Vec<Example>, now: f64) {
        // Admission never consults the index and indexing never consults
        // the manager, so admitting the whole bank first and indexing it
        // in one bulk build is state-identical to the per-example
        // admit/index interleaving — and lets the index fit k-means once
        // for the whole bank. Each admitted example's embedding comes
        // back from the cache, which keeps none, and moves into the
        // index: one copy.
        let mut admitted = Vec::with_capacity(examples.len());
        self.manager.reserve(examples.len());
        admitted.extend(
            examples
                .into_iter()
                .filter_map(|e| self.manager.admit(e, now)),
        );
        self.selector.index_examples(admitted);
    }

    /// Algorithm 1 `ServeRequests`: select examples, route, generate,
    /// learn, manage.
    pub fn serve(&mut self, request: &Request) -> ServeOutcome {
        self.serve_as(request, true, None)
    }

    /// [`IcCacheSystem::serve`] with stage 1 supplied: `stage1`, when
    /// given, must be what [`ExampleSelector::stage1`] returns for this
    /// request against the index as it is now (a probe run ahead of
    /// time through a view of the index and refreshed to its current
    /// generation); `None` probes here.
    /// Every byte of the outcome is the same either way.
    pub fn serve_ahead(
        &mut self,
        request: &Request,
        stage1: Option<Vec<(ExampleId, f64)>>,
    ) -> ServeOutcome {
        self.serve_as(request, true, stage1)
    }

    /// [`IcCacheSystem::serve`] for a failover *retry* of a request that
    /// already went through the router once. The retry recomputes a fresh
    /// selection and routing decision (the index and the bandit may have
    /// moved since the original serving, and the original choice's pool
    /// is down) and generates — but it records *no* serving statistics
    /// and absorbs *no* feedback: `served`/`offloaded` stay untouched,
    /// the run's decision count ([`IcCacheSystem::run_decisions`]) is
    /// not bumped, no preference solicitation happens, no
    /// reward/proxy/cache-gain update runs, and example accesses are not
    /// re-recorded. One
    /// logical request leaves exactly one set of selector/router stats
    /// behind, however many times failover re-enqueues it.
    pub fn serve_retry(&mut self, request: &Request) -> ServeOutcome {
        self.serve_as(request, false, None)
    }

    /// One serving; `fresh` is false for a failover retry, which skips
    /// every piece of bookkeeping and learning (see
    /// [`IcCacheSystem::serve_retry`]).
    fn serve_as(
        &mut self,
        request: &Request,
        fresh: bool,
        stage1: Option<Vec<(ExampleId, f64)>>,
    ) -> ServeOutcome {
        // 1. Example Retriever. Examples target the cheapest offload
        //    candidate; the router sees their predicted utilities as
        //    context.
        let spec = self.config.catalog.get(self.offload_target);
        let stage1 = stage1.unwrap_or_else(|| self.selector.stage1(request));
        let selection =
            (self.selector).select_with_stage1(request, stage1, self.manager.cache(), spec);

        // 2. Request Router. A chosen model whose pool is marked down by
        //    the failover state is overridden by the best-scoring healthy
        //    arm (retries after a pool failover must not land back on the
        //    dead pool), falling back to the original choice only when
        //    every arm is down.
        self.run_decisions += u64::from(fresh);
        let d = self
            .router
            .route(request, &selection.predicted_utility, &mut self.rng);
        let chosen = if self.failover.model_healthy(d.chosen) {
            d.chosen
        } else {
            d.scores
                .iter()
                .filter(|&&(m, _)| self.failover.model_healthy(m))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|&(m, _)| m)
                .unwrap_or(d.chosen)
        };
        // Preference solicitation only makes sense against a live,
        // *distinct* alternative: the health override may have moved
        // `chosen` onto the sampled second choice (a self-comparison
        // would record contradictory rewards on one arm), and a down
        // second choice cannot generate a comparison response.
        let second = d.second_choice.filter(|&other| {
            fresh && d.solicit_feedback && other != chosen && self.failover.model_healthy(other)
        });
        let solicit = second.is_some();
        let offloadable = chosen != self.config.primary;
        if fresh {
            self.served += 1;
            self.offloaded += u64::from(offloadable);
        }

        // 3. Generate (examples only on the offload path).
        let example_refs: Vec<&Example> = if offloadable {
            selection.resolve(self.manager.cache())
        } else {
            Vec::new()
        };
        let used_ids: Vec<ExampleId> = example_refs.iter().map(|e| e.id).collect();
        let setup = GenSetup {
            examples: example_refs,
            ..GenSetup::default()
        };
        let spec = self.config.catalog.get(chosen);
        let outcome = Generator.generate(spec, request, &setup, &mut self.rng);

        if fresh {
            // 4. Learn from feedback. User feedback arrives for solicited
            //    requests and for a sampled fraction of the rest.
            let give_feedback =
                solicit || self.rng.random::<f64>() < self.config.feedback_sample_rate;
            if give_feedback {
                // The router learns on the vector it decided on.
                let fb = self.router_feedback(
                    request,
                    &selection,
                    &d.features,
                    chosen,
                    second,
                    &outcome,
                );
                self.example_feedback(request, &selection, chosen, fb, &used_ids);
            }
            for id in &used_ids {
                self.manager.cache_mut().record_access(*id);
            }
        }

        ServeOutcome {
            request_id: request.id,
            model: chosen,
            offloaded: offloadable,
            selection,
            outcome,
            solicited_feedback: solicit,
            applied_bias: d.applied_bias,
        }
    }

    /// Feedback path, router half: noisy user signal -> router reward
    /// and, when solicited, the preference comparison — both learned on
    /// `route_features`, the vector the request was routed on. Returns
    /// the feedback value.
    fn router_feedback(
        &mut self,
        request: &Request,
        selection: &Selection,
        route_features: &[f64; ROUTE_FEATURE_DIM],
        chosen: ModelId,
        second: Option<ModelId>,
        outcome: &GenOutcome,
    ) -> f64 {
        // Thumbs-style feedback: latent quality seen through noise.
        let fb = (outcome.quality + 0.1 * (self.rng.random::<f64>() - 0.5)).clamp(0.0, 1.0);
        self.router.record_reward_on(chosen, route_features, fb);

        // Preference solicitation: generate with the sampled second choice
        // and record which the (simulated) user preferred.
        if let Some(other) = second {
            let other_spec = self.config.catalog.get(other);
            let other_setup = if other != self.config.primary {
                GenSetup {
                    examples: selection.resolve(self.manager.cache()),
                    ..GenSetup::default()
                }
            } else {
                GenSetup::bare()
            };
            let alt = Generator.generate(other_spec, request, &other_setup, &mut self.rng);
            let alt_fb = (alt.quality + 0.1 * (self.rng.random::<f64>() - 0.5)).clamp(0.0, 1.0);
            let (preferred, loser) = if fb >= alt_fb {
                (chosen, other)
            } else {
                (other, chosen)
            };
            self.router
                .record_preference_on(route_features, preferred, loser);
        }
        fb
    }

    /// Feedback path, example half: the bare-quality baseline, proxy
    /// labels and cache gain bookkeeping, from the feedback value `fb` of
    /// [`Self::router_feedback`].
    fn example_feedback(
        &mut self,
        request: &Request,
        selection: &Selection,
        chosen: ModelId,
        fb: f64,
        used_ids: &[ExampleId],
    ) {
        let chosen_cost = self.cost_norm.get(&chosen).copied().unwrap_or(0.0);
        if used_ids.is_empty() {
            // Bare serving: update the per-model baseline.
            self.bare_quality
                .entry(chosen)
                .or_insert_with(|| Ema::new(0.1))
                .observe(fb);
        } else {
            // Augmented serving: attribute the lift over the bare baseline
            // to the used examples, proportionally to predicted utility.
            let baseline = self.bare_quality.get(&chosen).map_or(0.5, |e| e.value());
            let lift = (fb - baseline).max(0.0);
            // Attribute the lift to each example relative to the *best*
            // prediction (not the sum): under diminishing returns each
            // similar example's marginal utility is close to the full
            // per-example utility, so sum-normalization would shrink
            // labels by ~k and train the proxy below the selection
            // threshold (a cold-start death spiral).
            let max_pred: f64 = selection
                .predicted_utility
                .iter()
                .fold(0.0f64, |a, &b| a.max(b))
                .max(1e-6);
            let spec = self.config.catalog.get(chosen);
            // A cached example carries no vector: the features take the
            // request/example cosine stage 1 computed for each pick.
            let picks = (selection.ids.iter())
                .zip(&selection.predicted_utility)
                .zip(&selection.stage1_similarity);
            for ((id, pred), &sim) in picks {
                let Some(example) = self.manager.cache().get_example(*id) else {
                    continue;
                };
                let label = (lift * (pred / max_pred).clamp(0.0, 1.0)).clamp(0.0, 1.0);
                let features =
                    ProxyFeatures::extract_with_sim(request, example, spec, sim).as_array();
                self.selector.proxy_mut().update(&features, label);
                // Cache bookkeeping for the manager's policies.
                self.manager
                    .cache_mut()
                    .record_usage_feedback(*id, fb, chosen_cost);
                if chosen != self.config.primary && fb >= 0.5 {
                    // A successful offload this example enabled (§4.3).
                    self.manager.cache_mut().record_offload_gain(
                        *id,
                        0.0,
                        1.0 / selection.ids.len() as f64,
                    );
                }
            }
        }
    }

    /// Caches a served request–response pair (Fig. 6 `update_cache`).
    /// Returns the admitted example id, if admission passed.
    pub fn update_cache(
        &mut self,
        request: &Request,
        outcome: &GenOutcome,
        served_by: ModelId,
        now: f64,
    ) -> Option<ExampleId> {
        let id = ExampleId(self.next_example_id);
        self.next_example_id += 1;
        let example = Example {
            id,
            topic: request.topic,
            latent: request.latent.clone(),
            embedding: request.embedding.clone(),
            skills: request.skills,
            task: request.task,
            origin_difficulty: request.difficulty,
            request_text: request.text.clone(),
            response_text: render_response_text(request.topic, outcome.output_tokens).into(),
            request_tokens: request.input_tokens,
            response_tokens: outcome.output_tokens,
            quality: outcome.quality,
            source_model: served_by,
            replay_count: 0,
            signal_noise: signal_noise(id),
        };
        let (admitted, embedding) = self.manager.admit(example, now)?;
        self.selector.index_example(admitted, embedding);
        Some(admitted)
    }

    /// One offline maintenance cycle: cost-aware replay on the primary
    /// model, then knapsack capacity enforcement (§4.3). Run during
    /// off-peak windows.
    pub fn run_maintenance(&mut self, now: f64) -> MaintenanceReport {
        let primary_spec = self.config.catalog.get(self.config.primary).clone();
        let replay = self
            .manager
            .run_replay(&primary_spec, &Generator, &mut self.rng);
        let evicted = self.run_rebalance(now);
        MaintenanceReport {
            replayed: replay.replayed,
            replay_improvement: replay.total_improvement,
            evicted,
        }
    }

    /// Adjusts the example-cache byte budget at runtime; takes effect at
    /// the next maintenance or rebalance cycle.
    pub fn set_cache_capacity(&mut self, bytes: Option<usize>) {
        self.manager.set_capacity_bytes(bytes);
        self.config.manager.capacity_bytes = bytes;
    }

    /// The periodic capacity pass: enforces the byte budget with the
    /// manager's one knapsack over the whole cache and unindexes every
    /// evicted example. Capacity-only maintenance — no replay — so an
    /// event-driven engine can run it far more often than
    /// [`IcCacheSystem::run_maintenance`]. Returns the eviction count.
    pub fn run_rebalance(&mut self, now: f64) -> usize {
        let evicted = self.manager.enforce_capacity(now);
        for id in &evicted {
            self.selector.unindex_example(*id);
        }
        evicted.len()
    }
}

/// Normalized cost of a model within the configured set.
fn normalized_cost(config: &IcCacheConfig, model: ModelId) -> f64 {
    let costs: Vec<f64> = config
        .models
        .iter()
        .map(|&m| config.catalog.get(m).cost_per_1k_tokens)
        .collect();
    let lo = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !(hi > lo) {
        return 0.0;
    }
    (config.catalog.get(model).cost_per_1k_tokens - lo) / (hi - lo)
}

/// Placeholder response text with realistic byte footprint: word `k`
/// is `t{topic}r{k % 64}`. Written once into a buffer of exactly its
/// size — the cache keeps these for as long as the example lives, so
/// neither growth slack nor a freed scratch next to it is affordable.
fn render_response_text(topic: usize, tokens: u32) -> String {
    let stem = format!("t{topic}r");
    let n = tokens as usize;
    // Of every 64 suffixes ten have one digit and 54 have two.
    let (cycles, rest) = (n / 64, n % 64);
    let digits = cycles * (10 + 2 * 54) + rest + rest.saturating_sub(10);
    let mut text = String::with_capacity(n * stem.len() + digits + n.saturating_sub(1));
    for k in 0..tokens {
        if k > 0 {
            text.push(' ');
        }
        text.push_str(&stem);
        let r = (k % 64) as u8;
        if r >= 10 {
            text.push(char::from(b'0' + r / 10));
        }
        text.push(char::from(b'0' + r % 10));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::ModelSpec;
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn seeded_system(dataset: Dataset, n_examples: usize) -> (IcCacheSystem, WorkloadGenerator) {
        let config = IcCacheConfig::gemma_pair();
        let mut wg = WorkloadGenerator::new(dataset, 151);
        let large = config.catalog.by_name("gemma-2-27b").unwrap();
        let examples = wg.generate_examples(
            n_examples,
            &ModelSpec::gemma_2_27b(),
            large,
            &Generator::new(),
        );
        let mut system = IcCacheSystem::new(config);
        system.seed_examples(examples, 0.0);
        (system, wg)
    }

    #[test]
    fn one_buffer_response_text_matches_the_per_word_reference() {
        for topic in [0usize, 7, 123, 4_096] {
            for tokens in 0..=400u32 {
                let per_word: Vec<String> = (0..tokens)
                    .map(|k| format!("t{topic}r{}", k % 64))
                    .collect();
                let got = render_response_text(topic, tokens);
                assert_eq!(got, per_word.join(" "), "topic {topic} tokens {tokens}");
                assert_eq!(got.capacity(), got.len(), "sized exactly up front");
            }
        }
    }

    #[test]
    fn serves_and_tracks_offload_ratio() {
        let (mut system, mut wg) = seeded_system(Dataset::MsMarco, 500);
        for r in wg.generate_requests(200) {
            let out = system.serve(&r);
            assert!((0.0..=1.0).contains(&out.outcome.quality));
        }
        assert_eq!(system.served(), 200);
        let ratio = system.offload_ratio();
        assert!((0.0..=1.0).contains(&ratio));
    }

    #[test]
    fn offloaded_requests_carry_examples_primary_does_not() {
        let (mut system, mut wg) = seeded_system(Dataset::MsMarco, 800);
        let mut saw_offload = false;
        let mut saw_primary = false;
        for r in wg.generate_requests(300) {
            let out = system.serve(&r);
            if out.offloaded {
                saw_offload = true;
            } else {
                saw_primary = true;
                // Primary path is bare: no IC template overhead.
                assert_eq!(out.outcome.examples_dropped, 0);
            }
        }
        assert!(saw_offload || saw_primary, "served nothing?");
    }

    #[test]
    fn online_serving_improves_offloaded_quality_over_time() {
        // As the proxy and router learn from feedback, augmented serving
        // should at least not degrade; assert the system keeps quality in
        // a sane band and learns to use examples.
        let (mut system, mut wg) = seeded_system(Dataset::NaturalQuestions, 1500);
        let mut early = Vec::new();
        let mut late = Vec::new();
        for (i, r) in wg.generate_requests(1000).iter().enumerate() {
            let out = system.serve(r);
            if i < 200 {
                early.push(out.outcome.quality);
            } else if i >= 800 {
                late.push(out.outcome.quality);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&late) > mean(&early) - 0.05,
            "quality regressed: {} -> {}",
            mean(&early),
            mean(&late)
        );
    }

    #[test]
    fn update_cache_grows_pool_and_index() {
        let (mut system, mut wg) = seeded_system(Dataset::Alpaca, 50);
        let before = system.cached_examples();
        let requests = wg.generate_requests(20);
        for r in &requests {
            let out = system.serve(r);
            system.update_cache(r, &out.outcome, out.model, 1.0);
        }
        assert!(system.cached_examples() > before);
        assert!(system.selector().indexed_count() >= system.cached_examples());
    }

    #[test]
    fn down_model_routing_falls_back_to_best_healthy_arm() {
        let (mut system, mut wg) = seeded_system(Dataset::MsMarco, 400);
        let offload = system.config().offload_models()[0];
        let primary = system.config().primary;
        // With every offload pool down, everything must serve on the
        // primary; with the primary down, nothing may land on it.
        system.failover_mut().set_model_healthy(offload, false);
        for r in wg.generate_requests(30) {
            let out = system.serve(&r);
            assert_eq!(out.model, primary, "down offload pool must be avoided");
        }
        system.failover_mut().set_model_healthy(offload, true);
        system.failover_mut().set_model_healthy(primary, false);
        for r in wg.generate_requests(30) {
            let out = system.serve(&r);
            assert_eq!(out.model, offload, "down primary pool must be avoided");
        }
        // All pools down: degrade to the router's original choice rather
        // than dropping the request.
        system.failover_mut().set_model_healthy(offload, false);
        for r in wg.generate_requests(5) {
            let out = system.serve(&r);
            assert!(out.model == primary || out.model == offload);
        }
    }

    #[test]
    fn observe_completion_drives_the_load_estimate() {
        let mut system = IcCacheSystem::new(IcCacheConfig::gemma_pair());
        system.begin_run();
        // 10 jobs in flight at 2 s latency: lambda = 5 rps.
        system.observe_completion(2.0, 10);
        assert!((system.router().current_load() - 5.0).abs() < 1e-9);
        // The EMA smooths subsequent observations.
        system.observe_completion(4.0, 10);
        let est = system.router().current_load();
        assert!(est < 5.0 && est > 2.5, "smoothed estimate: {est}");
    }

    #[test]
    fn maintenance_runs_replay_and_eviction() {
        let (mut system, mut wg) = seeded_system(Dataset::MsMarco, 400);
        // Drive traffic so some examples earn replay-worthy G(e).
        for r in wg.generate_requests(300) {
            let _ = system.serve(&r);
        }
        // Constrain capacity to force eviction.
        let report = system.run_maintenance(3600.0);
        // With default (unbounded) config nothing must be evicted.
        assert_eq!(report.evicted, 0);
        assert!(report.replay_improvement >= 0.0);
    }

    #[test]
    fn overload_shifts_offloading_up() {
        let (mut system, mut wg) = seeded_system(Dataset::MsMarco, 600);
        // Warm up the router with feedback at low load.
        for _ in 0..50 {
            system.observe_load(0.5);
        }
        for r in wg.generate_requests(300) {
            let _ = system.serve(&r);
        }
        let low_ratio = system.offload_ratio();
        // Now sustained overload.
        for _ in 0..300 {
            system.observe_load(50.0);
        }
        let before_served = system.served();
        let before_off = (system.offload_ratio() * before_served as f64) as u64;
        for r in wg.generate_requests(300) {
            let _ = system.serve(&r);
        }
        let after_off = (system.offload_ratio() * system.served() as f64) as u64;
        let overload_ratio = (after_off - before_off) as f64 / 300.0;
        assert!(
            overload_ratio > low_ratio,
            "overload should push offloading up: {low_ratio} -> {overload_ratio}"
        );
        assert!(
            overload_ratio > 0.8,
            "deep overload should offload most: {overload_ratio}"
        );
    }
}
