//! The two-stage selection pipeline (Algorithm 1, `RetrieveExamples`).

use std::cell::RefCell;

use ic_embed::{Embedding, cosine_from_dot};
use ic_llmsim::{Example, ExampleId, ExampleStore, ModelSpec, Request};
use ic_vecindex::{IvfConfig, IvfIndex, VectorIndex};

use crate::memo::{self, ProbeMemo};
use crate::proxy::ProxyModel;
use crate::threshold::DynamicThreshold;

/// Tuning knobs of the Example Selector.
#[derive(Debug, Clone)]
pub struct SelectorConfig {
    /// Stage-1 candidate count (relevance pre-selection width).
    pub stage1_candidates: usize,
    /// Maximum examples prepended to one request (the paper uses 5).
    pub max_examples: usize,
    /// Candidates more similar than this to an already-picked example are
    /// skipped (diversity, Algorithm 1's `RetrieveComb`).
    pub diversity_ceiling: f64,
    /// Order the final set most-helpful-last (recency-biased attention).
    pub best_last: bool,
    /// IVF index configuration.
    pub ivf: IvfConfig,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        Self {
            stage1_candidates: 32,
            max_examples: 5,
            diversity_ceiling: 0.97,
            best_last: true,
            ivf: IvfConfig::default(),
        }
    }
}

/// The outcome of one selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Chosen example ids in prompt order.
    pub ids: Vec<ExampleId>,
    /// Predicted helpfulness of each chosen example (same order).
    pub predicted_utility: Vec<f64>,
    /// Number of stage-1 candidates considered.
    pub stage1_count: usize,
    /// The utility threshold that was applied.
    pub threshold_used: f64,
}

impl Selection {
    /// An empty selection (no useful examples / empty pool).
    pub fn empty(threshold: f64) -> Self {
        Self {
            ids: Vec::new(),
            predicted_utility: Vec::new(),
            stage1_count: 0,
            threshold_used: threshold,
        }
    }

    /// Resolves ids against a store, preserving order; silently drops ids
    /// that were evicted between selection and use (the race is benign).
    pub fn resolve<'s, S: ExampleStore>(&self, store: &'s S) -> Vec<&'s Example> {
        self.ids
            .iter()
            .filter_map(|&id| store.get_example(id))
            .collect()
    }
}

/// The Example Selector service.
///
/// Owns the similarity index (stage 1) and the proxy model (stage 2); the
/// example payloads themselves live in the Example Manager's cache and are
/// reached through [`ExampleStore`].
#[derive(Debug)]
pub struct ExampleSelector {
    config: SelectorConfig,
    index: IvfIndex,
    /// Recent stage-1 results, stamped with the index generation they
    /// were probed under (see the `memo` module). Behind a `RefCell`
    /// because selection reads the selector through `&self`; `None` only
    /// after [`Self::disable_probe_memo`].
    memo: Option<RefCell<ProbeMemo>>,
    proxy: ProxyModel,
    threshold: DynamicThreshold,
}

impl ExampleSelector {
    /// Creates a selector with an untrained proxy.
    pub fn new(config: SelectorConfig) -> Self {
        let ivf = config.ivf.clone();
        Self {
            config,
            index: IvfIndex::new(ivf),
            memo: Some(RefCell::new(ProbeMemo::new())),
            proxy: ProxyModel::standard(),
            threshold: DynamicThreshold::standard(),
        }
    }

    /// Default-configured selector.
    pub fn standard() -> Self {
        Self::new(SelectorConfig::default())
    }

    /// The selector configuration.
    pub fn config(&self) -> &SelectorConfig {
        &self.config
    }

    /// Mutable access to the proxy (the offline trainer in `ic-cache`
    /// feeds it feedback batches).
    pub fn proxy_mut(&mut self) -> &mut ProxyModel {
        &mut self.proxy
    }

    /// Read access to the proxy.
    pub fn proxy(&self) -> &ProxyModel {
        &self.proxy
    }

    /// Read access to the stage-1 index (its structure and build counts).
    pub fn index(&self) -> &IvfIndex {
        &self.index
    }

    /// Mutable access to the threshold controller.
    pub fn threshold_mut(&mut self) -> &mut DynamicThreshold {
        &mut self.threshold
    }

    /// Read access to the threshold controller.
    pub fn threshold(&self) -> &DynamicThreshold {
        &self.threshold
    }

    /// Indexes a new example (called by the Example Manager on admission).
    pub fn index_example(&mut self, id: ExampleId, embedding: Embedding) {
        self.index.insert(id.0, embedding);
    }

    /// Indexes a whole batch of examples through the IVF bulk build —
    /// identical final index bytes to calling
    /// [`Self::index_example`] per item, for one k-means fit instead of
    /// one per doubling.
    pub fn index_examples(&mut self, items: Vec<(ExampleId, Embedding)>) {
        self.index
            .insert_bulk(items.into_iter().map(|(id, e)| (id.0, e)).collect());
    }

    /// Drops an example from the index (called on eviction).
    pub fn unindex_example(&mut self, id: ExampleId) -> bool {
        self.index.remove(id.0)
    }

    /// Number of indexed examples.
    pub fn indexed_count(&self) -> usize {
        self.index.len()
    }

    /// Stage 1 only: relevance-ranked candidates. Public for the Fig. 9
    /// ablation (stage-1-only selection).
    ///
    /// While a probe is expensive enough to be worth remembering, a
    /// query whose bits were probed under the index's current generation
    /// is answered from the probe memo with the probe's own bytes (see
    /// the `memo` module); below that bar the memo is not consulted.
    pub fn stage1(&self, request: &Request) -> Vec<(ExampleId, f64)> {
        let probe = || {
            self.index
                .search(&request.embedding, self.config.stage1_candidates)
                .into_iter()
                .map(|h| (ExampleId(h.id), h.similarity))
                .collect()
        };
        match &self.memo {
            Some(memo) if self.index.expected_comparisons() >= memo::MIN_COMPARISONS => memo
                .borrow_mut()
                .get_or_probe(request.embedding.as_slice(), self.index.generation(), probe),
            _ => probe(),
        }
    }

    /// `(lookups, hits)` of the probe memo since construction: stage-1
    /// calls that consulted it, and how many of those it answered.
    /// Lookups minus hits ran the probe; calls below the memo's
    /// comparison bar count as neither.
    pub fn probe_memo_counts(&self) -> (u64, u64) {
        self.memo.as_ref().map_or((0, 0), |memo| {
            let memo = memo.borrow();
            (memo.lookups, memo.hits)
        })
    }

    /// Test support: drops the probe memo, so every stage-1 call runs the
    /// probe and the counters stay at zero — the reference a memoized
    /// run's bytes are compared against. Not reachable from any
    /// configuration.
    #[doc(hidden)]
    pub fn disable_probe_memo(&mut self) {
        self.memo = None;
    }

    /// Full two-stage selection with the globally-adapted threshold.
    pub fn select<S: ExampleStore>(
        &self,
        request: &Request,
        store: &S,
        target: &ModelSpec,
    ) -> Selection {
        self.select_with_threshold(request, store, target, self.threshold.current())
    }

    /// Two-stage selection under an explicit utility threshold (used by
    /// probe traffic and the threshold-sweep experiments).
    pub fn select_with_threshold<S: ExampleStore>(
        &self,
        request: &Request,
        store: &S,
        target: &ModelSpec,
        threshold: f64,
    ) -> Selection {
        self.select_from_stage1(request, self.stage1(request), store, target, threshold)
    }

    /// Stage 2 alone under the current threshold: two-stage selection
    /// with the stage-1 `candidates` supplied by the caller (what
    /// [`ExampleSelector::stage1`] returned). Times and differentially
    /// tests stage 2 apart from the probe (`tests/stage2_oracle.rs`).
    pub fn select_with_stage1<S: ExampleStore>(
        &self,
        request: &Request,
        candidates: Vec<(ExampleId, f64)>,
        store: &S,
        target: &ModelSpec,
    ) -> Selection {
        self.select_from_stage1(request, candidates, store, target, self.threshold.current())
    }

    /// Stage 2 + threshold + diversity over the given stage-1
    /// candidates — the shared tail of every selection path above.
    fn select_from_stage1<S: ExampleStore>(
        &self,
        request: &Request,
        candidates: Vec<(ExampleId, f64)>,
        store: &S,
        target: &ModelSpec,
        threshold: f64,
    ) -> Selection {
        let stage1_count = candidates.len();
        if candidates.is_empty() {
            return Selection::empty(threshold);
        }

        // Stage 2: predicted helpfulness, scored as one proxy batch.
        // The stage-1 similarity *is* the request/example cosine (the
        // index kernel computes it bit-identically), so scoring reuses
        // it instead of re-reducing the embedding pair per candidate,
        // and candidates resolve against the store exactly once.
        let mut scored: Vec<(ExampleId, f64, &Example)> = candidates
            .iter()
            .filter_map(|&(id, sim)| store.get_example(id).map(|ex| (id, sim, ex)))
            .collect();
        self.proxy.predict_candidates(request, &mut scored, target);
        // `(utility, id)` orders distinct candidates strictly, so the
        // in-place unstable sort has one possible outcome.
        scored.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite predictions")
                .then(a.0.cmp(&b.0))
        });

        // Threshold + diversity greedy pick. Each embedding's norm is
        // reduced once, when its candidate comes up, not once per pair.
        let mut picked: Vec<(ExampleId, f64, &Embedding, f64)> = Vec::new();
        for &(id, util, ex) in &scored {
            if picked.len() >= self.config.max_examples {
                break;
            }
            if util < threshold {
                break; // Sorted descending: everything after is below too.
            }
            let norm = ex.embedding.norm();
            let redundant = picked.iter().any(|&(_, _, p, p_norm)| {
                cosine_from_dot(p.dot(&ex.embedding), p_norm, norm) > self.config.diversity_ceiling
            });
            if !redundant {
                picked.push((id, util, &ex.embedding, norm));
            }
        }

        // Prompt order: most helpful last, so it sits closest to the query.
        if self.config.best_last {
            picked.reverse();
        }
        Selection {
            ids: picked.iter().map(|&(id, ..)| id).collect(),
            predicted_utility: picked.iter().map(|&(_, u, ..)| u).collect(),
            stage1_count,
            threshold_used: threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::icl::{IclParams, example_utility};
    use ic_llmsim::{Generator, ModelId};
    use ic_workloads::{Dataset, WorkloadGenerator};
    use std::collections::HashMap;

    struct Fixture {
        selector: ExampleSelector,
        store: HashMap<ExampleId, Example>,
        requests: Vec<Request>,
        small: ModelSpec,
        generator: Generator,
    }

    fn fixture(n_examples: usize, n_requests: usize, train: bool) -> Fixture {
        let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 11);
        let generator = Generator::new();
        let small = ModelSpec::gemma_2_2b();
        let examples = wg.generate_examples(
            n_examples,
            &ModelSpec::gemma_2_27b(),
            ModelId(0),
            &generator,
        );
        let requests = wg.generate_requests(n_requests);
        let mut selector = ExampleSelector::standard();
        let mut store = HashMap::new();
        for e in examples {
            selector.index_example(e.id, e.embedding.clone());
            store.insert(e.id, e);
        }
        if train {
            // Offline proxy training on held-out traffic, as the deployed
            // system would do from sampled feedback.
            let train_reqs = wg.generate_requests(300);
            let icl = IclParams::default();
            for r in &train_reqs {
                for (id, _) in selector.stage1(r).into_iter().take(8) {
                    let e = &store[&id];
                    let base = generator.base_quality(&small, r);
                    let label = example_utility(e, r, base, &icl);
                    let f = crate::proxy::ProxyFeatures::extract(r, e, &small).as_array();
                    for _ in 0..4 {
                        selector.proxy_mut().update(&f, label);
                    }
                }
            }
        }
        Fixture {
            selector,
            store,
            requests,
            small,
            generator,
        }
    }

    #[test]
    fn selection_respects_max_and_threshold() {
        let f = fixture(800, 20, true);
        for r in &f.requests {
            let sel = f
                .selector
                .select_with_threshold(r, &f.store, &f.small, 0.05);
            assert!(sel.ids.len() <= f.selector.config().max_examples);
            for &u in &sel.predicted_utility {
                assert!(u >= 0.05 - 1e-9, "picked below threshold: {u}");
            }
        }
    }

    #[test]
    fn higher_threshold_selects_fewer() {
        let f = fixture(800, 30, true);
        let mut low_total = 0usize;
        let mut high_total = 0usize;
        for r in &f.requests {
            low_total += f
                .selector
                .select_with_threshold(r, &f.store, &f.small, 0.0)
                .ids
                .len();
            high_total += f
                .selector
                .select_with_threshold(r, &f.store, &f.small, 0.3)
                .ids
                .len();
        }
        assert!(high_total < low_total);
    }

    #[test]
    fn two_stage_picks_better_examples_than_stage1_fig9() {
        let f = fixture(1200, 60, true);
        let icl = IclParams::default();
        let mut u_two_stage = 0.0;
        let mut u_stage1 = 0.0;
        let mut n = 0.0;
        for r in &f.requests {
            let base = f.generator.base_quality(&f.small, r);
            let sel = f.selector.select_with_threshold(r, &f.store, &f.small, 0.0);
            for id in &sel.ids {
                u_two_stage += example_utility(&f.store[id], r, base, &icl);
                n += 1.0;
            }
            // Stage-1-only: top-k by similarity.
            for (id, _) in f.selector.stage1(r).into_iter().take(sel.ids.len()) {
                u_stage1 += example_utility(&f.store[&id], r, base, &icl);
            }
        }
        assert!(n > 0.0, "no examples selected at all");
        assert!(
            u_two_stage / n > (u_stage1 / n) * 1.05,
            "two-stage ({}) must beat stage-1 ({})",
            u_two_stage / n,
            u_stage1 / n
        );
    }

    #[test]
    fn best_last_ordering_holds() {
        let f = fixture(600, 20, true);
        for r in &f.requests {
            let sel = f.selector.select_with_threshold(r, &f.store, &f.small, 0.0);
            for w in sel.predicted_utility.windows(2) {
                assert!(w[0] <= w[1] + 1e-12, "must be ascending (best last)");
            }
        }
    }

    #[test]
    fn diversity_skips_near_duplicates() {
        let mut f = fixture(400, 5, true);
        // Clone one example many times with new ids: near-identical
        // embeddings must not be picked together.
        let donor = f.store.values().next().unwrap().clone();
        for i in 0..10u64 {
            let mut dup = donor.clone();
            dup.id = ExampleId(1_000_000 + i);
            dup.signal_noise = ic_llmsim::signal_noise(dup.id);
            f.selector.index_example(dup.id, dup.embedding.clone());
            f.store.insert(dup.id, dup);
        }
        let mut probe = donor.clone();
        probe.id = ExampleId(2_000_000);
        let request = Request {
            id: ic_llmsim::RequestId(99),
            topic: probe.topic,
            latent: probe.latent.clone(),
            embedding: probe.embedding.clone(),
            difficulty: 0.6,
            complexity_signal: 0.6,
            skills: probe.skills,
            task: probe.task,
            input_tokens: 30,
            target_output_tokens: 80,
            text: Default::default(),
        };
        let sel = f
            .selector
            .select_with_threshold(&request, &f.store, &f.small, 0.0);
        // The duplicates share identical embeddings: at most one survives.
        let dup_count = sel.ids.iter().filter(|id| id.0 >= 1_000_000).count();
        assert!(dup_count <= 1, "picked {dup_count} duplicates");
    }

    #[test]
    fn empty_pool_returns_empty_selection() {
        let selector = ExampleSelector::standard();
        let store: HashMap<ExampleId, Example> = HashMap::new();
        let mut wg = WorkloadGenerator::new(Dataset::Alpaca, 12);
        let r = wg.generate_requests(1).pop().unwrap();
        let sel = selector.select(&r, &store, &ModelSpec::gemma_2_2b());
        assert!(sel.ids.is_empty());
        assert_eq!(sel.stage1_count, 0);
    }

    #[test]
    fn unindex_removes_from_candidates() {
        let mut f = fixture(200, 5, false);
        let r = &f.requests[0];
        let before = f.selector.stage1(r);
        assert!(!before.is_empty());
        let victim = before[0].0;
        assert!(f.selector.unindex_example(victim));
        let after = f.selector.stage1(r);
        assert!(after.iter().all(|&(id, _)| id != victim));
    }

    #[test]
    fn resolve_drops_evicted_ids() {
        let f = fixture(300, 3, false);
        let r = &f.requests[0];
        let mut sel = f
            .selector
            .select_with_threshold(r, &f.store, &f.small, -10.0);
        sel.ids.push(ExampleId(u64::MAX)); // Simulates eviction race.
        let resolved = sel.resolve(&f.store);
        assert_eq!(resolved.len(), sel.ids.len() - 1);
    }
}
