//! The two-stage selection pipeline (Algorithm 1, `RetrieveExamples`).

use ic_embed::Embedding;
use ic_llmsim::{Example, ExampleId, ExampleStore, ModelSpec, Request};
use ic_vecindex::{IvfConfig, IvfIndex, StoredRow, VectorIndex};

use crate::proxy::ProxyModel;

/// Stage-1 candidate count (relevance pre-selection width).
pub const STAGE1_CANDIDATES: usize = 32;

/// Maximum examples prepended to one request (the paper uses 5).
pub const MAX_EXAMPLES: usize = 5;

/// Candidates more similar than this to an already-picked example are
/// skipped (diversity, Algorithm 1's `RetrieveComb`).
pub const DIVERSITY_CEILING: f64 = 0.97;

/// The utility cut of [`ExampleSelector::select`]: candidates whose
/// predicted helpfulness falls below it are not prepended. The paper
/// adapts this threshold online (§4.1); here it is one fixed value
/// (`docs/paper-claims.md`).
pub const UTILITY_CUT: f64 = 0.1;

/// Configuration of the Example Selector: its stage-1 index. The
/// selection policy itself is the constants above.
#[derive(Debug, Clone, Default)]
pub struct SelectorConfig {
    /// IVF index configuration.
    pub ivf: IvfConfig,
}

/// The outcome of one selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Chosen example ids in prompt order.
    pub ids: Vec<ExampleId>,
    /// Predicted helpfulness of each chosen example (same order).
    pub predicted_utility: Vec<f64>,
    /// Stage-1 similarity of each chosen example to the request (same
    /// order): the request/example cosine, bit-identical to
    /// [`Embedding::cosine`] of the two embeddings. The feedback path
    /// builds its proxy features from it, since a cached example carries
    /// no vector of its own.
    pub stage1_similarity: Vec<f64>,
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
            stage1_similarity: Vec::new(),
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
/// Owns the similarity index (stage 1) and the proxy model (stage 2). The
/// index holds the one copy of every example's vector (§4.1): the
/// diversity pick reads its stored rows. The plaintext and metadata live
/// in the Example Manager's cache, whose examples carry no vector, and
/// are reached through [`ExampleStore`].
///
/// A stage-1 look-ahead on another thread probes a read-only view of the
/// index ([`IvfIndex::view`]) while the selector reads and writes the
/// index on this one: the index copies a posting list before it writes
/// one a view shares, so admissions and evictions neither wait for the
/// look-ahead nor race it, and [`IvfIndex::refresh`] brings the
/// look-ahead's hits up to the index as it stands before they reach
/// [`Self::select_with_stage1`].
#[derive(Debug)]
pub struct ExampleSelector {
    index: IvfIndex,
    proxy: ProxyModel,
}

impl ExampleSelector {
    /// Creates a selector with an untrained proxy.
    pub fn new(config: SelectorConfig) -> Self {
        Self {
            index: IvfIndex::new(config.ivf),
            proxy: ProxyModel::standard(),
        }
    }

    /// Default-configured selector.
    pub fn standard() -> Self {
        Self::new(SelectorConfig::default())
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

    /// Indexes a new example (called on admission with the embedding the
    /// Example Manager's cache gave back: the index keeps the one copy).
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
    pub fn stage1(&self, request: &Request) -> Vec<(ExampleId, f64)> {
        self.index
            .search(&request.embedding, STAGE1_CANDIDATES)
            .into_iter()
            .map(|h| (ExampleId(h.id), h.similarity))
            .collect()
    }

    /// Full two-stage selection at [`UTILITY_CUT`].
    pub fn select<S: ExampleStore>(
        &self,
        request: &Request,
        store: &S,
        target: &ModelSpec,
    ) -> Selection {
        self.select_from_stage1(request, self.stage1(request), store, target, UTILITY_CUT)
    }

    /// Two-stage selection under an explicit utility threshold in place
    /// of [`UTILITY_CUT`] (the experiments select at 0.0).
    pub fn select_with_threshold<S: ExampleStore>(
        &self,
        request: &Request,
        store: &S,
        target: &ModelSpec,
        threshold: f64,
    ) -> Selection {
        self.select_from_stage1(request, self.stage1(request), store, target, threshold)
    }

    /// Stage 2 alone at [`UTILITY_CUT`]: two-stage selection
    /// with the stage-1 `candidates` supplied by the caller (what
    /// [`ExampleSelector::stage1`] returned, or a list probed ahead of
    /// time through a view of [`Self::index`] and brought up to the
    /// current generation by [`IvfIndex::refresh`], which is the same). Times and differentially tests
    /// stage 2 apart from the probe (`tests/stage2_oracle.rs`).
    ///
    /// # Panics
    ///
    /// If a candidate that `store` resolves is not in this selector's
    /// index: the diversity pick reads each candidate's vector from its
    /// index row, the one copy (a cached example carries none). Ids that
    /// came from [`ExampleSelector::stage1`] always are.
    pub fn select_with_stage1<S: ExampleStore>(
        &self,
        request: &Request,
        candidates: Vec<(ExampleId, f64)>,
        store: &S,
        target: &ModelSpec,
    ) -> Selection {
        self.select_from_stage1(request, candidates, store, target, UTILITY_CUT)
    }

    /// Stage 2 + threshold + diversity over the given stage-1
    /// candidates — the shared tail of every selection path above.
    /// Panics if a candidate `store` resolves has no index row (see
    /// [`ExampleSelector::select_with_stage1`]).
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
        // and candidates resolve against the store exactly once. Each
        // entry is `(id, utility, stage-1 similarity, example)`; the
        // batch writes the utilities.
        let mut scored: Vec<(ExampleId, f64, f64, &Example)> = candidates
            .iter()
            .filter_map(|&(id, sim)| store.get_example(id).map(|ex| (id, 0.0, sim, ex)))
            .collect();
        self.proxy.predict_candidates(request, &mut scored, target);
        // `(utility, id)` orders distinct candidates strictly, so the
        // in-place unstable sort has one possible outcome.
        scored.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite predictions")
                .then(a.0.cmp(&b.0))
        });

        // Threshold + diversity greedy pick, on the index's stored rows:
        // each cosine reads the two rows in place and their insert-time
        // norms, bit-identical to `Embedding::cosine` and allocating
        // nothing.
        let mut picked: Vec<(ExampleId, f64, f64, StoredRow<'_>)> =
            Vec::with_capacity(MAX_EXAMPLES);
        for &(id, util, sim, _) in &scored {
            if picked.len() >= MAX_EXAMPLES {
                break;
            }
            if util < threshold {
                break; // Sorted descending: everything after is below too.
            }
            let row = self
                .index
                .row(id.0)
                .unwrap_or_else(|| panic!("stage-1 candidate {id:?} is not in the index"));
            let redundant = (picked.iter()).any(|(.., p)| p.cosine(&row) > DIVERSITY_CEILING);
            if !redundant {
                picked.push((id, util, sim, row));
            }
        }

        // Prompt order: most helpful last, so it sits closest to the query.
        picked.reverse();
        Selection {
            ids: picked.iter().map(|&(id, ..)| id).collect(),
            predicted_utility: picked.iter().map(|&(_, u, ..)| u).collect(),
            stage1_similarity: picked.iter().map(|&(_, _, sim, _)| sim).collect(),
            stage1_count,
            threshold_used: threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::icl::example_utility;
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
            for r in &train_reqs {
                for (id, _) in selector.stage1(r).into_iter().take(8) {
                    let e = &store[&id];
                    let base = generator.base_quality(&small, r);
                    let label = example_utility(e, r, base);
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
            assert!(sel.ids.len() <= MAX_EXAMPLES);
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
        let mut u_two_stage = 0.0;
        let mut u_stage1 = 0.0;
        let mut n = 0.0;
        for r in &f.requests {
            let base = f.generator.base_quality(&f.small, r);
            let sel = f.selector.select_with_threshold(r, &f.store, &f.small, 0.0);
            for id in &sel.ids {
                u_two_stage += example_utility(&f.store[id], r, base);
                n += 1.0;
            }
            // Stage-1-only: top-k by similarity.
            for (id, _) in f.selector.stage1(r).into_iter().take(sel.ids.len()) {
                u_stage1 += example_utility(&f.store[&id], r, base);
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
