//! The stage-2 proxy helpfulness model.
//!
//! A linear model over observable features of a (request, example, target
//! model) triple, trained online with SGD on feedback labels — the
//! simulation counterpart of the paper's TinyBERT proxy updated from
//! sampled user feedback (§4.1). The model never sees latent ground truth;
//! its only view of example quality is a *textual quality signal* (a fixed
//! noisy function of the stored response, standing in for what a small
//! encoder reads off the response text).

use ic_llmsim::{Example, ExampleId, ModelSpec, Request, signal_noise};

/// Number of proxy input features.
pub const FEATURE_DIM: usize = 8;

/// Observable features of one candidate example for one request.
#[derive(Debug, Clone, Copy)]
pub struct ProxyFeatures {
    values: [f64; FEATURE_DIM],
}

impl ProxyFeatures {
    /// Extracts features. All inputs are observable by a real deployment:
    /// embeddings, task tags, response text (via the quality signal),
    /// response length, and the target model's spec sheet.
    pub fn extract(request: &Request, example: &Example, target: &ModelSpec) -> Self {
        Self::extract_with_sim(
            request,
            example,
            target,
            request.embedding.cosine(&example.embedding),
        )
    }

    /// [`Self::extract`] with the request/example cosine similarity
    /// supplied by the caller. Stage 1 already computed exactly this
    /// value for every candidate it returned (the index kernel is
    /// bit-identical to [`ic_embed::Embedding::cosine`]), so stage-2
    /// scoring passes it in rather than re-reducing the embedding pair
    /// per candidate. `sim` must be `request.embedding.cosine(&example
    /// .embedding)` — bit-equality with [`Self::extract`] is pinned by a
    /// test below.
    pub fn extract_with_sim(
        request: &Request,
        example: &Example,
        target: &ModelSpec,
        sim: f64,
    ) -> Self {
        Self::with_headroom(request, example, sim, headroom_proxy(request, target))
    }

    /// [`Self::extract_with_sim`] with the request-only feature
    /// ([`headroom_proxy`]) supplied, so a candidate batch computes it
    /// once.
    fn with_headroom(request: &Request, example: &Example, sim: f64, headroom_proxy: f64) -> Self {
        let sim = sim.clamp(-1.0, 1.0);
        let qsig = quality_signal(example);
        let task_match = if request.task == example.task {
            1.0
        } else {
            0.0
        };
        let skill_sim = request.skills.similarity(&example.skills);
        let len_norm = (f64::from(example.response_tokens).ln() / 8.0).clamp(0.0, 1.5);
        Self {
            values: [
                1.0, // Bias.
                sim,
                sim * sim,
                qsig,
                sim * qsig, // The interaction that relevance-only ranking misses.
                task_match * skill_sim,
                len_norm,
                headroom_proxy,
            ],
        }
    }

    /// The raw feature vector.
    pub fn as_array(&self) -> [f64; FEATURE_DIM] {
        self.values
    }
}

/// How much quality the target model's spec sheet leaves open on the
/// request's skill mix — the one proxy feature no example enters.
fn headroom_proxy(request: &Request, target: &ModelSpec) -> f64 {
    1.0 - request.skills.weighted_score(&target.capability)
}

/// A stable, noisy textual view of an example's response quality.
///
/// The noise is [`ic_llmsim::signal_noise`] of the example id — a
/// function of the id alone, so that repeated feature extraction agrees
/// (the "text" does not change between reads) — and the example carries
/// it from the moment it is built.
pub fn quality_signal(example: &Example) -> f64 {
    debug_assert_eq!(
        example.signal_noise.to_bits(),
        signal_noise(example.id).to_bits(),
        "example {:?} carries another id's signal noise",
        example.id
    );
    (example.quality + example.signal_noise).clamp(0.0, 1.0)
}

/// Online ridge-regularized linear regression trained by SGD.
///
/// # Examples
///
/// ```
/// use ic_selector::ProxyModel;
///
/// let mut m = ProxyModel::new(0.05, 1e-4);
/// // Learn y = x1 (second feature) from a few samples.
/// for _ in 0..500 {
///     m.update(&[1.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.8);
///     m.update(&[1.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.2);
/// }
/// let hi = m.predict(&[1.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
/// let lo = m.predict(&[1.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
/// assert!(hi > lo);
/// ```
#[derive(Debug, Clone)]
pub struct ProxyModel {
    weights: [f64; FEATURE_DIM],
    learning_rate: f64,
    l2: f64,
    updates: u64,
}

impl ProxyModel {
    /// Creates an untrained model.
    pub fn new(learning_rate: f64, l2: f64) -> Self {
        Self {
            weights: [0.0; FEATURE_DIM],
            learning_rate,
            l2,
            updates: 0,
        }
    }

    /// The default configuration used by the selector: learning knobs
    /// plus a heuristic prior on the weights. The paper's proxy is
    /// pretrained offline on sampled feedback before deployment (§4.1);
    /// starting from all-zero weights instead would deadlock the online
    /// loop (nothing clears the utility threshold, so no feedback ever
    /// arrives to train on).
    pub fn standard() -> Self {
        let mut m = Self::new(0.08, 1e-5);
        m.weights = [
            -0.35, // Bias: reject by default...
            0.30,  // ...unless similar,
            0.20,  // superlinearly so,
            0.00,  // quality alone is not enough,
            0.35,  // but similar AND good is the signal,
            0.05,  // with mild task-match
            0.00, 0.05, // and headroom preferences.
        ];
        m
    }

    /// Predicted helpfulness (unclamped linear score; callers treat it as
    /// a utility estimate in roughly `[0, 1]`).
    pub fn predict(&self, features: &[f64; FEATURE_DIM]) -> f64 {
        self.weights.iter().zip(features).map(|(w, x)| w * x).sum()
    }

    /// Convenience: extract-and-predict.
    pub fn predict_example(&self, request: &Request, example: &Example, target: &ModelSpec) -> f64 {
        self.predict(&ProxyFeatures::extract(request, example, target).as_array())
    }

    /// Batched stage-2 scoring over resolved stage-1 candidates
    /// `(id, stage1_similarity, example)`: each similarity is replaced
    /// by the candidate's predicted helpfulness, exactly
    /// `predict_example(request, example, target)` — the stage-1 cosine
    /// is reused per candidate, the request-only feature is computed
    /// once, and the proxy is read-only here, so batching is a pure
    /// hoist.
    pub fn predict_candidates(
        &self,
        request: &Request,
        candidates: &mut [(ExampleId, f64, &Example)],
        target: &ModelSpec,
    ) {
        let headroom_proxy = headroom_proxy(request, target);
        for (_, score, example) in candidates {
            let features = ProxyFeatures::with_headroom(request, example, *score, headroom_proxy);
            *score = self.predict(&features.as_array());
        }
    }

    /// One SGD step toward `label` (observed helpfulness from feedback).
    pub fn update(&mut self, features: &[f64; FEATURE_DIM], label: f64) {
        let pred = self.predict(features);
        let err = pred - label;
        // Decaying step size stabilizes long-running online training.
        let step = self.learning_rate / (1.0 + self.updates as f64 / 50_000.0);
        for (w, x) in self.weights.iter_mut().zip(features) {
            *w -= step * (err * x + self.l2 * *w);
        }
        self.updates += 1;
    }

    /// Number of SGD updates absorbed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Mean squared error over a labelled set.
    pub fn mse(&self, data: &[([f64; FEATURE_DIM], f64)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        data.iter()
            .map(|(x, y)| {
                let d = self.predict(x) - y;
                d * d
            })
            .sum::<f64>()
            / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::icl::{IclParams, example_utility};
    use ic_llmsim::{Generator, ModelSpec};
    use ic_stats::pearson;
    use ic_workloads::{Dataset, WorkloadGenerator};
    use rand::RngExt;

    #[test]
    fn sim_reuse_and_batched_scoring_are_bitwise_equal() {
        let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 13);
        let generator = Generator::new();
        let small = ModelSpec::gemma_2_2b();
        let exs = wg.generate_examples(
            40,
            &ModelSpec::gemma_2_27b(),
            ic_llmsim::ModelId(0),
            &generator,
        );
        let reqs = wg.generate_requests(5);
        let model = ProxyModel::standard();
        for r in &reqs {
            let mut batch: Vec<(ExampleId, f64, &Example)> = exs
                .iter()
                .map(|e| (e.id, r.embedding.cosine(&e.embedding), e))
                .collect();
            model.predict_candidates(r, &mut batch, &small);
            for (e, (_, got, _)) in exs.iter().zip(&batch) {
                let f_a = ProxyFeatures::extract(r, e, &small).as_array();
                let f_b =
                    ProxyFeatures::extract_with_sim(r, e, &small, r.embedding.cosine(&e.embedding))
                        .as_array();
                for (a, b) in f_a.iter().zip(&f_b) {
                    assert_eq!(a.to_bits(), b.to_bits(), "feature drift");
                }
                assert_eq!(got.to_bits(), model.predict_example(r, e, &small).to_bits());
            }
        }
    }

    #[test]
    fn quality_signal_is_stable_and_informative() {
        let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 4);
        let generator = Generator::new();
        let exs = wg.generate_examples(
            300,
            &ModelSpec::gemma_2_27b(),
            ic_llmsim::ModelId(0),
            &generator,
        );
        // Stable across reads.
        assert_eq!(quality_signal(&exs[0]), quality_signal(&exs[0]));
        // Correlated with true quality.
        let sig: Vec<f64> = exs.iter().map(quality_signal).collect();
        let truth: Vec<f64> = exs.iter().map(|e| e.quality).collect();
        let r = pearson(&sig, &truth).unwrap();
        assert!(r > 0.4, "quality signal uninformative: r={r}");
        // But not a perfect oracle.
        assert!(r < 0.98, "quality signal too clean: r={r}");
    }

    #[test]
    fn sgd_reduces_mse_on_ground_truth_utility() {
        let mut wg = WorkloadGenerator::new(Dataset::NaturalQuestions, 5);
        let generator = Generator::new();
        let small = ModelSpec::gemma_2_2b();
        let exs = wg.generate_examples(
            400,
            &ModelSpec::gemma_2_27b(),
            ic_llmsim::ModelId(0),
            &generator,
        );
        let reqs = wg.generate_requests(400);
        let icl = IclParams::default();
        let mut data = Vec::new();
        let mut rng = ic_stats::rng::rng_from_seed(6);
        for (r, e) in reqs.iter().zip(&exs) {
            let base = generator.base_quality(&small, r);
            let label = example_utility(e, r, base, &icl) + 0.05 * (rng.random::<f64>() - 0.5); // Feedback noise.
            let f = ProxyFeatures::extract(r, e, &small).as_array();
            data.push((f, label));
        }
        let mut model = ProxyModel::standard();
        let before = model.mse(&data);
        for _ in 0..30 {
            for (x, y) in &data {
                model.update(x, *y);
            }
        }
        let after = model.mse(&data);
        assert!(
            after < before * 0.5,
            "training did not reduce MSE: {before} -> {after}"
        );
        assert_eq!(model.updates(), 30 * 400);
    }

    #[test]
    fn trained_proxy_outranks_raw_similarity() {
        // The heart of Fig. 7 / Fig. 9: proxy predictions correlate with
        // true utility better than similarity does.
        let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 7);
        let generator = Generator::new();
        let small = ModelSpec::gemma_2_2b();
        let exs = wg.generate_examples(
            1_200,
            &ModelSpec::gemma_2_27b(),
            ic_llmsim::ModelId(0),
            &generator,
        );
        let reqs = wg.generate_requests(1_200);
        let icl = IclParams::default();
        let mut model = ProxyModel::standard();
        // Train on the first half, several epochs: the proxy-vs-similarity
        // correlation gap is a few points, so the proxy must actually
        // converge for the comparison to resolve it.
        for _ in 0..10 {
            for (r, e) in reqs.iter().zip(&exs).take(600) {
                let base = generator.base_quality(&small, r);
                let label = example_utility(e, r, base, &icl);
                model.update(&ProxyFeatures::extract(r, e, &small).as_array(), label);
            }
        }
        // Evaluate on the second half.
        let mut preds = Vec::new();
        let mut sims = Vec::new();
        let mut truths = Vec::new();
        for (r, e) in reqs.iter().zip(&exs).skip(600) {
            let base = generator.base_quality(&small, r);
            truths.push(example_utility(e, r, base, &icl));
            preds.push(model.predict_example(r, e, &small));
            sims.push(r.embedding.cosine(&e.embedding));
        }
        let r_proxy = pearson(&preds, &truths).unwrap();
        let r_sim = pearson(&sims, &truths).unwrap();
        assert!(
            r_proxy > r_sim + 0.02,
            "proxy (r={r_proxy}) must beat similarity (r={r_sim})"
        );
    }

    #[test]
    fn raw_model_predicts_zero_and_prior_is_similarity_gated() {
        let raw = ProxyModel::new(0.05, 1e-4);
        assert_eq!(raw.predict(&[1.0; FEATURE_DIM]), 0.0);
        assert_eq!(raw.mse(&[]), 0.0);
        // The pretrained prior prefers similar high-quality candidates and
        // rejects dissimilar ones out of the box.
        let prior = ProxyModel::standard();
        let good = [1.0, 0.9, 0.81, 0.8, 0.72, 0.8, 0.5, 0.4];
        let junk = [1.0, 0.3, 0.09, 0.8, 0.24, 0.8, 0.5, 0.4];
        assert!(prior.predict(&good) > 0.2);
        assert!(prior.predict(&junk) < 0.05);
    }
}
