//! The RouteLLM baseline [Ong et al.]: an offline-trained win-probability
//! classifier with threshold routing.
//!
//! RouteLLM learns `P(small model's answer is preferred)` from preference
//! data and routes to the small model when that probability clears a
//! threshold. Unlike IC-Cache's router it is (i) trained offline — no
//! online adaptation — and (ii) oblivious to serving load (§6.2: "it is
//! oblivious to the current system load").

use ic_llmsim::{ModelId, Request};
use ic_stats::sigmoid;

/// Feature count of the classifier (bias, complexity, log-lengths, task
/// one-hot).
const DIM: usize = 9;

fn features(r: &Request) -> [f64; DIM] {
    let mut f = [0.0; DIM];
    f[0] = 1.0;
    f[1] = r.complexity_signal;
    f[2] = (f64::from(r.input_tokens).ln() / 9.0).clamp(0.0, 1.0);
    f[3] = (f64::from(r.target_output_tokens).ln() / 9.0).clamp(0.0, 1.0);
    for (i, task) in ic_llmsim::TaskKind::ALL.iter().enumerate() {
        f[4 + i] = if r.task == *task { 1.0 } else { 0.0 };
    }
    f
}

/// The RouteLLM router.
///
/// # Examples
///
/// ```
/// use ic_llmsim::ModelId;
/// use ic_baselines::RouteLlm;
///
/// let router = RouteLlm::new(ModelId(0), ModelId(1), 0.5);
/// assert_eq!(router.threshold(), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct RouteLlm {
    weights: [f64; DIM],
    small: ModelId,
    large: ModelId,
    threshold: f64,
}

impl RouteLlm {
    /// Creates an untrained router (predicts 0.5 everywhere).
    pub fn new(small: ModelId, large: ModelId, threshold: f64) -> Self {
        Self {
            weights: [0.0; DIM],
            small,
            large,
            threshold,
        }
    }

    /// The routing threshold on `P(small wins)`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Adjusts the threshold (the knob swept in Fig. 13).
    pub fn set_threshold(&mut self, t: f64) {
        self.threshold = t.clamp(0.0, 1.0);
    }

    /// Offline training on labeled preference data: `(request, small_won)`
    /// pairs, logistic regression by SGD.
    pub fn train(&mut self, data: &[(&Request, bool)], epochs: usize, lr: f64) {
        for _ in 0..epochs {
            for (r, small_won) in data {
                let x = features(r);
                let p = sigmoid(
                    self.weights
                        .iter()
                        .zip(&x)
                        .map(|(w, xi)| w * xi)
                        .sum::<f64>(),
                );
                let err = p - if *small_won { 1.0 } else { 0.0 };
                for (w, xi) in self.weights.iter_mut().zip(&x) {
                    *w -= lr * err * xi;
                }
            }
        }
    }

    /// Predicted probability that the small model's answer is preferred.
    pub fn predict_small_win(&self, request: &Request) -> f64 {
        let x = features(request);
        sigmoid(
            self.weights
                .iter()
                .zip(&x)
                .map(|(w, xi)| w * xi)
                .sum::<f64>(),
        )
    }

    /// Routes one request (load-oblivious).
    pub fn route(&self, request: &Request) -> ModelId {
        if self.predict_small_win(request) >= self.threshold {
            self.small
        } else {
            self.large
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_judge::Autorater;
    use ic_llmsim::{GenSetup, Generator, ModelSpec};
    use ic_stats::rng::rng_from_seed;
    use ic_workloads::{Dataset, WorkloadGenerator};

    /// Builds RouteLLM's training data the way the cited system does:
    /// generate with both models, judge, record who won.
    fn preference_data(
        wg: &mut WorkloadGenerator,
        n: usize,
        seed: u64,
    ) -> (Vec<Request>, Vec<bool>) {
        let generator = Generator::new();
        let judge = Autorater::standard();
        let small = ModelSpec::gemma_2_2b();
        let large = ModelSpec::gemma_2_27b();
        let mut rng = rng_from_seed(seed);
        let requests = wg.generate_requests(n);
        let labels = requests
            .iter()
            .map(|r| {
                let qs = generator
                    .generate(&small, r, &GenSetup::bare(), &mut rng)
                    .quality;
                let ql = generator
                    .generate(&large, r, &GenSetup::bare(), &mut rng)
                    .quality;
                judge.score_balanced(qs, ql, 4, &mut rng) >= 0.0
            })
            .collect();
        (requests, labels)
    }

    #[test]
    fn untrained_router_predicts_half() {
        let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 101);
        let r = wg.generate_requests(1).pop().unwrap();
        let router = RouteLlm::new(ModelId(0), ModelId(1), 0.5);
        assert!((router.predict_small_win(&r) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn training_learns_difficulty_signal() {
        let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 102);
        let (requests, labels) = preference_data(&mut wg, 800, 103);
        let data: Vec<(&Request, bool)> = requests.iter().zip(labels.iter().copied()).collect();
        let mut router = RouteLlm::new(ModelId(0), ModelId(1), 0.5);
        router.train(&data, 30, 0.1);
        // Easy requests should get higher small-win probability than hard
        // ones (the classifier reads the complexity signal).
        let eval = wg.generate_requests(400);
        let mut easy = Vec::new();
        let mut hard = Vec::new();
        for r in &eval {
            if r.difficulty < 0.45 {
                easy.push(router.predict_small_win(r));
            } else if r.difficulty > 0.75 {
                hard.push(router.predict_small_win(r));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&easy) > mean(&hard) + 0.05,
            "classifier should separate: easy {} vs hard {}",
            mean(&easy),
            mean(&hard)
        );
    }

    #[test]
    fn threshold_controls_offload_fraction() {
        let mut wg = WorkloadGenerator::new(Dataset::NaturalQuestions, 104);
        let (requests, labels) = preference_data(&mut wg, 500, 105);
        let data: Vec<(&Request, bool)> = requests.iter().zip(labels.iter().copied()).collect();
        let mut router = RouteLlm::new(ModelId(0), ModelId(1), 0.5);
        router.train(&data, 30, 0.1);
        let eval = wg.generate_requests(300);
        let offload_at = |router: &RouteLlm| {
            eval.iter()
                .filter(|r| router.route(r) == ModelId(0))
                .count()
        };
        let mid = offload_at(&router);
        router.set_threshold(0.05);
        let aggressive = offload_at(&router);
        router.set_threshold(0.95);
        let conservative = offload_at(&router);
        assert!(aggressive >= mid);
        assert!(mid >= conservative);
        assert!(aggressive > conservative, "threshold must matter");
    }
}
