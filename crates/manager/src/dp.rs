//! Differentially-private synthetic example pool (§4.3, Fig. 21).
//!
//! For deployments with strict privacy requirements, the historical
//! example cache is replaced by a DP-synthesized one: each synthetic
//! example perturbs the original's semantic vector with the Gaussian
//! mechanism and regenerates surface text, so "an adversary with access to
//! the synthetic examples cannot infer (with high probability) the
//! presence or value of any specific example in the original dataset."
//! Synthesis costs some utility — Fig. 21 shows a slight quality drop that
//! still beats the no-IC baseline — which here appears as added embedding
//! noise plus a small response-quality penalty.

use ic_embed::Embedding;
use ic_llmsim::{Example, ExampleId, signal_noise};
use ic_stats::rng::rng_from_seed;

/// Failure probability delta in (0, 1).
pub const DP_DELTA: f64 = 1e-5;

/// L2 sensitivity of the released vector. Synthesis aggregates over topic
/// clusters of records before releasing (as DP synthesizers do), so the
/// per-record sensitivity is well below the 2.0 bound of a raw unit
/// embedding.
pub const DP_SENSITIVITY: f64 = 0.5;

/// Response-quality penalty of synthesis artifacts.
pub const DP_QUALITY_PENALTY: f64 = 0.05;

/// Differential-privacy configuration for pool synthesis.
#[derive(Debug, Clone)]
pub struct DpConfig {
    /// Privacy budget epsilon (> 0); smaller = more private = more noise.
    pub epsilon: f64,
}

impl Default for DpConfig {
    fn default() -> Self {
        Self { epsilon: 8.0 }
    }
}

impl DpConfig {
    /// Gaussian-mechanism noise scale:
    /// `sigma = DP_SENSITIVITY * sqrt(2 ln(1.25/DP_DELTA)) / epsilon`.
    pub fn noise_sigma(&self) -> f64 {
        assert!(self.epsilon > 0.0, "epsilon must be positive");
        DP_SENSITIVITY * (2.0 * (1.25 / DP_DELTA).ln()).sqrt() / self.epsilon
    }
}

/// Synthesizes a DP example pool from an original pool.
///
/// Each synthetic example gets a fresh id (offset into a dedicated id
/// range), a noised embedding/latent, regenerated placeholder text, and a
/// penalized quality. The original pool is not modified.
pub fn synthesize_pool(originals: &[Example], config: &DpConfig, seed: u64) -> Vec<Example> {
    let sigma = config.noise_sigma();
    let mut rng = rng_from_seed(seed ^ 0xD9_5E_ED);
    originals
        .iter()
        .enumerate()
        .map(|(i, orig)| {
            let per_component = sigma / (orig.latent.dim() as f64).sqrt();
            let mut latent = orig.latent.clone();
            latent.add_scaled(
                &Embedding::gaussian(latent.dim(), per_component, &mut rng),
                1.0,
            );
            let latent = latent.normalized();
            let mut embedding = orig.embedding.clone();
            embedding.add_scaled(
                &Embedding::gaussian(embedding.dim(), per_component, &mut rng),
                1.0,
            );
            let embedding = embedding.normalized();
            let id = ExampleId(0x4000_0000_0000_0000 + i as u64);
            Example {
                id,
                topic: orig.topic,
                latent,
                embedding,
                skills: orig.skills,
                task: orig.task,
                origin_difficulty: orig.origin_difficulty,
                request_text: format!("dp-synthetic request #{i}").into(),
                response_text: format!("dp-synthetic response #{i}").into(),
                request_tokens: orig.request_tokens,
                response_tokens: orig.response_tokens,
                quality: (orig.quality - DP_QUALITY_PENALTY).max(0.0),
                source_model: orig.source_model,
                replay_count: 0,
                signal_noise: signal_noise(id),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::{Generator, ModelId, ModelSpec};
    use ic_stats::RunningStats;
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn originals(n: usize) -> Vec<Example> {
        WorkloadGenerator::new(Dataset::MsMarco, 71).generate_examples(
            n,
            &ModelSpec::gemma_2_27b(),
            ModelId(0),
            &Generator::new(),
        )
    }

    #[test]
    fn noise_sigma_follows_gaussian_mechanism() {
        let strict = DpConfig { epsilon: 1.0 };
        let loose = DpConfig { epsilon: 10.0 };
        assert!(strict.noise_sigma() > loose.noise_sigma() * 5.0);
    }

    #[test]
    fn synthetic_pool_preserves_size_and_ids_are_fresh() {
        let orig = originals(40);
        let synth = synthesize_pool(&orig, &DpConfig::default(), 1);
        assert_eq!(synth.len(), orig.len());
        for (o, s) in orig.iter().zip(&synth) {
            assert_ne!(o.id, s.id);
            assert!(s.id.0 >= 0x4000_0000_0000_0000);
        }
    }

    #[test]
    fn smaller_epsilon_means_less_similarity_to_original() {
        let orig = originals(60);
        let sim_under = |eps: f64| -> f64 {
            let synth = synthesize_pool(&orig, &DpConfig { epsilon: eps }, 2);
            let mut s = RunningStats::new();
            for (o, n) in orig.iter().zip(&synth) {
                s.push(o.latent.cosine(&n.latent));
            }
            s.mean()
        };
        let private = sim_under(2.0);
        let loose = sim_under(32.0);
        assert!(
            private < loose - 0.05,
            "more privacy must mean more distortion: {private} vs {loose}"
        );
        assert!(loose > 0.8, "loose budget should track originals: {loose}");
    }

    #[test]
    fn quality_penalty_is_applied() {
        let orig = originals(20);
        let synth = synthesize_pool(&orig, &DpConfig::default(), 3);
        for (o, s) in orig.iter().zip(&synth) {
            assert!(s.quality <= o.quality);
            assert!((o.quality - s.quality - DP_QUALITY_PENALTY).abs() < 1e-9 || s.quality == 0.0);
        }
    }

    #[test]
    fn text_is_fully_replaced() {
        let orig = originals(5);
        let synth = synthesize_pool(&orig, &DpConfig::default(), 4);
        for s in &synth {
            assert!(s.request_text.to_string().starts_with("dp-synthetic"));
            assert!(s.response_text.to_string().starts_with("dp-synthetic"));
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_is_rejected() {
        let cfg = DpConfig { epsilon: 0.0 };
        let _ = cfg.noise_sigma();
    }
}
