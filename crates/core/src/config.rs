//! System configuration.

use ic_llmsim::{Catalog, ModelId};
use ic_manager::ManagerConfig;
use ic_router::RouterConfig;

/// Full IC-Cache configuration: which models serve, the router's cost
/// weight and seed, the manager's byte cap, the feedback rate and the
/// system seed — eight settable values. Everything else is a constant
/// where it is read: the selector's in `ic_selector`, the router's
/// calibration in `ic_router::router`, admission and replay in
/// `ic_manager`, and the generator's and ICL model's in `ic_llmsim`.
#[derive(Debug)]
pub struct IcCacheConfig {
    /// The model catalog.
    pub catalog: Catalog,
    /// Candidate serving models (router arms). Must be non-empty.
    pub models: Vec<ModelId>,
    /// The "primary" (largest/most capable) model: requests routed to it
    /// are NOT augmented with examples; offloaded requests are
    /// (Algorithm 1: "prepend examples to the request if offloading
    /// occurs").
    pub primary: ModelId,
    /// Request Router knobs.
    pub router: RouterConfig,
    /// Example Manager knobs.
    pub manager: ManagerConfig,
    /// Probability that a served request yields quality feedback even
    /// without the router's uncertainty gate (production systems sample
    /// ~1%, §4.1; experiments use more to converge faster).
    pub feedback_sample_rate: f64,
    /// RNG seed for the system's own stochastic choices.
    pub seed: u64,
}

impl IcCacheConfig {
    /// A two-model configuration over the named small/large pair.
    ///
    /// # Panics
    ///
    /// Panics if either name is missing from the standard catalog.
    pub fn pair(small: &str, large: &str) -> Self {
        let catalog = Catalog::standard();
        let small_id = catalog
            .by_name(small)
            .unwrap_or_else(|| panic!("unknown model {small}"));
        let large_id = catalog
            .by_name(large)
            .unwrap_or_else(|| panic!("unknown model {large}"));
        Self {
            catalog,
            models: vec![small_id, large_id],
            primary: large_id,
            router: RouterConfig::default(),
            manager: ManagerConfig::default(),
            feedback_sample_rate: 0.3,
            seed: 0x1C_CAC4E,
        }
    }

    /// Gemma-2-2B offloading from Gemma-2-27B (the paper's main open
    /// pairing).
    pub fn gemma_pair() -> Self {
        Self::pair("gemma-2-2b", "gemma-2-27b")
    }

    /// Gemini-1.5-Flash offloading from Gemini-1.5-Pro.
    pub fn gemini_pair() -> Self {
        Self::pair("gemini-1.5-flash", "gemini-1.5-pro")
    }

    /// Qwen-2.5-7B offloading from DeepSeek-R1.
    pub fn qwen_deepseek_pair() -> Self {
        Self::pair("qwen-2.5-7b", "deepseek-r1")
    }

    /// Phi-3-mini offloading from Phi-3-medium.
    pub fn phi_pair() -> Self {
        Self::pair("phi-3-mini", "phi-3-medium")
    }

    /// The small (non-primary) models.
    pub fn offload_models(&self) -> Vec<ModelId> {
        self.models
            .iter()
            .copied()
            .filter(|&m| m != self.primary)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_resolve_models() {
        for cfg in [
            IcCacheConfig::gemma_pair(),
            IcCacheConfig::gemini_pair(),
            IcCacheConfig::qwen_deepseek_pair(),
            IcCacheConfig::phi_pair(),
        ] {
            assert_eq!(cfg.models.len(), 2);
            assert!(cfg.models.contains(&cfg.primary));
            assert_eq!(cfg.offload_models().len(), 1);
            // Primary is the pricier member.
            let off = cfg.offload_models()[0];
            assert!(
                cfg.catalog.get(cfg.primary).cost_per_1k_tokens
                    > cfg.catalog.get(off).cost_per_1k_tokens
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_name_panics() {
        let _ = IcCacheConfig::pair("nope", "gemma-2-27b");
    }
}
