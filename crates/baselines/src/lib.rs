//! Baseline systems the paper compares IC-Cache against (§6.1).
//!
//! - [`routellm`] — RouteLLM: an offline-trained binary classifier that
//!   routes between a small and a large model on request features alone
//!   (quality-aware but load-oblivious).
//! - [`semantic_cache`] — GPTCache/Databricks-style semantic caching:
//!   return the stored response of the most similar past request when
//!   similarity clears a threshold (Fig. 3b's quality collapse lives
//!   here).
//! - [`rag`] — LongRAG: retrieve the top-5 external documents and append
//!   them to the prompt (Table 2).
//! - [`sft`] — supervised fine-tuning of the small model on large-model
//!   outputs: in-domain gain, out-of-domain regression (Table 3).

pub mod rag;
pub mod routellm;
pub mod semantic_cache;
pub mod sft;

pub use rag::LongRag;
pub use routellm::RouteLlm;
pub use semantic_cache::{CacheHit, SemanticCache, SemanticCacheConfig};
pub use sft::SftAdapter;
