//! IC-Cache: efficient LLM serving via in-context caching.
//!
//! This crate assembles the paper's three services — Example Selector
//! (§4.1), Request Router (§4.2) and Example Manager (§4.3) — into the
//! serving workflow of Algorithm 1 / Figure 5:
//!
//! 1. retrieve high-utility historical request–response pairs,
//! 2. route the (possibly augmented) request to the most suitable model
//!    under the current load,
//! 3. generate the response,
//! 4. optionally admit the new pair into the example cache, solicit
//!    feedback, and run the offline maintenance loops (cost-aware replay,
//!    knapsack eviction, threshold adaptation, proxy/bandit updates).
//!
//! The public entry point mirrors Figure 6's `IC_cacheClient`:
//!
//! ```
//! use ic_cache::{IcCacheClient, IcCacheConfig};
//! use ic_workloads::{Dataset, WorkloadGenerator};
//!
//! let mut client = IcCacheClient::new(IcCacheConfig::gemma_pair());
//! let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 7);
//! let requests = wg.generate_requests(4);
//! let responses = client.generate(&requests);
//! client.update_cache(&requests, &responses);
//! client.stop();
//! assert_eq!(responses.len(), 4);
//! ```

pub mod client;
pub mod config;
pub mod failover;
pub mod prompt;
pub mod system;

pub use client::{IcCacheClient, Response};
pub use config::IcCacheConfig;
pub use failover::FailoverState;
pub use prompt::{autorater_prompt, render_prompt};
pub use system::{IcCacheSystem, MaintenanceReport, ServeOutcome};
// Selection appears in the serving API (`ServeOutcome::selection`,
// `with_selection`); re-exported so engine-layer crates can name it
// without a direct ic-selector dependency.
pub use ic_selector::Selection;
