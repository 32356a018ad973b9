//! The IC-Cache Example Manager (§4.3).
//!
//! The manager owns the example pool and keeps it useful over time:
//!
//! - [`cache`] — the plaintext example cache with access statistics,
//!   decayed offload-gain counters (0.9/hour, §4.3), and the replay-gain
//!   EMA `G(e) = (1 - normalized_response_quality) * normalized_model_cost`.
//! - [`replay`] — cost-aware example replay: rank by `G(e)`, replay
//!   best-of-n during off-peak hours, stop at the online cut-off where
//!   resource savings no longer exceed the one-time replay cost, and cap
//!   any example at five replay iterations (§5). The four values are
//!   constants of the module (`REPLAY_ROUNDS`, `MAX_REPLAYS`,
//!   `REPLAY_COST`, `REPLAY_BATCH_LIMIT`), not configuration.
//! - [`evict`] — the knapsack eviction policy for bounded memory: weights
//!   are plaintext bytes, values are decayed offload gains; one capacity
//!   pass runs the greedy density solver over the whole cache, and an
//!   exact DP solver validates it (and serves small instances).
//! - [`admission`] — privacy admission control: sensitive-span scrubbing
//!   (the spaCy path, §4.3 "How Does IC-Cache Respect Privacy?") and a
//!   `MIN_RESPONSE_TOKENS` floor; one fixed policy.
//! - [`dp`] — the differentially-private synthetic example pool for
//!   deployments that need formal guarantees (Fig. 21).
//! - [`manager`] — the [`ExampleManager`] facade the serving pipeline
//!   talks to; its [`ManagerConfig`] is the byte cap alone.

pub mod admission;
pub mod cache;
pub mod dp;
pub mod evict;
pub mod manager;
pub mod replay;

pub use cache::{CachedExample, ExampleCache};
pub use dp::{DpConfig, synthesize_pool};
pub use evict::{KnapsackItem, dp_knapsack, greedy_knapsack};
pub use manager::{ExampleManager, ManagerConfig, ReplayReport};
pub use replay::{plan_replay, replay_example};
