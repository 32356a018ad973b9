//! The IC-Cache Example Selector (§4.1).
//!
//! Selecting in-context examples by semantic relevance alone correlates
//! only weakly with actual helpfulness (Fig. 7), so the paper uses a
//! two-stage design:
//!
//! 1. **Stage 1 — relevance pre-selection**: a clustered similarity search
//!    (`ic-vecindex`, `K = sqrt(N)`) narrows the pool to a small candidate
//!    set. Cheap, scalable, and a useful *filter* even though relevance is
//!    a poor *ranker*.
//! 2. **Stage 2 — proxy helpfulness estimation**: a lightweight model (the
//!    paper uses a TinyBERT-class network trained on sampled user
//!    feedback) predicts each candidate's end-to-end helpfulness for this
//!    specific request and target model.
//!
//! On top of the two stages, a [`DynamicThreshold`] adapts how many
//! examples are worth prepending (§4.1 "Selecting Example Combinations"):
//! candidates below the current utility threshold are dropped, the
//! surviving set is de-duplicated for diversity, and examples are ordered
//! most-helpful-last (recency-biased attention).
//!
//! Selection is strictly per request, in arrival order (Algorithm 1):
//! [`ExampleSelector::select`] draws no randomness and changes nothing
//! a selection depends on. The one thing it writes is the stage-1 probe
//! memo (the `memo` module): a small generation-stamped table that
//! answers a query whose bits were probed against the unchanged index
//! with that probe's own bytes, consulted only while a probe costs more
//! than remembering one.

mod memo;
pub mod proxy;
pub mod threshold;
pub mod twostage;

pub use proxy::{ProxyFeatures, ProxyModel, quality_signal};
pub use threshold::DynamicThreshold;
pub use twostage::{ExampleSelector, Selection, SelectorConfig};
