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
//! On top of the two stages, [`ExampleSelector::select`] decides how many
//! examples are worth prepending (§4.1 "Selecting Example Combinations")
//! with fixed settings: candidates below [`UTILITY_CUT`] are dropped, the
//! survivors are picked greedily up to [`MAX_EXAMPLES`], skipping any
//! more similar than [`DIVERSITY_CEILING`] to one already picked, and the
//! pick is ordered most-helpful-last (recency-biased attention). Stage 1
//! hands stage 2 [`STAGE1_CANDIDATES`] candidates. The paper adapts the
//! cut online; here it is a constant (`docs/paper-claims.md`).
//!
//! Selection is strictly per request, in arrival order (Algorithm 1):
//! [`ExampleSelector::select`] draws no randomness and writes nothing.
//! A caller may probe stage 1 ahead of time on another thread, through a
//! view of [`ExampleSelector::index`] (`IvfIndex::view`), bring the hits
//! up to the index as it then stands (`IvfIndex::refresh`, which refuses
//! a probe whose epoch has moved), and pass the list to
//! [`ExampleSelector::select_with_stage1`] in place of
//! [`ExampleSelector::stage1`]: it is the inline probe's bytes.

pub mod proxy;
pub mod twostage;

pub use proxy::{ProxyFeatures, ProxyModel, quality_signal};
pub use twostage::{
    DIVERSITY_CEILING, ExampleSelector, MAX_EXAMPLES, STAGE1_CANDIDATES, Selection, SelectorConfig,
    UTILITY_CUT,
};
