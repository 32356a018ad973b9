//! Parametric LLM generation simulator.
//!
//! No GPUs or model weights are available in this environment, so the
//! repository substitutes a *latent quality* model for real inference
//! (DESIGN.md §2). This crate is that substitute, and it is also the
//! workspace's domain-type hub: requests, examples, model specs, and
//! generation outcomes are defined here.
//!
//! The simulator preserves the properties the IC-Cache mechanisms depend
//! on, each locked in by tests:
//!
//! - Larger models produce higher-quality responses at higher latency and
//!   GPU cost (paper Fig. 1).
//! - Generation is stochastic, so best-of-n replay can refine examples
//!   (§4.3).
//! - Relevant, high-quality in-context examples from a stronger model
//!   raise a small model's quality with diminishing returns, while
//!   irrelevant examples *distract* and hurt (Fig. 4a).
//! - Prepending examples lengthens prefill (higher TTFT) but leaves
//!   decoding speed untouched and slightly shortens outputs (Fig. 4b,
//!   §6.3).
//! - Retrieval-augmented documents boost mostly factual knowledge, not
//!   compositional reasoning (§2.3, Table 2).
//!
//! Components of IC-Cache must treat [`GenOutcome::quality`] as *latent*:
//! they may only observe it through `ic-judge` scores or simulated user
//! feedback, exactly as the production system would.

pub mod generate;
pub mod icl;
pub mod latency;
pub mod model;
pub mod request;
pub mod skill;
pub mod store;

pub use generate::{GenOutcome, GenSetup, Generator};
pub use icl::{IclParams, RagDoc, example_utility, rag_utility};
pub use latency::{LatencyBreakdown, zero_load_latency};
pub use model::{Catalog, ModelFamily, ModelId, ModelSpec};
pub use request::{Example, ExampleId, Request, RequestId, TaskKind, signal_noise};
pub use skill::{Skill, SkillMix};
pub use store::ExampleStore;
