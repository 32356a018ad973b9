//! The IC-Cache Request Router (§4.2, Appendix A.2).
//!
//! Routing is modelled as a contextual multi-armed bandit: the context is
//! the request plus its selected examples, each arm is a candidate model,
//! and the reward is observed response quality. The implementation follows
//! the paper's design points:
//!
//! - **Contextual Thompson sampling** over a Bayesian linear model per arm
//!   ([`bandit::ContextualBandit`]; the linear algebra — Cholesky solves —
//!   is scratch-built in [`linalg`]).
//! - **Load-aware biasing**: an EMA of serving load drives a `tanh`
//!   feedback controller whose bias lowers the logits of high-cost arms
//!   only during overload ([`load`]; Theorem 4 of Appendix A.2 proves the
//!   cheap arm dominates as load → ∞, which `router::tests` exercises).
//! - **Uncertainty-gated feedback**: preference feedback is solicited only
//!   when the arm-score distribution is nearly uniform (std below a gate),
//!   pairing the top choice with a Thompson-sampled second ([`router`]).
//!
//! The serving system routes through one logical router, as the paper
//! does: one bandit posterior and one load view.

pub mod bandit;
pub mod features;
pub mod linalg;
pub mod load;
pub mod router;

pub use bandit::ContextualBandit;
pub use features::{ROUTE_FEATURE_DIM, RouteFeatures};
pub use linalg::Matrix;
pub use load::{LoadBias, LoadTracker};
pub use router::{RequestRouter, RouteDecision, RouterConfig};
