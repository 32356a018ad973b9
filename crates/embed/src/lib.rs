//! Latent topic space, synthetic text, and dense-embedding substrate.
//!
//! The paper embeds every request with a T5 encoder and relies on two
//! geometric facts (§2.3, Fig. 3a): semantically-similar requests have
//! cosine similarity above ~0.8 while random request pairs sit near 0.5.
//! No embedding model is available offline, so this crate inverts the
//! construction: requests are *generated from* latent topic vectors, and
//! the "embedding model" ([`Embedder`]) returns a noisy normalized view of
//! the latent vector. The resulting geometry matches the paper's measured
//! statistics by construction, and the calibration is locked in by tests.
//!
//! Layout:
//! - [`vector`] — the [`Embedding`] type and dense-vector arithmetic.
//! - `boxmuller` (private) — the kernel behind
//!   [`Embedding::gaussian`]: a vectorized Box–Muller estimate whose error
//!   margin certifies the exact libm expression's `f32` bits, with that
//!   expression as the fallback.
//! - [`slab`] — [`EmbeddingSlab`]: contiguous row-major storage with
//!   cached norms.
//! - [`par`] — deterministic contiguous work partitioning for the
//!   bit-identical parallel setup paths (`IC_SETUP_THREADS`).
//! - [`topic`] — [`TopicSpace`]: shared-anchor + topic-direction latent
//!   construction with tunable cross-topic and within-topic similarity.
//! - [`embedder`] — the observable embedding extractor (imperfect view).
//! - [`text`] — synthetic plaintext ([`Plaintext`]: one code byte per word,
//!   rendered on demand) with byte accounting and optional
//!   sensitive-span injection for the admission-control path.

mod boxmuller;
pub mod embedder;
pub mod par;
pub mod slab;
pub mod text;
pub mod topic;
pub mod vector;

pub use embedder::Embedder;
pub use slab::EmbeddingSlab;
pub use text::{Plaintext, TextSynthesizer, contains_sensitive, scrub_sensitive};
pub use topic::{TopicSpace, TopicSpaceConfig};
pub use vector::{Embedding, cosine_from_dot, dot_slices, norm_slice, sq_dist_slices};
