//! The observable embedding extractor.
//!
//! IC-Cache never sees the latent vectors that generate requests — it sees
//! what an embedding model (the paper uses T5) produces. [`Embedder`] models
//! that extraction as a noisy normalized view of the latent vector: real
//! encoders capture semantic neighbourhoods well but not perfectly, and that
//! imperfection is exactly what makes relevance a weak proxy for
//! helpfulness (Fig. 7) and gives the IVF index non-trivial recall work.

use rand::Rng;

use crate::vector::Embedding;

/// A simulated text-embedding model.
///
/// # Examples
///
/// ```
/// use ic_embed::{Embedder, Embedding};
/// use ic_stats::rng::rng_from_seed;
///
/// let embedder = Embedder::new(0.2);
/// let mut rng = rng_from_seed(3);
/// let latent = Embedding::from_vec(vec![1.0, 0.0, 0.0, 0.0]).normalized();
/// let observed = embedder.embed(&latent, &mut rng);
/// assert!(observed.cosine(&latent) > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct Embedder {
    /// Total observation-noise standard deviation (distributed across
    /// components). 0.0 means the embedder recovers latents exactly.
    noise: f64,
}

impl Embedder {
    /// Creates an embedder with the given observation noise.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is negative or non-finite.
    pub fn new(noise: f64) -> Self {
        assert!(noise.is_finite() && noise >= 0.0, "invalid noise {noise}");
        Self { noise }
    }

    /// A noise level calibrated so that observed similarities track latent
    /// similarities with realistic (T5-like) fidelity.
    pub fn standard() -> Self {
        Self::new(0.2)
    }

    /// The configured noise level.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Produces the observable embedding for a latent vector.
    pub fn embed(&self, latent: &Embedding, rng: &mut impl Rng) -> Embedding {
        if self.noise == 0.0 {
            return latent.normalized();
        }
        let per_component = self.noise / (latent.dim() as f64).sqrt();
        // `noise + latent` has the bits of `latent + noise` (IEEE addition
        // commutes), so the noise vector takes the sum in place.
        let mut v = Embedding::gaussian(latent.dim(), per_component, rng);
        v.add_scaled(latent, 1.0);
        v.normalize();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::{TopicSpace, TopicSpaceConfig};
    use ic_stats::RunningStats;
    use ic_stats::rng::rng_from_seed;

    #[test]
    fn zero_noise_recovers_latent() {
        let e = Embedder::new(0.0);
        let mut rng = rng_from_seed(1);
        let latent = Embedding::gaussian(16, 1.0, &mut rng).normalized();
        let obs = e.embed(&latent, &mut rng);
        assert!(obs.cosine(&latent) > 1.0 - 1e-6);
    }

    #[test]
    fn noise_reduces_but_preserves_similarity_structure() {
        let space = TopicSpace::generate(11, TopicSpaceConfig::default());
        let embedder = Embedder::standard();
        let mut rng = rng_from_seed(2);
        let mut same = RunningStats::new();
        let mut cross = RunningStats::new();
        for t in 0..32 {
            let a = embedder.embed(&space.sample_member(t, &mut rng), &mut rng);
            let b = embedder.embed(&space.sample_member(t, &mut rng), &mut rng);
            let c = embedder.embed(
                &space.sample_member((t + 41) % space.num_topics(), &mut rng),
                &mut rng,
            );
            same.push(a.cosine(&b));
            cross.push(a.cosine(&c));
        }
        // Structure preserved: same-topic clearly above cross-topic.
        assert!(same.mean() > cross.mean() + 0.15);
        // But with visible degradation versus the noiseless case.
        assert!(same.mean() < 0.95);
    }

    #[test]
    fn embed_is_the_latent_plus_noise_form() {
        // The old form cloned the latent, added the noise and normalized
        // a copy; `embed` sums into the noise vector in place. Same bits,
        // same draws.
        let e = Embedder::standard();
        let mut rng = rng_from_seed(4);
        let mut oracle = rng.clone();
        for dim in [1usize, 7, 64, 65] {
            let latent = Embedding::gaussian(dim, 1.0, &mut rng).normalized();
            let _ = Embedding::gaussian(dim, 1.0, &mut oracle);
            let got = e.embed(&latent, &mut rng);
            let mut want = latent.clone();
            let sigma = e.noise() / (dim as f64).sqrt();
            want.add_scaled(&Embedding::gaussian(dim, sigma, &mut oracle), 1.0);
            let bits = |v: &Embedding| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want.normalized()), "dim {dim}");
        }
        assert_eq!(rng.next_u64(), oracle.next_u64());
    }

    #[test]
    fn output_is_unit_norm() {
        let e = Embedder::new(0.5);
        let mut rng = rng_from_seed(3);
        let latent = Embedding::gaussian(32, 1.0, &mut rng).normalized();
        let obs = e.embed(&latent, &mut rng);
        assert!((obs.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "invalid noise")]
    fn rejects_negative_noise() {
        let _ = Embedder::new(-0.1);
    }
}
