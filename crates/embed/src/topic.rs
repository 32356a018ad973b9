//! Latent topic space calibrated to the paper's similarity statistics.
//!
//! Construction: every latent request vector is
//!
//! ```text
//! latent = normalize( sqrt(w) * anchor + sqrt(1 - w) * topic_dir + noise )
//! ```
//!
//! where `anchor` is one fixed unit vector shared by the whole space,
//! `topic_dir` is a per-topic random unit vector orthogonalized against the
//! anchor, and `noise` is isotropic Gaussian per request. In high dimension
//! two random topic directions are nearly orthogonal, so the expected
//! cosine between requests of *different* topics is ≈ `w` (the paper's 0.5
//! for random pairs) while requests of the *same* topic land at
//! ≈ `1 / (1 + sigma^2)` (the paper's ≥ 0.8 for similar pairs; §2.3).

use ic_stats::rng::rng_from_seed;
use rand::Rng;

use crate::vector::Embedding;

/// Configuration for a [`TopicSpace`].
#[derive(Debug, Clone)]
pub struct TopicSpaceConfig {
    /// Embedding dimensionality. 64 is plenty: random unit vectors at
    /// dim 64 have |cos| ~ 0.125 on average, well under the topic signal.
    pub dim: usize,
    /// Number of distinct topics.
    pub num_topics: usize,
    /// Weight of the shared anchor (expected cross-topic cosine).
    pub anchor_weight: f64,
    /// Per-request latent noise standard deviation (total, not per
    /// component); controls within-topic cosine.
    pub member_noise: f64,
}

impl Default for TopicSpaceConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            num_topics: 256,
            anchor_weight: 0.5,
            member_noise: 0.38,
        }
    }
}

/// A generated latent topic space.
///
/// # Examples
///
/// ```
/// use ic_embed::{TopicSpace, TopicSpaceConfig};
/// use ic_stats::rng::rng_from_seed;
///
/// let space = TopicSpace::generate(7, TopicSpaceConfig::default());
/// let mut rng = rng_from_seed(1);
/// let a = space.sample_member(0, &mut rng);
/// let b = space.sample_member(0, &mut rng);
/// assert!(a.cosine(&b) > 0.7); // Same topic: similar.
/// ```
#[derive(Debug, Clone)]
pub struct TopicSpace {
    config: TopicSpaceConfig,
    /// Each topic's noiseless centre, computed once at generation (every
    /// latent sample starts from one). They take the place of the topic
    /// directions and the anchor they are built from, so the space is no
    /// larger: ≈460 KB at the largest topic count, 1 801 topics.
    centers: Vec<Embedding>,
}

impl TopicSpace {
    /// Deterministically generates a topic space from a seed.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `num_topics == 0` (configuration error).
    pub fn generate(seed: u64, config: TopicSpaceConfig) -> Self {
        assert!(config.dim > 0, "dim must be positive");
        assert!(config.num_topics > 0, "num_topics must be positive");
        assert!(
            (0.0..1.0).contains(&config.anchor_weight),
            "anchor_weight must be in [0, 1)"
        );
        let mut rng = rng_from_seed(seed);
        let mut anchor = Embedding::gaussian(config.dim, 1.0, &mut rng);
        anchor.normalize();
        let w = config.anchor_weight;
        let centers = (0..config.num_topics)
            .map(|_| {
                let mut dir = Embedding::gaussian(config.dim, 1.0, &mut rng);
                // Project out the anchor so the anchor weight fully controls
                // the cross-topic floor.
                let proj = dir.dot(&anchor);
                dir.add_scaled(&anchor, -proj);
                dir.normalize();
                let mut center = Embedding::zeros(config.dim);
                center.add_scaled(&anchor, w.sqrt());
                center.add_scaled(&dir, (1.0 - w).sqrt());
                center.normalize();
                center
            })
            .collect();
        Self { config, centers }
    }

    /// Number of topics.
    pub fn num_topics(&self) -> usize {
        self.centers.len()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The configuration used at generation time.
    pub fn config(&self) -> &TopicSpaceConfig {
        &self.config
    }

    /// The noiseless center of a topic.
    ///
    /// # Panics
    ///
    /// Panics if `topic` is out of range.
    pub fn topic_center(&self, topic: usize) -> Embedding {
        self.centers[topic].clone()
    }

    /// Samples a latent vector for one request/example of the given topic.
    ///
    /// # Panics
    ///
    /// Panics if `topic` is out of range.
    pub fn sample_member(&self, topic: usize, rng: &mut impl Rng) -> Embedding {
        let center = &self.centers[topic];
        // `noise + center` has the bits of `center + noise`: IEEE addition
        // commutes, so the noise vector takes the sum in place.
        let mut v = Embedding::gaussian(self.config.dim, self.member_sigma(), rng);
        v.add_scaled(center, 1.0);
        v.normalize();
        v
    }

    /// Samples a latent vector that interpolates two topics (used for
    /// "drifting" request distributions in the dynamics experiments).
    pub fn sample_blend(&self, a: usize, b: usize, t: f64, rng: &mut impl Rng) -> Embedding {
        let t = t.clamp(0.0, 1.0);
        let mut v = Embedding::from_vec(
            self.centers[a]
                .as_slice()
                .iter()
                .zip(self.centers[b].as_slice())
                .map(|(&x, &y)| (1.0 - t) as f32 * x + t as f32 * y)
                .collect(),
        );
        let noise = Embedding::gaussian(self.config.dim, self.member_sigma(), rng);
        v.add_scaled(&noise, 1.0);
        v.normalize();
        v
    }

    /// Per-component standard deviation of a member's latent noise.
    fn member_sigma(&self) -> f64 {
        self.config.member_noise / (self.config.dim as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_stats::RunningStats;

    fn space() -> TopicSpace {
        TopicSpace::generate(42, TopicSpaceConfig::default())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = space();
        let b = space();
        assert_eq!(a.topic_center(3), b.topic_center(3));
    }

    fn bits(e: &Embedding) -> Vec<u32> {
        e.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn stored_centers_have_the_from_scratch_bits() {
        // The space used to keep the anchor and the topic directions and
        // build a centre on every call; this is that computation, for
        // every topic, at the default shape and at an odd one.
        let odd = TopicSpaceConfig {
            dim: 33,
            num_topics: 40,
            anchor_weight: 0.3,
            member_noise: 0.5,
        };
        for (seed, config) in [(42, TopicSpaceConfig::default()), (3, odd)] {
            let space = TopicSpace::generate(seed, config.clone());
            let mut rng = rng_from_seed(seed);
            let anchor = Embedding::gaussian(config.dim, 1.0, &mut rng).normalized();
            let w = config.anchor_weight;
            for t in 0..config.num_topics {
                let mut dir = Embedding::gaussian(config.dim, 1.0, &mut rng);
                let proj = dir.dot(&anchor);
                dir.add_scaled(&anchor, -proj);
                let dir = dir.normalized();
                let mut v = Embedding::zeros(config.dim);
                v.add_scaled(&anchor, w.sqrt());
                v.add_scaled(&dir, (1.0 - w).sqrt());
                assert_eq!(
                    bits(&space.topic_center(t)),
                    bits(&v.normalized()),
                    "topic {t}"
                );
            }
        }
    }

    #[test]
    fn samples_are_the_center_plus_noise_form() {
        // `sample_member` sums into the noise vector and normalizes in
        // place; the old form cloned the centre, added the noise and
        // normalized a copy. Same bits, same draws.
        let s = space();
        let sigma = s.config().member_noise / (s.dim() as f64).sqrt();
        let mut rng = rng_from_seed(21);
        let mut oracle = rng.clone();
        for t in 0..64 {
            let got = s.sample_member(t, &mut rng);
            let mut want = s.topic_center(t);
            want.add_scaled(&Embedding::gaussian(s.dim(), sigma, &mut oracle), 1.0);
            assert_eq!(bits(&got), bits(&want.normalized()), "member of topic {t}");

            let tb = (t + 17) % s.num_topics();
            let got = s.sample_blend(t, tb, 0.3, &mut rng);
            let mut want = s.topic_center(t);
            let vb = s.topic_center(tb);
            for (x, &y) in want.as_mut_slice().iter_mut().zip(vb.as_slice()) {
                *x = (1.0 - 0.3f64) as f32 * *x + 0.3f64 as f32 * y;
            }
            want.add_scaled(&Embedding::gaussian(s.dim(), sigma, &mut oracle), 1.0);
            assert_eq!(bits(&got), bits(&want.normalized()), "blend of {t}, {tb}");
        }
        assert_eq!(rng.next_u64(), oracle.next_u64());
    }

    #[test]
    fn members_are_unit_norm() {
        let s = space();
        let mut rng = rng_from_seed(5);
        for t in 0..8 {
            let m = s.sample_member(t, &mut rng);
            assert!((m.norm() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn same_topic_similarity_is_high() {
        // Calibration lock for Fig. 3a: same-topic pairs should mostly land
        // above the paper's 0.8 "strong semantic overlap" threshold.
        let s = space();
        let mut rng = rng_from_seed(6);
        let mut sims = RunningStats::new();
        for t in 0..32 {
            let a = s.sample_member(t, &mut rng);
            let b = s.sample_member(t, &mut rng);
            sims.push(a.cosine(&b));
        }
        assert!(
            sims.mean() > 0.82,
            "same-topic mean cosine too low: {}",
            sims.mean()
        );
    }

    #[test]
    fn cross_topic_similarity_is_near_anchor_weight() {
        // Calibration lock: random pairs sit near 0.5 as in §2.3.
        let s = space();
        let mut rng = rng_from_seed(7);
        let mut sims = RunningStats::new();
        for t in 0..64 {
            let a = s.sample_member(t % s.num_topics(), &mut rng);
            let b = s.sample_member((t + 97) % s.num_topics(), &mut rng);
            sims.push(a.cosine(&b));
        }
        assert!(
            (sims.mean() - 0.5).abs() < 0.1,
            "cross-topic mean cosine {} should be near 0.5",
            sims.mean()
        );
    }

    #[test]
    fn same_topic_beats_cross_topic() {
        let s = space();
        let mut rng = rng_from_seed(8);
        let mut same = RunningStats::new();
        let mut cross = RunningStats::new();
        for t in 0..32 {
            let a = s.sample_member(t, &mut rng);
            same.push(a.cosine(&s.sample_member(t, &mut rng)));
            cross.push(a.cosine(&s.sample_member((t + 13) % s.num_topics(), &mut rng)));
        }
        assert!(same.mean() > cross.mean() + 0.2);
    }

    #[test]
    fn blend_interpolates_between_topics() {
        let s = space();
        let mut rng = rng_from_seed(9);
        let a = s.topic_center(0);
        let b = s.topic_center(1);
        let mid = s.sample_blend(0, 1, 0.5, &mut rng);
        let to_a = mid.cosine(&a);
        let to_b = mid.cosine(&b);
        assert!((to_a - to_b).abs() < 0.2, "midpoint should be balanced");
        let near_a = s.sample_blend(0, 1, 0.05, &mut rng);
        assert!(near_a.cosine(&a) > near_a.cosine(&b));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_topic_panics() {
        let s = space();
        let mut rng = rng_from_seed(10);
        let _ = s.sample_member(s.num_topics(), &mut rng);
    }
}
