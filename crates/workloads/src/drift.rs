//! Query-distribution drift (§8, "Handling Query Distribution Shift").
//!
//! "User interests and popular topics are not static. They can cause the
//! query distribution to shift over time." This module wraps a
//! [`WorkloadGenerator`] with a popularity schedule that rotates which
//! topics are hot: at progress `t in [0, 1]`, requests are drawn from a
//! Zipf law over a *rotated* topic ranking, so yesterday's head topics
//! decay into the tail and fresh topics take over. The dynamics
//! experiments use this to show the bandit router and the example
//! manager's decayed gains adapting without offline retraining.

use ic_llmsim::Request;
use ic_stats::dist::Zipf;
use rand::Rng;

use crate::generator::WorkloadGenerator;

/// A workload whose topic popularity rotates over time.
#[derive(Debug)]
pub struct DriftingWorkload {
    inner: WorkloadGenerator,
    zipf: Zipf,
    /// How many full rotations of the topic ranking happen over the
    /// drift horizon (1.0 = the head moves all the way around once).
    rotations: f64,
}

impl DriftingWorkload {
    /// Wraps a generator with a drift schedule.
    pub fn new(inner: WorkloadGenerator, rotations: f64) -> Self {
        let topics = inner.space().num_topics();
        let zipf = Zipf::new(topics, inner.spec().topic_zipf).expect("valid zipf");
        Self {
            inner,
            zipf,
            rotations,
        }
    }

    /// Which topic a popularity rank maps to at drift progress `t`.
    pub fn topic_at(&self, rank: usize, progress: f64) -> usize {
        let topics = self.inner.space().num_topics();
        let shift = (progress.clamp(0.0, 1.0) * self.rotations * topics as f64) as usize % topics;
        (rank + shift) % topics
    }

    /// Draws one request at drift progress `t in [0, 1]`.
    pub fn generate_at(&mut self, progress: f64, rng: &mut impl Rng) -> Request {
        let rank = self.zipf.sample(rng);
        let topic = self.topic_at(rank, progress);
        self.inner.generate_request_for_topic(topic)
    }

    /// Draws a batch spread uniformly across `[t0, t1]`.
    pub fn generate_window(
        &mut self,
        t0: f64,
        t1: f64,
        n: usize,
        rng: &mut impl Rng,
    ) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let t = t0 + (t1 - t0) * i as f64 / n.max(1) as f64;
                self.generate_at(t, rng)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use ic_stats::rng::rng_from_seed;
    use std::collections::HashSet;

    fn drifting() -> DriftingWorkload {
        DriftingWorkload::new(WorkloadGenerator::sized(Dataset::MsMarco, 171, 20_000), 1.0)
    }

    #[test]
    fn head_topics_change_over_the_horizon() {
        let mut w = drifting();
        let mut rng = rng_from_seed(172);
        let head = |w: &mut DriftingWorkload, t: f64, rng: &mut rand::rngs::StdRng| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..400 {
                *counts.entry(w.generate_at(t, rng).topic).or_insert(0usize) += 1;
            }
            let mut v: Vec<(usize, usize)> = counts.into_iter().collect();
            v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            v.into_iter()
                .take(5)
                .map(|(t, _)| t)
                .collect::<HashSet<_>>()
        };
        let early = head(&mut w, 0.0, &mut rng);
        let late = head(&mut w, 0.9, &mut rng);
        let overlap = early.intersection(&late).count();
        assert!(
            overlap <= 2,
            "head topics should rotate away: overlap {overlap} of 5"
        );
    }

    #[test]
    fn zero_progress_matches_static_ranking() {
        let w = drifting();
        assert_eq!(w.topic_at(0, 0.0), 0);
        assert_eq!(w.topic_at(3, 0.0), 3);
    }

    #[test]
    fn rotation_wraps_around() {
        let w = drifting();
        let topics = 20_000 / 1000 * 6 + 1; // MS MARCO: 6 topics per 1k.
        let _ = topics;
        let full = w.topic_at(0, 1.0);
        let none = w.topic_at(0, 0.0);
        // A full rotation returns to the start (modulo topic count).
        assert_eq!(full, none);
    }

    #[test]
    fn window_spans_progress() {
        let mut w = drifting();
        let mut rng = rng_from_seed(173);
        let batch = w.generate_window(0.0, 1.0, 50, &mut rng);
        assert_eq!(batch.len(), 50);
    }
}
