//! The [`ExampleManager`] facade: admission, feedback, replay, eviction.

use ic_llmsim::{Example, ExampleId, Generator, ModelSpec};
use rand::Rng;

use crate::admission::{Admission, AdmissionPolicy};
use crate::replay::{ReplayConfig, plan_replay, replay_example};
use crate::shard::{DEFAULT_SHARDS, ShardedExampleCache};

/// Manager configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Byte cap on the plaintext cache; `None` = unbounded (§4.3 notes
    /// plaintext footprints are small, so many deployments can skip caps).
    pub capacity_bytes: Option<usize>,
    /// Number of topic-hash cache shards (at least 1; see
    /// [`crate::shard`]).
    pub shards: usize,
    /// Admission policy.
    pub admission: AdmissionPolicy,
    /// Replay policy.
    pub replay: ReplayConfig,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: None,
            shards: DEFAULT_SHARDS,
            admission: AdmissionPolicy::default(),
            replay: ReplayConfig::default(),
        }
    }
}

/// Result of one offline replay round.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Examples replayed.
    pub replayed: usize,
    /// Total latent quality improvement across replayed examples.
    pub total_improvement: f64,
}

/// The Example Manager service.
///
/// # Examples
///
/// ```
/// use ic_llmsim::{ExampleStore, Generator, ModelId, ModelSpec};
/// use ic_manager::{ExampleManager, ManagerConfig};
/// use ic_workloads::{Dataset, WorkloadGenerator};
///
/// let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 8);
/// let examples = wg.generate_examples(
///     10,
///     &ModelSpec::gemma_2_27b(),
///     ModelId(0),
///     &Generator::new(),
/// );
/// let mut manager = ExampleManager::new(ManagerConfig::default());
/// for e in examples {
///     manager.admit(e, 0.0);
/// }
/// assert_eq!(manager.cache().example_count(), 10);
/// ```
#[derive(Debug)]
pub struct ExampleManager {
    cache: ShardedExampleCache,
    config: ManagerConfig,
    admitted: u64,
    rejected: u64,
}

impl ExampleManager {
    /// Creates a manager.
    pub fn new(config: ManagerConfig) -> Self {
        Self {
            cache: ShardedExampleCache::new(config.shards),
            config,
            admitted: 0,
            rejected: 0,
        }
    }

    /// The underlying sharded cache (read access; also the
    /// [`ExampleStore`] the selector resolves against).
    ///
    /// [`ExampleStore`]: ic_llmsim::ExampleStore
    pub fn cache(&self) -> &ShardedExampleCache {
        &self.cache
    }

    /// Mutable cache access for feedback recording.
    pub fn cache_mut(&mut self) -> &mut ShardedExampleCache {
        &mut self.cache
    }

    /// The configuration.
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// Runs admission control and caches the example if admitted.
    /// Returns the admitted example's id (callers index it in the
    /// selector) or `None` when rejected.
    pub fn admit(&mut self, example: Example, now: f64) -> Option<ExampleId> {
        match self.config.admission.evaluate(example) {
            Admission::Admit(clean) => {
                let id = clean.id;
                self.cache.insert(*clean, now);
                self.admitted += 1;
                Some(id)
            }
            Admission::Reject(_) => {
                self.rejected += 1;
                None
            }
        }
    }

    /// Makes room for `additional` more examples up front — for a caller
    /// that knows how many it is about to admit (seeding a bank).
    pub fn reserve(&mut self, additional: usize) {
        self.cache.reserve(additional);
    }

    /// `(admitted, rejected)` counters.
    pub fn admission_stats(&self) -> (u64, u64) {
        (self.admitted, self.rejected)
    }

    /// Adjusts the byte cap at runtime (an operations knob; takes effect
    /// at the next capacity enforcement).
    pub fn set_capacity_bytes(&mut self, bytes: Option<usize>) {
        self.config.capacity_bytes = bytes;
    }

    /// Plans and executes one off-peak replay round on the source model:
    /// the store's `replay.batch_limit` highest-G(e) examples, whichever
    /// shards they count towards.
    pub fn run_replay(
        &mut self,
        source_spec: &ModelSpec,
        generator: &Generator,
        rng: &mut impl Rng,
    ) -> ReplayReport {
        let plan = plan_replay(&self.cache, &self.config.replay);
        let mut report = ReplayReport::default();
        for id in plan {
            if let Some(entry) = self.cache.entry_mut(id) {
                let improvement = replay_example(
                    &mut entry.example,
                    source_spec,
                    generator,
                    self.config.replay.rounds,
                    rng,
                );
                report.replayed += 1;
                report.total_improvement += improvement;
                // A refined response resets the perceived replay gain:
                // fresh feedback must re-justify another replay.
                entry.replay_gain = ic_stats::Ema::new(0.2);
            }
        }
        report
    }

    /// Enforces the byte capacity: cross-shard budget rebalance followed
    /// by per-shard knapsack eviction. Returns evicted ids (callers must
    /// unindex them from the selector).
    pub fn enforce_capacity(&mut self, now: f64) -> Vec<ExampleId> {
        let Some(cap) = self.config.capacity_bytes else {
            return Vec::new();
        };
        self.cache.rebalance(cap, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::{ExampleStore, ModelId};
    use ic_stats::rng::rng_from_seed;
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn manager_with(n: usize, config: ManagerConfig) -> (ExampleManager, Vec<ExampleId>) {
        let mut wg = WorkloadGenerator::new(Dataset::NaturalQuestions, 81);
        let exs = wg.generate_examples(n, &ModelSpec::gemma_2_27b(), ModelId(0), &Generator::new());
        let mut m = ExampleManager::new(config);
        let ids = exs.into_iter().filter_map(|e| m.admit(e, 0.0)).collect();
        (m, ids)
    }

    #[test]
    fn admission_flows_into_cache() {
        let (m, ids) = manager_with(25, ManagerConfig::default());
        assert_eq!(m.cache().example_count(), ids.len());
        assert_eq!(m.admission_stats().0, ids.len() as u64);
    }

    #[test]
    fn replay_round_improves_flagged_examples() {
        let (mut m, ids) = manager_with(30, ManagerConfig::default());
        // Flag a third of the pool as high-gain.
        for id in ids.iter().take(10) {
            m.cache_mut().record_usage_feedback(*id, 0.2, 1.0);
        }
        let before: f64 = ids
            .iter()
            .take(10)
            .map(|id| m.cache().entry(*id).unwrap().example.quality)
            .sum();
        let mut rng = rng_from_seed(82);
        let report = m.run_replay(&ModelSpec::gemma_2_27b(), &Generator::new(), &mut rng);
        assert_eq!(report.replayed, 10);
        let after: f64 = ids
            .iter()
            .take(10)
            .map(|id| m.cache().entry(*id).unwrap().example.quality)
            .sum();
        assert!(after >= before);
        assert!((after - before - report.total_improvement).abs() < 1e-9);
    }

    #[test]
    fn replay_resets_gain_so_examples_rotate() {
        let (mut m, ids) = manager_with(5, ManagerConfig::default());
        m.cache_mut().record_usage_feedback(ids[0], 0.1, 1.0);
        let mut rng = rng_from_seed(83);
        let first = m.run_replay(&ModelSpec::gemma_2_27b(), &Generator::new(), &mut rng);
        assert_eq!(first.replayed, 1);
        // Immediately after, the same example should not be re-planned.
        let second = m.run_replay(&ModelSpec::gemma_2_27b(), &Generator::new(), &mut rng);
        assert_eq!(second.replayed, 0);
    }

    #[test]
    fn capacity_enforcement_keeps_high_gain_examples() {
        let (mut m, ids) = manager_with(40, ManagerConfig::default());
        // Half the examples earn offload gains.
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                m.cache_mut().record_offload_gain(*id, 0.0, 5.0);
            }
        }
        let total = m.cache().total_bytes();
        m.config.capacity_bytes = Some(total / 2);
        let evicted = m.enforce_capacity(0.0);
        assert!(!evicted.is_empty());
        assert!(m.cache().total_bytes() <= total / 2);
        // Valuable (even-index) examples should be preferentially kept.
        let kept_valuable = ids
            .iter()
            .enumerate()
            .filter(|(i, id)| i % 2 == 0 && m.cache().get_example(**id).is_some())
            .count();
        let kept_worthless = ids
            .iter()
            .enumerate()
            .filter(|(i, id)| i % 2 == 1 && m.cache().get_example(**id).is_some())
            .count();
        assert!(
            kept_valuable > kept_worthless,
            "eviction should keep gain-earning examples: {kept_valuable} vs {kept_worthless}"
        );
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let (mut m, _) = manager_with(10, ManagerConfig::default());
        assert!(m.enforce_capacity(0.0).is_empty());
        assert_eq!(m.cache().example_count(), 10);
    }
}
