//! The example cache: plaintext storage plus utility bookkeeping.

use ic_llmsim::{Example, ExampleId, ExampleStore};
use ic_stats::{DecayingCounter, Ema, IdMap};

/// Decay factor for offload gains (§4.3: "a decay factor of 0.9 every
/// hour").
pub const GAIN_DECAY: f64 = 0.9;

/// Decay period in seconds.
pub const GAIN_PERIOD_S: f64 = 3600.0;

/// One cached example with its management metadata.
#[derive(Debug, Clone)]
pub struct CachedExample {
    /// The example payload.
    pub example: Example,
    /// Decayed count of successful offloads this example enabled — the
    /// knapsack value (§4.3).
    pub offload_gain: DecayingCounter,
    /// EMA of the replay potential `G(e)` (§4.3).
    pub replay_gain: Ema,
    /// Raw access count (Fig. 10).
    pub accesses: u64,
    /// Insertion timestamp (seconds).
    pub inserted_at: f64,
    /// The topic-hash shard the entry counts towards (see
    /// [`crate::shard`]); always 0 in a standalone [`ExampleCache`].
    pub shard: usize,
}

/// The example cache.
///
/// Stores plaintext examples (≈1 GB per million LMSys examples in the
/// paper, §4.3) with the statistics the replay planner and eviction policy
/// need. Capacity enforcement itself lives in [`crate::evict`]; the cache
/// only tracks byte totals.
///
/// # Examples
///
/// ```
/// use ic_llmsim::ExampleStore;
/// use ic_manager::ExampleCache;
///
/// let cache = ExampleCache::new();
/// assert_eq!(cache.example_count(), 0);
/// assert_eq!(cache.total_bytes(), 0);
/// ```
#[derive(Debug, Default)]
pub struct ExampleCache {
    entries: IdMap<ExampleId, CachedExample>,
    total_bytes: usize,
}

impl ExampleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Room for `additional` more entries without regrowing the table.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Inserts an example at time `now`; replaces any entry with the same
    /// id. Returns false if it replaced an existing entry.
    pub fn insert(&mut self, example: Example, now: f64) -> bool {
        self.insert_tagged(0, example, now).is_none()
    }

    /// [`ExampleCache::insert`] under a shard tag, returning the entry it
    /// replaced.
    pub(crate) fn insert_tagged(
        &mut self,
        shard: usize,
        example: Example,
        now: f64,
    ) -> Option<CachedExample> {
        self.total_bytes += example.byte_len();
        let entry = CachedExample {
            example,
            offload_gain: DecayingCounter::new(GAIN_DECAY, GAIN_PERIOD_S),
            replay_gain: Ema::new(0.2),
            accesses: 0,
            inserted_at: now,
            shard,
        };
        let old = self.entries.insert(entry.example.id, entry);
        if let Some(old) = &old {
            self.total_bytes -= old.example.byte_len();
        }
        old
    }

    /// Removes an example, returning it.
    pub fn remove(&mut self, id: ExampleId) -> Option<Example> {
        self.remove_entry(id).map(|e| e.example)
    }

    /// Removes an example, returning its whole entry.
    pub(crate) fn remove_entry(&mut self, id: ExampleId) -> Option<CachedExample> {
        let entry = self.entries.remove(&id)?;
        self.total_bytes -= entry.example.byte_len();
        Some(entry)
    }

    /// Looks up an entry.
    pub fn entry(&self, id: ExampleId) -> Option<&CachedExample> {
        self.entries.get(&id)
    }

    /// Mutable entry access (used by the replay executor).
    pub fn entry_mut(&mut self, id: ExampleId) -> Option<&mut CachedExample> {
        self.entries.get_mut(&id)
    }

    /// Records a retrieval hit.
    pub fn record_access(&mut self, id: ExampleId) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.accesses += 1;
        }
    }

    /// Records a successful offload enabled by this example (§4.3's
    /// efficiency gain; the knapsack value accrues here).
    pub fn record_offload_gain(&mut self, id: ExampleId, now: f64, gain: f64) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.offload_gain.add(now, gain.max(0.0));
        }
    }

    /// Records usage feedback and folds it into the replay-gain EMA:
    /// `G(e) = (1 - normalized_response_quality) * normalized_model_cost`
    /// (§4.3).
    pub fn record_usage_feedback(&mut self, id: ExampleId, response_quality: f64, model_cost: f64) {
        if let Some(e) = self.entries.get_mut(&id) {
            let g = (1.0 - response_quality.clamp(0.0, 1.0)) * model_cost.clamp(0.0, 1.0);
            e.replay_gain.observe(g);
        }
    }

    /// Number of cached examples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total plaintext bytes stored.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Iterates over entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&ExampleId, &CachedExample)> {
        self.entries.iter()
    }

    /// All ids, sorted (deterministic order for planners).
    pub fn sorted_ids(&self) -> Vec<ExampleId> {
        let mut ids: Vec<ExampleId> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Access counts (Fig. 10's long-tail histogram source).
    pub fn access_counts(&self) -> Vec<u64> {
        self.entries.values().map(|e| e.accesses).collect()
    }
}

impl ExampleStore for ExampleCache {
    fn get_example(&self, id: ExampleId) -> Option<&Example> {
        self.entries.get(&id).map(|e| &e.example)
    }

    fn example_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::{Generator, ModelId, ModelSpec};
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn sample_examples(n: usize) -> Vec<Example> {
        WorkloadGenerator::new(Dataset::MsMarco, 41).generate_examples(
            n,
            &ModelSpec::gemma_2_27b(),
            ModelId(0),
            &Generator::new(),
        )
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut cache = ExampleCache::new();
        let exs = sample_examples(5);
        for e in &exs {
            assert!(cache.insert(e.clone(), 0.0));
        }
        assert_eq!(cache.len(), 5);
        assert!(cache.get_example(exs[0].id).is_some());
        let removed = cache.remove(exs[0].id).unwrap();
        assert_eq!(removed.id, exs[0].id);
        assert!(cache.get_example(exs[0].id).is_none());
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn byte_accounting_is_exact() {
        let mut cache = ExampleCache::new();
        let exs = sample_examples(10);
        let expected: usize = exs.iter().map(|e| e.byte_len()).sum();
        for e in &exs {
            cache.insert(e.clone(), 0.0);
        }
        assert_eq!(cache.total_bytes(), expected);
        cache.remove(exs[3].id);
        assert_eq!(cache.total_bytes(), expected - exs[3].byte_len());
    }

    #[test]
    fn reinsert_replaces_and_reaccounts() {
        let mut cache = ExampleCache::new();
        let mut e = sample_examples(1).pop().unwrap();
        cache.insert(e.clone(), 0.0);
        let before = cache.total_bytes();
        e.response_text.push_str(" extended response text");
        assert!(!cache.insert(e.clone(), 1.0));
        assert_eq!(cache.len(), 1);
        assert!(cache.total_bytes() > before);
        assert_eq!(cache.total_bytes(), e.byte_len());
    }

    #[test]
    fn offload_gain_decays_hourly() {
        let mut cache = ExampleCache::new();
        let e = sample_examples(1).pop().unwrap();
        let id = e.id;
        cache.insert(e, 0.0);
        cache.record_offload_gain(id, 0.0, 10.0);
        let entry = cache.entry(id).unwrap();
        let fresh = entry.offload_gain.value_at(0.0);
        let later = entry.offload_gain.value_at(3600.0);
        assert!((fresh - 10.0).abs() < 1e-9);
        assert!((later - 9.0).abs() < 1e-9, "0.9/hour decay");
    }

    #[test]
    fn replay_gain_matches_paper_formula() {
        let mut cache = ExampleCache::new();
        let e = sample_examples(1).pop().unwrap();
        let id = e.id;
        cache.insert(e, 0.0);
        // Low-quality response served on an expensive model => big G(e).
        cache.record_usage_feedback(id, 0.2, 1.0);
        let g = cache.entry(id).unwrap().replay_gain.value();
        assert!((g - 0.8).abs() < 1e-9);
        // High-quality on a cheap model => tiny G(e); EMA moves toward it.
        cache.record_usage_feedback(id, 0.95, 0.1);
        let g2 = cache.entry(id).unwrap().replay_gain.value();
        assert!(g2 < g);
    }

    #[test]
    fn access_counting_feeds_fig10() {
        let mut cache = ExampleCache::new();
        let exs = sample_examples(3);
        for e in &exs {
            cache.insert(e.clone(), 0.0);
        }
        for _ in 0..7 {
            cache.record_access(exs[0].id);
        }
        cache.record_access(exs[1].id);
        let mut counts = cache.access_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![0, 1, 7]);
    }

    #[test]
    fn unknown_id_operations_are_noops() {
        let mut cache = ExampleCache::new();
        cache.record_access(ExampleId(9));
        cache.record_offload_gain(ExampleId(9), 0.0, 1.0);
        cache.record_usage_feedback(ExampleId(9), 0.5, 0.5);
        assert!(cache.remove(ExampleId(9)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn sorted_ids_are_deterministic() {
        let mut cache = ExampleCache::new();
        for e in sample_examples(20) {
            cache.insert(e, 0.0);
        }
        let a = cache.sorted_ids();
        let b = cache.sorted_ids();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }
}
