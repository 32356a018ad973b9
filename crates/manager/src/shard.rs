//! Topic-hash sharding of the example cache.
//!
//! "Efficient Prompt Caching via Embedding Similarity" motivates
//! partitioning an example store by embedding locality; here the workload
//! generators give every request/example a ground-truth topic whose hash
//! is the cheapest locality key, so each entry is tagged with the shard
//! `split_mix64(topic) % N`. Same-topic examples carry the same tag,
//! which keeps each shard's content semantically clustered.
//!
//! A shard is that tag and three counters — entries, plaintext bytes,
//! retrieval hits — kept exact by every verb that changes them. The
//! entries themselves live in **one** [`ExampleCache`]: a lookup by id is
//! one probe, and nothing has to keep a second map consistent with it.
//!
//! Capacity is enforced per shard, but budgets are *not* static: a
//! periodic cross-shard rebalance ([`ShardedExampleCache::rebalance`])
//! re-divides the global byte budget according to where the decayed
//! offload gains currently live. The division is solved with the same
//! knapsack machinery as §4.3 eviction: each shard's gain-density curve is
//! cut into byte quanta (non-increasing marginal value, so a 0/1 solution
//! is a per-shard prefix) and the exact DP solver picks the quanta mix
//! that retains the most gain. Any capacity the DP leaves unclaimed —
//! quanta with zero gain are never *worth* taking — is handed back
//! proportionally to shard occupancy so that gain-less examples are still
//! kept while space allows, exactly as the unsharded policy did. One walk
//! of the store builds the knapsack items of a capacity pass, bucketed by
//! shard; the budget division and the per-shard eviction both read them.

use ic_llmsim::{Example, ExampleId, ExampleStore};
use ic_stats::rng::split_mix64;

use crate::cache::{CachedExample, ExampleCache};
use crate::evict::{KnapsackItem, all_but, dp_knapsack, greedy_knapsack};

/// Default shard count for new managers.
pub const DEFAULT_SHARDS: usize = 4;

/// Budget quanta per rebalance: the DP divides the global capacity into
/// this many slices (O(quanta²) work — trivial, and fine-grained enough
/// that allocation error is under 2% of capacity).
const REBALANCE_QUANTA: usize = 64;

/// What one shard holds: the sums, over the entries tagged with it, of
/// one, `example.byte_len()` and `accesses`.
#[derive(Debug, Clone, Copy, Default)]
struct ShardCounters {
    len: usize,
    bytes: usize,
    hits: u64,
}

/// An example cache split into topic-hash shards.
#[derive(Debug)]
pub struct ShardedExampleCache {
    store: ExampleCache,
    shards: Vec<ShardCounters>,
}

/// Every read that is not per shard — `entry`, `len`, `total_bytes`,
/// `sorted_ids`, `iter` — is the store's own; writes go through the
/// verbs below, which keep the counters.
impl std::ops::Deref for ShardedExampleCache {
    type Target = ExampleCache;

    fn deref(&self) -> &ExampleCache {
        &self.store
    }
}

impl ShardedExampleCache {
    /// Creates a cache with `shards` (at least 1) empty shards.
    pub fn new(shards: usize) -> Self {
        Self {
            store: ExampleCache::new(),
            shards: vec![ShardCounters::default(); shards.max(1)],
        }
    }

    /// Room for `additional` more entries without regrowing the store.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.store.reserve(additional);
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a topic hashes to.
    pub fn shard_for_topic(&self, topic: usize) -> usize {
        (split_mix64(topic as u64) % self.shards.len() as u64) as usize
    }

    /// The shard a cached id is tagged with, if present.
    pub fn shard_of(&self, id: ExampleId) -> Option<usize> {
        self.entry(id).map(|e| e.shard)
    }

    /// Per-shard example counts (engine/report diagnostics).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|c| c.len).collect()
    }

    /// Per-shard retrieval-hit totals (sum of entry access counts) —
    /// the demand signal the budget rebalance folds in beside byte
    /// share, and the first input to the ROADMAP's shard-autoscaling
    /// item.
    pub fn shard_hits(&self) -> Vec<u64> {
        self.shards.iter().map(|c| c.hits).collect()
    }

    /// Per-shard plaintext bytes.
    pub fn shard_bytes(&self) -> Vec<usize> {
        self.shards.iter().map(|c| c.bytes).collect()
    }

    /// Inserts an example at time `now`, tagged by topic hash; replaces
    /// any entry with the same id (whichever shard it counted towards).
    /// Returns false if it replaced one.
    pub fn insert(&mut self, example: Example, now: f64) -> bool {
        let shard = self.shard_for_topic(example.topic);
        let bytes = example.byte_len();
        let old = self.store.insert_tagged(shard, example, now);
        if let Some(old) = &old {
            self.uncount(old);
        }
        let counters = &mut self.shards[shard];
        counters.len += 1;
        counters.bytes += bytes;
        old.is_none()
    }

    /// Removes an example, returning it.
    pub fn remove(&mut self, id: ExampleId) -> Option<Example> {
        let entry = self.store.remove_entry(id)?;
        self.uncount(&entry);
        Some(entry.example)
    }

    /// Takes an entry that left the store out of its shard's counters.
    fn uncount(&mut self, entry: &CachedExample) {
        let counters = &mut self.shards[entry.shard];
        counters.len -= 1;
        counters.bytes -= entry.example.byte_len();
        counters.hits -= entry.accesses;
    }

    /// Mutable entry access for the replay executor, which refines an
    /// example's quality in place; the text (its bytes), `accesses` and
    /// `shard` are what the counters sum and must not change through it.
    pub(crate) fn entry_mut(&mut self, id: ExampleId) -> Option<&mut CachedExample> {
        self.store.entry_mut(id)
    }

    /// Records a retrieval hit.
    pub fn record_access(&mut self, id: ExampleId) {
        if let Some(e) = self.store.entry_mut(id) {
            e.accesses += 1;
            self.shards[e.shard].hits += 1;
        }
    }

    /// Records a successful offload enabled by this example.
    pub fn record_offload_gain(&mut self, id: ExampleId, now: f64, gain: f64) {
        self.store.record_offload_gain(id, now, gain);
    }

    /// Records usage feedback (folds into the replay-gain EMA).
    pub fn record_usage_feedback(&mut self, id: ExampleId, response_quality: f64, model_cost: f64) {
        self.store
            .record_usage_feedback(id, response_quality, model_cost);
    }

    /// The knapsack items of one capacity pass at time `now` (values are
    /// the decayed offload gains), bucketed by shard, each bucket in id
    /// order.
    fn shard_items(&self, now: f64) -> Vec<Vec<KnapsackItem>> {
        let mut buckets: Vec<Vec<KnapsackItem>> = (self.shards.iter())
            .map(|c| Vec::with_capacity(c.len))
            .collect();
        for (&id, e) in self.store.iter() {
            buckets[e.shard].push(KnapsackItem {
                id,
                weight: e.example.byte_len(),
                value: e.offload_gain.value_at(now),
            });
        }
        for bucket in &mut buckets {
            bucket.sort_unstable_by_key(|i| i.id);
        }
        buckets
    }

    /// Divides `capacity` bytes across shards by retained-gain value at
    /// time `now` (see the module docs for the quantum-knapsack scheme).
    /// The returned budgets sum to at most `capacity`.
    pub fn plan_shard_budgets(&self, capacity: usize, now: f64) -> Vec<usize> {
        self.budgets_for(&self.shard_items(now), capacity)
    }

    /// [`Self::plan_shard_budgets`] over the pass's items.
    fn budgets_for(&self, items: &[Vec<KnapsackItem>], capacity: usize) -> Vec<usize> {
        let quantum = (capacity / REBALANCE_QUANTA).max(1);

        // Cut each shard's density-sorted gain curve into quanta.
        struct Chunk {
            shard: usize,
            bytes: usize,
            units: usize,
            gain: f64,
        }
        let mut chunks: Vec<Chunk> = Vec::new();
        for (s, bucket) in items.iter().enumerate() {
            let mut by_density: Vec<&KnapsackItem> = bucket.iter().collect();
            by_density.sort_unstable_by(|a, b| {
                let da = a.value / a.weight.max(1) as f64;
                let db = b.value / b.weight.max(1) as f64;
                db.partial_cmp(&da)
                    .expect("finite densities")
                    .then(a.id.cmp(&b.id))
            });
            // Close each chunk *before* it would exceed the quantum, so a
            // normal chunk costs exactly 1 DP unit for ~1 quantum of
            // bytes; only a single oversized item can make a multi-unit
            // chunk. (Closing on overshoot instead would charge 2 units
            // per ~1 quantum and let the DP place only half the capacity
            // gain-aware.)
            let (mut bytes, mut gain) = (0usize, 0.0f64);
            for item in by_density {
                if bytes > 0 && bytes + item.weight > quantum {
                    chunks.push(Chunk {
                        shard: s,
                        bytes,
                        units: bytes.div_ceil(quantum),
                        gain,
                    });
                    bytes = 0;
                    gain = 0.0;
                }
                bytes += item.weight;
                gain += item.value;
            }
            if bytes > 0 {
                chunks.push(Chunk {
                    shard: s,
                    bytes,
                    units: bytes.div_ceil(quantum),
                    gain,
                });
            }
        }

        // 0/1 knapsack over quanta (weights in quantum units so the exact
        // DP stays O(chunks * REBALANCE_QUANTA)). Chunk ids encode the
        // chunk index; density ordering makes selections per-shard
        // prefixes in value terms.
        let dp_items: Vec<KnapsackItem> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| KnapsackItem {
                id: ExampleId(i as u64),
                weight: c.units,
                value: c.gain,
            })
            .collect();
        let kept = dp_knapsack(&dp_items, capacity / quantum);
        let mut budgets = vec![0usize; self.shards.len()];
        for id in &kept {
            let c = &chunks[id.0 as usize];
            budgets[c.shard] += c.bytes;
        }

        // Give unclaimed capacity back proportionally to unmet
        // occupancy *weighted by retrieval demand*: a shard's unmet
        // bytes count `1 + HIT_WEIGHT * hit_share` times, so byte share
        // alone no longer decides where the slack goes — hot shards
        // (many selection hits) keep more of their gain-less content
        // than cold ones. With no recorded hits the weights collapse to
        // plain unmet bytes, the original policy. Integer arithmetic
        // throughout keeps the split deterministic.
        let spent: usize = budgets.iter().sum();
        let mut leftover = capacity.saturating_sub(spent);
        let unmet: Vec<usize> = self
            .shards
            .iter()
            .zip(&budgets)
            .map(|(shard, &b)| shard.bytes.saturating_sub(b))
            .collect();
        let unmet_total: usize = unmet.iter().sum();
        if unmet_total > 0 {
            /// How strongly hit share skews the leftover split: a shard
            /// holding every hit weighs `1 + HIT_WEIGHT` times its
            /// bytes.
            const HIT_WEIGHT: u128 = 3;
            let hits_total: u128 = self.shards.iter().map(|c| u128::from(c.hits)).sum();
            let weights: Vec<u128> = unmet
                .iter()
                .zip(&self.shards)
                .map(|(&u, c)| {
                    let base = u as u128 * hits_total.max(1);
                    base + u as u128 * HIT_WEIGHT * u128::from(c.hits)
                })
                .collect();
            let weight_total: u128 = weights.iter().sum();
            let grants: Vec<usize> = weights
                .iter()
                .map(|&w| ((w * leftover as u128) / weight_total.max(1)) as usize)
                .collect();
            for (b, g) in budgets.iter_mut().zip(&grants) {
                *b += g;
            }
            leftover -= grants.iter().sum::<usize>();
            // Hand the integer-division residue to shards in index order.
            for (b, &u) in budgets.iter_mut().zip(&unmet) {
                if leftover == 0 {
                    break;
                }
                let grant = leftover.min(u);
                *b += grant;
                leftover -= grant;
            }
        }
        budgets
    }

    /// Cross-shard budget rebalance + per-shard knapsack eviction so the
    /// cache fits in `capacity` bytes. Returns evicted ids, shard by
    /// shard and id-ascending within one (callers must unindex them from
    /// the selector).
    pub fn rebalance(&mut self, capacity: usize, now: f64) -> Vec<ExampleId> {
        if self.total_bytes() <= capacity {
            return Vec::new();
        }
        let items = self.shard_items(now);
        let budgets = self.budgets_for(&items, capacity);
        let mut evicted = Vec::new();
        for (s, (bucket, &budget)) in items.iter().zip(&budgets).enumerate() {
            if self.shards[s].bytes <= budget {
                continue;
            }
            for id in all_but(bucket, greedy_knapsack(bucket, budget)) {
                self.remove(id);
                evicted.push(id);
            }
        }
        evicted
    }
}

impl ExampleStore for ShardedExampleCache {
    fn get_example(&self, id: ExampleId) -> Option<&Example> {
        self.store.get_example(id)
    }

    fn example_count(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::{Generator, ModelId, ModelSpec};
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn sample_examples(n: usize) -> Vec<Example> {
        WorkloadGenerator::new(Dataset::MsMarco, 43).generate_examples(
            n,
            &ModelSpec::gemma_2_27b(),
            ModelId(0),
            &Generator::new(),
        )
    }

    fn filled(n_shards: usize, n_examples: usize) -> (ShardedExampleCache, Vec<Example>) {
        let mut cache = ShardedExampleCache::new(n_shards);
        let examples = sample_examples(n_examples);
        for e in &examples {
            cache.insert(e.clone(), 0.0);
        }
        (cache, examples)
    }

    #[test]
    fn same_topic_lands_on_same_shard() {
        let (cache, examples) = filled(4, 300);
        for e in &examples {
            assert_eq!(cache.shard_of(e.id), Some(cache.shard_for_topic(e.topic)));
        }
        // Two examples sharing a topic must share a shard.
        for w in examples.windows(2) {
            if w[0].topic == w[1].topic {
                assert_eq!(cache.shard_of(w[0].id), cache.shard_of(w[1].id));
            }
        }
    }

    #[test]
    fn shards_share_the_load() {
        let (cache, _) = filled(4, 800);
        let sizes = cache.shard_sizes();
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes.iter().sum::<usize>(), 800);
        // Topic-hash sharding over a Zipf topic law is uneven but no shard
        // may be starved or hold everything.
        for &s in &sizes {
            assert!(s > 0, "starved shard: {sizes:?}");
            assert!(s < 800, "degenerate sharding: {sizes:?}");
        }
    }

    #[test]
    fn roundtrip_and_byte_accounting_match_unsharded() {
        let (mut sharded, examples) = filled(3, 60);
        let mut flat = ExampleCache::new();
        for e in &examples {
            flat.insert(e.clone(), 0.0);
        }
        assert_eq!(sharded.len(), flat.len());
        assert_eq!(sharded.total_bytes(), flat.total_bytes());
        assert_eq!(sharded.sorted_ids(), flat.sorted_ids());
        let victim = examples[7].id;
        assert_eq!(sharded.remove(victim).unwrap().id, victim);
        assert!(sharded.get_example(victim).is_none());
        assert_eq!(sharded.len(), flat.len() - 1);
    }

    #[test]
    fn feedback_routes_to_the_owning_shard() {
        let (mut cache, examples) = filled(4, 40);
        let id = examples[0].id;
        cache.record_access(id);
        cache.record_access(id);
        cache.record_offload_gain(id, 0.0, 2.5);
        cache.record_usage_feedback(id, 0.2, 1.0);
        let entry = cache.entry(id).unwrap();
        assert_eq!(entry.accesses, 2);
        assert!((entry.offload_gain.value_at(0.0) - 2.5).abs() < 1e-9);
        assert!((entry.replay_gain.value() - 0.8).abs() < 1e-9);
        // Unknown ids are no-ops.
        cache.record_access(ExampleId(u64::MAX));
        cache.record_offload_gain(ExampleId(u64::MAX), 0.0, 1.0);
    }

    #[test]
    fn rebalance_respects_global_capacity() {
        let (mut cache, examples) = filled(4, 200);
        for (i, e) in examples.iter().enumerate() {
            if i % 3 == 0 {
                cache.record_offload_gain(e.id, 0.0, 4.0);
            }
        }
        let cap = cache.total_bytes() / 2;
        let evicted = cache.rebalance(cap, 0.0);
        assert!(!evicted.is_empty());
        assert!(
            cache.total_bytes() <= cap,
            "{} > {cap}",
            cache.total_bytes()
        );
        // Directory and shards stay consistent.
        for id in &evicted {
            assert!(cache.shard_of(*id).is_none());
            assert!(cache.get_example(*id).is_none());
        }
        assert_eq!(cache.len(), 200 - evicted.len());
    }

    #[test]
    fn budgets_follow_the_gains() {
        let (mut cache, examples) = filled(2, 400);
        // All gains live on one shard's topics.
        let hot = cache.shard_of(examples[0].id).unwrap();
        for e in &examples {
            if cache.shard_of(e.id) == Some(hot) {
                cache.record_offload_gain(e.id, 0.0, 10.0);
            }
        }
        let cap = cache.total_bytes() / 3;
        let budgets = cache.plan_shard_budgets(cap, 0.0);
        assert!(
            budgets[hot] > budgets[1 - hot],
            "gain-bearing shard should win the budget: {budgets:?}"
        );
        let evicted = cache.rebalance(cap, 0.0);
        // The cold shard must shoulder disproportionate eviction.
        let cold_evicted = evicted
            .iter()
            .filter(|id| {
                examples
                    .iter()
                    .find(|e| e.id == **id)
                    .map(|e| cache.shard_for_topic(e.topic) != hot)
                    .unwrap_or(false)
            })
            .count();
        assert!(
            cold_evicted * 2 > evicted.len(),
            "cold shard should dominate eviction: {cold_evicted}/{}",
            evicted.len()
        );
    }

    #[test]
    fn shard_hits_sum_per_shard() {
        let (mut cache, examples) = filled(4, 60);
        assert_eq!(cache.shard_hits(), vec![0, 0, 0, 0]);
        cache.record_access(examples[0].id);
        cache.record_access(examples[0].id);
        cache.record_access(examples[1].id);
        let hits = cache.shard_hits();
        assert_eq!(hits.iter().sum::<u64>(), 3);
        let s0 = cache.shard_of(examples[0].id).unwrap();
        assert!(hits[s0] >= 2);
    }

    #[test]
    fn leftover_budget_follows_hit_counts_not_bytes_alone() {
        // No offload gains anywhere: the whole budget flows through the
        // leftover path. Concentrating retrieval hits on one shard must
        // tilt its budget above the plain byte-share split.
        let (mut cold, examples) = filled(2, 400);
        let (mut hot, _) = filled(2, 400);
        let target = hot.shard_of(examples[0].id).unwrap();
        for e in &examples {
            if hot.shard_of(e.id) == Some(target) {
                for _ in 0..5 {
                    hot.record_access(e.id);
                }
            }
        }
        let cap = cold.total_bytes() / 2;
        let base = cold.plan_shard_budgets(cap, 0.0);
        let tilted = hot.plan_shard_budgets(cap, 0.0);
        assert!(
            tilted[target] > base[target],
            "hits must attract budget: {base:?} vs {tilted:?}"
        );
        assert!(tilted.iter().sum::<usize>() <= cap);
        // And the tilt shows up in eviction: the hit-bearing shard
        // loses fewer examples than under the byte-only split.
        let evicted_hot_shard = hot
            .rebalance(cap, 0.0)
            .iter()
            .filter(|id| {
                examples
                    .iter()
                    .find(|e| e.id == **id)
                    .map(|e| hot.shard_for_topic(e.topic) == target)
                    .unwrap_or(false)
            })
            .count();
        let evicted_cold_shard = cold
            .rebalance(cap, 0.0)
            .iter()
            .filter(|id| {
                examples
                    .iter()
                    .find(|e| e.id == **id)
                    .map(|e| cold.shard_for_topic(e.topic) == target)
                    .unwrap_or(false)
            })
            .count();
        assert!(
            evicted_hot_shard <= evicted_cold_shard,
            "hits should shield the hot shard: {evicted_hot_shard} vs {evicted_cold_shard}"
        );
    }

    #[test]
    fn under_capacity_rebalance_is_a_noop() {
        let (mut cache, _) = filled(4, 50);
        let before = cache.len();
        assert!(cache.rebalance(cache.total_bytes() + 1, 0.0).is_empty());
        assert_eq!(cache.len(), before);
    }

    #[test]
    fn single_shard_matches_flat_eviction_semantics() {
        let (mut cache, examples) = filled(1, 80);
        for (i, e) in examples.iter().enumerate() {
            if i % 2 == 0 {
                cache.record_offload_gain(e.id, 0.0, 5.0);
            }
        }
        let cap = cache.total_bytes() / 2;
        cache.rebalance(cap, 0.0);
        assert!(cache.total_bytes() <= cap);
        let kept_valuable = examples
            .iter()
            .enumerate()
            .filter(|(i, e)| i % 2 == 0 && cache.get_example(e.id).is_some())
            .count();
        let kept_worthless = examples
            .iter()
            .enumerate()
            .filter(|(i, e)| i % 2 == 1 && cache.get_example(e.id).is_some())
            .count();
        assert!(kept_valuable > kept_worthless);
    }

    #[test]
    fn gain_aware_budgets_cover_most_of_the_capacity() {
        // When every example carries gain, the knapsack should hand out
        // nearly the whole budget by value — not fall back to the
        // occupancy-proportional leftover path for half of it.
        let (mut cache, examples) = filled(4, 300);
        for e in &examples {
            cache.record_offload_gain(e.id, 0.0, 1.0);
        }
        let cap = cache.total_bytes() / 2;
        let budgets = cache.plan_shard_budgets(cap, 0.0);
        let gain_allocated: usize = budgets.iter().sum();
        assert!(gain_allocated <= cap);
        assert!(
            gain_allocated as f64 > cap as f64 * 0.9,
            "DP should claim most of the budget: {gain_allocated}/{cap}"
        );
    }

    #[test]
    fn reinsert_with_changed_topic_reports_replacement() {
        let (mut cache, examples) = filled(4, 40);
        let mut moved = examples[0].clone();
        // Find a topic that hashes to a different shard.
        let home = cache.shard_for_topic(moved.topic);
        moved.topic = (0..)
            .find(|&t| cache.shard_for_topic(t) != home)
            .expect("multiple shards exist");
        assert!(
            !cache.insert(moved.clone(), 1.0),
            "replacement must report false"
        );
        assert_eq!(cache.len(), 40, "no duplicate entry across shards");
        assert_eq!(
            cache.shard_of(moved.id),
            Some(cache.shard_for_topic(moved.topic))
        );
    }

    #[test]
    fn budget_planning_is_deterministic() {
        let (mut a, _) = filled(4, 150);
        let (mut b, _) = filled(4, 150);
        let cap = a.total_bytes() / 2;
        assert_eq!(
            a.plan_shard_budgets(cap, 0.0),
            b.plan_shard_budgets(cap, 0.0)
        );
        assert_eq!(a.rebalance(cap, 0.0), b.rebalance(cap, 0.0));
    }
}
