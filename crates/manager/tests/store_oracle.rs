//! Differential test of [`ShardedExampleCache`] — one store, a shard tag
//! per entry, three counters per shard — against the layout it replaced,
//! written here, in the test, as the reference: a directory
//! `id -> shard` in front of one plain [`ExampleCache`] per shard, with
//! `shard_hits` re-summed from the entries, the knapsack items rebuilt
//! per shard for the budget division and again for each shard's
//! eviction, and replay planned per shard, merged, re-sorted and
//! re-truncated. Random interleavings of every verb run on both, and
//! after **every** op the two must agree on `len`, `total_bytes`,
//! `shard_sizes`, `shard_hits`, `shard_bytes`, `sorted_ids`, each
//! entry's shard and statistics, and `plan_shard_budgets`; a rebalance
//! must evict the same ids *in the same order*, and a replay round must
//! refine the same examples with the same RNG draws.
//!
//! Ids and topics are drawn from a few values on purpose: live ids are
//! re-inserted, also under a topic that hashes to another shard, so an
//! entry's counters have to leave one shard and join another.
//!
//! Mutation that bites: in `ShardedExampleCache::uncount`, drop
//! `counters.hits -= entry.accesses` — the first removal, replacement
//! or eviction of an entry that was ever accessed leaves its shard's
//! `shard_hits` above the re-summed reference.

use ic_llmsim::{Example, ExampleId, Generator, ModelId, ModelSpec};
use ic_manager::{
    ExampleCache, ExampleManager, KnapsackItem, ManagerConfig, ReplayConfig, ShardedExampleCache,
    dp_knapsack, greedy_knapsack, plan_replay, replay_example,
};
use ic_stats::rng::{rng_from_seed, split_mix64};
use ic_workloads::{Dataset, WorkloadGenerator};
use proptest::prelude::*;
use std::collections::BTreeMap;

const QUANTA: usize = 64;

/// The store as it read before the shard became a tag.
struct TwoLevelStore {
    shards: Vec<ExampleCache>,
    directory: BTreeMap<ExampleId, usize>,
}

fn items_from_cache(cache: &ExampleCache, now: f64) -> Vec<KnapsackItem> {
    let mut items: Vec<KnapsackItem> = cache
        .iter()
        .map(|(&id, e)| KnapsackItem {
            id,
            weight: e.example.byte_len(),
            value: e.offload_gain.value_at(now),
        })
        .collect();
    items.sort_by_key(|i| i.id);
    items
}

fn plan_eviction(cache: &ExampleCache, capacity_bytes: usize, now: f64) -> Vec<ExampleId> {
    if cache.total_bytes() <= capacity_bytes {
        return Vec::new();
    }
    let items = items_from_cache(cache, now);
    let keep = greedy_knapsack(&items, capacity_bytes);
    (items.iter().map(|i| i.id))
        .filter(|id| !keep.contains(id))
        .collect()
}

impl TwoLevelStore {
    fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| ExampleCache::new()).collect(),
            directory: BTreeMap::new(),
        }
    }

    fn shard_for_topic(&self, topic: usize) -> usize {
        (split_mix64(topic as u64) % self.shards.len() as u64) as usize
    }

    fn insert(&mut self, example: Example, now: f64) -> bool {
        let id = example.id;
        let target = self.shard_for_topic(example.topic);
        let mut fresh = true;
        if let Some(&old) = self.directory.get(&id)
            && old != target
        {
            self.shards[old].remove(id);
            fresh = false;
        }
        self.directory.insert(id, target);
        self.shards[target].insert(example, now) && fresh
    }

    fn remove(&mut self, id: ExampleId) -> Option<Example> {
        let shard = self.directory.remove(&id)?;
        self.shards[shard].remove(id)
    }

    fn shard_mut(&mut self, id: ExampleId) -> Option<&mut ExampleCache> {
        let shard = *self.directory.get(&id)?;
        Some(&mut self.shards[shard])
    }

    fn shard_hits(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.access_counts().iter().sum())
            .collect()
    }

    fn total_bytes(&self) -> usize {
        self.shards.iter().map(ExampleCache::total_bytes).sum()
    }

    fn plan_shard_budgets(&self, capacity: usize, now: f64) -> Vec<usize> {
        let quantum = (capacity / QUANTA).max(1);
        // (shard, bytes, units, gain) per chunk of a density-sorted curve.
        let mut chunks: Vec<(usize, usize, usize, f64)> = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let mut items = items_from_cache(shard, now);
            items.sort_by(|a, b| {
                let da = a.value / a.weight.max(1) as f64;
                let db = b.value / b.weight.max(1) as f64;
                db.partial_cmp(&da).unwrap().then(a.id.cmp(&b.id))
            });
            let (mut bytes, mut gain) = (0usize, 0.0f64);
            for item in &items {
                if bytes > 0 && bytes + item.weight > quantum {
                    chunks.push((s, bytes, bytes.div_ceil(quantum), gain));
                    bytes = 0;
                    gain = 0.0;
                }
                bytes += item.weight;
                gain += item.value;
            }
            if bytes > 0 {
                chunks.push((s, bytes, bytes.div_ceil(quantum), gain));
            }
        }
        let dp_items: Vec<KnapsackItem> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| KnapsackItem {
                id: ExampleId(i as u64),
                weight: c.2,
                value: c.3,
            })
            .collect();
        let mut budgets = vec![0usize; self.shards.len()];
        for id in dp_knapsack(&dp_items, capacity / quantum) {
            let c = &chunks[id.0 as usize];
            budgets[c.0] += c.1;
        }
        let spent: usize = budgets.iter().sum();
        let mut leftover = capacity.saturating_sub(spent);
        let unmet: Vec<usize> = (self.shards.iter().zip(&budgets))
            .map(|(shard, &b)| shard.total_bytes().saturating_sub(b))
            .collect();
        if unmet.iter().sum::<usize>() > 0 {
            let hits = self.shard_hits();
            let hits_total: u128 = hits.iter().map(|&h| u128::from(h)).sum();
            let weights: Vec<u128> = (unmet.iter().zip(&hits))
                .map(|(&u, &h)| u as u128 * hits_total.max(1) + u as u128 * 3 * u128::from(h))
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
            for (b, &u) in budgets.iter_mut().zip(&unmet) {
                let grant = leftover.min(u);
                *b += grant;
                leftover -= grant;
            }
        }
        budgets
    }

    fn rebalance(&mut self, capacity: usize, now: f64) -> Vec<ExampleId> {
        if self.total_bytes() <= capacity {
            return Vec::new();
        }
        let budgets = self.plan_shard_budgets(capacity, now);
        let mut evicted = Vec::new();
        for (s, budget) in budgets.iter().enumerate() {
            for id in plan_eviction(&self.shards[s], *budget, now) {
                self.shards[s].remove(id);
                self.directory.remove(&id);
                evicted.push(id);
            }
        }
        evicted
    }

    /// `(replayed, total_improvement)` of one round.
    fn run_replay(&mut self, config: &ReplayConfig, seed: u64) -> (usize, f64) {
        let mut ranked: Vec<(ExampleId, f64)> = Vec::new();
        for shard in &self.shards {
            for id in plan_replay(shard, config) {
                ranked.push((id, shard.entry(id).unwrap().replay_gain.value()));
            }
        }
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(config.batch_limit);
        let (spec, generator) = (ModelSpec::gemma_2_27b(), Generator::new());
        let mut rng = rng_from_seed(seed);
        let (mut replayed, mut improvement) = (0, 0.0);
        for (id, _) in ranked {
            let entry = self.shard_mut(id).unwrap().entry_mut(id).unwrap();
            improvement += replay_example(
                &mut entry.example,
                &spec,
                &generator,
                config.rounds,
                &mut rng,
            );
            replayed += 1;
            entry.replay_gain = ic_stats::Ema::new(0.2);
        }
        (replayed, improvement)
    }
}

/// Everything observable without evicting, compared field by field.
fn assert_same(real: &ShardedExampleCache, model: &TwoLevelStore, now: f64, cap_share: usize) {
    assert_eq!(real.len(), model.directory.len());
    assert_eq!(real.is_empty(), model.directory.is_empty());
    assert_eq!(real.total_bytes(), model.total_bytes());
    let sizes: Vec<usize> = model.shards.iter().map(ExampleCache::len).collect();
    assert_eq!(real.shard_sizes(), sizes);
    assert_eq!(real.shard_hits(), model.shard_hits());
    let bytes: Vec<usize> = model.shards.iter().map(ExampleCache::total_bytes).collect();
    assert_eq!(real.shard_bytes(), bytes);
    let ids: Vec<ExampleId> = model.directory.keys().copied().collect();
    assert_eq!(real.sorted_ids(), ids);
    for (&id, &shard) in &model.directory {
        assert_eq!(real.shard_of(id), Some(shard));
        let (got, want) = (
            real.entry(id).unwrap(),
            model.shards[shard].entry(id).unwrap(),
        );
        assert_eq!(got.accesses, want.accesses);
        assert_eq!(got.inserted_at, want.inserted_at);
        assert_eq!(got.example.byte_len(), want.example.byte_len());
        assert_eq!(got.example.topic, want.example.topic);
        assert_eq!(got.example.quality, want.example.quality);
        assert_eq!(got.example.replay_count, want.example.replay_count);
        assert_eq!(got.replay_gain.value(), want.replay_gain.value());
        assert_eq!(
            got.offload_gain.value_at(now),
            want.offload_gain.value_at(now)
        );
    }
    let capacity = real.total_bytes() * cap_share / 8;
    assert_eq!(
        real.plan_shard_budgets(capacity, now),
        model.plan_shard_budgets(capacity, now),
        "budgets at capacity {capacity}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_store_matches_the_directory_and_per_shard_maps(
        shards in 1usize..6,
        batch_limit in 1usize..7,
        ops in proptest::collection::vec(0u64..u64::MAX, 1..160),
    ) {
        let pool = WorkloadGenerator::new(Dataset::MsMarco, 97).generate_examples(
            24,
            &ModelSpec::gemma_2_27b(),
            ModelId(0),
            &Generator::new(),
        );
        let replay = ReplayConfig { batch_limit, ..ReplayConfig::default() };
        let mut manager = ExampleManager::new(ManagerConfig {
            shards,
            replay: replay.clone(),
            ..ManagerConfig::default()
        });
        let mut model = TwoLevelStore::new(shards);
        let mut now = 0.0f64;
        for word in ops {
            // Independent fields of the op, cut from one random word.
            let pick = |shift: u32, bound: u64| (word >> shift) % bound;
            let example = &pool[pick(8, pool.len() as u64) as usize];
            let id = example.id;
            // Up to half an hour between ops: gains decay visibly.
            now += pick(16, 1_800) as f64;
            let real = manager.cache_mut();
            match pick(0, 13) {
                0 | 1 => {
                    prop_assert_eq!(
                        real.insert(example.clone(), now),
                        model.insert(example.clone(), now)
                    );
                }
                2 => {
                    // Same id, another topic (often another shard) and
                    // another size.
                    let mut moved = example.clone();
                    moved.topic += 1 + pick(24, 5) as usize;
                    let pad = "x".repeat(pick(32, 40) as usize);
                    moved.response_text = format!("{}{pad}", moved.response_text).into();
                    prop_assert_eq!(
                        real.insert(moved.clone(), now),
                        model.insert(moved, now)
                    );
                }
                3 => {
                    let (got, want) = (real.remove(id), model.remove(id));
                    prop_assert_eq!(got.map(|e| e.byte_len()), want.map(|e| e.byte_len()));
                }
                4 | 5 => {
                    real.record_access(id);
                    if let Some(shard) = model.shard_mut(id) {
                        shard.record_access(id);
                    }
                }
                6 | 7 => {
                    let gain = pick(24, 50) as f64 / 10.0;
                    real.record_offload_gain(id, now, gain);
                    if let Some(shard) = model.shard_mut(id) {
                        shard.record_offload_gain(id, now, gain);
                    }
                }
                8..=10 => {
                    // Mostly poor answers from a dear model: G(e) clears
                    // the replay cut-off often enough to fill a batch.
                    let (quality, cost) = (pick(24, 13) as f64 / 16.0, pick(32, 13) as f64 / 12.0);
                    real.record_usage_feedback(id, quality, cost);
                    if let Some(shard) = model.shard_mut(id) {
                        shard.record_usage_feedback(id, quality, cost);
                    }
                }
                11 => {
                    let capacity = real.total_bytes() * pick(24, 10) as usize / 8;
                    prop_assert_eq!(
                        real.rebalance(capacity, now),
                        model.rebalance(capacity, now),
                        "evicted ids, in order, at capacity {}", capacity
                    );
                }
                _ => {
                    let seed = pick(24, 1 << 20);
                    let got = manager.run_replay(
                        &ModelSpec::gemma_2_27b(),
                        &Generator::new(),
                        &mut rng_from_seed(seed),
                    );
                    let want = model.run_replay(&replay, seed);
                    prop_assert_eq!((got.replayed, got.total_improvement), want);
                }
            }
            assert_same(manager.cache(), &model, now, 1 + pick(40, 8) as usize);
        }
    }
}
