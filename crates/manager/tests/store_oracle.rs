//! Differential test of the manager's one [`ExampleCache`] against a
//! plain ordered map of `id -> entry` that re-derives everything from
//! scratch: the byte total summed over the entries, the replay plan
//! ranked over all of them, and the capacity pass as the greedy knapsack
//! over every entry in id order.
//!
//! Both start from a pool of [`REPLAY_BATCH_LIMIT`] + 16 examples, so a
//! replay round can be cut at the batch limit. A random sequence of
//! inserts (fresh and replacing, also with another topic and size),
//! removals, accesses, offload gains, usage feedback (on one entry or on
//! all of them), replay rounds and capacity passes runs on both; after
//! every op the test compares `len`, `total_bytes`, `sorted_ids`,
//! `access_counts` and each entry's statistics, and that no entry keeps
//! a vector (`insert` hands it back). A capacity pass must evict exactly
//! the ids the model evicts, in id order, leave `total_bytes() <= cap`,
//! and do nothing when the cache already fits.
//!
//! Mutations that bite: in `ExampleCache::insert`, drop the line that
//! takes a replaced entry's bytes off `total_bytes`; the first
//! replacement leaves the total above the re-summed reference. In
//! `plan_replay`, truncate at `REPLAY_BATCH_LIMIT + 1`; the first full
//! round replays one example more than the model.

use ic_llmsim::{Example, ExampleId, Generator, ModelId, ModelSpec};
use ic_manager::cache::{GAIN_DECAY, GAIN_PERIOD_S};
use ic_manager::replay::{MAX_REPLAYS, REPLAY_BATCH_LIMIT, REPLAY_COST, REPLAY_ROUNDS};
use ic_manager::{
    ExampleCache, ExampleManager, KnapsackItem, ManagerConfig, greedy_knapsack, replay_example,
};
use ic_stats::rng::rng_from_seed;
use ic_stats::{DecayingCounter, Ema};
use ic_workloads::{Dataset, WorkloadGenerator};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One entry of the model, with the statistics the cache keeps.
struct ModelEntry {
    example: Example,
    offload_gain: DecayingCounter,
    replay_gain: Ema,
    accesses: u64,
    inserted_at: f64,
}

/// The cache as a plain ordered map.
#[derive(Default)]
struct MapStore {
    entries: BTreeMap<ExampleId, ModelEntry>,
}

impl MapStore {
    fn insert(&mut self, example: Example, now: f64) -> bool {
        let entry = ModelEntry {
            example,
            offload_gain: DecayingCounter::new(GAIN_DECAY, GAIN_PERIOD_S),
            replay_gain: Ema::new(0.2),
            accesses: 0,
            inserted_at: now,
        };
        self.entries.insert(entry.example.id, entry).is_none()
    }

    fn total_bytes(&self) -> usize {
        self.entries.values().map(|e| e.example.byte_len()).sum()
    }

    /// The capacity pass: the greedy knapsack over every entry.
    fn evict_to(&mut self, capacity: usize, now: f64) -> Vec<ExampleId> {
        if self.total_bytes() <= capacity {
            return Vec::new();
        }
        let items: Vec<KnapsackItem> = (self.entries.iter())
            .map(|(&id, e)| KnapsackItem {
                id,
                weight: e.example.byte_len(),
                value: e.offload_gain.value_at(now),
            })
            .collect();
        let keep = greedy_knapsack(&items, capacity);
        let evicted: Vec<ExampleId> = (items.iter().map(|i| i.id))
            .filter(|id| !keep.contains(id))
            .collect();
        for id in &evicted {
            self.entries.remove(id);
        }
        evicted
    }

    /// `(replayed, total_improvement)` of one round: the
    /// `REPLAY_BATCH_LIMIT` highest-G(e) entries at or above the cut-off,
    /// best first.
    fn run_replay(&mut self, seed: u64) -> (usize, f64) {
        let mut ranked: Vec<(ExampleId, f64)> = (self.entries.iter())
            .filter(|(_, e)| e.example.replay_count < MAX_REPLAYS)
            .map(|(&id, e)| (id, e.replay_gain.value()))
            .filter(|&(_, g)| g >= REPLAY_COST)
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(REPLAY_BATCH_LIMIT);
        let (spec, generator) = (ModelSpec::gemma_2_27b(), Generator::new());
        let mut rng = rng_from_seed(seed);
        let (mut replayed, mut improvement) = (0, 0.0);
        for (id, _) in ranked {
            let entry = self.entries.get_mut(&id).unwrap();
            improvement += replay_example(
                &mut entry.example,
                &spec,
                &generator,
                REPLAY_ROUNDS,
                &mut rng,
            );
            replayed += 1;
            entry.replay_gain = Ema::new(0.2);
        }
        (replayed, improvement)
    }
}

/// Everything observable, compared field by field.
fn assert_same(real: &ExampleCache, model: &MapStore, now: f64) {
    assert_eq!(real.len(), model.entries.len());
    assert_eq!(real.is_empty(), model.entries.is_empty());
    assert_eq!(real.total_bytes(), model.total_bytes());
    let ids: Vec<ExampleId> = model.entries.keys().copied().collect();
    assert_eq!(real.sorted_ids(), ids);
    let mut counts = real.access_counts();
    counts.sort_unstable();
    let mut want: Vec<u64> = model.entries.values().map(|e| e.accesses).collect();
    want.sort_unstable();
    assert_eq!(counts, want);
    for (&id, want) in &model.entries {
        let got = real.entry(id).unwrap();
        assert_eq!(got.accesses, want.accesses);
        assert_eq!(got.inserted_at, want.inserted_at);
        assert_eq!(got.example.byte_len(), want.example.byte_len());
        assert_eq!(got.example.topic, want.example.topic);
        assert_eq!(got.example.quality, want.example.quality);
        assert_eq!(got.example.replay_count, want.example.replay_count);
        assert_eq!(got.example.embedding.dim(), 0, "the cache keeps no vector");
        assert_eq!(got.replay_gain.value(), want.replay_gain.value());
        assert_eq!(
            got.offload_gain.value_at(now),
            want.offload_gain.value_at(now)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_cache_matches_a_plain_map(
        ops in proptest::collection::vec(0u64..u64::MAX, 1..160),
    ) {
        let pool = WorkloadGenerator::new(Dataset::MsMarco, 97).generate_examples(
            REPLAY_BATCH_LIMIT + 16,
            &ModelSpec::gemma_2_27b(),
            ModelId(0),
            &Generator::new(),
        );
        let mut manager = ExampleManager::new(ManagerConfig::default());
        let mut model = MapStore::default();
        for e in &pool {
            manager.cache_mut().insert(e.clone(), 0.0);
            model.insert(e.clone(), 0.0);
        }
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
                    prop_assert_eq!(real.entry(id).is_none(), model.insert(example.clone(), now));
                    let embedding = real.insert(example.clone(), now);
                    prop_assert_eq!(&embedding, &example.embedding, "insert hands the vector back");
                }
                2 => {
                    // Same id, another topic and another size.
                    let mut moved = example.clone();
                    moved.topic += 1 + pick(24, 5) as usize;
                    let pad = "x".repeat(pick(32, 40) as usize);
                    moved.response_text = format!("{}{pad}", moved.response_text).into();
                    prop_assert_eq!(real.entry(id).is_none(), model.insert(moved.clone(), now));
                    real.insert(moved, now);
                }
                3 => {
                    let got = real.remove(id).map(|e| e.byte_len());
                    let want = model.entries.remove(&id).map(|e| e.example.byte_len());
                    prop_assert_eq!(got, want);
                }
                4 | 5 => {
                    real.record_access(id);
                    if let Some(e) = model.entries.get_mut(&id) {
                        e.accesses += 1;
                    }
                }
                6 | 7 => {
                    let gain = pick(24, 50) as f64 / 10.0;
                    real.record_offload_gain(id, now, gain);
                    if let Some(e) = model.entries.get_mut(&id) {
                        e.offload_gain.add(now, gain);
                    }
                }
                8..=10 => {
                    // Mostly poor answers from a dear model: G(e) clears
                    // the replay cut-off often, and feedback on every
                    // entry (one op in three) fills more than a batch.
                    let (quality, cost) = (pick(24, 13) as f64 / 16.0, pick(32, 13) as f64 / 12.0);
                    let g = (1.0 - quality) * cost.min(1.0);
                    if pick(40, 3) == 0 {
                        for (&other, e) in &mut model.entries {
                            real.record_usage_feedback(other, quality, cost);
                            e.replay_gain.observe(g);
                        }
                    } else {
                        real.record_usage_feedback(id, quality, cost);
                        if let Some(e) = model.entries.get_mut(&id) {
                            e.replay_gain.observe(g);
                        }
                    }
                }
                11 => {
                    // Caps from 0 to 9/8 of the current bytes: some passes
                    // must evict, some must leave the cache alone.
                    let capacity = real.total_bytes() * pick(24, 10) as usize / 8;
                    let before = real.len();
                    manager.set_capacity_bytes(Some(capacity));
                    let over = manager.over_capacity();
                    let evicted = manager.enforce_capacity(now);
                    prop_assert_eq!(over, !evicted.is_empty(), "over_capacity names the evicting passes");
                    prop_assert_eq!(
                        &evicted,
                        &model.evict_to(capacity, now),
                        "evicted ids, in order, at capacity {}", capacity
                    );
                    let cache = manager.cache();
                    prop_assert!(cache.total_bytes() <= capacity);
                    prop_assert_eq!(cache.len() + evicted.len(), before);
                    for id in &evicted {
                        prop_assert!(cache.entry(*id).is_none());
                    }
                    // A second pass at the same cap finds nothing to do.
                    prop_assert!(!manager.over_capacity());
                    prop_assert!(manager.enforce_capacity(now).is_empty());
                    manager.set_capacity_bytes(None);
                }
                _ => {
                    let seed = pick(24, 1 << 20);
                    let got = manager.run_replay(
                        &ModelSpec::gemma_2_27b(),
                        &Generator::new(),
                        &mut rng_from_seed(seed),
                    );
                    let want = model.run_replay(seed);
                    prop_assert_eq!((got.replayed, got.total_improvement), want);
                }
            }
            assert_same(manager.cache(), &model, now);
        }
    }
}
