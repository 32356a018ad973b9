//! Differential test of [`BlockPool`]'s content table against the
//! naive table it replaced: two ordered maps, `(set, chunk) -> block`
//! and `block -> (set, chunk)`, plus a refcount map — written here, in
//! the test, as the reference. Random interleavings of every verb that
//! reads or writes the table run on both, and after **every** op the
//! two must agree on everything observable: each `lookup_prefix` in
//! (and just past) range, `is_registered` and `refcount` of each
//! block, `used_blocks`, `shared_blocks`, `resident_sets` and `stats()`.
//!
//! Sets and chunks are drawn from a few values on purpose, so keys
//! collide: a chunk is re-registered after its block was freed or
//! privatized, second writers meet a taken key, tagged blocks are
//! offered again, and one set's chunks end up scattered over blocks
//! with different owners.
//!
//! Mutation that bites: in `BlockPool::diverge`, drop the `vacate` call
//! on the in-place path (clear the block's tag but leave the set's
//! slot pointing at it) — `lookup_prefix` then returns a privatized
//! block and the first comparison after such a divergence fails.

use ic_kvmem::{BlockId, BlockPool, Divergence, KvStats};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The table as it read before the per-block tags: both directions in
/// ordered maps, one operation per chunk.
#[derive(Default)]
struct NaiveTable {
    content: BTreeMap<(u64, u32), BlockId>,
    registered: BTreeMap<BlockId, (u64, u32)>,
    refs: BTreeMap<BlockId, u32>,
    allocs: u64,
    frees: u64,
    blocks_saved: u64,
    shared_peak: u64,
    cow_copies: u64,
}

impl NaiveTable {
    fn shared(&self) -> usize {
        self.refs.values().filter(|&&c| c >= 2).count()
    }

    /// Blocks the allocator handed out (the ids come from the real
    /// free lists; the model only checks they were not already live).
    fn allocated(&mut self, blocks: &[BlockId]) {
        for &b in blocks {
            assert!(self.refs.insert(b, 1).is_none(), "{b:?} handed out twice");
            assert!(!self.registered.contains_key(&b), "{b:?} reused tagged");
        }
        self.allocs += blocks.len() as u64;
    }

    fn register(&mut self, budget: u32, set: u64, chunk: u32, block: BlockId) -> bool {
        if chunk >= budget
            || self.content.contains_key(&(set, chunk))
            || self.registered.contains_key(&block)
        {
            return false;
        }
        self.content.insert((set, chunk), block);
        self.registered.insert(block, (set, chunk));
        true
    }

    fn unregister(&mut self, block: BlockId) {
        if let Some(key) = self.registered.remove(&block) {
            self.content.remove(&key);
        }
    }

    fn map(&mut self, block: BlockId) {
        *self.refs.get_mut(&block).expect("mapped block is live") += 1;
        self.blocks_saved += 1;
        self.shared_peak = self.shared_peak.max(self.shared() as u64);
    }

    fn release(&mut self, block: BlockId) {
        let rc = self.refs.get_mut(&block).expect("released block is live");
        *rc -= 1;
        if *rc == 0 {
            self.refs.remove(&block);
            self.unregister(block);
            self.frees += 1;
        }
    }

    /// The resident run as `alloc_with_sharing` used to find it: one
    /// lookup per chunk, stopping at a hole or a foreign replica.
    fn resident_run(&self, set: u64, mappable: u32) -> Vec<BlockId> {
        let mut run: Vec<BlockId> = Vec::new();
        for chunk in 0..mappable {
            match self.content.get(&(set, chunk)) {
                Some(b) if run.first().is_none_or(|f| f.replica == b.replica) => run.push(*b),
                _ => break,
            }
        }
        run
    }

    fn stats(&self, total_blocks: u64) -> KvStats {
        KvStats {
            total_blocks,
            allocs: self.allocs,
            frees: self.frees,
            blocks_saved: self.blocks_saved,
            shared_blocks_peak: self.shared_peak,
            cow_copies: self.cow_copies,
            ..KvStats::default()
        }
    }
}

const SETS: u64 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn tagged_table_matches_the_two_map_table(
        replicas in 1u32..3,
        budget in 2u32..12,
        ops in proptest::collection::vec(0u64..u64::MAX, 1..220),
    ) {
        let mut pool = BlockPool::new(replicas, budget, 16);
        let mut model = NaiveTable::default();
        // One entry per reference some sequence holds.
        let mut handles: Vec<BlockId> = Vec::new();
        for word in ops {
            // Independent fields of the op, cut from one random word.
            let pick = |shift: u32, bound: u64| (word >> shift) % bound;
            let set = pick(8, SETS);
            // Chunks run two past the budget so refusals are drawn too.
            let chunk = pick(16, u64::from(budget) + 2) as u32;
            let handle = (!handles.is_empty()).then(|| pick(24, handles.len() as u64) as usize);
            match pick(0, 8) {
                0 => {
                    let replica = pool.least_loaded_replica();
                    if let Some(blocks) = pool.try_alloc(replica, 1 + pick(32, 3) as u32) {
                        model.allocated(&blocks);
                        handles.extend(blocks);
                    }
                }
                1 | 2 => {
                    if let Some(i) = handle {
                        let b = handles[i];
                        prop_assert_eq!(
                            pool.register_prefix(set, chunk, b),
                            model.register(budget, set, chunk, b),
                            "register({}, {}, {:?})", set, chunk, b
                        );
                    }
                }
                3 => {
                    let found = pool.lookup_prefix(set, chunk);
                    prop_assert_eq!(found, model.content.get(&(set, chunk)).copied());
                    if let Some(b) = found {
                        pool.map_shared(b);
                        model.map(b);
                        handles.push(b);
                    }
                }
                4 => {
                    if let Some(i) = handle {
                        let b = handles[i];
                        let shared = model.refs[&b] > 1;
                        let room = pool.free_blocks(b.replica as usize) > 0;
                        match pool.diverge(b) {
                            Some(Divergence::InPlace) => {
                                prop_assert!(!shared, "a shared block must copy");
                                model.unregister(b);
                            }
                            Some(Divergence::Copied(fresh)) => {
                                prop_assert!(shared && room);
                                prop_assert_eq!(fresh.replica, b.replica);
                                model.allocated(&[fresh]);
                                model.cow_copies += 1;
                                model.release(b);
                                handles[i] = fresh;
                            }
                            None => prop_assert!(shared && !room, "spurious deferral"),
                        }
                    }
                }
                5 | 6 => {
                    if let Some(i) = handle {
                        let b = handles.swap_remove(i);
                        let frees = model.frees;
                        model.release(b);
                        prop_assert_eq!(u64::from(pool.release([b])), model.frees - frees);
                    }
                }
                _ => {
                    // The bulk admission verb against the per-chunk
                    // loop it replaced, run on the model.
                    let demand = 1 + pick(32, u64::from(budget)) as u32;
                    let mappable = pick(40, u64::from(demand) + 1) as u32;
                    let register_to = pick(48, u64::from(demand) + 1) as u32;
                    let fallback = pool.least_loaded_replica();
                    let run = model.resident_run(set, mappable);
                    let replica = run.first().map_or(fallback, |b| b.replica as usize);
                    let fresh = demand - run.len() as u32;
                    let fits = pool.free_blocks(replica) >= fresh;
                    let got = pool.alloc_prefixed(set, mappable, register_to, demand, fallback);
                    prop_assert_eq!(got.is_some(), fits, "fit of {} on {}", fresh, replica);
                    if let Some(got) = got {
                        prop_assert_eq!(got.replica, replica);
                        prop_assert_eq!(got.mapped as usize, run.len());
                        prop_assert_eq!(got.blocks.len() as u32, demand);
                        prop_assert_eq!(&got.blocks[..run.len()], &run[..]);
                        model.allocated(&got.blocks[run.len()..]);
                        for &b in &run {
                            model.map(b);
                        }
                        for c in got.mapped..register_to {
                            model.register(budget, set, c, got.blocks[c as usize]);
                        }
                        handles.extend(got.blocks);
                    }
                }
            }

            for s in 0..SETS {
                for c in 0..budget + 2 {
                    prop_assert_eq!(
                        pool.lookup_prefix(s, c),
                        model.content.get(&(s, c)).copied(),
                        "lookup({}, {})", s, c
                    );
                }
            }
            for replica in 0..replicas {
                for index in 0..budget {
                    let b = BlockId { replica, index };
                    prop_assert_eq!(
                        pool.is_registered(b),
                        model.registered.contains_key(&b),
                        "is_registered({:?})", b
                    );
                    prop_assert_eq!(
                        pool.refcount(b),
                        model.refs.get(&b).copied().unwrap_or(0),
                        "refcount({:?})", b
                    );
                }
            }
            let mut sets: Vec<u64> = model.content.keys().map(|k| k.0).collect();
            sets.dedup();
            prop_assert_eq!(pool.resident_sets(), sets.len(), "rows != resident sets");
            prop_assert_eq!(pool.used_blocks() as usize, model.refs.len());
            prop_assert_eq!(pool.shared_blocks() as usize, model.shared());
            let total = u64::from(replicas) * u64::from(budget);
            prop_assert_eq!(pool.stats(), model.stats(total));
        }

        for b in handles.drain(..) {
            pool.release([b]);
            model.release(b);
        }
        prop_assert_eq!(pool.used_blocks(), 0, "leak after full drain");
        prop_assert_eq!(pool.resident_sets(), 0, "the drained table still holds a set");
        prop_assert!(model.content.is_empty() && model.registered.is_empty());
        let stats = pool.stats();
        prop_assert_eq!(stats.allocs, stats.frees);
    }
}
