//! The paged block allocator: per-replica budgets, refcounted sharing,
//! and pool-wide stats.

use std::collections::hash_map::Entry;

use ic_stats::IdMap;

/// A physical KV block: `(replica, index)` within that replica's budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Owning replica.
    pub replica: u32,
    /// Block index within the replica's budget.
    pub index: u32,
}

/// One replica's KV memory: a fixed budget of blocks with a LIFO free
/// list (freed blocks are reused first, like vLLM's block allocator),
/// a per-block reference count for shared-prefix mappings, and strict
/// accounting.
///
/// A freshly allocated block has refcount 1 (its allocator holds the
/// only reference). Additional sequences mapping the block through the
/// pool's content table take extra references ([`KvBudget::incref`]);
/// [`KvBudget::free_block`] drops one reference and returns the block
/// to the free list only when the count reaches zero. With no sharing
/// in play every count is 1 and the budget behaves bit-for-bit like a
/// plain allocator.
///
/// A block also carries its **content tag** — the `(example-set id,
/// chunk index)` it hash-conses for [`BlockPool`]'s content table, if
/// any. The pool writes it at registration and clears it when the block
/// is physically freed or privatized; a block is never on the free list
/// with a tag.
#[derive(Debug, Clone)]
pub struct KvBudget {
    replica: u32,
    /// Free block indices, popped from the back (LIFO reuse).
    free_list: Vec<u32>,
    /// Allocation bit per block: guards against double frees.
    allocated: Vec<bool>,
    /// References held per block (`0` while free, `1` for a private
    /// block, `>= 2` while shared between sequences).
    refcount: Vec<u32>,
    /// Chunk index of each block's content tag, [`UNTAGGED`] for a
    /// block backing no table entry. (The tag is split in two arrays:
    /// 12 bytes a block.)
    tag_chunk: Vec<u32>,
    /// Example-set id of each block's content tag; meaningless where
    /// `tag_chunk` is [`UNTAGGED`].
    tag_set: Vec<u64>,
}

/// The `tag_chunk` of a block that backs no content-table entry. A
/// registered chunk index is below one replica's budget, itself a `u32`
/// count, so no registration can carry this value.
const UNTAGGED: u32 = u32::MAX;

impl KvBudget {
    /// A fresh budget of `budget_blocks` free blocks for `replica`.
    pub fn new(replica: u32, budget_blocks: u32) -> Self {
        Self {
            replica,
            // Reverse order so the first pop is block 0 (cosmetic, but
            // keeps allocation traces easy to read).
            free_list: (0..budget_blocks).rev().collect(),
            allocated: vec![false; budget_blocks as usize],
            refcount: vec![0; budget_blocks as usize],
            tag_chunk: vec![UNTAGGED; budget_blocks as usize],
            tag_set: vec![0; budget_blocks as usize],
        }
    }

    /// Total blocks in the budget.
    pub fn budget(&self) -> u32 {
        self.allocated.len() as u32
    }

    /// Blocks currently free.
    pub fn free(&self) -> u32 {
        self.free_list.len() as u32
    }

    /// Blocks currently allocated.
    pub fn used(&self) -> u32 {
        self.budget() - self.free()
    }

    /// Allocates `n` blocks (each at refcount 1), or `None` (and no
    /// change) if fewer are free. Freed blocks are reused LIFO.
    pub fn try_alloc(&mut self, n: u32) -> Option<Vec<BlockId>> {
        if self.free() < n {
            return None;
        }
        let mut out = Vec::with_capacity(n as usize);
        self.pop_into(n, &mut out);
        Some(out)
    }

    /// Pops `n` free blocks onto `out`; the caller checked they exist.
    fn pop_into(&mut self, n: u32, out: &mut Vec<BlockId>) {
        for _ in 0..n {
            let index = self.free_list.pop().expect("free count checked");
            debug_assert!(!self.allocated[index as usize], "free list corrupt");
            debug_assert!(
                self.tag_chunk[index as usize] == UNTAGGED,
                "block {index} left the free list tagged"
            );
            self.allocated[index as usize] = true;
            self.refcount[index as usize] = 1;
            out.push(BlockId {
                replica: self.replica,
                index,
            });
        }
    }

    /// Clears a block's content tag and returns what it was.
    fn take_tag(&mut self, block: BlockId) -> Option<(u64, u32)> {
        let chunk = std::mem::replace(&mut self.tag_chunk[block.index as usize], UNTAGGED);
        (chunk != UNTAGGED).then(|| (self.tag_set[block.index as usize], chunk))
    }

    /// Takes an extra reference on an allocated block (a shared-prefix
    /// mapping). Returns the new count.
    ///
    /// # Panics
    ///
    /// Panics when the block is free or foreign — mapping a block
    /// nobody holds is a sharing-layer bug.
    pub fn incref(&mut self, block: BlockId) -> u32 {
        assert_eq!(block.replica, self.replica, "incref on wrong replica");
        assert!(
            self.allocated[block.index as usize],
            "incref of free {block:?}"
        );
        self.refcount[block.index as usize] += 1;
        self.refcount[block.index as usize]
    }

    /// References currently held on a block (`0` while free).
    pub fn refcount(&self, block: BlockId) -> u32 {
        self.refcount[block.index as usize]
    }

    /// Drops one reference; at zero the block returns to the free list.
    /// Returns `true` when the block was physically freed.
    ///
    /// # Panics
    ///
    /// Panics on a double free (releasing a block already free) or a
    /// foreign block — both are allocator bugs the conservation tests
    /// must surface, never mask.
    pub fn free_block(&mut self, block: BlockId) -> bool {
        assert_eq!(block.replica, self.replica, "block freed to wrong replica");
        let slot = &mut self.allocated[block.index as usize];
        assert!(*slot, "double free of {block:?}");
        let rc = &mut self.refcount[block.index as usize];
        debug_assert!(*rc > 0, "allocated block with zero refcount");
        *rc -= 1;
        if *rc > 0 {
            return false;
        }
        *slot = false;
        self.free_list.push(block.index);
        true
    }
}

/// Pool-wide KV memory counters, merged across pools for reports. All
/// counters are exact and deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KvStats {
    /// Steps sampled (one per scheduler iteration).
    pub steps: u64,
    /// Sum over sampled steps of blocks in use.
    pub block_steps: u64,
    /// Sum over sampled steps of the block capacity (`steps x
    /// total_blocks` for a single pool; additive across pools).
    pub capacity_steps: u64,
    /// Peak blocks in use (summed across pools when merged, so the
    /// merged value is an upper bound on the true simultaneous peak).
    pub peak_blocks: u64,
    /// Total block capacity across replicas (additive across pools).
    pub total_blocks: u64,
    /// Blocks handed out by the allocator.
    pub allocs: u64,
    /// Blocks returned to the allocator.
    pub frees: u64,
    /// Sequences preempted by memory pressure (allocation failure), as
    /// opposed to slot-demand quantum preemption.
    pub pressure_preemptions: u64,
    /// Sequences swapped out (their blocks freed to the pool).
    pub swap_outs: u64,
    /// Sequences swapped back in (blocks re-allocated).
    pub swap_ins: u64,
    /// Sum over sampled steps of KV tokens materialized in allocated
    /// blocks (fragmentation numerator; see
    /// [`KvStats::fragmentation_ratio`]).
    pub used_token_steps: u64,
    /// Sum over sampled steps of token capacity of allocated blocks
    /// (`blocks x block_tokens`).
    pub alloc_token_steps: u64,
    /// Peak blocks parked in host (CPU) memory by swapped-out victims
    /// (summed across pools when merged).
    pub host_peak_blocks: u64,
    /// Victims evicted recompute-priced because host swap space was
    /// exhausted (see `KvSwap::host_capacity_blocks`).
    pub recompute_fallbacks: u64,
    /// Logical blocks served by mapping an existing shared-prefix block
    /// from the content table instead of allocating a fresh one — the
    /// dedup numerator (each map is one block of KV memory *not* spent).
    pub blocks_saved: u64,
    /// Peak simultaneous physical blocks shared between two or more
    /// sequences (refcount >= 2; summed across pools when merged, so the
    /// merged value is an upper bound on the true simultaneous peak).
    pub shared_blocks_peak: u64,
    /// Copy-on-write divergences: private replacement blocks allocated
    /// when a sequence wrote past its shared prefix into a block other
    /// sequences still read.
    pub cow_copies: u64,
}

impl KvStats {
    /// Mean fraction of the block budget in use over sampled steps.
    pub fn mean_occupancy(&self) -> f64 {
        if self.capacity_steps == 0 {
            0.0
        } else {
            self.block_steps as f64 / self.capacity_steps as f64
        }
    }

    /// Peak fraction of the block budget in use.
    pub fn peak_occupancy(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.peak_blocks as f64 / self.total_blocks as f64
        }
    }

    /// Mean internal fragmentation of allocated blocks: the fraction of
    /// allocated token capacity holding no KV entries (last-block slack
    /// plus admission-time prefill preallocation).
    pub fn fragmentation_ratio(&self) -> f64 {
        if self.alloc_token_steps == 0 {
            0.0
        } else {
            1.0 - (self.used_token_steps.min(self.alloc_token_steps) as f64
                / self.alloc_token_steps as f64)
        }
    }

    /// Fraction of logical block demand served by shared-prefix
    /// mappings instead of fresh allocations:
    /// `blocks_saved / (blocks_saved + allocs)`. `0` with sharing off
    /// (or when no prefix ever hit the content table).
    pub fn dedup_ratio(&self) -> f64 {
        let demand = self.blocks_saved + self.allocs;
        if demand == 0 {
            0.0
        } else {
            self.blocks_saved as f64 / demand as f64
        }
    }

    /// Accumulates another pool's counters into this one.
    pub fn merge(&mut self, other: &KvStats) {
        self.steps += other.steps;
        self.block_steps += other.block_steps;
        self.capacity_steps += other.capacity_steps;
        self.peak_blocks += other.peak_blocks;
        self.total_blocks += other.total_blocks;
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.pressure_preemptions += other.pressure_preemptions;
        self.swap_outs += other.swap_outs;
        self.swap_ins += other.swap_ins;
        self.used_token_steps += other.used_token_steps;
        self.alloc_token_steps += other.alloc_token_steps;
        self.host_peak_blocks += other.host_peak_blocks;
        self.recompute_fallbacks += other.recompute_fallbacks;
        self.blocks_saved += other.blocks_saved;
        self.shared_blocks_peak += other.shared_blocks_peak;
        self.cow_copies += other.cow_copies;
    }
}

/// What [`BlockPool::diverge`] did about a write into a shared-prefix
/// block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// The writer held the only reference: the block was unregistered
    /// from the content table and the sequence keeps writing in place
    /// (no copy, no allocation).
    InPlace,
    /// Other sequences still read the block: a private replacement was
    /// allocated (copy-on-write) and the writer's reference on the
    /// shared block released. The caller must point its logical block
    /// table at the returned block.
    Copied(BlockId),
}

/// One example set's row of the content table.
#[derive(Debug, Clone, Default)]
struct SetChunks {
    /// `blocks[chunk]` hash-conses that prefill chunk of the set; `None`
    /// where no such block is resident.
    blocks: Vec<Option<BlockId>>,
    /// Occupied slots of `blocks` — the row is dropped at zero.
    live: u32,
}

impl SetChunks {
    fn get(&self, chunk: u32) -> Option<BlockId> {
        self.blocks.get(chunk as usize).copied().flatten()
    }

    /// The resident run: how many of chunks `0..limit` are registered,
    /// consecutive from chunk 0 and on chunk 0's replica. (A set's
    /// blocks live on one replica — its first carrier allocated them
    /// together — so a block elsewhere is not mappable with the rest.)
    fn resident_run(&self, limit: u32) -> u32 {
        let Some(home) = self.get(0) else {
            return 0;
        };
        self.blocks
            .iter()
            .take(limit as usize)
            .take_while(|b| b.is_some_and(|b| b.replica == home.replica))
            .count() as u32
    }
}

/// What [`BlockPool::alloc_prefixed`] handed a sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixAlloc {
    /// Replica the blocks live on: the resident run's home, or the
    /// caller's fallback when nothing was resident.
    pub replica: usize,
    /// The sequence's logical block table: the mapped run first, then
    /// the freshly allocated remainder.
    pub blocks: Vec<BlockId>,
    /// Leading blocks of `blocks` that were mapped, not allocated.
    pub mapped: u32,
}

/// The pool-wide allocator: one [`KvBudget`] per replica plus counters,
/// the host-side (CPU) ledger swapped-out victims park blocks in, and
/// the hash-consing **content table** for shared prefill prefixes.
///
/// The content table maps `(example-set id, chunk index)` to the
/// physical block holding that chunk of the set's prefill KV state. It
/// is stored from both ends: one row per resident example set holding
/// its chunk → block vector, and a `(set, chunk)` tag on every
/// registered block (in its [`KvBudget`]), so a lookup is one hash of
/// the set id, and freeing or privatizing a block reads one tag and
/// touches a row only if the block was registered. The table holds **no
/// reference of its own**: entries live exactly as long as some
/// sequence holds the block, and are removed the instant the last
/// reference drops — a row with its last chunk — so the table can never
/// pin memory. The rows are never iterated, so their hash order decides
/// nothing.
#[derive(Debug, Clone)]
pub struct BlockPool {
    block_tokens: u32,
    replicas: Vec<KvBudget>,
    /// Host blocks available to swapped-out state; `0` is unbounded.
    host_capacity: u32,
    /// Host blocks currently parked by swapped-out sequences.
    host_used: u32,
    /// Example-set id -> the row of blocks hash-consing its chunks.
    /// Set ids are hashes the program computes, never outside input.
    sets: IdMap<u64, SetChunks>,
    /// Physical blocks currently shared (refcount >= 2); feeds
    /// `shared_blocks_peak`.
    shared_now: u32,
    stats: KvStats,
}

impl BlockPool {
    /// A pool of `replicas` budgets of `budget_blocks` blocks holding
    /// `block_tokens` tokens each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(replicas: u32, budget_blocks: u32, block_tokens: u32) -> Self {
        assert!(replicas > 0, "at least one replica");
        assert!(budget_blocks > 0, "at least one block per replica");
        assert!(block_tokens > 0, "blocks must hold at least one token");
        Self {
            block_tokens,
            replicas: (0..replicas)
                .map(|r| KvBudget::new(r, budget_blocks))
                .collect(),
            host_capacity: 0,
            host_used: 0,
            sets: IdMap::default(),
            shared_now: 0,
            stats: KvStats {
                total_blocks: u64::from(replicas) * u64::from(budget_blocks),
                ..KvStats::default()
            },
        }
    }

    /// Caps the host (CPU) blocks swapped-out victims may park
    /// (`KvSwap::host_capacity_blocks`); `0` is unbounded.
    pub fn with_host_capacity(mut self, blocks: u32) -> Self {
        self.host_capacity = blocks;
        self
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> u32 {
        self.block_tokens
    }

    /// Blocks per replica.
    pub fn budget_blocks(&self) -> u32 {
        self.replicas[0].budget()
    }

    /// Number of replicas.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Blocks needed to hold `tokens` KV entries, capped at one
    /// replica's budget: a sequence longer than the whole replica runs
    /// with the full budget and windows its tail into the last block
    /// (so over-long jobs degrade instead of deadlocking admission).
    pub fn blocks_for(&self, tokens: u64) -> u32 {
        let raw = tokens.div_ceil(u64::from(self.block_tokens));
        (raw.min(u64::from(self.budget_blocks())).max(1)) as u32
    }

    /// Blocks in use across all replicas.
    pub fn used_blocks(&self) -> u32 {
        self.replicas.iter().map(KvBudget::used).sum()
    }

    /// Blocks free on one replica.
    pub fn free_blocks(&self, replica: usize) -> u32 {
        self.replicas[replica].free()
    }

    /// Pool-wide occupancy fraction in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        f64::from(self.used_blocks()) / self.stats.total_blocks as f64
    }

    /// The replica with the most free blocks (lowest index on ties) —
    /// the deterministic placement rule for new sequences.
    pub fn least_loaded_replica(&self) -> usize {
        let mut best = 0usize;
        for (i, b) in self.replicas.iter().enumerate().skip(1) {
            if b.free() > self.replicas[best].free() {
                best = i;
            }
        }
        best
    }

    /// Allocates `n` blocks on `replica`, or `None` (and no change) if
    /// fewer are free.
    pub fn try_alloc(&mut self, replica: usize, n: u32) -> Option<Vec<BlockId>> {
        let blocks = self.replicas[replica].try_alloc(n)?;
        self.stats.allocs += u64::from(n);
        Some(blocks)
    }

    /// Releases one reference per block back to the owning replicas.
    ///
    /// Equivalent to [`BlockPool::release`] with the freed count
    /// discarded; with no sharing in play (every refcount 1) this is a
    /// plain free of every block.
    ///
    /// # Panics
    ///
    /// Panics on double frees (see [`KvBudget::free_block`]).
    pub fn free(&mut self, blocks: impl IntoIterator<Item = BlockId>) {
        self.release(blocks);
    }

    /// Releases one reference per block and returns how many blocks
    /// were **physically** freed (refcount reached zero). Blocks other
    /// sequences still reference stay resident; a freed block's content
    /// table entry (if any) is removed, so the table never outlives the
    /// memory it names.
    ///
    /// # Panics
    ///
    /// Panics on double frees (see [`KvBudget::free_block`]).
    pub fn release(&mut self, blocks: impl IntoIterator<Item = BlockId>) -> u32 {
        let mut freed = 0u32;
        for b in blocks {
            let budget = &mut self.replicas[b.replica as usize];
            if budget.refcount(b) == 2 {
                self.shared_now -= 1;
            }
            if budget.free_block(b) {
                if let Some((set, chunk)) = budget.take_tag(b) {
                    Self::vacate(&mut self.sets, set, chunk);
                }
                self.stats.frees += 1;
                freed += 1;
            }
        }
        freed
    }

    /// Empties the table slot a block's tag named, dropping the set's
    /// row with its last chunk.
    fn vacate(sets: &mut IdMap<u64, SetChunks>, set: u64, chunk: u32) {
        let Entry::Occupied(mut row) = sets.entry(set) else {
            unreachable!("a tagged block's set has a row");
        };
        let chunks = row.get_mut();
        debug_assert!(chunks.blocks[chunk as usize].is_some(), "tag without slot");
        chunks.blocks[chunk as usize] = None;
        chunks.live -= 1;
        if chunks.live == 0 {
            row.remove();
        }
    }

    /// References currently held on a block (`0` while free).
    pub fn refcount(&self, block: BlockId) -> u32 {
        self.replicas[block.replica as usize].refcount(block)
    }

    /// Whether a block backs a content-table entry.
    pub fn is_registered(&self, block: BlockId) -> bool {
        self.replicas[block.replica as usize].tag_chunk[block.index as usize] != UNTAGGED
    }

    /// Physical blocks currently shared between sequences (refcount
    /// >= 2).
    pub fn shared_blocks(&self) -> u32 {
        self.shared_now
    }

    /// Example sets with at least one chunk resident — the rows the
    /// content table holds. `0` whenever no registered block is live.
    pub fn resident_sets(&self) -> usize {
        self.sets.len()
    }

    /// The block hash-consing prefill chunk `chunk` of example set
    /// `set`, if one is resident.
    pub fn lookup_prefix(&self, set: u64, chunk: u32) -> Option<BlockId> {
        self.sets.get(&set)?.get(chunk)
    }

    /// Registers an allocated block as the hash-consed home of `(set,
    /// chunk)`. First writer wins: an existing entry for the key, or an
    /// existing key for the block, leaves the table unchanged (returns
    /// `false`). So does a chunk index at or past one replica's budget:
    /// a set's chunks live on one replica, so no such chunk can exist.
    /// The entry holds no reference — it dies with the block.
    ///
    /// # Panics
    ///
    /// Panics when the block is free: its tag would outlive it into the
    /// block's next owner.
    pub fn register_prefix(&mut self, set: u64, chunk: u32, block: BlockId) -> bool {
        let budget = &mut self.replicas[block.replica as usize];
        assert!(
            budget.allocated[block.index as usize],
            "registering free {block:?}"
        );
        if chunk >= budget.budget() || budget.tag_chunk[block.index as usize] != UNTAGGED {
            return false;
        }
        let row = self.sets.entry(set).or_default();
        if row.get(chunk).is_some() {
            // An existing row is never empty, so nothing was created.
            return false;
        }
        Self::install(row, budget, set, chunk, block);
        true
    }

    /// Writes one table entry from both ends: the row's slot (which the
    /// caller found vacant) and the block's tag (likewise).
    fn install(row: &mut SetChunks, budget: &mut KvBudget, set: u64, chunk: u32, block: BlockId) {
        if row.blocks.len() <= chunk as usize {
            row.blocks.resize(chunk as usize + 1, None);
        }
        row.blocks[chunk as usize] = Some(block);
        row.live += 1;
        budget.tag_chunk[block.index as usize] = chunk;
        budget.tag_set[block.index as usize] = set;
    }

    /// Maps a sequence onto an existing shared-prefix block: takes a
    /// reference and counts the block of KV memory saved.
    ///
    /// # Panics
    ///
    /// Panics when the block is free (a stale content-table read — the
    /// table drops entries at physical free, so this is unreachable
    /// through [`BlockPool::lookup_prefix`]).
    pub fn map_shared(&mut self, block: BlockId) {
        let rc = self.replicas[block.replica as usize].incref(block);
        self.stats.blocks_saved += 1;
        if rc == 2 {
            self.shared_now += 1;
            self.stats.shared_blocks_peak = self
                .stats
                .shared_blocks_peak
                .max(u64::from(self.shared_now));
        }
    }

    /// Allocates the `demand` blocks of a sequence whose prompt starts
    /// with example set `set`, resolving the carried prefix against the
    /// content table on one set lookup:
    ///
    /// - the **resident run** — the chunks of `0..mappable` that are
    ///   registered, consecutive from chunk 0 and on chunk 0's replica
    ///   — is mapped (a [`BlockPool::map_shared`] per block);
    /// - the other `demand - run` blocks are allocated on the run's
    ///   replica, `fallback_replica` when nothing was resident;
    /// - the chunks of `run..register_to` the table does not hold are
    ///   registered onto the fresh blocks at those positions (first
    ///   writer wins, as in [`BlockPool::register_prefix`]).
    ///
    /// The table, the free lists and the counters end exactly where
    /// that per-chunk sequence of `lookup_prefix` / `try_alloc` /
    /// `map_shared` / `register_prefix` calls leaves them. Returns
    /// `None` — with no state change — when the remainder does not fit.
    /// `mappable` and `register_to` are clamped to `demand`.
    pub fn alloc_prefixed(
        &mut self,
        set: u64,
        mappable: u32,
        register_to: u32,
        demand: u32,
        fallback_replica: usize,
    ) -> Option<PrefixAlloc> {
        let (mappable, register_to) = (mappable.min(demand), register_to.min(demand));
        let entry = self.sets.entry(set);
        let resident: &[Option<BlockId>] = match &entry {
            Entry::Occupied(row) => {
                let row = row.get();
                &row.blocks[..row.resident_run(mappable) as usize]
            }
            Entry::Vacant(_) => &[],
        };
        let run = resident.len() as u32;
        let replica = match resident.first() {
            Some(home) => home.expect("the run is resident").replica as usize,
            None => fallback_replica,
        };
        let budget = &mut self.replicas[replica];
        let fresh = demand - run;
        if budget.free() < fresh {
            return None;
        }
        let mut blocks = Vec::with_capacity(demand as usize);
        for block in resident.iter().flatten() {
            if budget.incref(*block) == 2 {
                self.shared_now += 1;
            }
            blocks.push(*block);
        }
        self.stats.blocks_saved += u64::from(run);
        self.stats.shared_blocks_peak = self
            .stats
            .shared_blocks_peak
            .max(u64::from(self.shared_now));
        budget.pop_into(fresh, &mut blocks);
        self.stats.allocs += u64::from(fresh);
        if register_to > run {
            // A block fresh off the free list carries no tag, so the
            // slot being vacant is all "first writer wins" asks.
            let row = entry.or_default();
            for chunk in run..register_to {
                if row.get(chunk).is_none() {
                    Self::install(row, budget, set, chunk, blocks[chunk as usize]);
                }
            }
        }
        Some(PrefixAlloc {
            replica,
            blocks,
            mapped: run,
        })
    }

    /// Resolves a write into a shared-prefix block (the writer's first
    /// token past the shared prefix, or a differing prefill chunk).
    ///
    /// - Sole holder: the block is unregistered from the content table
    ///   and kept — writing proceeds in place
    ///   ([`Divergence::InPlace`]; no copy is charged).
    /// - Shared: a private replacement is allocated on the same
    ///   replica, the writer's reference released, and the copy counted
    ///   ([`Divergence::Copied`]). Other readers keep the original and
    ///   the table keeps pointing at it.
    ///
    /// Returns `None` — with no state change — when a copy is needed
    /// but the replica has no free block; the caller retries after its
    /// next pressure round (the victim loop accounts copy-on-write
    /// demand, so this is reachable only transiently).
    pub fn diverge(&mut self, block: BlockId) -> Option<Divergence> {
        let replica = block.replica as usize;
        if self.replicas[replica].refcount(block) <= 1 {
            if let Some((set, chunk)) = self.replicas[replica].take_tag(block) {
                Self::vacate(&mut self.sets, set, chunk);
            }
            return Some(Divergence::InPlace);
        }
        let fresh = self.try_alloc(replica, 1)?[0];
        self.stats.cow_copies += 1;
        self.release(std::iter::once(block));
        Some(Divergence::Copied(fresh))
    }

    /// Records one scheduler step for the occupancy / fragmentation
    /// aggregates: `used_tokens` is the KV entries materialized across
    /// all live sequences (clamped to allocated capacity).
    pub fn note_step(&mut self, used_tokens: u64) {
        self.note_steps(used_tokens, 0, 1);
    }

    /// Records `steps` consecutive scheduler steps over an unchanged
    /// allocation, the `k`-th of which (`k = 0, 1, …`) has
    /// `used_tokens + k * tokens_per_step` KV entries materialized —
    /// exactly `steps` calls of [`BlockPool::note_step`], summed in
    /// closed form (every aggregate is an integer, so the sum is exact).
    pub fn note_steps(&mut self, used_tokens: u64, tokens_per_step: u64, steps: u64) {
        let used = u64::from(self.used_blocks());
        self.stats.steps += steps;
        self.stats.block_steps += used * steps;
        self.stats.capacity_steps += self.stats.total_blocks * steps;
        if steps > 0 {
            self.stats.peak_blocks = self.stats.peak_blocks.max(used);
        }
        let cap_tokens = used * u64::from(self.block_tokens);
        self.stats.alloc_token_steps += cap_tokens * steps;
        // Steps whose materialized tokens still fit the allocated
        // capacity count their own tokens; the rest clamp to it.
        let under = if used_tokens > cap_tokens {
            0
        } else {
            (cap_tokens - used_tokens)
                .checked_div(tokens_per_step)
                .map_or(steps, |k| steps.min(k + 1))
        };
        self.stats.used_token_steps += under * used_tokens
            + tokens_per_step * (under * under.saturating_sub(1) / 2)
            + (steps - under) * cap_tokens;
    }

    /// Host-capacity cap (`0` = unbounded).
    pub fn host_capacity_blocks(&self) -> u32 {
        self.host_capacity
    }

    /// Host blocks currently parked by swapped-out sequences.
    pub fn host_used_blocks(&self) -> u32 {
        self.host_used
    }

    /// Tries to park `n` swapped-out blocks in host memory: succeeds
    /// (and holds the space until [`BlockPool::host_unpark`]) when the
    /// capacity is unbounded or `host_used + n` fits; otherwise leaves
    /// the ledger untouched and returns `false` — the caller falls back
    /// to recompute-priced eviction and should record it via
    /// [`BlockPool::note_recompute_fallback`].
    pub fn try_host_park(&mut self, n: u32) -> bool {
        if self.host_capacity != 0 && self.host_used + n > self.host_capacity {
            return false;
        }
        self.host_used += n;
        self.stats.host_peak_blocks = self.stats.host_peak_blocks.max(u64::from(self.host_used));
        true
    }

    /// Releases `n` parked host blocks (at swap-in, or when a swapped
    /// sequence is dropped).
    ///
    /// # Panics
    ///
    /// Panics when more blocks are released than are parked — a ledger
    /// bug the conservation tests must surface, never mask.
    pub fn host_unpark(&mut self, n: u32) {
        assert!(
            n <= self.host_used,
            "host ledger underflow: unpark {n} of {}",
            self.host_used
        );
        self.host_used -= n;
    }

    /// Records a victim evicted recompute-priced because host swap
    /// space was exhausted.
    pub fn note_recompute_fallback(&mut self) {
        self.stats.recompute_fallbacks += 1;
    }

    /// Records a pressure preemption + swap-out of a sequence.
    pub fn note_pressure_swap_out(&mut self) {
        self.stats.pressure_preemptions += 1;
        self.stats.swap_outs += 1;
    }

    /// Records a swap-out that was not caused by memory pressure (e.g.
    /// a slot-demand quantum preemption releasing its blocks).
    pub fn note_swap_out(&mut self) {
        self.stats.swap_outs += 1;
    }

    /// Records a swap-in (resume) of a sequence.
    pub fn note_swap_in(&mut self) {
        self.stats.swap_ins += 1;
    }

    /// The accumulated counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_steps_sums_note_step_exactly() {
        for (allocated, first, growth, steps) in [
            (3u32, 10u64, 2u64, 7u64), // crosses the 48-token capacity mid-run
            (3, 60, 2, 4),             // clamped from the first step
            (3, 0, 0, 5),              // no growth
            (3, 40, 4, 3),             // lands exactly on the capacity
            (2, 5, 3, 0),              // an empty run changes nothing
            (8, 1, 1, 300),            // a long run crossing the capacity late
        ] {
            let mut bulk = BlockPool::new(1, 16, 16);
            let _held = bulk.try_alloc(0, allocated).unwrap();
            let mut single = bulk.clone();
            bulk.note_steps(first, growth, steps);
            for k in 0..steps {
                single.note_step(first + k * growth);
            }
            assert_eq!(
                bulk.stats(),
                single.stats(),
                "{allocated} {first} {growth} {steps}"
            );
        }
    }

    #[test]
    fn alloc_free_roundtrip_accounts_exactly() {
        let mut pool = BlockPool::new(2, 4, 16);
        assert_eq!(pool.stats().total_blocks, 8);
        let a = pool.try_alloc(0, 3).unwrap();
        assert_eq!(pool.used_blocks(), 3);
        assert_eq!(pool.free_blocks(0), 1);
        assert_eq!(pool.free_blocks(1), 4);
        pool.free(a);
        assert_eq!(pool.used_blocks(), 0);
        let s = pool.stats();
        assert_eq!(s.allocs, 3);
        assert_eq!(s.frees, 3);
    }

    #[test]
    fn alloc_fails_without_side_effects() {
        let mut pool = BlockPool::new(1, 2, 16);
        assert!(pool.try_alloc(0, 3).is_none());
        assert_eq!(pool.used_blocks(), 0);
        assert_eq!(pool.stats().allocs, 0);
        let a = pool.try_alloc(0, 2).unwrap();
        assert!(pool.try_alloc(0, 1).is_none());
        pool.free(a);
    }

    #[test]
    fn free_list_is_reused_lifo() {
        let mut pool = BlockPool::new(1, 4, 16);
        let a = pool.try_alloc(0, 2).unwrap();
        pool.free(a.clone());
        // The most recently freed block comes back first.
        let b = pool.try_alloc(0, 1).unwrap();
        assert_eq!(b[0], a[1], "LIFO: the last block freed is first out");
        let c = pool.try_alloc(0, 1).unwrap();
        assert_eq!(c[0], a[0]);
        pool.free(b);
        pool.free(c);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pool = BlockPool::new(1, 2, 16);
        let a = pool.try_alloc(0, 1).unwrap();
        pool.free(a.clone());
        pool.free(a);
    }

    #[test]
    fn blocks_for_rounds_up_and_caps_at_budget() {
        let pool = BlockPool::new(1, 8, 16);
        assert_eq!(pool.blocks_for(0), 1, "at least one block");
        assert_eq!(pool.blocks_for(16), 1);
        assert_eq!(pool.blocks_for(17), 2);
        assert_eq!(pool.blocks_for(10_000), 8, "capped at the budget");
    }

    #[test]
    fn placement_prefers_the_emptiest_replica() {
        let mut pool = BlockPool::new(3, 4, 16);
        assert_eq!(pool.least_loaded_replica(), 0, "lowest index on ties");
        let a = pool.try_alloc(0, 2).unwrap();
        let b = pool.try_alloc(1, 1).unwrap();
        assert_eq!(pool.least_loaded_replica(), 2);
        pool.free(a);
        pool.free(b);
    }

    #[test]
    fn step_sampling_tracks_occupancy_and_fragmentation() {
        let mut pool = BlockPool::new(1, 4, 16);
        let a = pool.try_alloc(0, 2).unwrap();
        pool.note_step(24); // 24 of 32 allocated tokens materialized.
        let s = pool.stats();
        assert_eq!(s.peak_blocks, 2);
        assert!((s.mean_occupancy() - 0.5).abs() < 1e-12);
        assert!((s.peak_occupancy() - 0.5).abs() < 1e-12);
        assert!((s.fragmentation_ratio() - 0.25).abs() < 1e-12);
        pool.free(a);
        pool.note_step(0);
        assert!((pool.stats().mean_occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = KvStats {
            steps: 2,
            block_steps: 4,
            capacity_steps: 8,
            peak_blocks: 3,
            total_blocks: 4,
            allocs: 5,
            frees: 5,
            pressure_preemptions: 1,
            swap_outs: 1,
            swap_ins: 1,
            used_token_steps: 30,
            alloc_token_steps: 64,
            host_peak_blocks: 5,
            recompute_fallbacks: 2,
            blocks_saved: 3,
            shared_blocks_peak: 2,
            cow_copies: 1,
        };
        a.merge(&a.clone());
        assert_eq!(a.steps, 4);
        assert_eq!(a.peak_blocks, 6);
        assert_eq!(a.total_blocks, 8);
        assert_eq!(a.swap_outs, 2);
        assert_eq!(a.host_peak_blocks, 10);
        assert_eq!(a.recompute_fallbacks, 4);
        assert_eq!(a.blocks_saved, 6);
        assert_eq!(a.shared_blocks_peak, 4);
        assert_eq!(a.cow_copies, 2);
        assert!((a.fragmentation_ratio() - (1.0 - 60.0 / 128.0)).abs() < 1e-12);
        assert!((a.dedup_ratio() - 6.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn host_ledger_enforces_capacity_at_the_boundary() {
        let mut pool = BlockPool::new(1, 8, 16).with_host_capacity(5);
        assert_eq!(pool.host_capacity_blocks(), 5);
        assert!(pool.try_host_park(3));
        assert!(pool.try_host_park(2), "exactly full is legal");
        assert_eq!(pool.host_used_blocks(), 5);
        assert!(!pool.try_host_park(1), "one past the cap is refused");
        assert_eq!(pool.host_used_blocks(), 5, "refusal leaves no residue");
        pool.note_recompute_fallback();
        pool.host_unpark(2);
        assert!(pool.try_host_park(2));
        pool.host_unpark(5);
        assert_eq!(pool.host_used_blocks(), 0);
        let s = pool.stats();
        assert_eq!(s.host_peak_blocks, 5);
        assert_eq!(s.recompute_fallbacks, 1);
    }

    #[test]
    fn unbounded_host_ledger_always_parks() {
        let mut pool = BlockPool::new(1, 2, 16);
        assert_eq!(pool.host_capacity_blocks(), 0);
        assert!(pool.try_host_park(10_000));
        assert_eq!(pool.host_used_blocks(), 10_000);
        assert_eq!(pool.stats().host_peak_blocks, 10_000);
        pool.host_unpark(10_000);
    }

    #[test]
    #[should_panic(expected = "host ledger underflow")]
    fn host_unpark_underflow_panics() {
        let mut pool = BlockPool::new(1, 2, 16);
        assert!(pool.try_host_park(1));
        pool.host_unpark(2);
    }

    #[test]
    fn empty_stats_are_neutral() {
        let s = KvStats::default();
        assert_eq!(s.mean_occupancy(), 0.0);
        assert_eq!(s.peak_occupancy(), 0.0);
        assert_eq!(s.fragmentation_ratio(), 0.0);
        assert_eq!(s.dedup_ratio(), 0.0);
    }

    #[test]
    fn shared_mapping_saves_blocks_and_conserves_refs() {
        let mut pool = BlockPool::new(1, 8, 16);
        // Owner allocates a 3-block prefix and registers it for set 7.
        let owner = pool.try_alloc(0, 3).unwrap();
        for (c, &b) in owner.iter().enumerate() {
            assert!(pool.register_prefix(7, c as u32, b));
        }
        assert!(!pool.register_prefix(7, 0, owner[1]), "first writer wins");
        // A sharer maps the prefix instead of allocating.
        let mapped: Vec<BlockId> = (0..3)
            .map(|c| pool.lookup_prefix(7, c).expect("registered"))
            .collect();
        assert_eq!(mapped, owner);
        for &b in &mapped {
            pool.map_shared(b);
            assert_eq!(pool.refcount(b), 2);
        }
        assert_eq!(pool.used_blocks(), 3, "mapping allocates nothing");
        assert_eq!(pool.shared_blocks(), 3);
        let s = pool.stats();
        assert_eq!(s.blocks_saved, 3);
        assert_eq!(s.shared_blocks_peak, 3);
        assert!(
            (s.dedup_ratio() - 0.5).abs() < 1e-12,
            "3 saved of 6 logical"
        );
        // The sharer leaves: blocks stay resident for the owner.
        assert_eq!(pool.release(mapped), 0);
        assert_eq!(pool.used_blocks(), 3);
        assert_eq!(pool.shared_blocks(), 0);
        // The owner leaves: blocks free and table entries die with them.
        assert_eq!(pool.release(owner), 3);
        assert_eq!(pool.used_blocks(), 0);
        assert_eq!(pool.lookup_prefix(7, 0), None, "entry died with block");
        assert_eq!(pool.stats().frees, 3, "frees count physical frees only");
    }

    #[test]
    fn diverge_copies_when_shared_and_privatizes_when_sole() {
        let mut pool = BlockPool::new(1, 8, 16);
        let owner = pool.try_alloc(0, 1).unwrap();
        assert!(pool.register_prefix(3, 0, owner[0]));
        pool.map_shared(owner[0]);
        // Shared: the writer gets a private copy; readers keep the
        // original and the table entry survives.
        let d = pool.diverge(owner[0]).expect("a block is free");
        let Divergence::Copied(fresh) = d else {
            panic!("shared block must copy, got {d:?}");
        };
        assert_ne!(fresh, owner[0]);
        assert_eq!(pool.refcount(owner[0]), 1, "writer's ref released");
        assert_eq!(pool.lookup_prefix(3, 0), Some(owner[0]));
        assert_eq!(pool.stats().cow_copies, 1);
        // Sole holder: divergence just unregisters, in place.
        assert_eq!(pool.diverge(owner[0]), Some(Divergence::InPlace));
        assert_eq!(pool.lookup_prefix(3, 0), None);
        assert_eq!(pool.stats().cow_copies, 1, "no copy charged in place");
        pool.free([owner[0], fresh]);
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "registering free")]
    fn registering_a_free_block_panics() {
        let mut pool = BlockPool::new(1, 2, 16);
        let b = pool.try_alloc(0, 1).unwrap()[0];
        pool.free([b]);
        pool.register_prefix(1, 0, b);
    }

    #[test]
    fn chunk_at_or_past_the_budget_is_not_registered() {
        let mut pool = BlockPool::new(2, 4, 16);
        let b = pool.try_alloc(1, 1).unwrap()[0];
        for chunk in [4, 5, u32::MAX] {
            assert!(!pool.register_prefix(1, chunk, b), "chunk {chunk}");
            assert_eq!(pool.lookup_prefix(1, chunk), None);
        }
        assert!(!pool.is_registered(b));
        assert_eq!(pool.resident_sets(), 0, "a refusal leaves no row");
        assert!(pool.register_prefix(1, 3, b), "the last chunk in range");
        assert_eq!(pool.lookup_prefix(1, 3), Some(b));
        pool.free([b]);
        assert_eq!(pool.resident_sets(), 0);
    }

    #[test]
    fn alloc_prefixed_maps_the_run_and_registers_the_rest() {
        let mut pool = BlockPool::new(2, 8, 16);
        // Nothing resident: all four blocks are fresh, on the fallback
        // replica, and chunks 0..3 are registered onto the first three.
        let a = pool.alloc_prefixed(7, 3, 3, 4, 1).expect("fits");
        assert_eq!((a.replica, a.mapped, a.blocks.len()), (1, 0, 4));
        for c in 0..3 {
            assert_eq!(pool.lookup_prefix(7, c), Some(a.blocks[c as usize]));
        }
        assert!(!pool.is_registered(a.blocks[3]));
        // Chunk 1 is privatized: a follower maps chunk 0 only, lands on
        // the set's replica whatever its fallback, re-registers chunk 1
        // with its own block and leaves chunk 2 to its first writer.
        assert_eq!(pool.diverge(a.blocks[1]), Some(Divergence::InPlace));
        let b = pool.alloc_prefixed(7, 3, 3, 4, 0).expect("fits");
        assert_eq!((b.replica, b.mapped), (1, 1));
        assert_eq!(b.blocks[0], a.blocks[0]);
        assert_eq!(pool.lookup_prefix(7, 1), Some(b.blocks[1]));
        assert_eq!(pool.lookup_prefix(7, 2), Some(a.blocks[2]));
        assert!(!pool.is_registered(b.blocks[2]));
        assert_eq!(pool.stats().blocks_saved, 1);
        assert_eq!(pool.shared_blocks(), 1);
        // One block is free on replica 1: a third carrier needing two
        // past the resident run does not fit, and leaves nothing behind.
        let before = (pool.stats(), pool.used_blocks(), pool.refcount(a.blocks[0]));
        assert!(pool.alloc_prefixed(7, 3, 3, 5, 0).is_none());
        assert!(pool.alloc_prefixed(9, 2, 2, 2, 1).is_none());
        assert_eq!(
            (pool.stats(), pool.used_blocks(), pool.refcount(a.blocks[0])),
            before
        );
        assert_eq!(pool.resident_sets(), 1, "a refusal leaves no row");
        pool.free(a.blocks);
        pool.free(b.blocks);
        assert_eq!((pool.used_blocks(), pool.resident_sets()), (0, 0));
    }

    #[test]
    fn diverge_without_free_blocks_is_deferred() {
        let mut pool = BlockPool::new(1, 1, 16);
        let b = pool.try_alloc(0, 1).unwrap()[0];
        assert!(pool.register_prefix(9, 0, b));
        pool.map_shared(b);
        assert_eq!(pool.diverge(b), None, "no free block for the copy");
        assert_eq!(pool.refcount(b), 2, "deferral leaves no residue");
        pool.free([b, b]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn over_release_of_shared_block_panics() {
        let mut pool = BlockPool::new(1, 2, 16);
        let b = pool.try_alloc(0, 1).unwrap()[0];
        pool.map_shared(b);
        pool.free([b, b]); // two refs, two releases: fine
        pool.free([b]); // third release: double free
    }
}
