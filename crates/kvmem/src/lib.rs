//! Paged KV-cache memory model for the serving simulator.
//!
//! Slot count is not the real capacity constraint of an LLM serving
//! replica — KV-cache memory is. vLLM's PagedAttention made this the
//! organizing principle of modern engines: a sequence's KV cache is
//! stored in fixed-size **blocks** drawn from a bounded per-replica
//! pool, sequences grow block by block as they prefill and decode, and
//! the scheduler preempts (swaps out) running sequences when a step's
//! token growth cannot be served from free blocks. This crate models
//! exactly that layer, deterministically, for `ic-serving`'s
//! iteration-level scheduler:
//!
//! - [`KvBudget`] — one replica's block pool: a LIFO free list over
//!   `budget_blocks` physical blocks with strict alloc/free accounting
//!   (double frees panic, leaks are visible as non-zero `used()`).
//! - [`BlockPool`] — the pool-wide view: one [`KvBudget`] per replica,
//!   block-granular [`KvStats`] (peak/mean occupancy, fragmentation,
//!   swap counts), and placement (least-loaded replica first).
//! - [`PressurePolicy`] — high/low watermarks plus a configurable
//!   swap-vs-recompute cost model ([`SwapModel`], wrapped with host
//!   capacity in [`KvSwap`]): the high watermark gates new admissions,
//!   allocation failure triggers victim preemption (longest remaining
//!   decode first, chosen by the caller), and swapped sequences resume
//!   only once occupancy drains below the low watermark. The policy
//!   prices swap-out and resume penalties in simulated seconds so the
//!   scheduler can charge them to the step clock. Swapped-out blocks
//!   occupy a host-side (CPU) ledger capped by
//!   `KvSwap::host_capacity_blocks`; victims that overflow it are
//!   evicted recompute-priced instead (vLLM's bounded `swap_space`).
//!
//! # Shared-prefix reuse
//!
//! On top of the private allocator sits an opt-in sharing layer
//! (`docs/kv-sharing.md` holds the full contract). Its pieces:
//!
//! - **Refcounted physical blocks.** [`KvBudget`] tracks a reference
//!   count per block — `1` private, `>= 2` shared. `KvBudget::incref`
//!   adds a reference; `KvBudget::free_block` drops one and returns
//!   the block to the free list only at zero (and still panics on a
//!   free past zero). With every count at 1 the budget behaves
//!   bit-for-bit like the plain allocator, which is what keeps the
//!   share-off engine byte-identical to the pre-sharing golden.
//! - **A hash-consed content table.** [`BlockPool`] maps
//!   `(example-set id, prefill chunk index)` to the [`BlockId`]
//!   holding that chunk's KV. `BlockPool::register_prefix` installs a
//!   pristine prefill block (first writer wins),
//!   `BlockPool::lookup_prefix` finds a still-resident chunk, and
//!   `BlockPool::map_shared` takes a reference on it (counted in
//!   [`KvStats::blocks_saved`]). Entries hold **no reference of their
//!   own**: they die when the block is physically freed, so the table
//!   never pins memory and sharing happens only between sequences that
//!   are resident at the same time. The table is stored from both
//!   ends: a `(set, chunk)` tag per block, in two dense arrays of its
//!   [`KvBudget`], and one row per resident example set — its chunk →
//!   block vector and a live count, in an [`ic_stats::IdMap`] keyed by
//!   the set id, dropped with the set's last chunk. Freeing or
//!   privatizing a block reads one tag and touches a row only if the
//!   block was registered; `BlockPool::alloc_prefixed` resolves a
//!   whole carried prefix — the resident run to map, the remainder to
//!   allocate, the missing chunks to register — on one row lookup.
//!   A registration must name live memory: `register_prefix` panics on
//!   a free block and refuses a chunk index past a replica's budget.
//! - **Copy-on-write divergence.** The first write past the shared
//!   prefix goes through `BlockPool::diverge`, which returns a
//!   [`Divergence`]: `InPlace` for a sole holder (the block is simply
//!   unregistered), `Copied(fresh)` for a shared block (a private
//!   replacement is allocated and the writer's reference moves to it,
//!   counted in [`KvStats::cow_copies`]), or `None` when the replica
//!   has no free block for the copy — the caller defers and retries
//!   after the next pressure round.
//!
//! The sharing verbs preserve the conservation law the private
//! allocator already had — `allocs == frees` at drain, refcount equals
//! the number of holders at every step — which
//! `crates/kvmem/tests/conservation.rs` checks by property test over
//! arbitrary interleavings of alloc/share/diverge/release.
//! `crates/kvmem/tests/content_table_oracle.rs` holds the table itself
//! to a naive model — the two ordered maps it used to be — after every
//! operation of such interleavings over multi-chunk sets.
//!
//! The crate is purely arithmetical (its one dependency is `ic-stats`,
//! for the id-hashed map; the table's rows are never iterated): every
//! operation is deterministic, so the serving layer's byte-identical
//! replay guarantees extend to memory pressure events.
//!
//! # Example
//!
//! ```
//! use ic_kvmem::{BlockPool, PressurePolicy, Watermarks};
//!
//! // 2 replicas x 8 blocks of 16 tokens.
//! let mut pool = BlockPool::new(2, 8, 16);
//! let replica = pool.least_loaded_replica();
//! let blocks = pool.try_alloc(replica, pool.blocks_for(40)).unwrap();
//! assert_eq!(blocks.len(), 3); // ceil(40 / 16)
//! assert_eq!(pool.used_blocks(), 3);
//!
//! let policy = PressurePolicy::new(Watermarks::new(0.9, 0.7));
//! assert!(!policy.under_pressure(pool.occupancy()));
//! pool.free(blocks);
//! assert_eq!(pool.used_blocks(), 0);
//! ```

pub mod block;
pub mod pressure;

pub use block::{BlockId, BlockPool, Divergence, KvBudget, KvStats, PrefixAlloc};
pub use pressure::{KvSwap, PressurePolicy, SwapModel, Watermarks};
