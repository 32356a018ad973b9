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
//! - [`PressurePolicy`] — high/low watermarks plus per-block swap
//!   prices and a host capacity ([`KvSwap`]): the high watermark gates
//!   new admissions, allocation failure triggers victim preemption
//!   (longest remaining decode first, chosen by the caller), and
//!   swapped sequences resume only once occupancy drains below the low
//!   watermark. The policy
//!   prices swap-out and resume penalties in simulated seconds so the
//!   scheduler can charge them to the step clock. Swapped-out blocks
//!   occupy a host-side (CPU) ledger capped by
//!   `KvSwap::host_capacity_blocks`; victims that overflow it are
//!   evicted recompute-priced instead (vLLM's bounded `swap_space`).
//!
//! # Shared-prefix verbs
//!
//! The serving pools allocate privately: no natural trace holds two
//! requests with one example set resident at once
//! (`docs/paper-claims.md`, "No shared-prefix KV"). The per-chunk
//! sharing verbs stay in this crate only because the benchmark's
//! `kvmem.share` span calls them directly:
//!
//! - **Refcounted physical blocks.** [`KvBudget`] tracks a reference
//!   count per block — `1` private, `>= 2` shared. `KvBudget::incref`
//!   adds a reference; `KvBudget::free_block` drops one and returns
//!   the block to the free list only at zero (and still panics on a
//!   free past zero). With every count at 1, as in the pools, the
//!   budget is a plain allocator.
//! - **A content table.** [`BlockPool`] maps `(example-set id, chunk
//!   index)` to a [`BlockId`]: `BlockPool::register_prefix` installs a
//!   block (first writer wins; it panics on a free block and refuses a
//!   chunk index past a replica's budget), `BlockPool::lookup_prefix`
//!   finds a resident chunk, and `BlockPool::map_shared` takes a
//!   reference on it (counted in [`KvStats::blocks_saved`]). Entries
//!   hold no reference of their own and die when the block is
//!   physically freed. The table is a `(set, chunk)` tag per block plus
//!   one row per resident set in an [`ic_stats::IdMap`].
//! - **Copy-on-write.** `BlockPool::diverge` returns a [`Divergence`]:
//!   `InPlace` for a sole holder (the block is unregistered),
//!   `Copied(fresh)` for a shared block (counted in
//!   [`KvStats::cow_copies`]), or `None` when the replica has no free
//!   block for the copy.
//!
//! `crates/kvmem/tests/conservation.rs` checks by property test that
//! these verbs conserve blocks and refcounts over arbitrary
//! interleavings, and `crates/kvmem/tests/content_table_oracle.rs`
//! holds the table to a naive two-map model after every operation.
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

pub use block::{BlockId, BlockPool, Divergence, KvBudget, KvStats};
pub use pressure::{KvSwap, PressurePolicy, Watermarks};
