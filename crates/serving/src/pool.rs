//! A model pool: replicas, slots, queue, and the iteration-level
//! (token-step) continuous-batching scheduler.
//!
//! # The token-step state machine
//!
//! Earlier versions of this pool modelled continuous batching by
//! stretching a job's whole decode time with a single occupancy factor
//! frozen at admission. That collapses everything that happens *inside*
//! a batch — chunked prefill, per-token preemption, jobs joining a
//! running batch — into one number. The pool now executes jobs at
//! iteration (token-step) granularity, the scheduling lever Orca and
//! vLLM identify as decisive for serving throughput:
//!
//! ```text
//!            offer()                advance_step()
//!   arrival ───────► Queued ─────────► Running ──────► Finished
//!                      ▲    admission     │  last token
//!                      │  (step boundary) │
//!                      └──────────────────┘
//!                         preemption (decode_run >= quantum
//!                          while jobs wait behind)
//! ```
//!
//! A **Running** sequence holds its remaining prefill tokens and
//! remaining decode tokens. Each iteration, every running sequence
//! advances by one unit of work:
//!
//! - sequences still in prefill process up to
//!   [`PoolConfig::prefill_chunk_tokens`] prompt tokens (chunked
//!   prefill — chunks interleave with ongoing decode steps of the other
//!   batch members);
//! - sequences in decode emit exactly one token, stretched by the
//!   batching-contention factor `1 + congestion_beta * occupancy`.
//!
//! The iteration's wall-clock duration is the *maximum* over the batch
//! members' per-iteration costs (the batch runs in lockstep; the widest
//! work item paces the step). Zero-load seconds are spread uniformly over
//! each phase's tokens, so a job running alone completes in exactly
//! `ttft_secs + decode_secs * (1 + beta / total_slots)` — the same value
//! the legacy occupancy-stretch estimate [`ModelPool::service_secs`]
//! predicts, which keeps the two models interchangeable at zero load
//! (property-tested in `tests/properties.rs`).
//!
//! **Admission happens only at step boundaries** ([`ModelPool::offer`]
//! starts a job immediately only when the pool is idle; otherwise the job
//! waits for the in-flight iteration to finish), and **preemption is
//! per-token**: a sequence that has decoded
//! [`PoolConfig::preempt_decode_quantum`] consecutive tokens while more
//! jobs wait than slots just freed yields its slot at the token boundary
//! and re-queues with its progress intact (no tokens are lost or
//! recomputed; resume continues from the same remaining counts).
//!
//! # Paged KV memory
//!
//! Slots bound concurrency, but the true capacity constraint of a
//! replica is KV-cache memory. Every pool runs an `ic_kvmem::BlockPool`
//! of [`PoolConfig::kv_budget_blocks`] blocks per replica beside the
//! slot machine (vLLM's PagedAttention discipline):
//!
//! - **Admission** is one first-come-first-served loop over two lists
//!   (`fill_slots`, run at every step boundary and by an idle
//!   [`ModelPool::offer`]): the swapped front while any sequence is
//!   swapped, the queue front otherwise. A candidate allocates its
//!   *projected block demand* (`ceil(prefill_tokens / kv_block_tokens)`,
//!   or its materialized tokens when more, capped at one replica budget)
//!   on the replica with the most free blocks. A queued candidate waits
//!   while occupancy is at the high watermark, a swapped one until
//!   occupancy drains below the low watermark, and either while its
//!   demand does not fit — *even when slots are free*. The first refusal
//!   ends the loop, so fresh work never overtakes a swapped victim
//!   (vLLM admits nothing while its swapped queue is non-empty).
//! - **Growth**: each iteration a sequence's KV footprint grows by its
//!   prefill chunk or by one decode token. Before the step's work is
//!   accounted, the pool ensures every survivor's growth can be served
//!   from free blocks; when it cannot, the [`PressurePolicy`] preempts
//!   victims — **longest remaining decode first** — swapping their
//!   blocks out (freed to the pool) and parking them on a swapped
//!   queue. Swap-out and swap-in penalties are priced per block by the
//!   configured [`KvSwap`] and charged to the next step's wall
//!   clock. Swapped-out blocks occupy a bounded host-side (CPU)
//!   ledger (`KvSwap::host_capacity_blocks`, vLLM's `swap_space`);
//!   a victim that does not fit is evicted recompute-priced instead —
//!   free at the boundary, with its KV state rebuilt at the overflow
//!   recompute rate when it resumes.
//! - **Resume**: every sequence enters a slot through one placement
//!   (`place`); one coming back from the swapped list, or from the
//!   queue with KV state already materialized (a quantum victim), pays
//!   the resume penalty there. When the batch is empty the loop places a
//!   refused candidate anyway and stops after it, so tiny budgets
//!   degrade instead of deadlocking (no live sequence holds a block
//!   then, so the capped demand always fits).
//! - A sequence longer than a whole replica budget runs with the full
//!   budget and windows its tail into the last block, so a budget
//!   smaller than one prefill chunk still makes progress.
//!
//! Block-level accounting (peak/mean occupancy, pressure preemptions,
//! swap counts, internal fragmentation) is surfaced via
//! [`ModelPool::kv_stats`].
//!
//! A driver keeps one pending step boundary per busy pool: the
//! [`crate::ClusterSim`] loop as a `StepComplete` event on the
//! `ic_desim` kernel, `ic-engine` as the pool's armed slot in its event
//! loop. [`ModelPool::step_secs`] prices the next iteration, and
//! [`ModelPool::advance_step`] executes it, returning finished sequences
//! and performing boundary admission/preemption. Per-iteration counters
//! are aggregated in [`IterStats`].
//!
//! # Run-length quiet runs
//!
//! A pool's state only *changes shape* at admission, finish,
//! block-boundary and pressure events; between them a decode-only batch
//! emits one token per sequence per iteration and nothing else. A pool
//! is **quiet** after a boundary when its queue and swapped list are
//! empty, no swap penalty is pending, and every running sequence is past
//! prefill with its first token stamped and no copy-on-write
//! outstanding. [`ModelPool::advance_quiet`] applies the next `n` quiet
//! boundaries in closed form — `n` capped by the earliest finisher
//! (`min remaining_decode - 1`), by the driver's barrier, and by the KV
//! growth each replica's free blocks still cover — and returns `n`,
//! instead of `n` more `advance_step` calls. The result is the same
//! pool, byte for byte, because of two facts (pinned by
//! `tests/run_length_equivalence.rs`):
//!
//! 1. **The step time is one integer.** Inside a quiet run slot
//!    occupancy, every slot's per-token cost and the (zero) penalty are
//!    constant, so [`ModelPool::step_secs`] returns the same `f64`
//!    every step and `SimDuration::from_secs_f64` rounds it to the same
//!    whole microseconds `d`: boundary `j` of the run fires at exactly
//!    `at + j * d`, no per-step rounding to accumulate.
//! 2. **Quiet boundaries are invisible.** Each has an empty
//!    [`StepReport`], leaves running + queued occupancy and the next
//!    step time unchanged, and touches only integer ledgers
//!    (`remaining_decode` / `decode_run` / `kv_tokens` ± 1 per slot,
//!    [`IterStats`], the `BlockPool::note_step` aggregates, one
//!    `StepEnd` lifecycle record when a lane is attached). Those sum
//!    exactly; block grants are issued in the per-step `(step, replica,
//!    slot)` order so the free lists hand out the same ids; and a run
//!    never includes a step whose growth does not fit (that boundary
//!    goes through the pressure path in `advance_step`). A driver may
//!    therefore handle a quiet boundary by counting it, as long as it
//!    keeps the boundary's place in its own event order.

use std::collections::VecDeque;

use ic_desim::{SimDuration, SimTime};
use ic_kvmem::{
    BlockId, BlockPool, Divergence, KvStats, KvSwap, PrefixAlloc, PressurePolicy, Watermarks,
};
use ic_obs::{EventKind, LaneBuf, NO_REQUEST};

use crate::job::{JobId, JobSpec};

/// Static configuration of one pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Human-readable label (usually the model name).
    pub name: String,
    /// Number of serving replicas.
    pub replicas: u32,
    /// Concurrent sequences one replica sustains (continuous-batching
    /// slots; vLLM-style engines run dozens).
    pub slots_per_replica: u32,
    /// Decode slowdown at full occupancy: decode iterations run at
    /// `1 + beta * occupancy` times their zero-load token time.
    pub congestion_beta: f64,
    /// Prefill tokens processed per iteration per sequence; `0` runs the
    /// whole remaining prefill in a single iteration (unchunked).
    pub prefill_chunk_tokens: u32,
    /// Consecutive decode tokens a sequence may emit while more jobs wait
    /// than slots free before it is preempted at a token boundary; `0`
    /// disables preemption.
    pub preempt_decode_quantum: u32,
    /// Admission-queue cap: offers past it are rejected and counted in
    /// [`IterStats::queue_rejects`]. `None` is unbounded.
    pub max_queue: Option<usize>,
    /// Tokens per KV block (at least one).
    pub kv_block_tokens: u32,
    /// KV blocks per replica, the memory budget (at least one).
    pub kv_budget_blocks: u32,
    /// High/low occupancy watermarks gating admission and resume.
    pub kv_watermarks: Watermarks,
    /// Per-block swap pricing for preemption victims, plus the
    /// host-side (CPU) block capacity swapped-out state may occupy;
    /// victims overflowing it are evicted recompute-priced.
    pub kv_swap: KvSwap,
    /// Shared-prefix KV reuse: when on, sequences whose jobs carry the
    /// same [`crate::SharedPrefix`] map their prefix blocks onto one
    /// hash-consed physical copy (copy-on-write at divergence) instead
    /// of allocating privately. Off by default — the share-off
    /// scheduler is bit-identical to the pre-sharing pool.
    pub kv_share: bool,
}

impl Default for PoolConfig {
    /// One replica of eight slots with the `for_gpus` scheduler and KV
    /// defaults.
    fn default() -> Self {
        Self::for_gpus("pool", 1, 1, 8)
    }
}

impl PoolConfig {
    /// Pool sized for `total_gpus` GPUs at `gpus_per_replica` each (at
    /// least one replica).
    pub fn for_gpus(
        name: &str,
        total_gpus: u32,
        gpus_per_replica: u32,
        slots_per_replica: u32,
    ) -> Self {
        Self {
            name: name.to_owned(),
            replicas: (total_gpus / gpus_per_replica.max(1)).max(1),
            slots_per_replica,
            congestion_beta: 0.7,
            prefill_chunk_tokens: 256,
            preempt_decode_quantum: 64,
            max_queue: None,
            kv_block_tokens: 16,
            kv_budget_blocks: 1024,
            kv_watermarks: Watermarks::DEFAULT,
            kv_swap: KvSwap::DEFAULT,
            kv_share: false,
        }
    }

    /// Total concurrent sequences across replicas.
    pub fn total_slots(&self) -> u32 {
        self.replicas * self.slots_per_replica
    }

    /// Prefill tokens the next iteration processes for a sequence with
    /// `remaining` prompt tokens.
    fn chunk_of(&self, remaining: u32) -> u32 {
        if self.prefill_chunk_tokens == 0 {
            remaining
        } else {
            remaining.min(self.prefill_chunk_tokens)
        }
    }
}

/// Outcome of offering a job to a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The pool was idle: the job occupies a slot and the caller must
    /// schedule the pool's first iteration ([`ModelPool::step_secs`]).
    Started,
    /// The job waits for a step boundary to be admitted.
    Queued,
    /// The queue is at [`PoolConfig::max_queue`]; the job was dropped.
    Rejected,
}

/// Per-iteration scheduler counters (aggregated across a run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterStats {
    /// Iterations (token steps) executed.
    pub steps: u64,
    /// Sum of batch sizes over all iterations (`seq_steps / steps` is the
    /// mean batch size per step).
    pub seq_steps: u64,
    /// Sequence-iterations that processed a prefill chunk.
    pub chunk_steps: u64,
    /// Sequence-iterations that emitted a decode token.
    pub decode_steps: u64,
    /// Sequences preempted at a token boundary.
    pub preemptions: u64,
    /// Offers rejected by the queue cap.
    pub queue_rejects: u64,
    /// Block allocations — first admissions, re-admissions and resumes
    /// alike — resolved against the content table: the job carried a
    /// [`crate::SharedPrefix`] into a pool with
    /// [`PoolConfig::kv_share`] on.
    pub share_admissions: u64,
    /// Prefix chunks those allocations carried (blocks the prefix
    /// covers, partial tail included, clamped to the sequence's
    /// demand). `KvStats::blocks_saved` counts the ones found resident.
    pub prefix_chunks: u64,
}

impl IterStats {
    /// Mean batch size per iteration.
    pub fn mean_step_batch(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.seq_steps as f64 / self.steps as f64
        }
    }

    /// Fraction of sequence-iterations spent on prefill chunks.
    pub fn chunked_prefill_ratio(&self) -> f64 {
        let total = self.chunk_steps + self.decode_steps;
        if total == 0 {
            0.0
        } else {
            self.chunk_steps as f64 / total as f64
        }
    }

    /// Accumulates another pool's counters into this one.
    pub fn merge(&mut self, other: &IterStats) {
        self.steps += other.steps;
        self.seq_steps += other.seq_steps;
        self.chunk_steps += other.chunk_steps;
        self.decode_steps += other.decode_steps;
        self.preemptions += other.preemptions;
        self.queue_rejects += other.queue_rejects;
        self.share_admissions += other.share_admissions;
        self.prefix_chunks += other.prefix_chunks;
    }
}

/// A sequence's scheduler state: both running (in a slot) and waiting
/// (in the queue, fresh or preempted) sequences use this shape.
#[derive(Debug, Clone)]
struct Sequence {
    job: JobSpec,
    /// When the sequence first got a slot (`None` while never admitted).
    started: Option<SimTime>,
    /// End of the first decode iteration (prefill end for zero-decode
    /// jobs).
    first_token: Option<SimTime>,
    /// Prefill work in tokens (prompt length clamped to >= 1).
    prefill_total: u32,
    remaining_prefill: u32,
    remaining_decode: u32,
    /// Consecutive decode iterations since (re-)admission.
    decode_run: u32,
    preemptions: u32,
    /// Replica whose KV budget holds this sequence's blocks (meaningful
    /// only while `kv_blocks` is non-empty).
    replica: usize,
    /// Allocated KV blocks (empty while waiting or swapped out).
    kv_blocks: Vec<BlockId>,
    /// Host blocks this sequence's swapped-out KV state occupies (`0`
    /// while resident, and for victims whose state was dropped on a
    /// host-capacity overflow).
    host_blocks: u32,
    /// KV entries materialized so far (processed prefill tokens plus
    /// decoded tokens). Survives swap-out — it is what resume must
    /// restore.
    kv_tokens: u64,
    /// With `kv_share` on: this sequence's last shared-prefix block is
    /// partial (the prefix ends mid-block), so its first write past the
    /// prefix must resolve a divergence (copy-on-write when other
    /// sequences still read the block). Cleared once resolved, on
    /// swap-out (mappings are re-established at resume), and for
    /// block-aligned prefixes (divergent tokens open a fresh private
    /// block — nothing shared is ever written).
    cow_pending: bool,
}

impl Sequence {
    fn new(job: JobSpec) -> Self {
        let prefill_total = job.prefill_tokens.max(1);
        let remaining_decode = job.decode_tokens;
        Self {
            job,
            started: None,
            first_token: None,
            prefill_total,
            remaining_prefill: prefill_total,
            remaining_decode,
            decode_run: 0,
            preemptions: 0,
            replica: 0,
            kv_blocks: Vec::new(),
            host_blocks: 0,
            kv_tokens: 0,
            cow_pending: false,
        }
    }

    /// Blocks this sequence needs when (re)materialized: its projected
    /// prefill demand plus any decode growth already materialized.
    fn kv_demand(&self, kv: &BlockPool) -> u32 {
        kv.blocks_for(u64::from(self.prefill_total).max(self.kv_tokens))
    }
}

/// A sequence that emitted its last token in the iteration just executed.
#[derive(Debug, Clone)]
pub struct FinishedSeq {
    /// The job that ran.
    pub job: JobSpec,
    /// When the sequence first got a slot.
    pub started: SimTime,
    /// End of the first decode iteration (user-perceived first token).
    pub first_token: SimTime,
    /// End of the last iteration.
    pub completed: SimTime,
    /// Times this sequence was preempted and resumed.
    pub preemptions: u32,
}

/// What happened at one step boundary.
#[derive(Debug, Default)]
pub struct StepReport {
    /// Sequences that completed in this iteration, in slot order.
    pub finished: Vec<FinishedSeq>,
    /// Waiting sequences admitted into freed slots at this boundary.
    pub admitted: u32,
    /// Running sequences preempted back to the queue at this boundary
    /// (slot demand: the per-token quantum).
    pub preempted: u32,
    /// Running sequences swapped out at this boundary because their
    /// replica could not serve the step's KV growth (memory pressure).
    pub pressure_preempted: u32,
    /// Swapped-out sequences brought back at this boundary.
    pub resumed: u32,
}

/// One pooled arena holding every running sequence's KV block table as
/// a contiguous range (tentpole b of the replay-perf PR). Sequences no
/// longer carry a private `Vec<BlockId>` while running: admission
/// appends the table at the arena tail, per-step growth extends a
/// range in place when it is the tail (relocating it there otherwise),
/// eviction copies the range back out and retirement releases it where
/// it lies — in its original order, so the `BlockPool` free-list sees
/// exactly the release order the AoS layout produced. Dead ranges left
/// by removals and relocations are garbage;
/// [`BlockArena::maybe_compact`] reclaims them once they outweigh the
/// live blocks (a pure layout move — block values and per-range order
/// are untouched, so determinism holds).
#[derive(Debug, Default)]
struct BlockArena {
    blocks: Vec<BlockId>,
    /// Blocks inside live ranges (`blocks.len() - live` is garbage).
    live: usize,
}

impl BlockArena {
    /// Appends a block table at the tail; returns its `(start, len)`.
    fn push_range(&mut self, blocks: &[BlockId]) -> (usize, usize) {
        let start = self.blocks.len();
        self.blocks.extend_from_slice(blocks);
        self.live += blocks.len();
        (start, blocks.len())
    }

    /// Kills a range, leaving a dead hole, and lends its blocks
    /// (original order) until the arena is next touched.
    fn retire(&mut self, start: usize, len: usize) -> &[BlockId] {
        self.live -= len;
        &self.blocks[start..start + len]
    }

    /// Extends a range by `extra` blocks, in place when the range is
    /// the arena tail, after relocating it there otherwise. Returns
    /// the (possibly new) start.
    fn append(&mut self, start: usize, len: usize, extra: &[BlockId]) -> usize {
        let start = if start + len == self.blocks.len() {
            start
        } else {
            // Not the tail: move the range there (the old copy becomes
            // garbage) so the extension stays contiguous.
            let new_start = self.blocks.len();
            self.blocks.extend_from_within(start..start + len);
            new_start
        };
        self.blocks.extend_from_slice(extra);
        self.live += extra.len();
        start
    }
}

/// Cold per-slot state: touched at admission, eviction and retirement,
/// never inside the per-iteration loops.
#[derive(Debug)]
struct SlotCold {
    job: JobSpec,
    started: Option<SimTime>,
    first_token: Option<SimTime>,
    preemptions: u32,
    host_blocks: u32,
}

/// Struct-of-arrays state of the running batch. The three per-step hot
/// loops — iteration pricing ([`ModelPool::step_secs`]), KV-growth
/// admission (`serve_kv_growth`) and the token step itself
/// ([`ModelPool::advance_step`] Phase 1) — stride over a handful of
/// dense `u32`/`f64` arrays instead of 100+-byte [`Sequence`] structs,
/// and every block table lives as a range in one [`BlockArena`]. The
/// queue and swap deques keep the AoS [`Sequence`] shape: they are
/// cold (touched once per transition), and the conversion happens
/// exactly at admission/eviction where the scheduler already does
/// O(sequence) work. Arrays are parallel by slot index, in admission
/// order — the same order the AoS `Vec<Sequence>` kept, so every scan,
/// victim pick and report stays byte-identical.
#[derive(Debug, Default)]
struct RunSlots {
    // Hot, mutated every iteration.
    remaining_prefill: Vec<u32>,
    remaining_decode: Vec<u32>,
    decode_run: Vec<u32>,
    kv_tokens: Vec<u64>,
    replica: Vec<usize>,
    cow_pending: Vec<bool>,
    // Hot, immutable pricing inputs (hoisted out of `JobSpec`).
    prefill_total: Vec<u32>,
    ttft_secs: Vec<f64>,
    decode_secs: Vec<f64>,
    decode_tokens: Vec<u32>,
    // Block-table range per slot, into `arena`.
    kv_start: Vec<usize>,
    kv_len: Vec<usize>,
    arena: BlockArena,
    cold: Vec<SlotCold>,
}

impl RunSlots {
    fn len(&self) -> usize {
        self.cold.len()
    }

    fn is_empty(&self) -> bool {
        self.cold.is_empty()
    }

    /// Admits a sequence: scatters its fields into the arrays and its
    /// block table into the arena.
    fn push(&mut self, seq: Sequence) {
        let (start, len) = self.arena.push_range(&seq.kv_blocks);
        self.remaining_prefill.push(seq.remaining_prefill);
        self.remaining_decode.push(seq.remaining_decode);
        self.decode_run.push(seq.decode_run);
        self.kv_tokens.push(seq.kv_tokens);
        self.replica.push(seq.replica);
        self.cow_pending.push(seq.cow_pending);
        self.prefill_total.push(seq.prefill_total);
        self.ttft_secs.push(seq.job.ttft_secs);
        self.decode_secs.push(seq.job.decode_secs);
        self.decode_tokens.push(seq.job.decode_tokens);
        self.kv_start.push(start);
        self.kv_len.push(len);
        self.cold.push(SlotCold {
            job: seq.job,
            started: seq.started,
            first_token: seq.first_token,
            preemptions: seq.preemptions,
            host_blocks: seq.host_blocks,
        });
    }

    /// Reassembles entry `i` into the AoS [`Sequence`] shape (for the
    /// queue or swap deque), leaving a dead entry behind — the caller
    /// compacts, removes or truncates it away.
    fn extract(&mut self, i: usize) -> Sequence {
        let kv_blocks = self.arena.retire(self.kv_start[i], self.kv_len[i]).to_vec();
        self.kv_len[i] = 0;
        let cold = &mut self.cold[i];
        Sequence {
            job: cold.job.clone(),
            started: cold.started,
            first_token: cold.first_token,
            prefill_total: self.prefill_total[i],
            remaining_prefill: self.remaining_prefill[i],
            remaining_decode: self.remaining_decode[i],
            decode_run: self.decode_run[i],
            preemptions: cold.preemptions,
            replica: self.replica[i],
            kv_blocks,
            host_blocks: cold.host_blocks,
            kv_tokens: self.kv_tokens[i],
            cow_pending: self.cow_pending[i],
        }
    }

    /// Ordered removal (shifts later slots down), exactly like the AoS
    /// `Vec::remove` the pressure-victim path used.
    fn remove(&mut self, i: usize) -> Sequence {
        let seq = self.extract(i);
        self.remaining_prefill.remove(i);
        self.remaining_decode.remove(i);
        self.decode_run.remove(i);
        self.kv_tokens.remove(i);
        self.replica.remove(i);
        self.cow_pending.remove(i);
        self.prefill_total.remove(i);
        self.ttft_secs.remove(i);
        self.decode_secs.remove(i);
        self.decode_tokens.remove(i);
        self.kv_start.remove(i);
        self.kv_len.remove(i);
        self.cold.remove(i);
        self.maybe_compact();
        seq
    }

    /// Swaps two entries (the in-place survivor compaction of
    /// `advance_step`'s retire/preempt sweeps).
    fn swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.remaining_prefill.swap(a, b);
        self.remaining_decode.swap(a, b);
        self.decode_run.swap(a, b);
        self.kv_tokens.swap(a, b);
        self.replica.swap(a, b);
        self.cow_pending.swap(a, b);
        self.prefill_total.swap(a, b);
        self.ttft_secs.swap(a, b);
        self.decode_secs.swap(a, b);
        self.decode_tokens.swap(a, b);
        self.kv_start.swap(a, b);
        self.kv_len.swap(a, b);
        self.cold.swap(a, b);
    }

    /// Drops entries past `n` (all dead: their block ranges were taken
    /// when they finished or were evicted).
    fn truncate(&mut self, n: usize) {
        debug_assert!(self.kv_len[n..].iter().all(|&l| l == 0));
        self.remaining_prefill.truncate(n);
        self.remaining_decode.truncate(n);
        self.decode_run.truncate(n);
        self.kv_tokens.truncate(n);
        self.replica.truncate(n);
        self.cow_pending.truncate(n);
        self.prefill_total.truncate(n);
        self.ttft_secs.truncate(n);
        self.decode_secs.truncate(n);
        self.decode_tokens.truncate(n);
        self.kv_start.truncate(n);
        self.kv_len.truncate(n);
        self.cold.truncate(n);
        self.maybe_compact();
    }

    /// Extends slot `i`'s block table (per-step KV growth grant).
    fn append_blocks(&mut self, i: usize, extra: &[BlockId]) {
        self.kv_start[i] = self.arena.append(self.kv_start[i], self.kv_len[i], extra);
        self.kv_len[i] += extra.len();
    }

    /// KV tokens slot `i` holds after its next iteration: its prefill
    /// chunk, or one decode token (what Phase 1 charges).
    fn kv_after_step(&self, i: usize, config: &PoolConfig) -> u64 {
        let growth = match self.remaining_prefill[i] {
            0 => 1,
            remaining => config.chunk_of(remaining),
        };
        self.kv_tokens[i] + u64::from(growth)
    }

    /// The block at offset `off` of slot `i`'s table.
    fn block_at(&self, i: usize, off: usize) -> BlockId {
        debug_assert!(off < self.kv_len[i]);
        self.arena.blocks[self.kv_start[i] + off]
    }

    /// Overwrites the block at offset `off` of slot `i`'s table (the
    /// copy-on-write divergence swap).
    fn set_block_at(&mut self, i: usize, off: usize, b: BlockId) {
        debug_assert!(off < self.kv_len[i]);
        self.arena.blocks[self.kv_start[i] + off] = b;
    }

    /// Reassembles every running sequence, in slot order, emptying the
    /// batch (failover).
    fn drain(&mut self) -> Vec<Sequence> {
        let out = (0..self.len()).map(|i| self.extract(i)).collect();
        self.truncate(0);
        out
    }

    /// Rebuilds the arena without its garbage once dead ranges
    /// outweigh live blocks. Pure layout: every live range keeps its
    /// block values and order, so nothing observable changes.
    fn maybe_compact(&mut self) {
        let garbage = self.arena.blocks.len() - self.arena.live;
        if garbage <= self.arena.live || garbage < 1024 {
            return;
        }
        let mut packed = Vec::with_capacity(self.arena.live);
        for i in 0..self.len() {
            let start = self.kv_start[i];
            let len = self.kv_len[i];
            self.kv_start[i] = packed.len();
            packed.extend_from_slice(&self.arena.blocks[start..start + len]);
        }
        self.arena.blocks = packed;
    }
}

/// Runtime state of one pool.
#[derive(Debug)]
pub struct ModelPool {
    config: PoolConfig,
    /// Running sequences, in admission order (`len() <= total_slots`),
    /// in struct-of-arrays layout.
    run: RunSlots,
    /// Waiting sequences: fresh arrivals and preempted sequences.
    queue: VecDeque<Sequence>,
    /// Sequences swapped out under memory pressure, in swap order; they
    /// resume ahead of any fresh admission.
    swapped: VecDeque<Sequence>,
    /// The paged KV allocator.
    kv: BlockPool,
    /// Watermark gates + swap pricing.
    policy: PressurePolicy,
    /// Swap/recompute seconds accrued at the last boundary, charged to
    /// the next iteration's wall clock.
    pending_penalty_secs: f64,
    stats: IterStats,
    /// Lifecycle-event recording lane (`None` keeps every hook a dead
    /// branch — tracing off costs one pointer-sized check per site).
    obs: Option<LaneBuf>,
    /// When the in-flight iteration began (tracked only while `obs` is
    /// installed; anchors the step span recorded at the next boundary).
    step_started: Option<SimTime>,
}

/// The outcome of a sharing-aware block allocation for one sequence.
#[derive(Debug, PartialEq)]
struct SharedAlloc {
    /// Replica the blocks live on: pinned to the shared prefix's home
    /// when chunk 0 hit the content table, the caller's placement
    /// choice otherwise.
    replica: usize,
    /// The sequence's logical block table, prefix-mapped blocks first.
    blocks: Vec<BlockId>,
    /// Blocks freshly allocated (the private remainder) — what swap-in
    /// pricing charges; equals `blocks.len()` with sharing off.
    fresh: u32,
    /// Whether the last shared block is partial (see
    /// `Sequence::cow_pending`).
    cow_pending: bool,
}

/// Allocates a sequence's (re)materialization demand
/// ([`Sequence::kv_demand`]). With sharing on and the job carrying a
/// [`crate::SharedPrefix`], the longest consecutive run of prefix
/// chunks already hash-consed in the content table is **mapped**
/// (references taken, nothing allocated) and only the remainder is
/// allocated; a pristine sequence also registers any chunks the table
/// was missing, so the first carrier of a set becomes its owner — all
/// of it one [`BlockPool::alloc_prefixed`], one table lookup whatever
/// the prefix length. Returns `None` — with no side effects — when the
/// private remainder does not fit.
fn alloc_with_sharing(
    kv: &mut BlockPool,
    stats: &mut IterStats,
    share_enabled: bool,
    seq: &Sequence,
    fallback_replica: usize,
) -> Option<SharedAlloc> {
    // In this crate's unit tests every admission is also run, on a
    // clone, through the per-chunk loop this function used to be.
    #[cfg(test)]
    let before = kv.clone();
    let alloc = alloc_prefix_aware(kv, stats, share_enabled, seq, fallback_replica);
    #[cfg(test)]
    tests::assert_per_chunk_loop_agrees(before, kv, share_enabled, seq, fallback_replica, &alloc);
    alloc
}

fn alloc_prefix_aware(
    kv: &mut BlockPool,
    stats: &mut IterStats,
    share_enabled: bool,
    seq: &Sequence,
    fallback_replica: usize,
) -> Option<SharedAlloc> {
    let demand = seq.kv_demand(kv);
    let plain = |kv: &mut BlockPool, replica: usize| {
        kv.try_alloc(replica, demand).map(|blocks| SharedAlloc {
            replica,
            blocks,
            fresh: demand,
            cow_pending: false,
        })
    };
    let share = if share_enabled { seq.job.share } else { None };
    let Some(share) = share.filter(|s| s.tokens > 0) else {
        return plain(kv, fallback_replica);
    };
    let bt = u64::from(kv.block_tokens());
    let prefix_tokens = u64::from(share.tokens);
    // Chunks covering the prefix, partial tail included, clamped to the
    // demand (an over-long prefix degrades to whatever fits).
    let prefix_chunks = (prefix_tokens.div_ceil(bt) as u32).min(demand);
    let pristine = seq.kv_tokens <= prefix_tokens;
    let (mappable, register_to) = if pristine {
        // Its private prefix blocks will hold exactly the set's
        // content: hash-cons the chunks the table is missing.
        (prefix_chunks, prefix_chunks)
    } else {
        // A sequence that already wrote past the prefix (a diverged
        // victim re-materializing) owns private tokens in the tail
        // block: it may map full chunks only, and registers nothing.
        (((prefix_tokens / bt) as u32).min(demand), 0)
    };
    let PrefixAlloc {
        replica,
        blocks,
        mapped,
    } = kv.alloc_prefixed(share.set, mappable, register_to, demand, fallback_replica)?;
    stats.share_admissions += 1;
    stats.prefix_chunks += u64::from(prefix_chunks);
    let tail = (prefix_tokens / bt) as usize;
    let cow_pending = prefix_tokens % bt != 0
        && pristine
        && tail < blocks.len()
        && kv.is_registered(blocks[tail]);
    Some(SharedAlloc {
        replica,
        blocks,
        fresh: demand - mapped,
        cow_pending,
    })
}

/// Frees a victim's device blocks and settles its swap-out: the
/// exclusively-held blocks are parked on the host ledger (swap-out
/// priced) when host capacity has room; otherwise the KV state is
/// dropped — free now, recompute-priced at resume ([`settle_resume`])
/// and counted as a recompute fallback. Shared-prefix blocks other
/// sequences still read are only released (they stay resident for
/// their readers — the victim re-maps them from the content table at
/// resume), so a swap-out can never strand another reader's prefix.
fn settle_swap_out(
    kv: &mut BlockPool,
    policy: &PressurePolicy,
    pending_penalty_secs: &mut f64,
    seq: &mut Sequence,
) {
    let blocks = std::mem::take(&mut seq.kv_blocks);
    seq.cow_pending = false;
    let n = kv.release(blocks);
    if kv.try_host_park(n) {
        *pending_penalty_secs += policy.swap_out_penalty(n);
        seq.host_blocks = n;
    } else {
        // Host overflow: dropping state costs nothing at this boundary.
        kv.note_recompute_fallback();
        seq.host_blocks = 0;
    }
}

/// Prices a victim's return and releases its host ledger entry: the
/// swap-in price for state parked on the host, the overflow recompute
/// price for state dropped when the host ledger was full.
fn settle_resume(
    kv: &mut BlockPool,
    policy: &PressurePolicy,
    pending_penalty_secs: &mut f64,
    seq: &mut Sequence,
    need: u32,
) {
    kv.note_swap_in();
    *pending_penalty_secs += if seq.host_blocks > 0 {
        kv.host_unpark(seq.host_blocks);
        seq.host_blocks = 0;
        policy.swap_in_penalty(need)
    } else {
        // The host was full at eviction time: rebuild by recompute.
        policy.overflow_resume_penalty(seq.kv_tokens)
    };
}

impl ModelPool {
    /// Creates an idle pool.
    ///
    /// # Panics
    ///
    /// Panics on a zero KV block size or budget (through
    /// [`BlockPool::new`]).
    pub fn new(config: PoolConfig) -> Self {
        let kv = BlockPool::new(
            config.replicas.max(1),
            config.kv_budget_blocks,
            config.kv_block_tokens,
        )
        .with_host_capacity(config.kv_swap.host_capacity_blocks);
        let policy = PressurePolicy {
            watermarks: config.kv_watermarks,
            swap: config.kv_swap,
        };
        Self {
            config,
            run: RunSlots::default(),
            queue: VecDeque::new(),
            swapped: VecDeque::new(),
            kv,
            policy,
            pending_penalty_secs: 0.0,
            stats: IterStats::default(),
            obs: None,
            step_started: None,
        }
    }

    /// Installs the lifecycle-event recording lane. Every scheduler
    /// transition from here on is recorded into it.
    pub fn set_obs(&mut self, lane: LaneBuf) {
        self.obs = Some(lane);
    }

    /// Removes and returns the recording lane for the end-of-run merge.
    pub fn take_obs(&mut self) -> Option<LaneBuf> {
        self.obs.take()
    }

    /// The configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// In-flight sequence count.
    pub fn active(&self) -> u32 {
        self.run.len() as u32
    }

    /// Queued (not yet admitted, or preempted) jobs.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Offers rejected by the queue cap so far.
    pub fn rejected(&self) -> u64 {
        self.stats.queue_rejects
    }

    /// Per-iteration scheduler counters.
    pub fn iter_stats(&self) -> IterStats {
        self.stats
    }

    /// KV-memory counters.
    pub fn kv_stats(&self) -> KvStats {
        self.kv.stats()
    }

    /// Sequences currently swapped out under memory pressure.
    pub fn swapped_len(&self) -> usize {
        self.swapped.len()
    }

    /// Fraction of the KV block budget in use.
    pub fn kv_occupancy(&self) -> f64 {
        self.kv.occupancy()
    }

    /// Host (CPU) blocks currently parked by swapped-out sequences.
    pub fn kv_host_blocks(&self) -> u32 {
        self.kv.host_used_blocks()
    }

    /// Device blocks currently allocated across the pool's replicas.
    pub fn kv_used_blocks(&self) -> u64 {
        u64::from(self.kv.used_blocks())
    }

    /// Blocks currently mapped by more than one sequence (`0` with
    /// sharing off).
    pub fn kv_shared_blocks(&self) -> u32 {
        self.kv.shared_blocks()
    }

    /// Occupancy fraction in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        f64::from(self.active()) / f64::from(self.config.total_slots().max(1))
    }

    /// Legacy occupancy-stretch *estimate* of a job's service time if
    /// admitted right now: zero-load latency with the whole decode
    /// stretched by the congestion factor at the post-admission
    /// occupancy. The iteration-level scheduler reproduces this exactly
    /// for a job running alone; under contention the per-step model also
    /// charges lockstep (widest-work-item) and chunked-prefill effects.
    pub fn service_secs(&self, job: &JobSpec) -> f64 {
        let occ_after = f64::from(self.active() + 1) / f64::from(self.config.total_slots().max(1));
        let stretch = 1.0 + self.config.congestion_beta * occ_after;
        job.ttft_secs + job.decode_secs * stretch
    }

    /// Offers a job. If the pool is idle the job starts immediately and
    /// the caller must arm the pool's first step boundary at
    /// [`ModelPool::step_secs`]; otherwise it queues until a step
    /// boundary (or is rejected by the queue cap).
    pub fn offer(&mut self, job: JobSpec, now: SimTime) -> Offer {
        if self.run.is_empty() && self.queue.is_empty() && self.swapped.is_empty() {
            // An empty batch places its candidate whatever the gates say.
            self.queue.push_back(Sequence::new(job));
            self.fill_slots(now, &mut StepReport::default());
            if self.obs.is_some() {
                self.step_started = Some(now);
            }
            return Offer::Started;
        }
        if let Some(cap) = self.config.max_queue
            && self.queue.len() >= cap
        {
            self.stats.queue_rejects += 1;
            return Offer::Rejected;
        }
        self.queue.push_back(Sequence::new(job));
        Offer::Queued
    }

    /// Wall-clock duration of the next iteration: the maximum over batch
    /// members of their per-iteration cost (prefill chunks at zero-load
    /// rate, decode tokens stretched by the congestion factor at the
    /// current occupancy), plus any swap/recompute penalty accrued at
    /// the previous boundary. `None` while the pool is idle.
    pub fn step_secs(&self) -> Option<f64> {
        if self.run.is_empty() {
            return None;
        }
        let stretch = 1.0 + self.config.congestion_beta * self.occupancy();
        let mut dur = 0.0f64;
        for i in 0..self.run.len() {
            let remaining = self.run.remaining_prefill[i];
            let cost = if remaining > 0 {
                let chunk = self.config.chunk_of(remaining);
                self.run.ttft_secs[i] * f64::from(chunk) / f64::from(self.run.prefill_total[i])
            } else {
                // Invariant: a slot past prefill has decode left (zero-
                // decode jobs retire at prefill end), so tokens > 0.
                self.run.decode_secs[i] / f64::from(self.run.decode_tokens[i]) * stretch
            };
            dur = dur.max(cost);
        }
        Some(dur + self.pending_penalty_secs)
    }

    /// Ensures every running sequence's KV growth for this iteration
    /// can be served from free blocks, swapping out victims (longest
    /// remaining decode first, never the last sequence on a replica)
    /// when it cannot, then performs the growth allocations. Returns
    /// the number of sequences pressure-preempted.
    fn serve_kv_growth(&mut self, now: SimTime) -> u32 {
        let kv = &mut self.kv;
        // Copy-on-write demand this step adds for a sequence: one block
        // when its growth first writes past a shared prefix whose tail
        // block other sequences still read (a sole-holder divergence
        // privatizes in place and costs nothing). Recomputed inside the
        // victim loop — evicting a co-reader drops the refcount and the
        // demand with it.
        let cow_extra = |kv: &BlockPool, run: &RunSlots, i: usize, tokens_after: u64| -> u32 {
            if !run.cow_pending[i] {
                return 0;
            }
            let Some(share) = run.cold[i].job.share else {
                return 0;
            };
            if tokens_after <= u64::from(share.tokens) {
                return 0;
            }
            let tail = (u64::from(share.tokens) / u64::from(kv.block_tokens())) as usize;
            u32::from(kv.refcount(run.block_at(i, tail)) > 1)
        };
        let mut preempted = 0u32;
        for replica in 0..kv.num_replicas() {
            // Swap out victims until the replica's growth demand fits.
            loop {
                let mut needed = 0u32;
                let mut residents = 0usize;
                for i in 0..self.run.len() {
                    if self.run.replica[i] != replica {
                        continue;
                    }
                    residents += 1;
                    let after = self.run.kv_after_step(i, &self.config);
                    needed += kv
                        .blocks_for(after)
                        .saturating_sub(self.run.kv_len[i] as u32)
                        + cow_extra(kv, &self.run, i, after);
                }
                if needed <= kv.free_blocks(replica) {
                    break;
                }
                if residents <= 1 {
                    // The last sequence must make progress: it windows
                    // its tail into its allocated blocks instead.
                    break;
                }
                // Victim: lowest priority class first, then longest
                // remaining decode, earliest slot on remaining ties
                // (deterministic). Priority outranks the decode
                // heuristic: a background job always yields before a
                // latency-critical one regardless of remaining work.
                let victim = (0..self.run.len())
                    .filter(|&i| self.run.replica[i] == replica)
                    .max_by(|&ia, &ib| {
                        self.run.cold[ib]
                            .job
                            .priority
                            .cmp(&self.run.cold[ia].job.priority)
                            .then(self.run.remaining_decode[ia].cmp(&self.run.remaining_decode[ib]))
                            .then(ib.cmp(&ia))
                    })
                    .expect("residents > 1");
                let mut seq = self.run.remove(victim);
                settle_swap_out(kv, &self.policy, &mut self.pending_penalty_secs, &mut seq);
                kv.note_pressure_swap_out();
                seq.decode_run = 0;
                seq.preemptions += 1;
                preempted += 1;
                if let Some(o) = self.obs.as_mut() {
                    o.push(
                        now,
                        seq.job.id.0,
                        EventKind::PressureSwapOut {
                            host_blocks: seq.host_blocks,
                        },
                    );
                }
                self.swapped.push_back(seq);
            }
            // Grant what fits; a shortfall (only possible for the last
            // resident) is absorbed by the block-window cap.
            for i in 0..self.run.len() {
                if self.run.replica[i] != replica {
                    continue;
                }
                let after = self.run.kv_after_step(i, &self.config);
                // Resolve a pending divergence before the step writes
                // past the shared prefix: privatize in place when this
                // sequence is the sole holder, copy-on-write otherwise.
                // An exhausted free list defers the copy to the next
                // boundary's pressure round (only reachable
                // transiently: a refcount > 1 implies a co-resident
                // reader the victim loop above could still evict).
                if self.run.cow_pending[i]
                    && let Some(share) = self.run.cold[i].job.share
                    && after > u64::from(share.tokens)
                {
                    let tail = (u64::from(share.tokens) / u64::from(kv.block_tokens())) as usize;
                    let outcome = kv.diverge(self.run.block_at(i, tail));
                    match outcome {
                        Some(Divergence::InPlace) => self.run.cow_pending[i] = false,
                        Some(Divergence::Copied(fresh)) => {
                            self.run.set_block_at(i, tail, fresh);
                            self.run.cow_pending[i] = false;
                        }
                        None => {}
                    }
                    if let (Some(o), Some(d)) = (self.obs.as_mut(), outcome) {
                        let copied = matches!(d, Divergence::Copied(_));
                        o.push(
                            now,
                            self.run.cold[i].job.id.0,
                            EventKind::CowDiverged { copied },
                        );
                    }
                }
                let need = kv
                    .blocks_for(after)
                    .saturating_sub(self.run.kv_len[i] as u32);
                let grant = need.min(kv.free_blocks(replica));
                if grant > 0 {
                    let blocks = kv.try_alloc(replica, grant).expect("grant <= free");
                    self.run.append_blocks(i, &blocks);
                }
            }
        }
        preempted
    }

    /// Executes the iteration ending at `now`, all at this one step
    /// boundary: it first serves the step's token growth from free
    /// blocks (swapping out victims under pressure); then it advances
    /// every running sequence by one token step, retires the finished
    /// ones, preempts over-quantum decoders when more jobs wait than
    /// slots freed, and fills the free slots through the one admission
    /// loop (`fill_slots`: swapped sequences first, then the queue,
    /// gated on the block budget and its watermarks). The caller arms
    /// the next boundary iff [`ModelPool::step_secs`] is `Some`.
    pub fn advance_step(&mut self, now: SimTime) -> StepReport {
        let batch = self.run.len();
        let mut report = StepReport::default();
        if batch == 0 {
            return report;
        }
        // The iteration that just ran was priced with the penalties
        // accrued before it; start accruing for the next one.
        self.pending_penalty_secs = 0.0;

        if let Some(o) = self.obs.as_mut() {
            let started = self.step_started.take().unwrap_or(now);
            o.push(
                now,
                NO_REQUEST,
                EventKind::StepEnd {
                    started,
                    batch: batch as u32,
                },
            );
        }

        // Phase 0: memory admission for this step's KV growth. Victims
        // swapped out here do not advance (their slot work was already
        // paid for in the lockstep price — the cost of late preemption).
        report.pressure_preempted = self.serve_kv_growth(now);

        let batch = self.run.len();
        if batch == 0 {
            // Unreachable in practice (the last resident is never a
            // victim), but keep the report shape sane.
            return report;
        }
        self.stats.steps += 1;
        self.stats.seq_steps += batch as u64;

        // Sample block occupancy / fragmentation BEFORE retirement so
        // blocks held only for this step (e.g. a zero-decode job's
        // prefill allocation, freed below) still register in the
        // peak/mean aggregates. Post-Phase-0 allocation state is
        // exactly the memory held while the step executed.
        let used_tokens: u64 = self.run.kv_tokens.iter().sum();
        self.kv.note_step(used_tokens);

        // Phase 1: every batch member advances one unit of work. The
        // sweep runs in place over the arrays: finished sequences are
        // retired where they stand, survivors compact down to the
        // front (swaps against already-dead entries), preserving slot
        // order exactly like the old take-and-repush loop.
        let n = self.run.len();
        let mut w = 0;
        for i in 0..n {
            let decoding = self.run.remaining_prefill[i] == 0;
            if decoding {
                debug_assert!(
                    self.run.remaining_decode[i] > 0,
                    "drained sequence kept a slot"
                );
                self.run.remaining_decode[i] -= 1;
                self.run.decode_run[i] += 1;
                self.run.kv_tokens[i] += 1;
                self.stats.decode_steps += 1;
            } else {
                let chunk = self.config.chunk_of(self.run.remaining_prefill[i]);
                self.run.remaining_prefill[i] -= chunk;
                self.run.kv_tokens[i] += u64::from(chunk);
                self.stats.chunk_steps += 1;
                if let Some(o) = self.obs.as_mut() {
                    o.push(
                        now,
                        self.run.cold[i].job.id.0,
                        EventKind::PrefillChunk { tokens: chunk },
                    );
                }
            }
            let finished = self.run.remaining_prefill[i] == 0 && self.run.remaining_decode[i] == 0;
            // The first token is the first decode step's, or — for a
            // zero-output job, whose prompt's forward pass is the entire
            // service — prefill end.
            if (decoding || finished) && self.run.cold[i].first_token.is_none() {
                self.run.cold[i].first_token = Some(now);
                if let Some(o) = self.obs.as_mut() {
                    o.push(now, self.run.cold[i].job.id.0, EventKind::FirstToken);
                }
            }
            if finished {
                let blocks = self
                    .run
                    .arena
                    .retire(self.run.kv_start[i], self.run.kv_len[i]);
                self.run.kv_len[i] = 0;
                self.kv.free(blocks.iter().copied());
                if let Some(o) = self.obs.as_mut() {
                    o.push(
                        now,
                        self.run.cold[i].job.id.0,
                        EventKind::Finish {
                            preemptions: self.run.cold[i].preemptions,
                        },
                    );
                }
                let cold = &self.run.cold[i];
                report.finished.push(FinishedSeq {
                    job: cold.job.clone(),
                    started: cold.started.unwrap_or(now),
                    first_token: cold.first_token.unwrap_or(now),
                    completed: now,
                    preemptions: cold.preemptions,
                });
            } else {
                self.run.swap(i, w);
                w += 1;
            }
        }
        self.run.truncate(w);

        // Phase 2: per-token preemption. Only when demand exceeds the
        // slots this boundary freed does an over-quantum decoder yield;
        // it re-queues behind the waiters with its progress intact.
        // A yielding sequence also releases its blocks (a paged engine
        // cannot park KV state in a queue without pinning memory above
        // the watermarks), paying the swap-out price now and the
        // swap-in price at re-admission.
        let quantum = self.config.preempt_decode_quantum;
        if quantum > 0 && !self.queue.is_empty() {
            let free = self.config.total_slots() as usize - self.run.len();
            let mut need = self.queue.len().saturating_sub(free);
            if need > 0 {
                let n = self.run.len();
                let mut w = 0;
                for i in 0..n {
                    if need > 0
                        && self.run.remaining_prefill[i] == 0
                        && self.run.remaining_decode[i] > 0
                        && self.run.decode_run[i] >= quantum
                    {
                        let mut s = self.run.extract(i);
                        s.decode_run = 0;
                        s.preemptions += 1;
                        self.stats.preemptions += 1;
                        report.preempted += 1;
                        need -= 1;
                        settle_swap_out(
                            &mut self.kv,
                            &self.policy,
                            &mut self.pending_penalty_secs,
                            &mut s,
                        );
                        self.kv.note_swap_out();
                        if let Some(o) = self.obs.as_mut() {
                            o.push(now, s.job.id.0, EventKind::QuantumPreempt);
                        }
                        self.queue.push_back(s);
                    } else {
                        self.run.swap(i, w);
                        w += 1;
                    }
                }
                self.run.truncate(w);
            }
        }

        // Phase 3: fill the free slots.
        self.fill_slots(now, &mut report);
        if self.obs.is_some() {
            // Anchor the next step span; the pool idling leaves no span
            // open until `offer` restarts the clock.
            self.step_started = (!self.run.is_empty()).then_some(now);
        }
        report
    }

    /// Admits waiting sequences into free slots at `now`, first come
    /// first served: the swapped front while any sequence is swapped,
    /// the queue front otherwise. A swapped candidate waits for
    /// occupancy below the low watermark, a queued one for occupancy
    /// below the high watermark, and both for their demand to fit
    /// (deduplicated: mapped prefix chunks come from the content
    /// table); the first refusal ends the loop. Progress
    /// guarantee: when the batch is empty a refused candidate is placed
    /// anyway — no live sequence holds a block, so its capped demand
    /// fits — and the loop stops after it.
    fn fill_slots(&mut self, now: SimTime, report: &mut StepReport) {
        while self.run.is_empty() || (self.run.len() as u32) < self.config.total_slots() {
            let resumed = !self.swapped.is_empty();
            let waiting = if resumed {
                &mut self.swapped
            } else {
                &mut self.queue
            };
            let Some(front) = waiting.front() else {
                break;
            };
            debug_assert!(
                front.kv_blocks.is_empty(),
                "waiting sequences hold no blocks"
            );
            let occupancy = self.kv.occupancy();
            let open = if resumed {
                self.policy.can_resume(occupancy)
            } else {
                !self.policy.under_pressure(occupancy)
            };
            if !open && !self.run.is_empty() {
                break;
            }
            let replica = self.kv.least_loaded_replica();
            let Some(alloc) = alloc_with_sharing(
                &mut self.kv,
                &mut self.stats,
                self.config.kv_share,
                front,
                replica,
            ) else {
                assert!(!self.run.is_empty(), "an empty pool fits a capped demand");
                break;
            };
            let seq = waiting.pop_front().expect("front exists");
            self.place(seq, alloc, now, resumed);
            if resumed {
                report.resumed += 1;
            } else {
                report.admitted += 1;
            }
            if !open {
                break;
            }
        }
    }

    /// Puts `seq` into a slot with its blocks (`alloc`): a sequence
    /// coming back from the swapped list, or holding materialized KV
    /// state (a quantum victim), pays the resume price; a first
    /// admission stamps `started`.
    fn place(&mut self, mut seq: Sequence, alloc: SharedAlloc, now: SimTime, resumed: bool) {
        if resumed || seq.kv_tokens > 0 {
            settle_resume(
                &mut self.kv,
                &self.policy,
                &mut self.pending_penalty_secs,
                &mut seq,
                alloc.fresh,
            );
        }
        seq.replica = alloc.replica;
        seq.kv_blocks = alloc.blocks;
        seq.cow_pending = alloc.cow_pending;
        seq.started.get_or_insert(now);
        if let Some(o) = self.obs.as_mut() {
            let replica = seq.replica as u32;
            let kind = if resumed {
                EventKind::Resumed { replica }
            } else {
                EventKind::SlotStart { replica }
            };
            o.push(now, seq.job.id.0, kind);
        }
        self.run.push(seq);
    }

    /// Applies the quiet run that follows the boundary just executed at
    /// `at` and returns its length: the boundaries `at + j * every`
    /// (`j = 1..=n`) at which nothing but decode progress happens.
    /// `every` is `SimDuration::from_secs_f64` of [`Self::step_secs`].
    /// `n` is bounded by the earliest finisher (`min remaining_decode -
    /// 1`), by `barrier` (strictly before it: an event already pending
    /// there sorts ahead of a boundary at its instant; `None` is no
    /// bound), and by the KV growth every replica can still serve from
    /// free blocks; `0` when the pool is not quiet. See "Run-length
    /// quiet runs" in the module docs for why this equals `n` calls of
    /// [`ModelPool::advance_step`]; the driver still owes each of the
    /// `n` boundaries its place in its own event order.
    pub fn advance_quiet(
        &mut self,
        at: SimTime,
        every: SimDuration,
        barrier: Option<SimTime>,
    ) -> u32 {
        if !self.queue.is_empty() || !self.swapped.is_empty() || self.pending_penalty_secs != 0.0 {
            return 0;
        }
        let mut n = barrier.map_or(u64::MAX, |b| at.strides_before(every, b));
        for i in 0..self.run.len() {
            if self.run.remaining_prefill[i] > 0
                || self.run.cow_pending[i]
                || self.run.cold[i].first_token.is_none()
            {
                return 0;
            }
            n = n.min(u64::from(self.run.remaining_decode[i].saturating_sub(1)));
        }
        let n = self.kv_growth_fit(u32::try_from(n).expect("bounded by a u32 decode count"));
        if n == 0 {
            return 0;
        }
        let batch = self.run.len() as u64;
        let steps = u64::from(n);
        self.grow_kv_over(n);
        for i in 0..self.run.len() {
            self.run.remaining_decode[i] -= n;
            self.run.decode_run[i] += n;
            self.run.kv_tokens[i] += steps;
        }
        self.stats.steps += steps;
        self.stats.seq_steps += steps * batch;
        self.stats.decode_steps += steps * batch;
        if let Some(o) = self.obs.as_mut() {
            for j in 1..=steps {
                o.push(
                    at + every * j,
                    NO_REQUEST,
                    EventKind::StepEnd {
                        started: at + every * (j - 1),
                        batch: batch as u32,
                    },
                );
            }
            self.step_started = Some(at + every * steps);
        }
        n
    }

    /// The largest `m <= n` such that `m` more decode steps of the
    /// current batch grow every replica's block tables within its free
    /// blocks (so no step of the run meets the pressure path). A slot's
    /// demand through step `j` is `blocks_for(kv_tokens + j)` less the
    /// table it already holds, and it only ever rises with `j`.
    fn kv_growth_fit(&self, n: u32) -> u32 {
        let kv = &self.kv;
        let fits = |replica: usize, steps: u32| {
            let demand: u64 = (0..self.run.len())
                .filter(|&i| self.run.replica[i] == replica)
                .map(|i| {
                    let after = self.run.kv_tokens[i] + u64::from(steps);
                    u64::from(kv.blocks_for(after)).saturating_sub(self.run.kv_len[i] as u64)
                })
                .sum();
            demand <= u64::from(kv.free_blocks(replica))
        };
        let mut n = n;
        for replica in 0..kv.num_replicas() {
            if n == 0 || fits(replica, n) {
                continue;
            }
            // `fits` is monotone in the step count and holds at 0.
            let (mut lo, mut hi) = (0, n);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if fits(replica, mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            n = lo;
        }
        n
    }

    /// KV side of a quiet run of `n` steps ([`Self::kv_growth_fit`]
    /// vouched for them): issues each step's growth grants in the
    /// per-step order of `serve_kv_growth` — step-major, then
    /// replica, then slot — so the free lists and the arena see the
    /// same sequence, and books the `note_step` ledger one
    /// unchanged-allocation stretch at a time. `kv_tokens` is read, not
    /// advanced (the caller adds `n` to every slot afterwards).
    fn grow_kv_over(&mut self, n: u32) {
        let kv = &mut self.kv;
        let run = &mut self.run;
        let block_tokens = u64::from(kv.block_tokens());
        let budget = kv.budget_blocks() as usize;
        let batch = run.len() as u64;
        let tokens_at_start: u64 = run.kv_tokens.iter().sum();
        let n = u64::from(n);
        let mut done = 0u64;
        loop {
            // First step past `done` at which some table must grow.
            let grow_at = (0..run.len())
                .filter(|&i| run.kv_len[i] < budget)
                .map(|i| {
                    let held = run.kv_len[i] as u64 * block_tokens;
                    (held.saturating_sub(run.kv_tokens[i]) + 1).max(done + 1)
                })
                .min()
                .unwrap_or(u64::MAX);
            let flat_until = n.min(grow_at - 1);
            kv.note_steps(tokens_at_start + done * batch, batch, flat_until - done);
            done = flat_until;
            if done == n {
                return;
            }
            for replica in 0..kv.num_replicas() {
                for i in 0..run.len() {
                    if run.replica[i] != replica {
                        continue;
                    }
                    let need = kv
                        .blocks_for(run.kv_tokens[i] + grow_at)
                        .saturating_sub(run.kv_len[i] as u32);
                    if need > 0 {
                        let blocks = kv.try_alloc(replica, need).expect("growth fits");
                        run.append_blocks(i, &blocks);
                    }
                }
            }
        }
    }

    /// Drops every queued job (failover drain); running sequences keep
    /// their slots and swapped-out sequences stay parked for resume.
    /// Queued sequences hold no device blocks, but quantum-evicted ones
    /// may be parked on the host ledger — release those entries so the
    /// host blocks are conserved.
    pub fn drain_queue(&mut self) -> Vec<JobId> {
        let ids = self.queue.iter().map(|s| s.job.id).collect();
        for s in self.queue.drain(..) {
            if s.host_blocks > 0 {
                self.kv.host_unpark(s.host_blocks);
            }
        }
        ids
    }

    /// Pool failover: flushes *everything* — running sequences (their
    /// device blocks freed through the normal kvmem release path),
    /// swapped-out sequences (their host-ledger entries released), and
    /// the queue — returning the evicted job ids in a deterministic
    /// order (slots, then swapped, then queue) so the caller can
    /// re-enqueue them through the router tier as retries. The pool
    /// comes back empty and idle, so the driver must drop the flushed
    /// batch's pending step boundary — left alone it would double-step
    /// a pool that refills before it fires.
    pub fn fail_over(&mut self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = Vec::new();
        for s in self.run.drain() {
            self.kv.free(s.kv_blocks);
            ids.push(s.job.id);
        }
        for s in std::mem::take(&mut self.swapped) {
            if s.host_blocks > 0 {
                self.kv.host_unpark(s.host_blocks);
            }
            ids.push(s.job.id);
        }
        ids.extend(self.drain_queue());
        // Nothing runs, so no pending swap penalty can be charged, and
        // no step span is in flight.
        self.pending_penalty_secs = 0.0;
        self.step_started = None;
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_desim::SimTime;

    /// Swaps that cost nothing, so timing tests stay exact.
    const FREE_SWAPS: KvSwap = KvSwap {
        out_secs_per_block: 0.0,
        in_secs_per_block: 0.0,
        ..KvSwap::DEFAULT
    };

    fn job(id: u64) -> JobSpec {
        job_with(id, 0.1, 1.0, 100, 10)
    }

    fn job_with(id: u64, ttft: f64, decode: f64, ptoks: u32, dtoks: u32) -> JobSpec {
        JobSpec {
            id: JobId(id),
            pool: 0,
            arrival: SimTime::ZERO,
            ttft_secs: ttft,
            decode_secs: decode,
            prefill_tokens: ptoks,
            decode_tokens: dtoks,
            priority: 0,
            share: None,
        }
    }

    /// Pool for the scheduler-shape tests: the default KV budget, which
    /// their few short jobs never bind, and free swaps, so the slot
    /// machine alone sets every time.
    fn pool_with(slots: u32, chunk: u32, quantum: u32, max_queue: Option<usize>) -> ModelPool {
        ModelPool::new(PoolConfig {
            name: "test".into(),
            replicas: 1,
            slots_per_replica: slots,
            congestion_beta: 0.0,
            prefill_chunk_tokens: chunk,
            preempt_decode_quantum: quantum,
            max_queue,
            kv_swap: FREE_SWAPS,
            ..PoolConfig::default()
        })
    }

    /// Pool with `budget` blocks of `block_tokens` tokens per replica
    /// and free swaps (timing tests stay exact).
    fn kv_pool(slots: u32, block_tokens: u32, budget: u32, marks: Watermarks) -> ModelPool {
        ModelPool::new(PoolConfig {
            name: "kv".into(),
            kv_share: false,
            replicas: 1,
            slots_per_replica: slots,
            congestion_beta: 0.0,
            prefill_chunk_tokens: 0,
            preempt_decode_quantum: 0,
            max_queue: None,
            kv_block_tokens: block_tokens,
            kv_budget_blocks: budget,
            kv_watermarks: marks,
            kv_swap: FREE_SWAPS,
        })
    }

    /// Runs the pool to drain, returning every boundary's report and
    /// the final clock.
    fn boundaries(pool: &mut ModelPool) -> (Vec<StepReport>, f64) {
        let mut now = 0.0f64;
        let mut reports = Vec::new();
        while let Some(dt) = pool.step_secs() {
            now += dt;
            reports.push(pool.advance_step(SimTime::from_secs_f64(now)));
            assert!(reports.len() < 100_000, "runaway step loop");
        }
        (reports, now)
    }

    /// Runs the pool to drain, returning finished sequences in
    /// completion order and the final clock.
    fn drain(pool: &mut ModelPool) -> (Vec<FinishedSeq>, f64) {
        let (reports, now) = boundaries(pool);
        (reports.into_iter().flat_map(|r| r.finished).collect(), now)
    }

    /// One boundary through `advance_step` and the quiet run
    /// `advance_quiet` applied behind it.
    struct Record {
        at: SimTime,
        report: StepReport,
        next_dt: Option<f64>,
        quiet: u32,
    }

    /// The pool's boundaries from `from` while they fall strictly before
    /// `barrier`, one [`Record`] per `advance_step`.
    fn chain(pool: &mut ModelPool, from: SimTime, barrier: Option<SimTime>) -> Vec<Record> {
        let mut out = Vec::new();
        let mut at = from;
        loop {
            let report = pool.advance_step(at);
            let next_dt = pool.step_secs();
            let every = next_dt.map(SimDuration::from_secs_f64);
            let quiet = every.map_or(0, |d| pool.advance_quiet(at, d, barrier));
            out.push(Record {
                at,
                report,
                next_dt,
                quiet,
            });
            let Some(every) = every else { break out };
            let next = at + every * (u64::from(quiet) + 1);
            if barrier.is_some_and(|b| next >= b) {
                break out;
            }
            at = next;
        }
    }

    #[test]
    fn quiet_runs_match_stepwise_advance() {
        let build = || {
            let mut p = pool_with(2, 64, 3, None);
            for i in 0..6 {
                p.offer(job_with(i, 0.1, 1.0, 100, 8), SimTime::ZERO);
            }
            p
        };
        let barrier_at = SimTime::from_secs_f64(1.7);
        // Reference: manual advance_step loop under the same strict-barrier
        // rule the quiet runs use.
        let mut seq_pool = build();
        let mut expect = Vec::new();
        let mut at = SimTime::from_secs_f64(seq_pool.step_secs().expect("busy"));
        loop {
            let report = seq_pool.advance_step(at);
            let next_dt = seq_pool.step_secs();
            expect.push((at, format!("{report:?}"), next_dt));
            let Some(dt) = next_dt else { break };
            let next = at + SimDuration::from_secs_f64(dt);
            if next >= barrier_at {
                break;
            }
            at = next;
        }
        let mut chain_pool = build();
        let from = SimTime::from_secs_f64(chain_pool.step_secs().expect("busy"));
        let records = chain(&mut chain_pool, from, Some(barrier_at));
        // One record per state change: the quiet boundaries ride on the
        // record before them.
        let quiet: usize = records.iter().map(|c| c.quiet as usize).sum();
        assert_eq!(records.len() + quiet, expect.len());
        assert!(records.len() > 1, "should cover several boundaries");
        let empty = format!("{:?}", StepReport::default());
        let mut want = expect.iter();
        for got in &records {
            let (t, rep, dt) = want.next().expect("a boundary per record");
            assert_eq!(got.at, *t);
            assert_eq!(format!("{:?}", got.report), *rep);
            assert_eq!(got.next_dt, *dt);
            let every = SimDuration::from_secs_f64(got.next_dt.unwrap_or(0.0));
            for j in 1..=u64::from(got.quiet) {
                let (t, rep, dt) = want.next().expect("a boundary per quiet step");
                assert_eq!(got.at + every * j, *t);
                assert_eq!(empty, *rep);
                assert_eq!(got.next_dt, *dt);
            }
        }
        // The two pools end in identical shape.
        assert_eq!(format!("{chain_pool:?}"), format!("{seq_pool:?}"));
        // Without a barrier the pool drains completely.
        let mut free_pool = build();
        let from = SimTime::from_secs_f64(free_pool.step_secs().expect("busy"));
        let records = chain(&mut free_pool, from, None);
        assert_eq!(records.last().expect("nonempty").next_dt, None);
        assert_eq!(free_pool.active(), 0);
    }

    #[test]
    fn idle_pool_starts_then_queues() {
        let mut p = pool_with(2, 0, 0, None);
        assert_eq!(p.offer(job(1), SimTime::ZERO), Offer::Started);
        // A step is in flight: later arrivals wait for the boundary even
        // though a slot is free (iteration-level admission).
        assert_eq!(p.offer(job(2), SimTime::ZERO), Offer::Queued);
        assert_eq!(p.active(), 1);
        assert_eq!(p.queue_len(), 1);
        let report = p.advance_step(SimTime::from_secs_f64(0.1));
        assert_eq!(report.admitted, 1, "boundary admits the queued job");
        assert_eq!(p.active(), 2);
        assert_eq!(drain(&mut p).0.len(), 2, "both jobs complete");
    }

    #[test]
    fn single_job_matches_zero_load_latency() {
        let mut p = pool_with(4, 32, 0, None);
        let j = job_with(1, 0.2, 0.8, 100, 40);
        assert_eq!(p.offer(j, SimTime::ZERO), Offer::Started);
        let (done, now) = drain(&mut p);
        assert_eq!(done.len(), 1);
        // ceil(100/32) = 4 prefill chunks summing to exactly ttft, then
        // 40 decode tokens summing to exactly decode (beta = 0).
        assert!((now - 1.0).abs() < 1e-9, "end at ttft+decode: {now}");
        let stats = p.iter_stats();
        assert_eq!(stats.chunk_steps, 4);
        assert_eq!(stats.decode_steps, 40);
        assert_eq!(stats.steps, 44);
        assert!((stats.mean_step_batch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ttft_is_first_decode_step_not_prefill_end() {
        let mut p = pool_with(1, 0, 0, None);
        let j = job_with(1, 0.2, 1.0, 100, 10);
        p.offer(j, SimTime::ZERO);
        let (done, _) = drain(&mut p);
        // First token at prefill end + one decode token (0.2 + 0.1).
        assert!((done[0].first_token.as_secs_f64() - 0.3).abs() < 1e-6);
        assert!((done[0].completed.as_secs_f64() - 1.2).abs() < 1e-6);
    }

    #[test]
    fn zero_decode_job_finishes_at_prefill_end() {
        let mut p = pool_with(1, 64, 0, None);
        p.offer(job_with(1, 0.5, 0.0, 128, 0), SimTime::ZERO);
        let (done, now) = drain(&mut p);
        assert_eq!(done.len(), 1);
        assert!((now - 0.5).abs() < 1e-9);
        assert_eq!(done[0].first_token, done[0].completed);
        assert_eq!(p.iter_stats().decode_steps, 0);
        assert_eq!(p.iter_stats().chunk_steps, 2);
    }

    #[test]
    fn chunk_larger_than_prompt_is_one_iteration() {
        let mut p = pool_with(1, 4096, 0, None);
        p.offer(job_with(1, 0.3, 0.0, 10, 0), SimTime::ZERO);
        let (done, now) = drain(&mut p);
        assert_eq!(done.len(), 1);
        assert_eq!(p.iter_stats().chunk_steps, 1, "whole prompt in one chunk");
        assert!((now - 0.3).abs() < 1e-9);
    }

    #[test]
    fn chunked_prefill_interleaves_with_decode() {
        // Job 1 decodes while job 2 prefills in chunks: iterations where
        // both a chunk step and a decode step happen.
        let mut p = pool_with(2, 10, 0, None);
        p.offer(job_with(1, 0.0, 1.0, 1, 50), SimTime::ZERO);
        // Boundary at t=0 (zero-cost prefill chunk for job 1's 1 token).
        let mut now = 0.0;
        now += p.step_secs().unwrap();
        p.advance_step(SimTime::from_secs_f64(now));
        p.offer(job_with(2, 0.5, 0.2, 100, 10), SimTime::from_secs_f64(now));
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 2);
        let stats = p.iter_stats();
        assert!(stats.chunk_steps >= 10, "job 2 prefills in 10 chunks");
        assert!(stats.mean_step_batch() > 1.0, "phases overlapped");
        assert!(stats.chunked_prefill_ratio() > 0.0);
    }

    #[test]
    fn preemption_resumes_with_no_token_loss() {
        // One slot, quantum 3: the running job yields every 3 decode
        // tokens while another waits, and both finish with exactly their
        // token budgets executed.
        let mut p = pool_with(1, 0, 3, None);
        p.offer(job_with(1, 0.0, 1.0, 1, 12), SimTime::ZERO);
        p.offer(job_with(2, 0.0, 1.0, 1, 12), SimTime::ZERO);
        let (reports, _) = boundaries(&mut p);
        // A yielding decoder re-queues behind the waiter, which takes
        // its slot at the same boundary.
        assert!(
            reports.iter().any(|r| r.preempted == 1 && r.admitted == 1),
            "a preemption hands its slot to the waiter"
        );
        let done: Vec<FinishedSeq> = reports.into_iter().flat_map(|r| r.finished).collect();
        assert_eq!(done.len(), 2);
        let stats = p.iter_stats();
        assert!(stats.preemptions > 0, "quantum must trigger preemption");
        // Total decode iterations == total decode tokens: nothing lost
        // or recomputed across preempt/resume cycles.
        assert_eq!(stats.decode_steps, 24);
        assert_eq!(stats.chunk_steps, 2);
        let by_id = |id: u64| done.iter().find(|f| f.job.id == JobId(id)).unwrap();
        assert!(by_id(1).preemptions > 0);
        // Re-admission keeps the first admission's start, so queueing
        // delay is measured once.
        assert_eq!(by_id(1).started, SimTime::ZERO);
        // Round-robin: both make progress; neither finishes only after
        // the other's full runtime (strict FIFO would give 1.0 and 2.0).
        assert!(by_id(1).completed.as_secs_f64() > 1.0);
        assert!(by_id(2).completed.as_secs_f64() < 2.1);
    }

    #[test]
    fn no_preemption_when_slots_freed_cover_waiters() {
        // Single-token jobs complete at every decode boundary, so the
        // freed slot always covers the next waiter: even with the most
        // aggressive quantum, nothing is ever preempted.
        let mut p = pool_with(1, 0, 1, None);
        for i in 1..=3 {
            p.offer(job_with(i, 0.0, 0.1, 1, 1), SimTime::ZERO);
        }
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 3);
        assert_eq!(p.iter_stats().preemptions, 0);
    }

    #[test]
    fn queue_cap_rejects_and_counts() {
        let mut p = pool_with(1, 0, 0, Some(1));
        assert_eq!(p.offer(job(1), SimTime::ZERO), Offer::Started);
        assert_eq!(p.offer(job(2), SimTime::ZERO), Offer::Queued);
        assert_eq!(p.offer(job(3), SimTime::ZERO), Offer::Rejected);
        assert_eq!(p.rejected(), 1);
        assert_eq!(p.iter_stats().queue_rejects, 1);
        assert_eq!(p.queue_len(), 1);
        // The capped-out job never runs; the others do.
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn completion_admits_queued_fifo() {
        let mut p = pool_with(1, 0, 0, None);
        p.offer(job_with(1, 0.0, 0.1, 1, 1), SimTime::ZERO);
        p.offer(job_with(2, 0.0, 0.1, 1, 1), SimTime::ZERO);
        p.offer(job_with(3, 0.0, 0.1, 1, 1), SimTime::ZERO);
        let (reports, _) = boundaries(&mut p);
        let admitted: u32 = reports.iter().map(|r| r.admitted).sum();
        assert_eq!(
            admitted, 2,
            "the offer started job 1; boundaries admit 2 and 3"
        );
        let order: Vec<u64> = reports
            .iter()
            .flat_map(|r| &r.finished)
            .map(|f| f.job.id.0)
            .collect();
        assert_eq!(order, vec![1, 2, 3], "FIFO admission order");
    }

    #[test]
    fn decode_stretch_grows_with_occupancy() {
        let run = |n_jobs: u64| {
            let mut p = ModelPool::new(PoolConfig {
                name: "test".into(),
                replicas: 1,
                slots_per_replica: 8,
                congestion_beta: 1.0,
                prefill_chunk_tokens: 0,
                preempt_decode_quantum: 0,
                max_queue: None,
                kv_swap: FREE_SWAPS,
                ..PoolConfig::default()
            });
            for i in 0..n_jobs {
                p.offer(job_with(i, 0.0, 1.0, 1, 20), SimTime::ZERO);
            }
            // Kick the boundary so queued jobs join the batch.
            let dt = p.step_secs().unwrap();
            p.advance_step(SimTime::from_secs_f64(dt));
            let (_, now) = drain(&mut p);
            now
        };
        let alone = run(1);
        let full = run(8);
        assert!(
            full > alone * 1.5,
            "full batch must stretch decode: {alone} vs {full}"
        );
    }

    #[test]
    fn service_secs_estimate_unchanged() {
        let mut p = pool_with(10, 0, 0, None);
        let empty = p.service_secs(&job(1));
        p.offer(job(0), SimTime::ZERO);
        for i in 1..9 {
            p.offer(job(i), SimTime::ZERO);
        }
        p.advance_step(SimTime::from_secs_f64(0.01));
        let busy = p.service_secs(&job(99));
        // beta = 0 in pool_with: the estimate is flat; with beta > 0 it
        // grows (covered by for_gpus defaults below).
        assert!((busy - empty).abs() < 1e-12);
        let mut q = ModelPool::new(PoolConfig {
            congestion_beta: 0.5,
            ..p.config().clone()
        });
        let e0 = q.service_secs(&job(1));
        q.offer(job(0), SimTime::ZERO);
        assert!(q.service_secs(&job(1)) > e0);
    }

    /// The acceptance-criterion scenario: memory pressure — not slot
    /// demand — triggers preemption while free slots remain.
    #[test]
    fn pressure_preempts_while_slots_are_free() {
        // 4 slots but only 8 blocks x 8 tokens = 64 KV tokens. Two jobs
        // of 16 prefill + 40 decode grow to 56 tokens (7 blocks) each:
        // together they exhaust the budget mid-decode with 2 slots
        // still free and the quantum preemption disabled.
        let mut p = kv_pool(4, 8, 8, Watermarks::new(1.0, 1.0));
        p.offer(job_with(1, 0.1, 1.0, 16, 40), SimTime::ZERO);
        p.offer(job_with(2, 0.1, 1.0, 16, 40), SimTime::ZERO);
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 2, "both jobs complete despite pressure");
        let kv = p.kv_stats();
        assert!(
            kv.pressure_preemptions > 0,
            "budget exhaustion must preempt: {kv:?}"
        );
        assert_eq!(kv.swap_outs, kv.pressure_preemptions);
        assert!(kv.swap_ins > 0, "victims must resume");
        assert_eq!(
            p.iter_stats().preemptions,
            0,
            "slot-demand quantum preemption stayed off — pressure was the trigger"
        );
        // Exactly the token budgets executed: nothing lost or repeated.
        assert_eq!(p.iter_stats().decode_steps, 80);
        // Blocks conserved: everything allocated was freed.
        assert_eq!(kv.allocs, kv.frees);
        assert_eq!(p.kv_occupancy(), 0.0);
        assert_eq!(p.swapped_len(), 0);
    }

    #[test]
    fn admission_waits_for_prefill_blocks_not_slots() {
        // 4 slots, 4 blocks x 8 tokens. Job 1 claims 3 blocks of
        // projected prefill; job 2 needs 3 more and must queue even
        // though 3 slots are free.
        let mut p = kv_pool(4, 8, 4, Watermarks::new(1.0, 1.0));
        assert_eq!(
            p.offer(job_with(1, 0.2, 0.5, 24, 4), SimTime::ZERO),
            Offer::Started
        );
        assert_eq!(
            p.offer(job_with(2, 0.2, 0.5, 24, 4), SimTime::ZERO),
            Offer::Queued
        );
        let dt = p.step_secs().unwrap();
        p.advance_step(SimTime::from_secs_f64(dt));
        assert_eq!(p.active(), 1, "job 2 gated on blocks, not slots");
        assert_eq!(p.queue_len(), 1);
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 2, "job 2 admitted once job 1 frees blocks");
    }

    #[test]
    fn swapped_victims_outrank_fresh_admissions() {
        // Two fat jobs thrash a tiny budget; a third fresh job queues
        // behind them. While any victim waits swapped out, the fresh
        // job must never be admitted — otherwise fresh arrivals hold
        // occupancy in the watermark band and starve already-started
        // work indefinitely.
        let mut p = kv_pool(2, 8, 8, Watermarks::new(1.0, 1.0));
        p.offer(job_with(1, 0.1, 1.0, 16, 40), SimTime::ZERO);
        p.offer(job_with(2, 0.1, 1.0, 16, 40), SimTime::ZERO);
        p.offer(job_with(3, 0.1, 1.0, 16, 40), SimTime::ZERO);
        let mut now = 0.0;
        let mut guard = 0;
        let mut finished = 0;
        let mut saw_swapped_with_fresh_waiting = false;
        while let Some(dt) = p.step_secs() {
            now += dt;
            let report = p.advance_step(SimTime::from_secs_f64(now));
            finished += report.finished.len();
            if p.swapped_len() > 0 && p.queue_len() > 0 {
                saw_swapped_with_fresh_waiting = true;
            }
            // Any boundary that admits queue work must have emptied the
            // swapped queue first (the admission loop takes the swapped
            // front while one waits).
            assert!(
                report.admitted == 0 || p.swapped_len() == 0,
                "fresh admission while a victim waited swapped out"
            );
            guard += 1;
            assert!(guard < 100_000, "runaway loop");
        }
        assert!(
            saw_swapped_with_fresh_waiting,
            "scenario must exercise the contested state"
        );
        assert_eq!(finished, 3, "the fresh job runs once victims drain");
        assert_eq!(p.kv_stats().allocs, p.kv_stats().frees);
    }

    #[test]
    fn an_emptied_batch_resumes_exactly_one_victim() {
        // `low = 0` shuts the resume gate for good (`Watermarks::new`
        // rejects it, so only a literal builds such a pool): a swapped
        // victim comes back only through the progress guarantee, when
        // the batch empties. The loop places that one sequence and
        // stops, though the high watermark would admit the queued job.
        let mut p = kv_pool(
            2,
            8,
            8,
            Watermarks {
                high: 1.0,
                low: 0.0,
            },
        );
        for i in 1..=3 {
            p.offer(job_with(i, 0.1, 1.0, 16, 40), SimTime::ZERO);
        }
        let mut now = 0.0;
        let mut finished = 0;
        let mut forced_with_work_queued = 0;
        while let Some(dt) = p.step_secs() {
            now += dt;
            let report = p.advance_step(SimTime::from_secs_f64(now));
            finished += report.finished.len();
            if report.resumed > 0 {
                assert_eq!(
                    (report.resumed, report.admitted, p.active()),
                    (1, 0, 1),
                    "one forced resume into an emptied batch, and nothing after it"
                );
                forced_with_work_queued += usize::from(p.queue_len() > 0);
            }
            assert!(finished <= 3 && now < 1e3, "runaway loop");
        }
        assert!(forced_with_work_queued > 0, "the stop must be exercised");
        assert_eq!(finished, 3, "every job completes");
        let kv = p.kv_stats();
        assert_eq!(kv.swap_ins, kv.swap_outs, "every victim resumed");
        assert_eq!(kv.allocs, kv.frees, "blocks conserved");
    }

    #[test]
    fn budget_smaller_than_one_prefill_chunk_still_progresses() {
        // 2 blocks x 4 tokens = 8 KV tokens against a 600-token prompt
        // processed in one unchunked iteration: the sequence windows
        // into its capped allocation and completes.
        let mut p = kv_pool(1, 4, 2, Watermarks::new(1.0, 1.0));
        assert_eq!(
            p.offer(job_with(1, 0.5, 0.2, 600, 8), SimTime::ZERO),
            Offer::Started
        );
        let (done, now) = drain(&mut p);
        assert_eq!(done.len(), 1);
        assert!((now - 0.7).abs() < 1e-9, "timing unchanged by the cap");
        let kv = p.kv_stats();
        assert_eq!(kv.peak_blocks, 2, "never more than the budget");
        assert_eq!(kv.allocs, kv.frees);
        assert_eq!(
            kv.pressure_preemptions, 0,
            "a lone sequence is never a victim"
        );
    }

    #[test]
    fn watermarks_equal_to_budget_preempt_only_on_hard_failure() {
        // high == low == 1.0: admission stays open until the pool is
        // literally full and swapped work resumes as soon as any block
        // frees. Three fat jobs over a tiny budget must thrash through
        // swaps yet complete with exact token counts.
        let mut p = kv_pool(4, 4, 6, Watermarks::new(1.0, 1.0));
        for i in 1..=3 {
            p.offer(job_with(i, 0.1, 0.5, 8, 20), SimTime::ZERO);
        }
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 3);
        assert_eq!(p.iter_stats().decode_steps, 60);
        let kv = p.kv_stats();
        assert!(kv.pressure_preemptions > 0);
        assert_eq!(kv.swap_ins, kv.swap_outs, "every victim resumed");
        assert_eq!(kv.allocs, kv.frees);
    }

    #[test]
    fn swap_penalties_stretch_the_step_clock() {
        let run = |out_cost: f64, in_cost: f64| {
            let mut p = ModelPool::new(PoolConfig {
                name: "kv".into(),
                kv_share: false,
                replicas: 1,
                slots_per_replica: 4,
                congestion_beta: 0.0,
                prefill_chunk_tokens: 0,
                preempt_decode_quantum: 0,
                max_queue: None,
                kv_block_tokens: 8,
                kv_budget_blocks: 8,
                kv_watermarks: Watermarks::new(1.0, 1.0),
                kv_swap: KvSwap {
                    out_secs_per_block: out_cost,
                    in_secs_per_block: in_cost,
                    ..KvSwap::DEFAULT
                },
            });
            p.offer(job_with(1, 0.1, 1.0, 16, 40), SimTime::ZERO);
            p.offer(job_with(2, 0.1, 1.0, 16, 40), SimTime::ZERO);
            let (done, now) = drain(&mut p);
            assert_eq!(done.len(), 2);
            (p.kv_stats(), now)
        };
        let (free_kv, free_secs) = run(0.0, 0.0);
        let (paid_kv, paid_secs) = run(0.01, 0.01);
        assert!(free_kv.pressure_preemptions > 0, "scenario must thrash");
        assert_eq!(free_kv.swap_outs, paid_kv.swap_outs, "same schedule");
        assert!(
            paid_secs > free_secs + 1e-9,
            "swap costs must show up on the clock: {free_secs} vs {paid_secs}"
        );
    }

    /// Pool that parks victims on a bounded host ledger.
    fn host_capped_pool(budget: u32, host_capacity: u32) -> ModelPool {
        ModelPool::new(PoolConfig {
            name: "kv".into(),
            kv_share: false,
            replicas: 1,
            slots_per_replica: 4,
            congestion_beta: 0.0,
            prefill_chunk_tokens: 0,
            preempt_decode_quantum: 0,
            max_queue: None,
            kv_block_tokens: 8,
            kv_budget_blocks: budget,
            kv_watermarks: Watermarks::new(1.0, 1.0),
            kv_swap: KvSwap {
                host_capacity_blocks: host_capacity,
                overflow_recompute_secs_per_token: 0.0,
                ..FREE_SWAPS
            },
        })
    }

    #[test]
    fn exhausted_host_space_falls_back_to_recompute_eviction() {
        // Same thrash scenario as `pressure_preempts_while_slots_are_free`
        // (victims hold several blocks each) under three host regimes.
        let run = |host_capacity: u32| {
            let mut p = host_capped_pool(8, host_capacity);
            p.offer(job_with(1, 0.1, 1.0, 16, 40), SimTime::ZERO);
            p.offer(job_with(2, 0.1, 1.0, 16, 40), SimTime::ZERO);
            let (done, _) = drain(&mut p);
            assert_eq!(done.len(), 2, "jobs must complete in every regime");
            assert_eq!(p.kv_host_blocks(), 0, "host blocks leaked");
            let kv = p.kv_stats();
            assert_eq!(kv.allocs, kv.frees, "device blocks conserved");
            kv
        };
        let unbounded = run(0);
        assert!(unbounded.swap_outs > 0, "scenario must thrash");
        assert_eq!(
            unbounded.recompute_fallbacks, 0,
            "unbounded never overflows"
        );
        assert!(unbounded.host_peak_blocks > 0, "victims parked on host");

        // A one-block host cannot hold any multi-block victim: every
        // eviction falls back to recompute pricing.
        let starved = run(1);
        assert!(starved.recompute_fallbacks > 0, "cap must overflow");
        assert_eq!(
            starved.recompute_fallbacks, starved.swap_outs,
            "every victim overflowed the one-block host"
        );
        assert_eq!(starved.host_peak_blocks, 0, "nothing ever fit");

        // A host as large as the device budget always fits (a victim
        // holds at most the replica budget).
        let roomy = run(8);
        assert_eq!(roomy.recompute_fallbacks, 0);
        assert!(roomy.host_peak_blocks > 0);
        assert!(roomy.host_peak_blocks <= 8, "ledger bounded by the cap");
    }

    #[test]
    fn host_overflow_charges_recompute_at_resume() {
        // Expensive swap pricing, free overflow recompute: a host too
        // small to park anything must make the run *cheaper* than the
        // unbounded host (whose swaps pay per block both ways), on an
        // otherwise identical schedule.
        let run = |host_capacity: u32| {
            let mut p = ModelPool::new(PoolConfig {
                kv_swap: KvSwap {
                    out_secs_per_block: 0.05,
                    in_secs_per_block: 0.05,
                    host_capacity_blocks: host_capacity,
                    overflow_recompute_secs_per_token: 0.0,
                },
                ..host_capped_pool(8, 0).config().clone()
            });
            p.offer(job_with(1, 0.1, 1.0, 16, 40), SimTime::ZERO);
            p.offer(job_with(2, 0.1, 1.0, 16, 40), SimTime::ZERO);
            let (done, now) = drain(&mut p);
            assert_eq!(done.len(), 2);
            (p.kv_stats(), now)
        };
        let (paid_kv, paid_secs) = run(0);
        let (free_kv, free_secs) = run(1);
        assert!(paid_kv.swap_outs > 0, "scenario must thrash");
        assert_eq!(paid_kv.swap_outs, free_kv.swap_outs, "same schedule");
        assert!(
            paid_secs > free_secs + 1e-9,
            "dropping past a full host must be cheaper than paid swaps: \
             {free_secs} vs {paid_secs}"
        );
        // And a non-zero overflow price shows up on the clock.
        let run_overflow_price = |secs_per_token: f64| {
            let mut p = ModelPool::new(PoolConfig {
                kv_swap: KvSwap {
                    host_capacity_blocks: 1,
                    overflow_recompute_secs_per_token: secs_per_token,
                    ..FREE_SWAPS
                },
                ..host_capped_pool(8, 0).config().clone()
            });
            p.offer(job_with(1, 0.1, 1.0, 16, 40), SimTime::ZERO);
            p.offer(job_with(2, 0.1, 1.0, 16, 40), SimTime::ZERO);
            let (done, now) = drain(&mut p);
            assert_eq!(done.len(), 2);
            now
        };
        let cheap = run_overflow_price(0.0);
        let costly = run_overflow_price(1e-3);
        assert!(
            costly > cheap + 1e-9,
            "overflow recompute must be charged: {cheap} vs {costly}"
        );
    }

    #[test]
    fn quantum_eviction_parks_and_drain_releases_host_blocks() {
        // One slot, quantum 2: the quantum victim
        // sits in the queue with its state parked on the host ledger;
        // draining the queue must release the ledger entry.
        let mut p = ModelPool::new(PoolConfig {
            name: "kv".into(),
            kv_share: false,
            replicas: 1,
            slots_per_replica: 1,
            congestion_beta: 0.0,
            prefill_chunk_tokens: 0,
            preempt_decode_quantum: 2,
            max_queue: None,
            kv_block_tokens: 8,
            kv_budget_blocks: 64,
            kv_watermarks: Watermarks::DEFAULT,
            kv_swap: KvSwap::DEFAULT,
        });
        p.offer(job_with(1, 0.0, 1.0, 8, 12), SimTime::ZERO);
        p.offer(job_with(2, 0.0, 1.0, 8, 12), SimTime::ZERO);
        let mut now = 0.0;
        let mut guard = 0;
        while p.iter_stats().preemptions == 0 {
            let dt = p.step_secs().expect("pool busy");
            now += dt;
            p.advance_step(SimTime::from_secs_f64(now));
            guard += 1;
            assert!(guard < 1_000, "no quantum preemption happened");
        }
        assert!(p.kv_host_blocks() > 0, "victim parked on the host ledger");
        assert_eq!(p.queue_len(), 1);
        let dropped = p.drain_queue();
        assert_eq!(dropped.len(), 1);
        assert_eq!(p.kv_host_blocks(), 0, "drain must release host blocks");
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 1, "the resident sequence still completes");
    }

    #[test]
    fn quantum_preemption_releases_blocks() {
        // A slot-demand (quantum) preemption must release the victim's
        // KV blocks — a paged engine cannot park KV state in a queue —
        // and re-admission counts as a swap-in.
        let mut p = ModelPool::new(PoolConfig {
            name: "kv".into(),
            kv_share: false,
            replicas: 1,
            slots_per_replica: 1,
            congestion_beta: 0.0,
            prefill_chunk_tokens: 0,
            preempt_decode_quantum: 2,
            max_queue: None,
            kv_block_tokens: 8,
            kv_budget_blocks: 64,
            kv_watermarks: Watermarks::DEFAULT,
            kv_swap: KvSwap::DEFAULT,
        });
        p.offer(job_with(1, 0.0, 1.0, 8, 12), SimTime::ZERO);
        p.offer(job_with(2, 0.0, 1.0, 8, 12), SimTime::ZERO);
        // Step until the first quantum preemption evicts job 1.
        let mut now = 0.0;
        let mut guard = 0;
        while p.iter_stats().preemptions == 0 {
            let dt = p.step_secs().expect("pool busy");
            now += dt;
            p.advance_step(SimTime::from_secs_f64(now));
            guard += 1;
            assert!(guard < 1_000, "no quantum preemption happened");
        }
        let kv = p.kv_stats();
        assert!(kv.swap_outs > 0, "quantum eviction is a swap-out");
        assert_eq!(
            kv.pressure_preemptions, 0,
            "slot demand, not memory pressure, was the trigger"
        );
        // Only the running sequence holds memory now.
        let held = kv.allocs - kv.frees;
        assert!(held <= p.kv_stats().peak_blocks);
        assert_eq!(p.queue_len(), 1, "victim parked blockless in the queue");
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 2);
        let kv = p.kv_stats();
        assert!(kv.swap_ins > 0, "victim re-admission swapped back in");
        assert_eq!(kv.allocs, kv.frees, "blocks conserved");
        assert_eq!(p.iter_stats().decode_steps, 24, "no tokens lost");
    }

    #[test]
    fn for_gpus_sizes_replicas() {
        let large = PoolConfig::for_gpus("large", 16, 8, 16);
        let small = PoolConfig::for_gpus("small", 16, 1, 16);
        assert_eq!(large.replicas, 2);
        assert_eq!(small.replicas, 16);
        assert!(small.total_slots() > large.total_slots());
        assert!(large.prefill_chunk_tokens > 0, "chunked prefill on");
        assert!(large.preempt_decode_quantum > 0, "preemption on");
        assert!(large.max_queue.is_none(), "unbounded queue by default");
        assert!(large.kv_budget_blocks > 0 && large.kv_block_tokens > 0);
        assert!(large.kv_watermarks.low <= large.kv_watermarks.high);
        // A model bigger than the cluster still gets one replica.
        let huge = PoolConfig::for_gpus("huge", 4, 16, 8);
        assert_eq!(huge.replicas, 1);
    }

    /// Like `job_with` but carrying a victim-selection priority class.
    fn prio_job(id: u64, priority: u8, ptoks: u32, dtoks: u32) -> JobSpec {
        JobSpec {
            priority,
            ..job_with(id, 0.1, 1.0, ptoks, dtoks)
        }
    }

    /// Steps the pool until the first pressure preemption and returns
    /// the victim order (ids in swap-out order).
    fn victims_under_pressure(pool: &mut ModelPool, want: usize) -> Vec<u64> {
        let mut now = 0.0;
        let mut guard = 0;
        let mut victims = Vec::new();
        while victims.len() < want {
            let dt = pool.step_secs().expect("pool busy");
            now += dt;
            let before = pool.swapped_len();
            pool.advance_step(SimTime::from_secs_f64(now));
            for s in pool.swapped.iter().skip(before) {
                victims.push(s.job.id.0);
            }
            guard += 1;
            assert!(guard < 10_000, "no pressure preemption happened");
        }
        victims
    }

    #[test]
    fn pressure_victims_are_lowest_priority_first() {
        // Three residents on a budget that forces one victim: the
        // low-priority job must yield even though a higher-priority
        // peer has strictly more decode remaining.
        let mut p = kv_pool(4, 8, 12, Watermarks::new(1.0, 1.0));
        p.offer(prio_job(1, 2, 16, 60), SimTime::ZERO); // Most decode, high prio.
        p.offer(prio_job(2, 0, 16, 30), SimTime::ZERO); // Lowest priority.
        p.offer(prio_job(3, 1, 16, 45), SimTime::ZERO);
        let victims = victims_under_pressure(&mut p, 1);
        assert_eq!(victims, vec![2], "lowest priority class yields first");
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 3, "victim still completes");
        assert_eq!(p.kv_stats().allocs, p.kv_stats().frees);
    }

    #[test]
    fn equal_priority_ties_break_by_longest_remaining_decode() {
        // Same class everywhere: the pre-existing rule must be
        // unchanged — longest remaining decode goes first.
        let mut p = kv_pool(4, 8, 12, Watermarks::new(1.0, 1.0));
        p.offer(prio_job(1, 3, 16, 30), SimTime::ZERO);
        p.offer(prio_job(2, 3, 16, 60), SimTime::ZERO); // Longest decode.
        p.offer(prio_job(3, 3, 16, 45), SimTime::ZERO);
        let victims = victims_under_pressure(&mut p, 1);
        assert_eq!(victims, vec![2], "decode length decides within a class");
    }

    #[test]
    fn priority_zero_everywhere_matches_the_legacy_rule() {
        // The engine threads priority 0 for all traffic: the victim
        // schedule must be identical to the pre-priority behaviour
        // (longest remaining decode, earliest slot on ties).
        let run = |prio: u8| {
            let mut p = kv_pool(4, 8, 8, Watermarks::new(1.0, 1.0));
            p.offer(prio_job(1, prio, 16, 40), SimTime::ZERO);
            p.offer(prio_job(2, prio, 16, 40), SimTime::ZERO);
            let (done, now) = drain(&mut p);
            assert_eq!(done.len(), 2);
            (p.kv_stats().pressure_preemptions, now)
        };
        let (preempts_0, secs_0) = run(0);
        let (preempts_9, secs_9) = run(9);
        assert!(preempts_0 > 0, "scenario must thrash");
        assert_eq!(preempts_0, preempts_9, "uniform class cancels out");
        assert_eq!(secs_0.to_bits(), secs_9.to_bits());
    }

    #[test]
    fn fail_over_flushes_everything_and_conserves_blocks() {
        // Build the contested state: two fat residents thrashing a tiny
        // budget (one swapped out) plus a queued third job.
        let mut p = kv_pool(2, 8, 8, Watermarks::new(1.0, 1.0));
        p.offer(job_with(1, 0.1, 1.0, 16, 40), SimTime::ZERO);
        p.offer(job_with(2, 0.1, 1.0, 16, 40), SimTime::ZERO);
        p.offer(job_with(3, 0.1, 1.0, 16, 40), SimTime::ZERO);
        let mut now = 0.0;
        let mut guard = 0;
        while p.swapped_len() == 0 {
            let dt = p.step_secs().expect("pool busy");
            now += dt;
            p.advance_step(SimTime::from_secs_f64(now));
            guard += 1;
            assert!(guard < 10_000, "scenario must swap");
        }
        assert!(p.active() > 0);
        let expect = p.active() as usize + p.swapped_len() + p.queue_len();
        let flushed = p.fail_over();
        assert_eq!(flushed.len(), expect, "every job comes back for retry");
        let mut sorted: Vec<u64> = flushed.iter().map(|id| id.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
        // The pool is empty and idle; all memory released.
        assert_eq!(p.active(), 0);
        assert_eq!(p.queue_len(), 0);
        assert_eq!(p.swapped_len(), 0);
        assert!(p.step_secs().is_none(), "no step to arm after failover");
        assert_eq!(p.kv_stats().allocs, p.kv_stats().frees, "blocks conserved");
        assert_eq!(p.kv_occupancy(), 0.0);
        assert_eq!(p.kv_host_blocks(), 0, "host ledger released");
        // The pool serves fresh work again afterwards.
        assert_eq!(
            p.offer(job_with(9, 0.1, 0.5, 8, 4), SimTime::ZERO),
            Offer::Started
        );
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn fail_over_returns_running_then_queued_ids() {
        let mut p = pool_with(1, 0, 0, None);
        p.offer(job(1), SimTime::ZERO);
        p.offer(job(2), SimTime::ZERO);
        let flushed = p.fail_over();
        assert_eq!(flushed, vec![JobId(1), JobId(2)]);
        assert_eq!(p.active(), 0);
        assert_eq!(p.kv_stats().allocs, p.kv_stats().frees, "blocks conserved");
    }

    #[test]
    #[should_panic(expected = "at least one block per replica")]
    fn zero_kv_budget_panics() {
        let _ = ModelPool::new(PoolConfig {
            kv_budget_blocks: 0,
            ..PoolConfig::default()
        });
    }

    #[test]
    fn drain_returns_queued_ids() {
        let mut p = pool_with(1, 0, 0, None);
        p.offer(job(1), SimTime::ZERO);
        p.offer(job(2), SimTime::ZERO);
        p.offer(job(3), SimTime::ZERO);
        let dropped = p.drain_queue();
        assert_eq!(dropped, vec![JobId(2), JobId(3)]);
        assert_eq!(p.queue_len(), 0);
        assert_eq!(p.active(), 1, "running sequence keeps its slot");
    }

    /// `kv_pool` with shared-prefix reuse on.
    fn share_pool(slots: u32, block_tokens: u32, budget: u32, marks: Watermarks) -> ModelPool {
        let mut cfg = kv_pool(slots, block_tokens, budget, marks).config().clone();
        cfg.kv_share = true;
        ModelPool::new(cfg)
    }

    use crate::job::SharedPrefix;

    /// A job whose first `share_tokens` prompt tokens are the example
    /// set `set` (identical across jobs carrying the same `set`).
    fn shared_job(id: u64, set: u64, share_tokens: u32, ptoks: u32, dtoks: u32) -> JobSpec {
        JobSpec {
            share: Some(SharedPrefix {
                set,
                tokens: share_tokens,
            }),
            ..job_with(id, 0.1, 1.0, ptoks, dtoks)
        }
    }

    #[test]
    fn same_set_concurrent_jobs_dedup_prefix_blocks() {
        // 8 concurrent jobs inject the same 64-token example set
        // (4 blocks of 16). The first allocates + registers the prefix;
        // the other 7 map it: 7 x 4 = 28 blocks saved, and the peak
        // footprint undercuts the share-off twin by exactly those
        // blocks.
        let run = |share: bool| {
            let mut p = if share {
                share_pool(8, 16, 256, Watermarks::new(1.0, 1.0))
            } else {
                kv_pool(8, 16, 256, Watermarks::new(1.0, 1.0))
            };
            for i in 0..8 {
                p.offer(shared_job(i, 42, 64, 100, 8), SimTime::ZERO);
            }
            let (done, _) = drain(&mut p);
            assert_eq!(done.len(), 8);
            p.kv_stats()
        };
        let shared = run(true);
        let private = run(false);

        assert_eq!(private.blocks_saved, 0);
        assert_eq!(
            shared.blocks_saved,
            7 * 4,
            "7 followers map 4 prefix blocks each"
        );
        assert!(shared.dedup_ratio() > 0.0);
        assert_eq!(
            shared.shared_blocks_peak, 4,
            "the 4 registered prefix blocks are the shared set"
        );
        assert_eq!(
            private.peak_blocks - shared.peak_blocks,
            28,
            "every saved block comes off the peak footprint"
        );
        // Aligned prefix (64 % 16 == 0): growth past the set lands in
        // fresh private blocks, never a shared one — no copies.
        assert_eq!(shared.cow_copies, 0);
        assert_eq!(shared.allocs, shared.frees, "conservation at drain");
    }

    #[test]
    fn growth_past_unaligned_prefix_copy_on_writes() {
        // A 40-token set on 16-token blocks: the third prefix block is
        // shared but only 8 of its tokens belong to the set. Prefill is
        // chunked (32 tokens/iteration) so job 2 is admitted — and maps
        // all 3 prefix blocks — while job 1 still sits at 32 tokens,
        // inside the prefix. Job 1 then grows past token 40 with the
        // tail block at refcount 2: it must copy-on-write (job 2 still
        // reads the original). Job 2 diverges later as sole holder and
        // privatizes in place — exactly one copy overall.
        let mut cfg = share_pool(4, 16, 64, Watermarks::new(1.0, 1.0))
            .config()
            .clone();
        cfg.prefill_chunk_tokens = 32;
        let mut p = ModelPool::new(cfg);
        p.offer(shared_job(1, 7, 40, 80, 4), SimTime::ZERO);
        p.offer(shared_job(2, 7, 40, 80, 4), SimTime::ZERO);
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 2);
        let kv = p.kv_stats();
        assert_eq!(kv.blocks_saved, 3, "follower maps ceil(40/16) = 3 blocks");
        assert_eq!(kv.cow_copies, 1, "exactly one diverger pays a copy");
        assert_eq!(kv.allocs, kv.frees, "conservation at drain");
        assert_eq!(
            p.kv.shared_blocks(),
            0,
            "no shared blocks survive the drain"
        );
    }

    #[test]
    fn swap_out_of_a_shared_reader_keeps_blocks_for_the_other() {
        // Two jobs share a 4-block set on a budget that forces one out
        // mid-decode even *with* dedup (9 blocks vs a peak shared
        // footprint of 10). The victim's swap-out must only release its
        // *references*: the survivor keeps reading the shared blocks,
        // and the victim re-maps them at resume. Everything completes
        // and the ledger balances.
        let mut p = share_pool(4, 16, 9, Watermarks::new(1.0, 1.0));
        p.offer(shared_job(1, 9, 64, 64, 40), SimTime::ZERO);
        p.offer(shared_job(2, 9, 64, 64, 40), SimTime::ZERO);
        let (done, _) = drain(&mut p);
        assert_eq!(done.len(), 2, "both shared readers complete");
        let kv = p.kv_stats();
        assert!(kv.blocks_saved > 0, "the follower mapped the set");
        assert!(
            kv.pressure_preemptions > 0 || kv.swap_outs > 0,
            "the 9-block budget must not fit the 10-block shared peak"
        );
        assert_eq!(kv.allocs, kv.frees, "conservation at drain");
        assert_eq!(p.kv.shared_blocks(), 0);
    }

    /// `alloc_with_sharing` as it read while the content table was two
    /// ordered maps: a `lookup_prefix` per prefix chunk, then a
    /// `register_prefix` per chunk the table was missing. Kept as the
    /// reference [`assert_per_chunk_loop_agrees`] replays every
    /// admission through.
    fn per_chunk_alloc(
        kv: &mut BlockPool,
        share_enabled: bool,
        seq: &Sequence,
        fallback_replica: usize,
    ) -> Option<SharedAlloc> {
        let demand = seq.kv_demand(kv);
        let share = if share_enabled { seq.job.share } else { None };
        let Some(share) = share.filter(|s| s.tokens > 0) else {
            return kv
                .try_alloc(fallback_replica, demand)
                .map(|blocks| SharedAlloc {
                    replica: fallback_replica,
                    blocks,
                    fresh: demand,
                    cow_pending: false,
                });
        };
        let bt = u64::from(kv.block_tokens());
        let prefix_tokens = u64::from(share.tokens);
        let prefix_chunks = (prefix_tokens.div_ceil(bt) as u32).min(demand);
        let mappable = if seq.kv_tokens > prefix_tokens {
            ((prefix_tokens / bt) as u32).min(demand)
        } else {
            prefix_chunks
        };
        let mut mapped: Vec<BlockId> = Vec::new();
        for chunk in 0..mappable {
            match kv.lookup_prefix(share.set, chunk) {
                Some(b) if mapped.first().is_none_or(|f| f.replica == b.replica) => mapped.push(b),
                _ => break,
            }
        }
        let replica = mapped
            .first()
            .map_or(fallback_replica, |b| b.replica as usize);
        let fresh = demand - mapped.len() as u32;
        let private = kv.try_alloc(replica, fresh)?;
        for &b in &mapped {
            kv.map_shared(b);
        }
        let mapped_count = mapped.len() as u32;
        let mut blocks = mapped;
        blocks.extend(private);
        if seq.kv_tokens <= prefix_tokens {
            for chunk in mapped_count..prefix_chunks {
                kv.register_prefix(share.set, chunk, blocks[chunk as usize]);
            }
        }
        let tail = (prefix_tokens / bt) as usize;
        let cow_pending = prefix_tokens % bt != 0
            && seq.kv_tokens <= prefix_tokens
            && tail < blocks.len()
            && kv.is_registered(blocks[tail]);
        Some(SharedAlloc {
            replica,
            blocks,
            fresh,
            cow_pending,
        })
    }

    /// Called by `alloc_with_sharing` on every admission of every test
    /// in this module: `got` (which left the pool as `after`) must be
    /// what [`per_chunk_alloc`] returns on `before`, and must leave the
    /// same pool — counters, refcounts, tags, the set's table entries,
    /// and free lists that hand out the same ids in the same order.
    pub(super) fn assert_per_chunk_loop_agrees(
        mut before: BlockPool,
        after: &BlockPool,
        share_enabled: bool,
        seq: &Sequence,
        fallback_replica: usize,
        got: &Option<SharedAlloc>,
    ) {
        let want = per_chunk_alloc(&mut before, share_enabled, seq, fallback_replica);
        assert_eq!(got, &want, "admission of job {:?}", seq.job.id);
        assert_eq!(after.stats(), before.stats());
        assert_eq!(after.shared_blocks(), before.shared_blocks());
        assert_eq!(after.resident_sets(), before.resident_sets());
        let budget = after.budget_blocks();
        for replica in 0..after.num_replicas() as u32 {
            for index in 0..budget {
                let b = BlockId { replica, index };
                assert_eq!(after.refcount(b), before.refcount(b), "{b:?}");
                assert_eq!(after.is_registered(b), before.is_registered(b), "{b:?}");
            }
        }
        if let Some(share) = seq.job.share {
            for chunk in 0..budget {
                assert_eq!(
                    after.lookup_prefix(share.set, chunk),
                    before.lookup_prefix(share.set, chunk),
                    "chunk {chunk} of set {}",
                    share.set
                );
            }
        }
        let mut after = after.clone();
        for replica in 0..after.num_replicas() {
            let free = after.free_blocks(replica);
            assert_eq!(
                after.try_alloc(replica, free),
                before.try_alloc(replica, free),
                "free list of replica {replica}"
            );
        }
    }

    #[test]
    fn admissions_match_the_per_chunk_loop_under_bursts_and_pressure() {
        // Two replicas of 24 sixteen-token blocks, prefill in 32-token
        // chunks (carriers overlap inside their prefixes), a quantum so
        // decoders yield to the queue, and watermarks that gate
        // admission and resume. Bursts alternate between one hot set
        // (unaligned: 40 tokens, 2.5 blocks), a longer one (100 tokens,
        // 6.25 blocks) and a set of its own per job (aligned and not),
        // so admissions meet an empty table, a full resident run, a run
        // cut short by a privatized tail, and — once pressure has
        // swapped carriers out past their prefix — victims that may map
        // full chunks only. Every one of them goes through
        // `assert_per_chunk_loop_agrees` inside `alloc_with_sharing`.
        // (Mutation only this test catches: let such a victim map the
        // partial tail too — `prefix_chunks` for `mappable` on the
        // non-pristine branch.)
        let mut cfg = share_pool(3, 16, 20, Watermarks::new(0.9, 0.6))
            .config()
            .clone();
        cfg.replicas = 2;
        cfg.prefill_chunk_tokens = 32;
        cfg.preempt_decode_quantum = 6;
        let mut p = ModelPool::new(cfg);
        let mut now = 0.0f64;
        let mut done = 0usize;
        let mut id = 0u64;
        for burst in 0..12u64 {
            for k in 0..8u64 {
                let (set, share_tokens) = match (burst + k) % 4 {
                    0 | 1 => (1, 40),
                    2 => (2, 100),
                    _ => (100 + id, if k % 2 == 0 { 48 } else { 70 }),
                };
                let prompt = share_tokens + 10 + (k as u32 * 7) % 30;
                let decode = 5 + ((burst * 5 + k * 11) % 90) as u32;
                p.offer(
                    shared_job(id, set, share_tokens, prompt, decode),
                    SimTime::from_secs_f64(now),
                );
                id += 1;
            }
            // Let the burst half-drain so the next one lands on a pool
            // that is still holding (and sharing) blocks.
            for _ in 0..40 {
                let Some(dt) = p.step_secs() else { break };
                now += dt;
                done += p.advance_step(SimTime::from_secs_f64(now)).finished.len();
            }
        }
        done += drain(&mut p).0.len();
        assert_eq!(done as u64, id, "every job completes");
        let kv = p.kv_stats();
        assert!(kv.blocks_saved > 0, "resident runs were mapped");
        assert!(kv.cow_copies > 0, "an unaligned tail was copied");
        assert!(kv.pressure_preemptions > 0, "pressure swapped carriers out");
        assert!(
            kv.swap_outs > kv.pressure_preemptions,
            "and the quantum did"
        );
        assert_eq!(kv.swap_ins, kv.swap_outs, "every victim resumed");
        assert_eq!(kv.allocs, kv.frees, "conservation at drain");
        let pool = &p.kv;
        assert_eq!((pool.shared_blocks(), pool.resident_sets()), (0, 0));
    }
}
