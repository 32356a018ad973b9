//! The unified IC-Cache serving engine.
//!
//! One trait, [`ServingEngine`], and its implementation
//! [`EventDrivenEngine`]: a full
//! [`IcCacheSystem`](ic_cache::IcCacheSystem) driven through
//! `ic_desim::Simulator`, with iteration-level (token-step) continuous
//! batching on per-model [`ic_serving::ModelPool`]s. Every
//! load-dependent claim of the paper — Fig. 12's bursty-trace latency,
//! Fig. 20's completion-time growth, the router's overload bias — needs
//! the IC-Cache logic and the queueing in the same loop; this is it.
//!
//! # Event flow (`EventDrivenEngine`)
//!
//! ```text
//!  EngineState::run — next is whichever has the smallest (time, seq) key:
//!
//!  the arrival cursor's head                   the earliest armed slot
//!  (the workload sorted by (time, i), its      (per pool: the key of its
//!   one copy; arrival i holds seq i, below      next step boundary)
//!   every seq the run hands out)
//!   ├ owner replica's load window              step region
//!   ├ stage 0: pre-observe the tick's run,      ├ heads: the armed slots
//!   │  lookup ── hit ──▶ Stage0Complete(i)      │  that sort before the next
//!   ├ IcCacheSystem::serve: stage 1 + stage 2   │  router interaction (cursor
//!   │  + routing + generation + feedback        │  head or heap head);
//!   └ dispatch ──▶ pool.offer ── Started ──▶    │  barrier: its time
//!                  arm the pool's slot          ├ one advance_chain per
//!                                               │  head, up to the barrier:
//!  the event heap's head                        │  one record per state
//!  (ic_desim::Simulator: every other router     │  change + a count of the
//!   interaction, one handler per event)         │  quiet boundaries behind it
//!  PoolDown(p) ─ flush, clear the pool's slot,  ├ merge in (time, seq):
//!                serve_retry ▶ dispatch         │  finishers ▶ complete
//!  PoolUp(p)                                    │  (TTFT/E2E, Little's law
//!  Maintenance / Rebalance / GossipRound /      │  ▶ owning replica); quiet
//!  ObsSample (periodic, re-armed while work     │  boundaries before the
//!  remains)                                     │  next pending key are
//!  Stage0Complete(i) ▶ complete                 │  counted, their seqs burned
//!                                               └ re-arm the slot of every
//!                                                  pool still busy
//! ```
//!
//! Arrivals never enter the heap either: the cursor
//! (`driven/arrival.rs`) is the workload's one copy, and
//! `Simulator::advance_to` moves the clock when its head fires.
//! Step events never enter the heap: a busy pool has exactly one armed
//! slot, keyed by the seq a queued event would have drawn at that
//! moment (`Simulator::reserve_seq`), so the handling order is the
//! `(time, seq)` order of a loop that queued every step — with one copy
//! of each pending step and nothing to mirror or invalidate.
//! `dispatch` is the one tail fresh arrivals and failover retries
//! share; `complete` is the one finisher bookkeeping pool steps and
//! stage-0 hits share (see `driven/state.rs`). A pool's chain is
//! run-length encoded — between admission, finish, block-boundary and
//! pressure events a decode-only batch advances in closed form
//! (`ic_serving::pool`, "Run-length step chains") — and the merge keeps
//! every quiet boundary's place in the `(time, seq)` order without
//! visiting it (`driven/step.rs`).
//!
//! Each **arrival** event runs Algorithm 1 (`IcCacheSystem::serve`):
//! example selection against the sharded cache, load-aware routing at
//! the router replica that owns the request id (the engine has just fed
//! that replica a windowed arrival-rate estimate), and
//! simulated generation, producing the job's zero-load prefill/decode
//! demand and token counts. The job then joins its model's pool at a
//! step boundary: the pool's `slots_per_replica` concurrent sequences
//! run Orca-style iteration-level scheduling — each step boundary
//! advances every running sequence by one prefill chunk or one decode
//! token, retires finished sequences, preempts over-quantum decoders
//! when jobs queue behind, and admits waiting jobs into freed slots.
//!
//! Each **finished sequence** feeds measured latency back into the
//! system: the engine maintains an EMA of end-to-end latency and converts
//! in-flight + queued work into a requests/second estimate via Little's
//! law (`lambda = L / W`), which it reports to `ic_router`'s load
//! tracker. Under saturation the queues grow, the estimate spikes, and
//! the router's tanh bias sheds traffic to the cheap pool — the paper's
//! overload mechanism, now closed-loop. Feedback solicitation runs inside
//! the serve step as in Algorithm 1; the solicitation count is surfaced
//! in the report, and the per-iteration scheduler counters (mean batch
//! size per step, chunked-prefill mix, preemptions, queue-cap rejects)
//! land in the report's `iter` block.
//!
//! **Maintenance** events run cost-aware replay plus capacity
//! enforcement off the hot path; **rebalance** events run the cheaper
//! capacity-only pass: the example cache's N topic-hash shards get their
//! byte budgets re-divided by the knapsack DP according to where the
//! decayed offload gains currently live (see `ic_manager::shard`).
//!
//! With `EngineConfig::router_replicas > 1` the front end is a
//! replicated router tier (`ic_cache::FrontEnd`): requests are assigned
//! to replicas by a deterministic id hash, feedback lands only at the
//! owner, and periodic **gossip-round** events merge bandit
//! sufficient-statistic deltas and load estimates across the ring (see
//! `ic_router::gossip`). **Pool-outage** events
//! ([`driven::PoolOutage`]) model pool failover: the dead pool's
//! queued + running jobs are preempted — their KV blocks released
//! through the normal `ic_kvmem` path — and re-enqueued through the
//! tier as retries that route around the down model; the requeue counts
//! and the tier's decisions/gossip statistics ride in the report's
//! `router` block.
//!
//! # Shard layout
//!
//! The example cache behind the engine is an
//! `ic_manager::ShardedExampleCache`: one store whose entries carry a
//! `split_mix64(topic) % N` shard tag, per-shard counters, per-shard
//! eviction, cross-shard budget rebalance. [`CacheStats`] in the report
//! exposes per-shard sizes so scaling experiments can watch the layout.
//!
//! # Determinism
//!
//! Everything is event-ordered by the desim kernel (stable FIFO for
//! simultaneous events) and every stochastic choice flows through the
//! system's seeded RNG, so a given `(config, seed, workload)` triple
//! produces a byte-identical [`EngineReport::to_json`] — pinned by tests
//! and by the `fig12_e2e` bench's `BENCH_e2e.json`.

pub mod driven;
pub mod engine;
pub mod report;

pub use driven::{EngineConfig, EventDrivenEngine, PoolOutage};
pub use engine::ServingEngine;
pub use report::{
    CacheStats, EngineReport, LatencyStats, ReplayStats, RequestRecord, RouterStats, SelectorStats,
};
