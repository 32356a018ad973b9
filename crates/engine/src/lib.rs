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
//!  the arrival cursor's head                    the earliest armed slot
//!  (the workload sorted by (time, i), its       (per pool: the key of its
//!   one copy; arrival i holds seq i, below       next step boundary, plus the
//!   every seq the run hands out)                 stride and count of the quiet
//!   ├ the router's arrival-rate window           run it is in)
//!   ├ stage 0: observe in the sketch, then      on_step(pool)
//!   │  lookup ── hit ──▶ Stage0Complete(i)      ├ a quiet boundary: nothing to
//!   ├ IcCacheSystem::serve_ahead: stage 1       │  run, the pool applied it
//!   │  (the look-ahead's slot if probed in      │
//!   │  this index epoch, refreshed to this      │
//!   │  generation; else a probe)                │
//!   │  + stage 2 + routing                      ├ else advance_step: finishers
//!   │  + generation + feedback                  │  ▶ complete (TTFT/E2E, Little's
//!   ├ dispatch ──▶ pool.offer ── Started ──▶    │  law ▶ the router); then
//!   │              arm the pool's slot          │  advance_quiet applies the quiet
//!   └ admission: an index insert, logged        │  run behind it in closed form,
//!  the event heap's head                        │  up to the next router
//!  (ic_desim::Simulator: every other router     │  interaction
//!   interaction, one handler per event)         │
//!  PoolDown(p) ─ flush, clear the pool's slot,  ├ the quiet boundaries before the
//!                serve_retry ▶ dispatch         │  next pending key are counted,
//!  PoolUp(p)                                    │  their seqs burned
//!  Maintenance / Rebalance / ObsSample          └ re-arm the slot while the pool
//!  (periodic, re-armed while work remains; a       stays busy
//!   pass that will evict takes the look-ahead's
//!   view back first: a new epoch)
//!  Stage0Complete(i) ▶ complete
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
//! stage-0 hits share (see `driven/state.rs`). A pool's steps are
//! run-length encoded — between admission, finish, block-boundary and
//! pressure events a decode-only batch advances in closed form
//! (`ic_serving::pool`, "Run-length quiet runs") — and the armed slot
//! keeps every quiet boundary's place in the `(time, seq)` order
//! without visiting it (`driven/step.rs`).
//!
//! Each **arrival** event runs Algorithm 1 (`IcCacheSystem::serve`):
//! example selection against the example cache, load-aware routing (the
//! engine has just fed the router a windowed arrival-rate estimate), and
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
//! capacity-only pass: under a byte cap, one greedy knapsack over every
//! cached example keeps the densest decayed offload gains and the
//! selector unindexes every id it evicts (see `ic_manager::evict`).
//!
//! One logical router owns every request, as in the paper: one bandit
//! posterior, one arrival-rate window, one completion-latency EMA.
//! **Pool-outage** events ([`driven::PoolOutage`]) model pool failover:
//! the dead pool's queued + running jobs are preempted — their KV
//! blocks released through the normal `ic_kvmem` path — and re-enqueued
//! through the router as retries that route around the down model; the
//! requeue counts and the router's decision count ride in the report's
//! `router` block.
//!
//! # Stage-1 look-ahead
//!
//! On a host with a second core, `serve_workload` starts one helper
//! thread that walks the arrival cursor's firing order up to 256
//! arrivals ahead of the event loop and runs each arrival's stage-1 IVF
//! probe against a read-only view of the selector's index
//! (`IvfIndex::view`: copy-on-write, so the event loop's admissions and
//! evictions neither wait for it nor race it), leaving the hits in a
//! ring slot stamped with the arrival's seq and the probe's generation,
//! epoch and scanned lists. An arrival, a repeat query included, takes
//! its slot when it was probed in the index's current epoch, brings it
//! up to the current generation (`IvfIndex::refresh`: the rows admitted
//! since, in the lists the probe scanned, merged exactly) and hands the
//! list to `IcCacheSystem::serve_ahead`; it probes inline otherwise.
//! Before an arrival, the event loop publishes a fresh view when the
//! index started an epoch (an evicting capacity pass, a retrain) or took
//! 256 inserts, and the helper restarts from the event loop's position
//! on a new epoch. Everything after stage 1, and every index write,
//! stays on the event loop. No configuration field reaches it
//! (`driven/lookahead.rs`).
//!
//! # Example cache
//!
//! The example cache behind the engine is one `ic_manager::ExampleCache`:
//! an id-hashed store of entries with their access, offload-gain and
//! replay-gain statistics. Stage 1 finds neighbours through the
//! selector's IVF index, not through the store's layout. [`CacheStats`]
//! in the report carries its size, bytes, selection hits, admissions and
//! evictions.
//!
//! # Determinism
//!
//! Everything is event-ordered by the desim kernel (stable FIFO for
//! simultaneous events) and every stochastic choice flows through the
//! system's seeded RNG, so a given `(config, seed, workload)` triple
//! produces a byte-identical [`EngineReport::to_json`] — pinned by tests
//! and by the `fig12_e2e` bench's `BENCH_e2e.json`. The stage-1
//! look-ahead changes which thread runs a probe, never what it returns,
//! so the bytes are the same with and without a second core.

pub mod driven;
pub mod engine;
pub mod report;

pub use driven::{EngineConfig, EventDrivenEngine, PoolOutage};
pub use engine::ServingEngine;
pub use report::{CacheStats, EngineReport, LatencyStats, ReplayStats, RequestRecord, RouterStats};
