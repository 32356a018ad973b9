//! Discrete-event GPU cluster simulator for the IC-Cache evaluation.
//!
//! The paper serves requests on a 16-A100 cluster behind vLLM-style
//! continuous batching (§6.1). The latency/throughput claims — saturation
//! of the large-model pool under bursts (Fig. 12), completion-time growth
//! with load (Fig. 20), GPU-per-QPS cost (Fig. 18 right) — are queueing
//! phenomena, so this crate models exactly that layer:
//!
//! - A [`ModelPool`] per servable model: `replicas x slots` concurrent
//!   sequences scheduled at **iteration (token-step) granularity** — the
//!   Orca/vLLM lever. Each iteration, sequences in prefill process a
//!   chunk of [`PoolConfig::prefill_chunk_tokens`] prompt tokens and
//!   sequences in decode emit one token stretched by the
//!   batching-contention factor; jobs join and leave the running batch
//!   only at step boundaries, and over-quantum decoders are preempted
//!   per token when jobs queue behind them (see the [`pool`] module docs
//!   for the full state machine).
//! - A paged **KV-memory model** per pool (`ic-kvmem`): sequences hold
//!   fixed-size KV blocks from a bounded per-replica budget, admission
//!   is gated on projected prefill block demand, and a watermark
//!   [`PressurePolicy`] swaps out victims (longest remaining decode
//!   first) when a step's token growth cannot be served from free
//!   blocks — so preemption is triggered by *memory pressure*, not just
//!   slot demand (see the [`pool`] module docs).
//! - A [`ClusterSim`] that replays a set of [`JobSpec`]s (arrival time +
//!   zero-load prefill/decode costs + token counts, produced upstream by
//!   `ic-llmsim`) through the pools, driving one `StepComplete` event per
//!   busy pool on the deterministic `ic-desim` kernel.
//! - [`metrics`] — per-request TTFT/E2E recording, throughput,
//!   queue-cap reject counts, and block-level KV counters ([`KvStats`]).

pub mod cluster;
pub mod job;
pub mod metrics;
pub mod pool;

pub use cluster::{ClusterSim, PoolId, jobs_from_tuples};
pub use ic_kvmem::{KvStats, KvSwap, PressurePolicy, Watermarks};
pub use job::{JobId, JobResult, JobSpec};
pub use metrics::{ServingMetrics, busy_interval_rps};
pub use pool::{FinishedSeq, IterStats, ModelPool, Offer, PoolConfig, StepReport};
