//! Engine output: per-request records and byte-stable aggregate metrics.

use ic_serving::{IterStats, JobResult, KvStats};
use ic_stats::Percentiles;

/// What happened to one request, joining the serving decision (model,
/// selection) with the measured cluster timing.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Index of the request in the submitted workload.
    pub index: usize,
    /// Model that served it (catalog id).
    pub model: usize,
    /// Whether it was offloaded off the primary model.
    pub offloaded: bool,
    /// Latent response quality (evaluation only).
    pub quality: f64,
    /// Whether preference feedback was solicited.
    pub solicited: bool,
    /// In-context examples selected for it.
    pub examples: usize,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Queueing delay in seconds.
    pub queue_s: f64,
    /// User-perceived time-to-first-token in seconds (end of the first
    /// decode iteration).
    pub ttft_s: f64,
    /// End-to-end completion time in seconds.
    pub e2e_s: f64,
    /// Dropped by the pool's queue cap: the request was routed but never
    /// executed, and its timings are zero (excluded from latency
    /// aggregates).
    pub rejected: bool,
}

/// Latency aggregates over one run, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    /// Mean end-to-end completion time.
    pub mean_e2e: f64,
    /// Median end-to-end completion time.
    pub p50_e2e: f64,
    /// 99th-percentile end-to-end completion time.
    pub p99_e2e: f64,
    /// Mean time-to-first-token.
    pub mean_ttft: f64,
    /// 99th-percentile time-to-first-token.
    pub p99_ttft: f64,
    /// Mean queueing delay.
    pub mean_queue: f64,
}

impl LatencyStats {
    /// Computes the aggregates from job results.
    pub fn from_results(results: &[JobResult]) -> Self {
        Self::from_samples(
            results
                .iter()
                .map(|r| (r.e2e_secs(), r.ttft_secs(), r.queue_wait_secs())),
        )
    }

    /// Computes the aggregates from per-request records, excluding
    /// queue-cap rejects (which never execute).
    pub fn from_records(records: &[RequestRecord]) -> Self {
        Self::from_samples(
            records
                .iter()
                .filter(|r| !r.rejected)
                .map(|r| (r.e2e_s, r.ttft_s, r.queue_s)),
        )
    }

    /// Single-pass aggregation over `(e2e, ttft, queue)` samples.
    fn from_samples(samples: impl Iterator<Item = (f64, f64, f64)>) -> Self {
        let mut e2e = Percentiles::default();
        let mut ttft = Percentiles::default();
        let mut queue = Percentiles::default();
        for (e, t, q) in samples {
            e2e.record(e);
            ttft.record(t);
            queue.record(q);
        }
        Self {
            mean_e2e: e2e.mean().unwrap_or(0.0),
            p50_e2e: e2e.quantile(0.5).unwrap_or(0.0),
            p99_e2e: e2e.quantile(0.99).unwrap_or(0.0),
            mean_ttft: ttft.mean().unwrap_or(0.0),
            p99_ttft: ttft.quantile(0.99).unwrap_or(0.0),
            mean_queue: queue.mean().unwrap_or(0.0),
        }
    }
}

/// Example-cache statistics at the end of a run.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Number of topic-hash shards.
    pub shards: usize,
    /// Cached examples across all shards.
    pub examples: usize,
    /// Plaintext bytes across all shards.
    pub bytes: usize,
    /// Examples per shard.
    pub shard_sizes: Vec<usize>,
    /// Retrieval hits per shard (the demand signal feeding the
    /// cross-shard budget rebalance).
    pub shard_hits: Vec<u64>,
    /// Requests whose selection returned at least one example.
    pub selection_hits: u64,
    /// Total examples prepended across all requests.
    pub examples_used: u64,
    /// Admissions since system construction.
    pub admitted: u64,
    /// Admission rejections since system construction.
    pub rejected: u64,
    /// Examples evicted by capacity enforcement during the run.
    pub evicted: u64,
}

/// The report's `selector` block for one engine run. Selection is one
/// probe per arrival, so `batches == requests` and `max_batch <= 1`;
/// the block keeps the five keys the committed golden pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectorStats {
    /// The configured `EngineConfig::selector_batch`, echoed.
    pub batch_limit: u64,
    /// Stage-1 calls: arrivals that missed stage 0 — a probe each,
    /// less the ones the selector's probe memo answered
    /// ([`ReplayStats::probe_memo_hits`]).
    pub batches: u64,
    /// Requests served through those probes.
    pub requests: u64,
    /// Largest number of requests one probe served.
    pub max_batch: u64,
}

impl SelectorStats {
    /// Mean requests per stage-1 probe.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// Replay counters for one engine run: the step regions, the router's
/// kept posteriors, the traffic through the KV content table and the
/// selector's probe memo.
///
/// Diagnostics of *how* the replay ran, not of what it served:
/// deliberately **not** serialized by [`EngineReport::to_json`], so a
/// change to the replay machinery cannot move the byte-deterministic
/// report. The telemetry artifact persists them instead
/// ([`ReplayStats::to_json`], spliced into the JSONL summary footer by
/// `fig12_e2e` when sampling is on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Step regions executed between router interactions.
    pub regions: u64,
    /// Step boundaries executed inside those regions — every step of
    /// the run.
    pub region_steps: u64,
    /// Quiet runs the pools applied in closed form: chain records that
    /// carried at least one quiet boundary (see "Run-length step
    /// chains" in `ic_serving::pool`).
    pub step_runs: u64,
    /// Step boundaries inside those runs — the share of
    /// `region_steps` that never went through `advance_step`.
    pub quiet_steps: u64,
    /// Arm scorings the router tier's bandits did this run: one per arm
    /// per routing decision, retries included.
    pub arm_evaluations: u64,
    /// How many of those refactored the arm's precision matrix — the
    /// arm had learned (feedback or gossip) since its last decision.
    pub posterior_refits: u64,
    /// Pool block allocations that carried a shared example-set prefix
    /// through the KV content table (`ic_serving::IterStats`): every
    /// offloaded admission under `kv_share`, `0` with it off.
    pub share_admissions: u64,
    /// Prefix chunks (KV blocks) those allocations carried; the
    /// report's `kv.blocks_saved` counts the ones found resident.
    pub prefix_chunks: u64,
    /// Stage-1 calls that consulted the selector's probe memo: every
    /// arrival past stage 0 while the index expects a probe to cost
    /// more than remembering one, `0` below that bar (a bank of 100).
    pub probe_memo_lookups: u64,
    /// How many of those were answered from the memo — the same query
    /// bits, probed under the same index generation — instead of
    /// running the probe.
    pub probe_memo_hits: u64,
}

impl ReplayStats {
    /// Serializes the counters as one JSON object (fixed key order) for
    /// the telemetry artifact — the one place replay counters are
    /// persisted; [`EngineReport::to_json`] excludes them.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"regions\":{},\"region_steps\":{},",
                "\"step_runs\":{},\"quiet_steps\":{},",
                "\"arm_evaluations\":{},\"posterior_refits\":{},",
                "\"share_admissions\":{},\"prefix_chunks\":{},",
                "\"probe_memo_lookups\":{},\"probe_memo_hits\":{}}}"
            ),
            self.regions,
            self.region_steps,
            self.step_runs,
            self.quiet_steps,
            self.arm_evaluations,
            self.posterior_refits,
            self.share_admissions,
            self.prefix_chunks,
            self.probe_memo_lookups,
            self.probe_memo_hits,
        )
    }
}

/// Router-tier counters for one engine run (see
/// `EngineConfig::router_replicas`): how the replicated front end
/// routed, gossiped, and absorbed pool failovers. A single-replica tier
/// (the default) reports its decisions with zero gossip traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterStats {
    /// Router replicas in the tier.
    pub replicas: u64,
    /// Routing decisions per replica, in replica order (deterministic
    /// request-id hash assignment).
    pub decisions: Vec<u64>,
    /// Gossip rounds executed on the ring.
    pub gossip_rounds: u64,
    /// Delta-batch deliveries (one batch applied at one replica).
    pub merges: u64,
    /// Summed age in seconds of delivered batches at application time.
    pub staleness_sum_s: f64,
    /// Jobs preempted by pool failovers and re-enqueued through the
    /// router tier as retries.
    pub failover_requeues: u64,
    /// Failover retries subsequently dropped by pool queue caps.
    pub retry_rejects: u64,
}

impl RouterStats {
    /// Builds the report block from the tier's own run counters plus
    /// the engine-side failover tallies (the one place the two sets of
    /// counters are joined).
    pub fn from_tier(
        tier: ic_cache::FrontEndStats,
        failover_requeues: u64,
        retry_rejects: u64,
    ) -> Self {
        Self {
            replicas: tier.replicas as u64,
            decisions: tier.decisions,
            gossip_rounds: tier.gossip_rounds,
            merges: tier.merges,
            staleness_sum_s: tier.staleness_sum_s,
            failover_requeues,
            retry_rejects,
        }
    }

    /// Mean age of a gossip batch at delivery, seconds.
    pub fn mean_staleness_s(&self) -> f64 {
        if self.merges == 0 {
            0.0
        } else {
            self.staleness_sum_s / self.merges as f64
        }
    }
}

/// Aggregate result of one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Engine name (`"event-driven"`).
    pub engine: String,
    /// Requests served.
    pub served: u64,
    /// Requests offloaded off the primary model.
    pub offloaded: u64,
    /// Requests tagged for preference feedback.
    pub solicited: u64,
    /// Latency aggregates.
    pub latency: LatencyStats,
    /// Completions per second over the busy interval.
    pub throughput_rps: f64,
    /// Mean latent quality (evaluation only).
    pub mean_quality: f64,
    /// Example-cache statistics.
    pub cache: CacheStats,
    /// Iteration-level scheduler counters summed across pools (token
    /// steps, batch sizes, chunked-prefill mix, preemptions, rejects).
    pub iter: IterStats,
    /// Router-tier counters (per-replica decisions, gossip rounds, merge
    /// staleness, failover requeues).
    pub router: RouterStats,
    /// Stage-1 counters (one stage-1 call per arrival past stage 0).
    pub selector: SelectorStats,
    /// Paged KV-memory counters merged across pools (block occupancy,
    /// pressure preemptions, swap traffic, fragmentation).
    pub kv: KvStats,
    /// Stage-0 response-cache counters (lookups, hits, predictive
    /// pre-populations, stale evictions, stored bytes). All zero when
    /// the tier is off (`EngineConfig::resp_cache`).
    pub resp_cache: ic_respcache::RespCacheStats,
    /// Replay counters (step regions, run-length chains, router
    /// posteriors). Excluded from [`EngineReport::to_json`] by design;
    /// persisted through the telemetry artifact instead
    /// ([`ReplayStats::to_json`]).
    pub replay: ReplayStats,
    /// Observability capture (`EngineConfig::trace` /
    /// `EngineConfig::obs_sample_s`): the merged lifecycle event stream
    /// and periodic telemetry samples. `None` with both knobs off, and
    /// never serialized by [`EngineReport::to_json`] — timeline and
    /// telemetry artifacts are written separately by the bench
    /// binaries.
    pub obs: Option<ic_obs::ObsReport>,
    /// Per-request join of decisions and timing, in arrival order.
    pub per_request: Vec<RequestRecord>,
}

/// Fixed-precision float formatting so serialized reports are
/// byte-identical across runs (and platforms) whenever the underlying
/// metrics are.
fn f6(x: f64) -> String {
    format!("{x:.6}")
}

impl EngineReport {
    /// Offload ratio in `[0, 1]`.
    pub fn offload_ratio(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.offloaded as f64 / self.served as f64
        }
    }

    /// Fraction of requests whose selection found at least one example.
    pub fn selection_hit_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.cache.selection_hits as f64 / self.served as f64
        }
    }

    /// Serializes the aggregate metrics (not the per-request records) as
    /// a deterministic, byte-stable JSON object: fixed key order, fixed
    /// float precision, no whitespace variation.
    pub fn to_json(&self) -> String {
        let shard_sizes: Vec<String> = self
            .cache
            .shard_sizes
            .iter()
            .map(usize::to_string)
            .collect();
        let shard_hits: Vec<String> = self.cache.shard_hits.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\"engine\":\"{}\",\"served\":{},\"offloaded\":{},",
                "\"offload_ratio\":{},\"solicited\":{},",
                "\"latency\":{{\"mean_e2e_s\":{},\"p50_e2e_s\":{},\"p99_e2e_s\":{},",
                "\"mean_ttft_s\":{},\"p99_ttft_s\":{},\"mean_queue_s\":{}}},",
                "\"throughput_rps\":{},\"mean_quality\":{},",
                "\"cache\":{{\"shards\":{},\"examples\":{},\"bytes\":{},",
                "\"shard_sizes\":[{}],\"shard_hits\":[{}],",
                "\"selection_hits\":{},\"selection_hit_rate\":{},",
                "\"examples_used\":{},\"admitted\":{},\"rejected\":{},\"evicted\":{}}},",
                "\"iter\":{{\"steps\":{},\"mean_step_batch\":{},",
                "\"chunk_steps\":{},\"decode_steps\":{},\"chunked_prefill_ratio\":{},",
                "\"preemptions\":{},\"queue_rejects\":{}}},",
                "\"router\":{{\"replicas\":{},\"decisions\":[{}],",
                "\"gossip_rounds\":{},\"merges\":{},\"mean_staleness_s\":{},",
                "\"failover_requeues\":{},\"retry_rejects\":{}}},",
                "\"selector\":{{\"batch_limit\":{},\"batches\":{},\"requests\":{},",
                "\"max_batch\":{},\"mean_batch\":{}}},",
                "\"kv\":{{\"total_blocks\":{},\"peak_blocks\":{},",
                "\"peak_occupancy\":{},\"mean_occupancy\":{},",
                "\"pressure_preemptions\":{},\"swap_outs\":{},\"swap_ins\":{},",
                "\"fragmentation\":{},\"allocs\":{},\"frees\":{},",
                "\"host_peak_blocks\":{},\"recompute_fallbacks\":{},",
                "\"dedup_ratio\":{},\"shared_blocks_peak\":{},",
                "\"cow_copies\":{},\"blocks_saved\":{}}},",
                "\"resp_cache\":{{\"lookups\":{},\"hits\":{},\"hit_ratio\":{},",
                "\"prepopulations\":{},\"stale_evictions\":{},\"bytes\":{}}}}}"
            ),
            self.engine,
            self.served,
            self.offloaded,
            f6(self.offload_ratio()),
            self.solicited,
            f6(self.latency.mean_e2e),
            f6(self.latency.p50_e2e),
            f6(self.latency.p99_e2e),
            f6(self.latency.mean_ttft),
            f6(self.latency.p99_ttft),
            f6(self.latency.mean_queue),
            f6(self.throughput_rps),
            f6(self.mean_quality),
            self.cache.shards,
            self.cache.examples,
            self.cache.bytes,
            shard_sizes.join(","),
            shard_hits.join(","),
            self.cache.selection_hits,
            f6(self.selection_hit_rate()),
            self.cache.examples_used,
            self.cache.admitted,
            self.cache.rejected,
            self.cache.evicted,
            self.iter.steps,
            f6(self.iter.mean_step_batch()),
            self.iter.chunk_steps,
            self.iter.decode_steps,
            f6(self.iter.chunked_prefill_ratio()),
            self.iter.preemptions,
            self.iter.queue_rejects,
            self.router.replicas,
            self.router
                .decisions
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.router.gossip_rounds,
            self.router.merges,
            f6(self.router.mean_staleness_s()),
            self.router.failover_requeues,
            self.router.retry_rejects,
            self.selector.batch_limit,
            self.selector.batches,
            self.selector.requests,
            self.selector.max_batch,
            f6(self.selector.mean_batch()),
            self.kv.total_blocks,
            self.kv.peak_blocks,
            f6(self.kv.peak_occupancy()),
            f6(self.kv.mean_occupancy()),
            self.kv.pressure_preemptions,
            self.kv.swap_outs,
            self.kv.swap_ins,
            f6(self.kv.fragmentation_ratio()),
            self.kv.allocs,
            self.kv.frees,
            self.kv.host_peak_blocks,
            self.kv.recompute_fallbacks,
            f6(self.kv.dedup_ratio()),
            self.kv.shared_blocks_peak,
            self.kv.cow_copies,
            self.kv.blocks_saved,
            self.resp_cache.lookups,
            self.resp_cache.hits,
            f6(self.resp_cache.hit_ratio()),
            self.resp_cache.prepopulations,
            self.resp_cache.stale_evictions,
            self.resp_cache.bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_desim::SimTime;
    use ic_serving::JobId;

    fn result(arrival: f64, start: f64, first: f64, done: f64) -> JobResult {
        JobResult {
            id: JobId(0),
            pool: 0,
            arrival: SimTime::from_secs_f64(arrival),
            started: SimTime::from_secs_f64(start),
            first_token: SimTime::from_secs_f64(first),
            completed: SimTime::from_secs_f64(done),
        }
    }

    #[test]
    fn latency_stats_aggregate() {
        let rs = vec![result(0.0, 0.0, 0.5, 2.0), result(1.0, 2.0, 2.5, 4.0)];
        let s = LatencyStats::from_results(&rs);
        assert!((s.mean_e2e - 2.5).abs() < 1e-9);
        assert!((s.mean_ttft - 1.0).abs() < 1e-9);
        assert!((s.mean_queue - 0.5).abs() < 1e-9);
        assert!(s.p99_e2e >= s.p50_e2e);
    }

    #[test]
    fn empty_results_are_neutral() {
        let s = LatencyStats::from_results(&[]);
        assert_eq!(s.mean_e2e, 0.0);
        assert_eq!(s.p99_e2e, 0.0);
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let mut r = EngineReport {
            engine: "event-driven".into(),
            served: 10,
            offloaded: 4,
            ..EngineReport::default()
        };
        r.cache.shard_sizes = vec![3, 7];
        r.cache.shards = 2;
        r.iter.steps = 4;
        r.iter.seq_steps = 10;
        r.iter.chunk_steps = 2;
        r.iter.decode_steps = 8;
        r.kv.total_blocks = 128;
        r.kv.peak_blocks = 64;
        r.kv.pressure_preemptions = 3;
        r.kv.used_token_steps = 48;
        r.kv.alloc_token_steps = 64;
        r.kv.host_peak_blocks = 12;
        r.kv.recompute_fallbacks = 2;
        r.kv.allocs = 30;
        r.kv.blocks_saved = 10;
        r.kv.shared_blocks_peak = 5;
        r.kv.cow_copies = 4;
        r.selector.batch_limit = 8;
        r.selector.batches = 6;
        r.selector.requests = 10;
        r.selector.max_batch = 3;
        r.router.replicas = 2;
        r.router.decisions = vec![6, 4];
        r.router.gossip_rounds = 3;
        r.router.merges = 4;
        r.router.staleness_sum_s = 2.0;
        r.router.failover_requeues = 1;
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"offload_ratio\":0.400000"));
        assert!(a.contains("\"shard_sizes\":[3,7]"));
        assert!(a.contains("\"mean_step_batch\":2.500000"));
        assert!(a.contains("\"chunked_prefill_ratio\":0.200000"));
        assert!(a.contains("\"preemptions\":0"));
        assert!(a.contains(
            "\"selector\":{\"batch_limit\":8,\"batches\":6,\"requests\":10,\
             \"max_batch\":3,\"mean_batch\":1.666667}"
        ));
        assert!(a.contains(
            "\"router\":{\"replicas\":2,\"decisions\":[6,4],\"gossip_rounds\":3,\
             \"merges\":4,\"mean_staleness_s\":0.500000,\"failover_requeues\":1,\
             \"retry_rejects\":0}"
        ));
        // The router block stays flat (no nested objects) so the CI
        // masking sed/grep patterns can isolate it.
        let start = a.find("\"router\":{").unwrap();
        let inner = &a[start + "\"router\":{".len()..];
        let close = inner.find('}').unwrap();
        assert!(!inner[..close].contains('{'), "router block must be flat");
        assert!(a.contains("\"kv\":{\"total_blocks\":128"));
        assert!(a.contains("\"peak_occupancy\":0.500000"));
        assert!(a.contains("\"pressure_preemptions\":3"));
        assert!(a.contains("\"fragmentation\":0.250000"));
        assert!(a.contains("\"host_peak_blocks\":12,\"recompute_fallbacks\":2"));
        // The dedup fields sit at the END of the kv block so the CI
        // masking pattern `,"dedup_ratio":...}` can strip them when
        // comparing against pre-sharing goldens (after the resp_cache
        // tail has been stripped first).
        assert!(a.contains(
            "\"dedup_ratio\":0.250000,\"shared_blocks_peak\":5,\
             \"cow_copies\":4,\"blocks_saved\":10}"
        ));
        // The resp_cache block ends the report, flat, so the CI masking
        // pattern `,"resp_cache":{...}}` can strip it when comparing
        // against pre-stage0 goldens.
        assert!(a.ends_with(
            ",\"resp_cache\":{\"lookups\":0,\"hits\":0,\"hit_ratio\":0.000000,\
             \"prepopulations\":0,\"stale_evictions\":0,\"bytes\":0}}"
        ));
        let start = a.find("\"resp_cache\":{").unwrap();
        let inner = &a[start + "\"resp_cache\":{".len()..];
        let close = inner.find('}').unwrap();
        assert!(
            !inner[..close].contains('{'),
            "resp_cache block must be flat"
        );
        // Balanced braces (cheap well-formedness check without a parser).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn router_stats_mean_staleness() {
        let r = RouterStats {
            merges: 4,
            staleness_sum_s: 6.0,
            ..RouterStats::default()
        };
        assert!((r.mean_staleness_s() - 1.5).abs() < 1e-12);
        assert_eq!(RouterStats::default().mean_staleness_s(), 0.0);
    }

    #[test]
    fn selector_stats_mean_batch() {
        let s = SelectorStats {
            batch_limit: 8,
            batches: 4,
            requests: 10,
            max_batch: 4,
        };
        assert!((s.mean_batch() - 2.5).abs() < 1e-12);
        assert_eq!(SelectorStats::default().mean_batch(), 0.0);
    }

    #[test]
    fn rejected_records_are_excluded_from_latency() {
        let ok = RequestRecord {
            index: 0,
            model: 0,
            offloaded: false,
            quality: 0.5,
            solicited: false,
            examples: 0,
            arrival_s: 0.0,
            queue_s: 1.0,
            ttft_s: 2.0,
            e2e_s: 4.0,
            rejected: false,
        };
        let dropped = RequestRecord {
            rejected: true,
            e2e_s: 0.0,
            ..ok.clone()
        };
        let s = LatencyStats::from_records(&[ok, dropped]);
        assert!((s.mean_e2e - 4.0).abs() < 1e-12, "reject must not dilute");
    }

    #[test]
    fn ratios_handle_zero_served() {
        let r = EngineReport::default();
        assert_eq!(r.offload_ratio(), 0.0);
        assert_eq!(r.selection_hit_rate(), 0.0);
    }
}
