//! Engine output: per-request records and byte-stable aggregate metrics.

use ic_serving::{IterStats, KvStats};
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

/// Latency aggregates over one run, in seconds: the one latency
/// summary of the engine, the bench's `ClusterSim` replays and the
/// examples.
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

    /// Single-pass aggregation over `(e2e, ttft, queue)` samples, in
    /// the order given (the means sum in that order).
    pub fn from_samples(samples: impl IntoIterator<Item = (f64, f64, f64)>) -> Self {
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
    /// Cached examples.
    pub examples: usize,
    /// Plaintext bytes.
    pub bytes: usize,
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

/// Replay counters for one engine run: the pools' quiet runs and the
/// router's kept posteriors.
///
/// Diagnostics of *how* the replay ran, not of what it served:
/// deliberately **not** serialized by [`EngineReport::to_json`], so a
/// change to the replay machinery cannot move the byte-deterministic
/// report. The telemetry artifact persists them instead
/// ([`ReplayStats::to_json`], spliced into the JSONL summary footer by
/// `fig12_e2e` when sampling is on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Quiet runs the pools applied in closed form: boundaries through
    /// `advance_step` that at least one quiet boundary followed (see
    /// "Run-length quiet runs" in `ic_serving::pool`).
    pub step_runs: u64,
    /// Step boundaries inside those runs — the share of the report's
    /// `iter.steps` that never went through `advance_step`.
    pub quiet_steps: u64,
    /// Arm scorings the router's bandit did this run: one per arm
    /// per routing decision, retries included.
    pub arm_evaluations: u64,
    /// How many of those refactored the arm's precision matrix — the
    /// arm had learned (feedback) since its last decision.
    pub posterior_refits: u64,
}

impl ReplayStats {
    /// Serializes the counters as one JSON object (fixed key order) for
    /// the telemetry artifact and `fig12_e2e`'s `BENCH_replay.json` —
    /// the one serializer of the replay counters;
    /// [`EngineReport::to_json`] excludes them.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"step_runs\":{},\"quiet_steps\":{},",
                "\"arm_evaluations\":{},\"posterior_refits\":{}}}"
            ),
            self.step_runs, self.quiet_steps, self.arm_evaluations, self.posterior_refits,
        )
    }
}

/// Router counters for one engine run: how the router decided and
/// absorbed pool failovers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterStats {
    /// Routing decisions of fresh servings (failover retries are not
    /// counted), as a one-element list: the frozen
    /// `benchmark/src/layers.rs` sums it, so it keeps its list type
    /// until a benchmark-owning PR makes it a scalar.
    pub decisions: Vec<u64>,
    /// Jobs preempted by pool failovers and re-enqueued through the
    /// router as retries.
    pub failover_requeues: u64,
    /// Failover retries subsequently dropped by pool queue caps.
    pub retry_rejects: u64,
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
    /// Router counters (decisions, failover requeues and rejected
    /// retries).
    pub router: RouterStats,
    /// Paged KV-memory counters merged across pools (block occupancy,
    /// pressure preemptions, swap traffic, fragmentation).
    pub kv: KvStats,
    /// Stage-0 response-cache counters (lookups, hits, predictive
    /// pre-populations, stale evictions, stored bytes). All zero when
    /// the tier is off (`EngineConfig::resp_cache`).
    pub resp_cache: ic_respcache::RespCacheStats,
    /// Replay counters (quiet runs, router posteriors). Excluded from
    /// [`EngineReport::to_json`] by design; persisted through the
    /// telemetry artifact instead ([`ReplayStats::to_json`]).
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
        format!(
            concat!(
                "{{\"engine\":\"{}\",\"served\":{},\"offloaded\":{},",
                "\"offload_ratio\":{},\"solicited\":{},",
                "\"latency\":{{\"mean_e2e_s\":{},\"p50_e2e_s\":{},\"p99_e2e_s\":{},",
                "\"mean_ttft_s\":{},\"p99_ttft_s\":{},\"mean_queue_s\":{}}},",
                "\"throughput_rps\":{},\"mean_quality\":{},",
                "\"cache\":{{\"examples\":{},\"bytes\":{},",
                "\"selection_hits\":{},\"selection_hit_rate\":{},",
                "\"examples_used\":{},\"admitted\":{},\"rejected\":{},\"evicted\":{}}},",
                "\"iter\":{{\"steps\":{},\"mean_step_batch\":{},",
                "\"chunk_steps\":{},\"decode_steps\":{},\"chunked_prefill_ratio\":{},",
                "\"preemptions\":{},\"queue_rejects\":{}}},",
                "\"router\":{{\"decisions\":[{}],",
                "\"failover_requeues\":{},\"retry_rejects\":{}}},",
                "\"kv\":{{\"total_blocks\":{},\"peak_blocks\":{},",
                "\"peak_occupancy\":{},\"mean_occupancy\":{},",
                "\"pressure_preemptions\":{},\"swap_outs\":{},\"swap_ins\":{},",
                "\"fragmentation\":{},\"allocs\":{},\"frees\":{},",
                "\"host_peak_blocks\":{},\"recompute_fallbacks\":{}}},",
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
            self.cache.examples,
            self.cache.bytes,
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
            self.router
                .decisions
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.router.failover_requeues,
            self.router.retry_rejects,
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

    fn record(queue_s: f64, ttft_s: f64, e2e_s: f64, rejected: bool) -> RequestRecord {
        RequestRecord {
            index: 0,
            model: 0,
            offloaded: false,
            quality: 0.0,
            solicited: false,
            examples: 0,
            arrival_s: 0.0,
            queue_s,
            ttft_s,
            e2e_s,
            rejected,
        }
    }

    #[test]
    fn latency_stats_aggregate() {
        let rs = vec![
            record(0.0, 0.5, 2.0, false),
            record(1.0, 1.5, 3.0, false),
            // A queue-cap reject never executed: left out.
            record(0.0, 0.0, 0.0, true),
        ];
        let s = LatencyStats::from_records(&rs);
        assert!((s.mean_e2e - 2.5).abs() < 1e-9);
        assert!((s.mean_ttft - 1.0).abs() < 1e-9);
        assert!((s.mean_queue - 0.5).abs() < 1e-9);
        assert!(s.p99_e2e >= s.p50_e2e);
    }

    #[test]
    fn empty_results_are_neutral() {
        let s = LatencyStats::from_records(&[]);
        assert_eq!(s.mean_e2e, 0.0);
        assert_eq!(s.p99_e2e, 0.0);
        let s = LatencyStats::from_samples([]);
        assert_eq!(
            [
                s.mean_e2e,
                s.p50_e2e,
                s.p99_e2e,
                s.mean_ttft,
                s.p99_ttft,
                s.mean_queue
            ],
            [0.0; 6]
        );
    }

    /// A `ClusterSim` replay's jobs, as `(e2e, ttft, queue)` samples:
    /// one job queued 0 s, first token at 0.5 s, done at 2 s; one that
    /// arrived at 1 s, started at 2 s, first token at 2.5 s, done at 4 s.
    #[test]
    fn job_samples_aggregate() {
        let s = LatencyStats::from_samples([(2.0, 0.5, 0.0), (3.0, 1.5, 1.0)]);
        assert!((s.mean_ttft - 1.0).abs() < 1e-9);
        assert!((s.mean_e2e - 2.5).abs() < 1e-9);
        assert!((s.mean_queue - 0.5).abs() < 1e-9);
        assert!(s.p99_e2e >= s.p50_e2e && s.p50_e2e > 2.0);
        // `from_records` is this constructor over the executed records.
        let rs = [record(0.0, 0.5, 2.0, false), record(1.0, 1.5, 3.0, false)];
        assert_eq!(
            format!("{s:?}"),
            format!("{:?}", LatencyStats::from_records(&rs))
        );
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let mut r = EngineReport {
            engine: "event-driven".into(),
            served: 10,
            offloaded: 4,
            ..EngineReport::default()
        };
        r.cache.examples = 10;
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
        r.router.decisions = vec![6];
        r.router.failover_requeues = 1;
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"offload_ratio\":0.400000"));
        assert!(a.contains("\"cache\":{\"examples\":10,\"bytes\":0,\"selection_hits\""));
        assert!(a.contains("\"mean_step_batch\":2.500000"));
        assert!(a.contains("\"chunked_prefill_ratio\":0.200000"));
        assert!(a.contains("\"preemptions\":0"));
        assert!(a.contains(
            "\"router\":{\"decisions\":[6],\"failover_requeues\":1,\"retry_rejects\":0}"
        ));
        // The router block stays flat (no nested objects): CI isolates
        // it with `grep -o '"router":{[^}]*}'`.
        let start = a.find("\"router\":{").unwrap();
        let inner = &a[start + "\"router\":{".len()..];
        let close = inner.find('}').unwrap();
        assert!(!inner[..close].contains('{'), "router block must be flat");
        assert!(a.contains("\"kv\":{\"total_blocks\":128"));
        assert!(a.contains("\"peak_occupancy\":0.500000"));
        assert!(a.contains("\"pressure_preemptions\":3"));
        assert!(a.contains("\"fragmentation\":0.250000"));
        // The ledger fields close the kv block, which CI reads with
        // `grep -o '"kv":{[^}]*}'` and so holds no nested object.
        assert!(a.contains("\"host_peak_blocks\":12,\"recompute_fallbacks\":2}"));
        // The resp_cache block ends the report, flat: CI isolates it
        // with `grep -o '"resp_cache":{[^}]*}'`.
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
