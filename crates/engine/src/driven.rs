//! The event-driven serving engine (see the crate docs for the event
//! flow diagram): configuration, the engine itself, and the replay
//! entry point. The run-scoped state and the per-event handlers live in
//! the submodules.

mod arrival;
mod failover;
mod state;
mod step;

use ic_cache::IcCacheSystem;
use ic_llmsim::{ModelId, Request};
use ic_serving::{KvSwap, PoolConfig, Watermarks};

use crate::engine::ServingEngine;
use crate::report::EngineReport;
use state::EngineState;

/// Report name of [`EventDrivenEngine`].
const ENGINE_NAME: &str = "event-driven";

/// A deterministic fault-injection window: `pool` goes down `at_s`
/// seconds into the run and recovers `duration_s` later. While down, the
/// pool's queued + running jobs are preempted (their KV blocks released)
/// and re-enqueued through the router tier as retries, and new routing
/// decisions avoid the pool's model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolOutage {
    /// Pool index in routing order (see `EventDrivenEngine` pool layout).
    /// [`EventDrivenEngine::new`] panics on an index the engine has no
    /// pool for.
    pub pool: usize,
    /// Failure time, seconds into the run.
    pub at_s: f64,
    /// Outage length in seconds; non-positive outages are ignored.
    pub duration_s: f64,
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// GPUs across the whole cluster. The primary model keeps one
    /// replica's worth; the remainder is split evenly across the offload
    /// models (mirroring the paper's 16-A100 evaluation split).
    pub total_gpus: u32,
    /// Concurrent sequences per replica (continuous-batching slots).
    pub slots_per_replica: u32,
    /// Prefill tokens processed per iteration per sequence (chunked
    /// prefill); `0` runs the whole prefill in one iteration.
    pub prefill_chunk_tokens: u32,
    /// Consecutive decode tokens before a sequence yields its slot to
    /// queued-behind jobs at a token boundary; `0` disables preemption.
    pub preempt_decode_quantum: u32,
    /// Per-pool admission-queue cap; offers past it are rejected and
    /// counted in the report's `iter.queue_rejects`. `None` is unbounded.
    pub max_queue: Option<usize>,
    /// Cap on the same-tick (same-microsecond) run of arrivals the
    /// stage-0 trending sketch observes before the run's first member
    /// is looked up (env `IC_SELECTOR_BATCH` in the bench binaries), so
    /// a stampede of identical arrivals pays one insertion; `0` and `1`
    /// observe each arrival on its own. Inert with `resp_cache` off,
    /// apart from the `batch_limit` the report's `selector` block
    /// echoes. Selection itself is strictly per arrival.
    pub selector_batch: usize,
    /// Inert: nothing reads it. Step regions run on the event-loop
    /// thread; the field stays only because the frozen
    /// `benchmark/src/workload.rs` names it in a struct literal, and
    /// goes when a benchmark-owning PR drops that line.
    #[doc(hidden)]
    pub replay_threads: usize,
    /// Tokens per KV block (paged KV memory; `0` with a zero budget
    /// disables the memory model).
    pub kv_block_tokens: u32,
    /// KV blocks per replica — the memory budget that makes preemption
    /// pressure-driven rather than slot-driven. `0` disables.
    pub kv_budget_blocks: u32,
    /// High/low occupancy watermarks gating admission and swap resume.
    pub kv_watermarks: Watermarks,
    /// Swap-vs-recompute pricing for pressure preemptions, plus the
    /// host-side swap capacity (`KvSwap::host_capacity_blocks`).
    pub kv_swap: KvSwap,
    /// Shared-prefix KV reuse (env `IC_KV_SHARE` in the bench
    /// binaries). When on, every served request carries the identity of
    /// its injected example set and the pools hash-cons the KV blocks
    /// covering that prefix: concurrent requests handed the same
    /// example set map the same physical blocks instead of allocating
    /// copies, and the first write past the prefix copy-on-writes the
    /// diverging block. Off (the default) the allocator is untouched
    /// and the report is byte-identical to the pre-sharing engine.
    pub kv_share: bool,
    /// Router replicas in the front-end tier. `1` (the default) is the
    /// pre-refactor topology — one router owning every request — and is
    /// byte-identical to it modulo the report's `router` stats block.
    /// With more replicas, arrivals are assigned by a deterministic hash
    /// of the request id, each replica learns only from its own
    /// requests' feedback, and replicas converge through gossip rounds
    /// (env `IC_ROUTER_REPLICAS` in the bench binaries).
    pub router_replicas: usize,
    /// Period of the router tier's gossip rounds, seconds (env
    /// `IC_GOSSIP_PERIOD`); `0` disables gossip. Irrelevant (never
    /// scheduled) with a single replica.
    pub gossip_period_s: f64,
    /// Deterministic pool-failover injections (env `IC_POOL_OUTAGE`,
    /// `pool:at:duration[;...]`). Empty by default: no failovers, no
    /// behaviour change.
    pub pool_outages: Vec<PoolOutage>,
    /// Period of full maintenance (replay + capacity), seconds; `0`
    /// disables.
    pub maintenance_period_s: f64,
    /// Period of the cheap capacity-only cross-shard rebalance, seconds;
    /// `0` disables. A no-op while the manager has no byte cap.
    pub rebalance_period_s: f64,
    /// Arrivals in the sliding window of the arrival-rate estimator.
    pub load_window: usize,
    /// Smoothing factor of the completion-latency EMA that drives the
    /// Little's-law load estimate.
    pub latency_ema_alpha: f64,
    /// Cache served request-response pairs back into the example store
    /// (Fig. 6 `update_cache`) at completion time.
    pub admit_served_pairs: bool,
    /// Record the full request-lifecycle event stream into the report's
    /// `obs` block (env `IC_OBS_TRACE` / `fig12_e2e --trace` in the
    /// bench binaries) for timeline export and critical-path analysis.
    /// Off (the default) no recorder exists, nothing in the stack
    /// records, and the serialized report is byte-identical to the
    /// pre-observability engine.
    pub trace: bool,
    /// Period of the telemetry sampler, simulated seconds (env
    /// `IC_OBS_SAMPLE`); `0` disables sampling. Samples land in the
    /// report's `obs` block, never in [`EngineReport::to_json`].
    pub obs_sample_s: f64,
    /// Ring-buffer capacity per recording lane, in events (env
    /// `IC_OBS_RING`). A full ring drops its oldest event and counts
    /// the eviction, so long runs degrade to a suffix trace instead of
    /// unbounded memory.
    pub obs_ring: usize,
    /// Stage-0 predictive response cache (env `IC_RESP_CACHE` in the
    /// bench binaries). When on, every fresh arrival first probes an
    /// embedding-similarity cache of whole served responses; a hit
    /// within `resp_threshold` returns the cached response after a
    /// fixed cache-serve latency and skips selection, routing, and the
    /// entire pool prefill/decode path. Off (the default) no cache
    /// exists and the serialized report is byte-identical to the
    /// pre-stage0 engine modulo the report's all-zero `resp_cache`
    /// block.
    pub resp_cache: bool,
    /// Minimum cosine similarity for a stage-0 lookup to hit (env
    /// `IC_RESP_THRESHOLD`). The 0.98 default accepts near-duplicates
    /// only; see `docs/response-cache.md` for the calibration argument.
    pub resp_threshold: f64,
    /// Byte budget of the stage-0 store (env `IC_RESP_BYTES`); LRU
    /// entries are evicted past it.
    pub resp_budget_bytes: usize,
    /// Stage-0 entry time-to-live, seconds (env `IC_RESP_TTL`); older
    /// entries are stale and evicted lazily on lookup.
    pub resp_ttl_s: f64,
    /// Duplicate sightings within the trending window required before a
    /// missed query is admitted into the stage-0 store (env
    /// `IC_RESP_PREPOP`).
    pub resp_prepop_min: u64,
    /// Width of the stage-0 trending-query frequency window, seconds
    /// (env `IC_RESP_WINDOW`).
    pub resp_window_s: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            total_gpus: 16,
            slots_per_replica: 8,
            prefill_chunk_tokens: 256,
            preempt_decode_quantum: 64,
            max_queue: None,
            selector_batch: 0,
            replay_threads: 1,
            kv_block_tokens: 16,
            kv_budget_blocks: 1024,
            kv_watermarks: Watermarks::DEFAULT,
            kv_swap: KvSwap::DEFAULT,
            kv_share: false,
            router_replicas: 1,
            gossip_period_s: 5.0,
            pool_outages: Vec::new(),
            maintenance_period_s: 0.0,
            rebalance_period_s: 60.0,
            load_window: 30,
            latency_ema_alpha: 0.2,
            admit_served_pairs: false,
            trace: false,
            obs_sample_s: 0.0,
            obs_ring: 1 << 20,
            resp_cache: false,
            resp_threshold: 0.98,
            resp_budget_bytes: 4 << 20,
            resp_ttl_s: 300.0,
            resp_prepop_min: 2,
            resp_window_s: 60.0,
        }
    }
}

/// The production-shaped serving path: IC-Cache admission, selection and
/// routing run inside a discrete-event simulation whose per-model pools
/// execute jobs at iteration (token-step) granularity — chunked prefill,
/// per-token preemption, and batch joins/leaves at step boundaries;
/// completions feed measured latency back into the router's load
/// estimate.
#[derive(Debug)]
pub struct EventDrivenEngine {
    system: IcCacheSystem,
    config: EngineConfig,
    /// `(model, pool index)` in routing order.
    model_pools: Vec<(ModelId, usize)>,
    pool_configs: Vec<PoolConfig>,
}

impl EventDrivenEngine {
    /// Builds the engine over a (typically example-seeded) system.
    ///
    /// # Panics
    ///
    /// Panics if a [`PoolOutage`] names a pool the engine does not
    /// have: a fault schedule that silently injects nothing would
    /// record a fault-free run as if it had survived the outage.
    pub fn new(system: IcCacheSystem, config: EngineConfig) -> Self {
        let sys_cfg = system.config();
        let pools = sys_cfg.models.len();
        for outage in &config.pool_outages {
            assert!(
                outage.pool < pools,
                "pool outage names pool {} but the engine has {pools} pool(s)",
                outage.pool
            );
        }
        let primary = sys_cfg.primary;
        let offload = sys_cfg.offload_models();
        let catalog = &sys_cfg.catalog;

        let primary_spec = catalog.get(primary);
        let primary_gpus = primary_spec.gpus_per_replica.min(config.total_gpus);
        let small_share = if offload.is_empty() {
            0
        } else {
            (config.total_gpus.saturating_sub(primary_gpus) / offload.len() as u32).max(1)
        };

        let mut model_pools = Vec::new();
        let mut pool_configs = Vec::new();
        for &m in &sys_cfg.models {
            let spec = catalog.get(m);
            let gpus = if m == primary {
                primary_gpus.max(1)
            } else {
                small_share
            };
            model_pools.push((m, pool_configs.len()));
            let mut pc = PoolConfig::for_gpus(
                &spec.name,
                gpus,
                spec.gpus_per_replica,
                config.slots_per_replica,
            );
            pc.prefill_chunk_tokens = config.prefill_chunk_tokens;
            pc.preempt_decode_quantum = config.preempt_decode_quantum;
            pc.max_queue = config.max_queue;
            pc.kv_block_tokens = config.kv_block_tokens;
            pc.kv_budget_blocks = config.kv_budget_blocks;
            pc.kv_watermarks = config.kv_watermarks;
            pc.kv_swap = config.kv_swap;
            pc.kv_share = config.kv_share;
            pool_configs.push(pc);
        }
        Self {
            system,
            config,
            model_pools,
            pool_configs,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Consumes the engine, returning the system.
    pub fn into_system(self) -> IcCacheSystem {
        self.system
    }
}

impl ServingEngine for EventDrivenEngine {
    fn name(&self) -> &'static str {
        ENGINE_NAME
    }

    fn serve_workload(&mut self, requests: &[Request], arrivals: &[f64]) -> EngineReport {
        assert_eq!(
            requests.len(),
            arrivals.len(),
            "one arrival time per request"
        );
        let mut state = EngineState::new(self, requests, arrivals);
        state.run();
        state.into_report()
    }

    fn system(&self) -> &IcCacheSystem {
        &self.system
    }

    fn system_mut(&mut self) -> &mut IcCacheSystem {
        &mut self.system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_cache::IcCacheConfig;
    use ic_llmsim::Generator;
    use ic_workloads::{Dataset, WorkloadGenerator, fixed_qps_arrivals};

    fn seeded_engine(
        n_examples: usize,
        config: EngineConfig,
        seed: u64,
    ) -> (EventDrivenEngine, WorkloadGenerator) {
        let sys_cfg = IcCacheConfig::gemma_pair();
        let large = sys_cfg.primary;
        let large_spec = sys_cfg.catalog.get(large).clone();
        let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, seed, n_examples.max(10));
        let examples = wg.generate_examples(n_examples, &large_spec, large, &Generator::new());
        let mut system = IcCacheSystem::new(sys_cfg);
        system.seed_examples(examples, 0.0);
        (EventDrivenEngine::new(system, config), wg)
    }

    #[test]
    fn a_step_armed_earlier_for_an_arrivals_instant_waits_behind_it() {
        let (mut engine, mut wg) = seeded_engine(50, EngineConfig::default(), 431);
        let requests = wg.generate_requests(2);
        let mut state = state::EngineState::new(&mut engine, &requests, &[100e-6, 100e-6]);
        // The arrivals hold seqs 0 and 1; a pool armed at time zero for
        // their instant drew a later one, as did the rebalance at 60 s.
        let at = ic_desim::SimTime::from_micros(100);
        state.armed[0] = Some((at, state.sim.reserve_seq()));
        assert_eq!(state.next_interaction(), Some((at, 0)));
        // The barrier is the arrival, not the heap head behind it (which
        // would run the step past both arrivals): no region yet.
        assert!(!state.run_step_region(), "the arrival goes first");
        assert_eq!(state.armed[0].map(|(at, _)| at), Some(at));
    }

    #[test]
    fn serves_a_trace_end_to_end() {
        let (mut engine, mut wg) = seeded_engine(600, EngineConfig::default(), 401);
        let arrivals = fixed_qps_arrivals(2.0, 60.0, 402);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert_eq!(report.served, arrivals.len() as u64);
        assert_eq!(report.per_request.len(), arrivals.len());
        assert!(report.latency.mean_e2e > 0.0);
        assert!(report.latency.p99_e2e >= report.latency.p50_e2e);
        assert!(report.cache.shards >= 2);
        assert!(report.throughput_rps > 0.0);
        for r in &report.per_request {
            assert!(r.e2e_s >= r.ttft_s);
            assert!(r.ttft_s >= r.queue_s);
        }
        // Iteration-level scheduling leaves a visible trace.
        assert!(report.iter.steps > 0);
        assert!(report.iter.decode_steps > 0);
        assert!(report.iter.chunk_steps > 0, "chunked prefill exercised");
        assert!(report.iter.mean_step_batch() >= 1.0);
        assert!(report.iter.chunked_prefill_ratio() > 0.0);
        assert_eq!(report.iter.queue_rejects, 0, "unbounded queue by default");
    }

    #[test]
    fn saturation_builds_queues_and_latency() {
        let run = |qps: f64, duration: f64| {
            let (mut engine, mut wg) = seeded_engine(400, EngineConfig::default(), 403);
            let arrivals = fixed_qps_arrivals(qps, duration, 404);
            let requests = wg.generate_requests(arrivals.len());
            engine.serve_workload(&requests, &arrivals)
        };
        let light = run(0.3, 120.0);
        // 15 small-model replicas x 8 slots absorb roughly 45 rps even
        // with everything offloaded; 60 rps exceeds cluster capacity.
        let heavy = run(60.0, 30.0);
        assert!(
            heavy.latency.mean_e2e > light.latency.mean_e2e,
            "saturation must raise latency: {} vs {}",
            light.latency.mean_e2e,
            heavy.latency.mean_e2e
        );
        assert!(
            heavy.latency.mean_queue > light.latency.mean_queue,
            "saturation must build queues"
        );
        // Deep queues trigger per-token preemption; light load does not.
        assert!(
            heavy.iter.preemptions > light.iter.preemptions,
            "saturation should preempt: {} vs {}",
            light.iter.preemptions,
            heavy.iter.preemptions
        );
        assert!(
            heavy.iter.mean_step_batch() > light.iter.mean_step_batch(),
            "saturation should deepen batches: {} vs {} (kv: {:?})",
            light.iter.mean_step_batch(),
            heavy.iter.mean_step_batch(),
            heavy.kv,
        );
    }

    #[test]
    fn overload_sheds_traffic_to_the_small_pool() {
        // The closed loop: fast arrivals -> load estimate spikes ->
        // router bias pushes decisions off the expensive primary.
        let run = |qps: f64| {
            let (mut engine, mut wg) = seeded_engine(800, EngineConfig::default(), 405);
            let arrivals = fixed_qps_arrivals(qps, 240.0, 406);
            let requests = wg.generate_requests(arrivals.len());
            engine.serve_workload(&requests, &arrivals).offload_ratio()
        };
        let calm = run(0.2);
        let overloaded = run(10.0);
        assert!(
            overloaded > calm,
            "overload should raise the offload ratio: {calm} vs {overloaded}"
        );
        assert!(
            overloaded > 0.5,
            "deep overload should mostly offload: {overloaded}"
        );
    }

    #[test]
    fn queue_cap_rejects_surface_in_the_report() {
        let config = EngineConfig {
            max_queue: Some(2),
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(300, config, 411);
        // Far past capacity so queues overflow the tiny cap.
        let arrivals = fixed_qps_arrivals(80.0, 20.0, 412);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert!(report.iter.queue_rejects > 0, "cap must reject under burst");
        let rejected_records = report.per_request.iter().filter(|r| r.rejected).count() as u64;
        assert_eq!(rejected_records, report.iter.queue_rejects);
        // Rejected requests carry zero timings and are excluded from
        // latency aggregates.
        assert!(
            report
                .per_request
                .iter()
                .filter(|r| r.rejected)
                .all(|r| r.e2e_s == 0.0)
        );
    }

    #[test]
    fn kv_block_accounting_rides_in_the_report() {
        let (mut engine, mut wg) = seeded_engine(400, EngineConfig::default(), 421);
        let arrivals = fixed_qps_arrivals(2.0, 60.0, 422);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert!(report.kv.total_blocks > 0, "KV modeling on by default");
        assert!(report.kv.allocs > 0, "sequences claimed blocks");
        assert_eq!(report.kv.allocs, report.kv.frees, "blocks conserved");
        assert!(report.kv.peak_blocks > 0);
        assert!(report.kv.mean_occupancy() > 0.0);
        assert!(report.kv.peak_occupancy() <= 1.0);
        assert!(report.to_json().contains("\"kv\":{"));
    }

    #[test]
    fn tight_kv_budget_preempts_under_pressure() {
        // Shrink the per-replica budget until bursts cannot hold every
        // sequence's KV: preemption must fire on memory pressure even
        // though the quantum (slot-demand) preemption is disabled. The
        // budget holds three or four typical sequences, so admitted
        // batches collide mid-decode (a budget below a single sequence
        // would just window — no victims to preempt).
        let config = EngineConfig {
            preempt_decode_quantum: 0,
            kv_block_tokens: 16,
            kv_budget_blocks: 128,
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(400, config, 423);
        let arrivals = fixed_qps_arrivals(20.0, 30.0, 424);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert_eq!(report.iter.preemptions, 0, "quantum preemption off");
        assert!(
            report.kv.pressure_preemptions > 0,
            "tight budget must trigger pressure preemption: {:?}",
            report.kv
        );
        assert_eq!(report.kv.swap_ins, report.kv.swap_outs);
        assert_eq!(report.kv.allocs, report.kv.frees, "no leaked blocks");
        assert!(report.latency.mean_e2e > 0.0);
    }

    #[test]
    fn rebalance_keeps_the_sharded_cache_under_budget() {
        let config = EngineConfig {
            rebalance_period_s: 5.0,
            admit_served_pairs: true,
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(300, config, 407);
        let cap = engine.system().manager().cache().total_bytes() / 2;
        engine.system_mut().set_cache_capacity(Some(cap));
        let arrivals = fixed_qps_arrivals(4.0, 120.0, 408);
        let requests = wg.generate_requests(arrivals.len());
        let report = engine.serve_workload(&requests, &arrivals);
        assert!(report.cache.evicted > 0, "budget pressure must evict");
        assert!(
            report.cache.bytes <= cap,
            "cache must respect the byte budget: {} > {cap}",
            report.cache.bytes
        );
        assert_eq!(
            report.cache.shard_sizes.iter().sum::<usize>(),
            report.cache.examples
        );
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let run = || {
            let (mut engine, mut wg) = seeded_engine(500, EngineConfig::default(), 409);
            let arrivals = fixed_qps_arrivals(3.0, 90.0, 410);
            let requests = wg.generate_requests(arrivals.len());
            engine.serve_workload(&requests, &arrivals).to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "pool outage names pool 5 but the engine has 2 pool(s)")]
    fn outage_for_a_pool_the_engine_does_not_have_panics() {
        let config = EngineConfig {
            pool_outages: vec![PoolOutage {
                pool: 5,
                at_s: 300.0,
                duration_s: 60.0,
            }],
            ..EngineConfig::default()
        };
        let _ = seeded_engine(10, config, 463);
    }
}
