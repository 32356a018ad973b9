//! The event-driven serving engine (see the crate docs for the event
//! flow diagram): configuration, the engine itself, and the replay
//! entry point. The run-scoped state and the per-event handlers live in
//! the submodules.

mod arrival;
mod failover;
mod lookahead;
mod state;
mod step;

use ic_cache::IcCacheSystem;
use ic_llmsim::{ModelId, Request};
use ic_serving::{KvSwap, PoolConfig, Watermarks};

use crate::engine::ServingEngine;
use crate::report::EngineReport;
use lookahead::Ring;

/// Report name of [`EventDrivenEngine`].
const ENGINE_NAME: &str = "event-driven";

/// A deterministic fault-injection window: `pool` goes down `at_s`
/// seconds into the run and recovers `duration_s` later. While down, the
/// pool's queued + running jobs are preempted (their KV blocks released)
/// and re-enqueued through the router as retries, and new routing
/// decisions avoid the pool's model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolOutage {
    /// Pool index in routing order (see `EventDrivenEngine` pool layout).
    /// [`EventDrivenEngine::new`] panics on an index the engine has no
    /// pool for.
    pub pool: usize,
    /// Failure time, seconds into the run: finite and ≥ 0.
    pub at_s: f64,
    /// Outage length in seconds, finite; non-positive outages are
    /// ignored.
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
    /// Inert: nothing reads it. Every arrival is observed in the
    /// stage-0 trending sketch and looked up on its own; the field
    /// stays only because the frozen `benchmark/src/workload.rs` sets
    /// it, and goes when a benchmark-owning PR drops that line.
    #[doc(hidden)]
    pub selector_batch: usize,
    /// Inert: nothing reads it. Step boundaries are handled on the
    /// event-loop thread, and the one other thread a replay may run —
    /// the stage-1 look-ahead, started on a host with a second core —
    /// reads no configuration field either: there is no knob for it.
    /// The field stays only because the frozen
    /// `benchmark/src/workload.rs` names it in a struct literal, and
    /// goes when a benchmark-owning PR drops that line.
    #[doc(hidden)]
    pub replay_threads: usize,
    /// Tokens per KV block of the paged KV memory (at least one).
    pub kv_block_tokens: u32,
    /// KV blocks per replica — the memory budget that makes preemption
    /// pressure-driven rather than slot-driven (at least one).
    pub kv_budget_blocks: u32,
    /// High/low occupancy watermarks gating admission and swap resume.
    pub kv_watermarks: Watermarks,
    /// Per-block swap pricing for preemption victims, plus the host-side
    /// swap capacity (`KvSwap::host_capacity_blocks`) past which victims
    /// are evicted recompute-priced.
    pub kv_swap: KvSwap,
    /// Inert: nothing reads it. Every sequence allocates its KV
    /// privately (natural traces never hold two requests with one
    /// example set resident at once). The field stays only because the
    /// frozen `benchmark/src/workload.rs` sets it for `trending_dups`,
    /// and goes when a benchmark-owning PR drops that line.
    #[doc(hidden)]
    pub kv_share: bool,
    /// Must be `1`: one logical router owns every request
    /// ([`EventDrivenEngine::new`] panics otherwise). The field stays
    /// only because the frozen `benchmark/src/workload.rs` names it in a
    /// struct literal, and goes when a benchmark-owning PR drops that
    /// line.
    #[doc(hidden)]
    pub router_replicas: usize,
    /// Deterministic pool-failover injections (env `IC_POOL_OUTAGE`,
    /// `pool:at:duration[;...]`). Empty by default: no failovers, no
    /// behaviour change.
    pub pool_outages: Vec<PoolOutage>,
    /// Period of full maintenance (replay + capacity), seconds; `0`
    /// disables.
    pub maintenance_period_s: f64,
    /// Period of the cheap capacity-only pass (`Rebalance`: one knapsack
    /// over the whole example cache, evicted ids unindexed), seconds; `0`
    /// disables. A no-op while the manager has no byte cap.
    pub rebalance_period_s: f64,
    /// Cache served request-response pairs back into the example store
    /// (Fig. 6 `update_cache`) at the arrival instant: `on_arrival`
    /// admits each pair a pool accepted straight after `dispatch`, before
    /// the response completes (a failover retry admits nothing again).
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
    /// Ring-buffer capacity per recording lane, in events. A full ring
    /// drops its oldest event and counts the eviction, so long runs
    /// degrade to a suffix trace instead of unbounded memory.
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
    /// Byte budget of the stage-0 store; LRU entries are evicted past
    /// it.
    pub resp_budget_bytes: usize,
    /// Stage-0 entry time-to-live, seconds; older entries are stale and
    /// evicted lazily on lookup.
    pub resp_ttl_s: f64,
    /// Duplicate sightings within the trending window required before a
    /// missed query is admitted into the stage-0 store.
    pub resp_prepop_min: u64,
    /// Width of the stage-0 trending-query frequency window, seconds.
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
            pool_outages: Vec::new(),
            maintenance_period_s: 0.0,
            rebalance_period_s: 60.0,
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
    /// Test-only: the stage-1 look-ahead forced on (a patient one, which
    /// waits for each slot) or off, whatever the host's parallelism.
    #[cfg(test)]
    force_lookahead: Option<bool>,
    /// Test-only: arrivals of the last replay whose stage 1 came from a
    /// look-ahead slot.
    #[cfg(test)]
    lookahead_taken: u64,
}

impl EventDrivenEngine {
    /// Builds the engine over a (typically example-seeded) system.
    ///
    /// # Panics
    ///
    /// Panics if a [`PoolOutage`] names a pool the engine does not
    /// have: a fault schedule that silently injects nothing would
    /// record a fault-free run as if it had survived the outage. Panics
    /// if an outage's `at_s` is not a finite time ≥ 0 or its
    /// `duration_s` is not finite: either would go down and come back
    /// at t = 0 (`SimTime::from_secs_f64` clamps). Panics
    /// on a router replica count other than 1: the replicated router
    /// tier was deleted, and a run that silently used one router would
    /// be recorded as a tier's.
    pub fn new(system: IcCacheSystem, config: EngineConfig) -> Self {
        assert_eq!(
            config.router_replicas, 1,
            "the replicated router tier was deleted: one router owns every request"
        );
        let sys_cfg = system.config();
        let pools = sys_cfg.models.len();
        for outage in &config.pool_outages {
            assert!(
                outage.pool < pools,
                "pool outage names pool {} but the engine has {pools} pool(s)",
                outage.pool
            );
            assert!(
                outage.at_s.is_finite() && outage.at_s >= 0.0,
                "pool outage at_s {} is not a finite time >= 0",
                outage.at_s
            );
            assert!(
                outage.duration_s.is_finite(),
                "pool outage duration_s {} is not finite",
                outage.duration_s
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
            pool_configs.push(pc);
        }
        Self {
            system,
            config,
            model_pools,
            pool_configs,
            #[cfg(test)]
            force_lookahead: None,
            #[cfg(test)]
            lookahead_taken: 0,
        }
    }

    /// The ring of a stage-1 look-ahead for a replay of `n` arrivals, if
    /// it starts one: there are arrivals to probe ahead of, and the host
    /// has a second core. Index writes do not stop it (see
    /// `driven/lookahead.rs`), and no knob reads into it.
    fn lookahead_ring(&self, n: usize) -> Option<Ring> {
        #[cfg(test)]
        if let Some(forced) = self.force_lookahead {
            return (forced && n > 0).then(Ring::patient);
        }
        (n > 0 && lookahead::second_core()).then(Ring::new)
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
        let ring = self.lookahead_ring(requests.len());
        let report = lookahead::replay(self, requests, arrivals, ring.as_ref());
        #[cfg(test)]
        {
            self.lookahead_taken = ring.as_ref().map_or(0, Ring::taken);
        }
        report
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

    pub(super) fn seeded_engine(
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
        let key = (at, state.sim.reserve_seq());
        state.armed[0] = Some(step::Armed {
            key,
            ..Default::default()
        });
        assert_eq!(state.next_interaction(), Some((at, 0)));
        // The step is compared with the arrival, not with the heap head
        // behind it (which would run the step past both arrivals).
        assert_eq!(state.due_step(), None, "the arrival goes first");
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
        assert!(report.kv.total_blocks > 0, "every pool pages its KV");
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
    fn rebalance_keeps_the_cache_under_budget_and_unindexes_evictions() {
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
        // Every evicted example left the stage-1 index with the cache.
        let system = engine.system();
        assert_eq!(report.cache.examples, system.cached_examples());
        assert_eq!(system.selector().indexed_count(), system.cached_examples());
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

    /// Replays `requests` at `arrivals` on two engines `build` makes
    /// alike, the stage-1 look-ahead forced off on one and on (patient:
    /// the event loop waits for each slot) on the other, and checks that
    /// they are the same replay — `to_json`, every record and every
    /// `ReplayStats` counter. Returns the look-ahead's report and how
    /// many arrivals took their stage 1 from a slot.
    fn same_with_and_without_lookahead(
        build: impl Fn() -> EventDrivenEngine,
        requests: &[Request],
        arrivals: &[f64],
    ) -> (EngineReport, u64) {
        let run = |ahead: bool| {
            let mut engine = build();
            engine.force_lookahead = Some(ahead);
            let report = engine.serve_workload(requests, arrivals);
            (report, engine.lookahead_taken)
        };
        let (inline, none) = run(false);
        let (ahead, taken) = run(true);
        assert_eq!(none, 0, "no look-ahead, no slot");
        assert_eq!(inline.to_json(), ahead.to_json());
        assert_eq!(
            format!("{:?}", inline.per_request),
            format!("{:?}", ahead.per_request)
        );
        assert_eq!(inline.replay, ahead.replay);
        (ahead, taken)
    }

    /// `n` requests for a bank of `bank`, arrivals `gap_s` apart; with
    /// `repeats`, every odd request is a copy of an earlier one.
    fn workload(bank: usize, n: usize, gap_s: f64, repeats: bool) -> (Vec<Request>, Vec<f64>) {
        let (_, mut wg) = seeded_engine(bank, EngineConfig::default(), 441);
        let mut requests = wg.generate_requests(n);
        if repeats {
            for i in (1..n).step_by(2) {
                requests[i] = requests[i / 3].clone();
            }
        }
        let arrivals = (0..n).map(|i| gap_s * i as f64).collect();
        (requests, arrivals)
    }

    #[test]
    fn repeat_queries_take_their_slots_like_any_arrival() {
        // Every odd arrival is an exact copy of an earlier one, against a
        // trained 3 000-example index: a copy's probe is its own slot's,
        // stamped with its own seq, so all 120 arrivals take a slot.
        let (requests, arrivals) = workload(3_000, 120, 0.5, true);
        let build = || seeded_engine(3_000, EngineConfig::default(), 441).0;
        let (_, taken) = same_with_and_without_lookahead(build, &requests, &arrivals);
        assert_eq!(taken, 120);
    }

    #[test]
    fn a_stage0_hit_skips_its_slot() {
        // Each request arrives four times in a row: from the sketch's
        // second sighting on, stage 0 answers and stage 1 never runs.
        let (base, _) = workload(300, 40, 0.0, false);
        let requests: Vec<Request> = base.iter().flat_map(|r| [r, r, r, r]).cloned().collect();
        let arrivals: Vec<f64> = (0..requests.len()).map(|i| 0.25 * i as f64).collect();
        let config = EngineConfig {
            resp_cache: true,
            ..EngineConfig::default()
        };
        let build = || seeded_engine(300, config.clone(), 441).0;
        let (report, taken) = same_with_and_without_lookahead(build, &requests, &arrivals);
        let hits = report.resp_cache.hits;
        assert!(hits > 0, "{:?}", report.resp_cache);
        assert_eq!(taken, requests.len() as u64 - hits);
    }

    /// Each replay that writes the index keeps its look-ahead and is the
    /// forced-off replay, byte for byte: served pairs admitted (an
    /// insert per arrival: slots merged through the insert log), a byte
    /// cap whose 5 s capacity pass evicts (an epoch per pass: slots
    /// refused, the helper restarted), both with a pool outage on top,
    /// and admission from an empty bank (brute force while the pool is
    /// small, then the flip and the retrains). More arrivals than the
    /// ring holds. Mutations that fail it: dropping the list filter or the
    /// epoch check from `IvfIndex::refresh`, or the refresh from
    /// `Ring::take`.
    #[test]
    fn a_replay_that_writes_the_index_keeps_its_lookahead() {
        let (requests, arrivals) = workload(300, 400, 0.5, false);
        let admitting = EngineConfig {
            admit_served_pairs: true,
            ..EngineConfig::default()
        };
        let rebalancing = EngineConfig {
            rebalance_period_s: 5.0,
            ..EngineConfig::default()
        };
        let both = EngineConfig {
            admit_served_pairs: true,
            pool_outages: vec![PoolOutage {
                pool: 0,
                at_s: 50.0,
                duration_s: 30.0,
            }],
            ..rebalancing.clone()
        };
        let capped = |config: &EngineConfig| {
            let mut engine = seeded_engine(300, config.clone(), 441).0;
            let cap = engine.system().manager().cache().total_bytes() / 2;
            engine.system_mut().set_cache_capacity(Some(cap));
            engine
        };

        let build = || seeded_engine(300, admitting.clone(), 441).0;
        let (report, taken) = same_with_and_without_lookahead(build, &requests, &arrivals);
        assert!(report.cache.examples > 300, "served pairs were admitted");
        assert!(taken > 0, "admitting: no slot taken");

        let build = || capped(&rebalancing);
        let (report, taken) = same_with_and_without_lookahead(build, &requests, &arrivals);
        assert!(report.cache.evicted > 0, "the capacity pass evicted");
        assert!(taken > 0, "evicting: no slot taken");

        let build = || capped(&both);
        let (report, taken) = same_with_and_without_lookahead(build, &requests, &arrivals);
        assert!(report.cache.evicted > 0, "the capacity pass evicted");
        assert!(report.router.failover_requeues > 0, "{:?}", report.router);
        assert!(
            taken > 0,
            "admitting, evicting, failing over: no slot taken"
        );

        let build = || seeded_engine(0, admitting.clone(), 441).0;
        let (report, taken) = same_with_and_without_lookahead(build, &requests, &arrivals);
        assert!(report.cache.examples > 64, "past the brute-force boundary");
        assert!(taken > 0, "from an empty bank: no slot taken");
    }

    #[test]
    fn an_uncapped_rebalance_keeps_the_lookahead() {
        // A capacity pass every 5 s over a cache with no byte cap evicts
        // nothing, so it writes nothing and the look-ahead runs on.
        let (requests, arrivals) = workload(300, 120, 0.5, false);
        let config = EngineConfig {
            rebalance_period_s: 5.0,
            ..EngineConfig::default()
        };
        let build = || seeded_engine(300, config.clone(), 441).0;
        let (report, taken) = same_with_and_without_lookahead(build, &requests, &arrivals);
        assert_eq!(report.cache.evicted, 0);
        assert_eq!(taken, requests.len() as u64);
    }

    #[test]
    fn outage_retries_probe_inline() {
        // Saturated, then the offload pool goes down: its jobs are
        // served again through `serve_retry`, which probes inline; the
        // slots are the fresh arrivals'.
        let config = EngineConfig {
            pool_outages: vec![PoolOutage {
                pool: 0,
                at_s: 10.0,
                duration_s: 20.0,
            }],
            ..EngineConfig::default()
        };
        let (_, mut wg) = seeded_engine(400, config.clone(), 441);
        let arrivals = fixed_qps_arrivals(30.0, 40.0, 442);
        let requests = wg.generate_requests(arrivals.len());
        let build = || seeded_engine(400, config.clone(), 441).0;
        let (report, taken) = same_with_and_without_lookahead(build, &requests, &arrivals);
        assert!(report.router.failover_requeues > 0, "{:?}", report.router);
        assert_eq!(taken, requests.len() as u64);
    }

    /// Two requests at `arrivals` on an engine with one outage of pool 0
    /// at `at_s` for `duration_s`, if given.
    fn serve_two(arrivals: [f64; 2], outage: Option<(f64, f64)>) -> EngineReport {
        let pool_outages = (outage.into_iter())
            .map(|(at_s, duration_s)| PoolOutage {
                pool: 0,
                at_s,
                duration_s,
            })
            .collect();
        let config = EngineConfig {
            pool_outages,
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(10, config, 463);
        engine.serve_workload(&wg.generate_requests(2), &arrivals)
    }

    #[test]
    #[should_panic(expected = "pool outage at_s NaN is not a finite time >= 0")]
    fn an_outage_at_nan_panics() {
        serve_two([0.0, 1.0], Some((f64::NAN, 60.0)));
    }

    #[test]
    #[should_panic(expected = "pool outage at_s -5 is not a finite time >= 0")]
    fn an_outage_at_a_negative_time_panics() {
        serve_two([0.0, 1.0], Some((-5.0, 60.0)));
    }

    #[test]
    #[should_panic(expected = "pool outage at_s inf is not a finite time >= 0")]
    fn an_outage_at_an_infinite_time_panics() {
        serve_two([0.0, 1.0], Some((f64::INFINITY, 60.0)));
    }

    #[test]
    #[should_panic(expected = "pool outage duration_s NaN is not finite")]
    fn an_outage_of_nan_seconds_panics() {
        serve_two([0.0, 1.0], Some((0.5, f64::NAN)));
    }

    #[test]
    #[should_panic(expected = "pool outage duration_s inf is not finite")]
    fn an_outage_of_infinite_seconds_panics() {
        serve_two([0.0, 1.0], Some((0.5, f64::INFINITY)));
    }

    #[test]
    fn a_non_positive_outage_is_ignored() {
        let none = serve_two([0.0, 1.0], None).to_json();
        assert_eq!(serve_two([0.0, 1.0], Some((0.5, 0.0))).to_json(), none);
        assert_eq!(serve_two([0.0, 1.0], Some((0.5, -10.0))).to_json(), none);
    }

    #[test]
    #[should_panic(expected = "arrival time NaN is not a finite time >= 0")]
    fn a_nan_arrival_panics() {
        serve_two([1.0, f64::NAN], None);
    }

    #[test]
    #[should_panic(expected = "arrival time -0.5 is not a finite time >= 0")]
    fn a_negative_arrival_panics() {
        serve_two([-0.5, 1.0], None);
    }

    #[test]
    #[should_panic(expected = "arrival time inf is not a finite time >= 0")]
    fn an_infinite_arrival_panics() {
        serve_two([1.0, f64::INFINITY], None);
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

    #[test]
    #[should_panic(expected = "the replicated router tier was deleted")]
    fn a_replicated_router_tier_panics() {
        let config = EngineConfig {
            router_replicas: 4,
            ..EngineConfig::default()
        };
        let _ = seeded_engine(10, config, 463);
    }
}
