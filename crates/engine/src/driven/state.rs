//! Run-scoped state of one `serve_workload` replay, its event loop, and
//! the shared tails the event handlers go through: `dispatch` (offer a
//! served request to its pool) and `complete` (finisher bookkeeping).

use ic_cache::{IcCacheSystem, ServeOutcome};
use ic_desim::{Periodic, SimDuration, SimTime, Simulator};
use ic_llmsim::{ModelId, Request};
use ic_obs::{
    EventKind as ObsKind, LaneBuf, NO_REQUEST, ObsReport, PoolMeta, PoolSample, Recorder,
    TelemetrySample,
};
use ic_respcache::{CachedResponse, RespCacheConfig, ResponseCache};
use ic_serving::{
    IterStats, JobId, JobSpec, KvStats, ModelPool, Offer, PoolConfig, SharedPrefix,
    busy_interval_rps,
};
use ic_stats::{PercentileSnapshot, Percentiles, split_mix64};
use std::collections::VecDeque;

use super::arrival::ArrivalCursor;
use super::step::{EventKey, RegionScratch};
use super::{ENGINE_NAME, EngineConfig, EventDrivenEngine};
use crate::engine::cache_stats;
use crate::report::{
    EngineReport, LatencyStats, ReplayStats, RequestRecord, RouterStats, SelectorStats,
};

/// The events of the simulator's heap: every router interaction but an
/// arrival. Arrivals come from the cursor ([`EngineState::cursor`]) and
/// step boundaries from the armed slots ([`EngineState::armed`]).
#[derive(Debug)]
pub(super) enum Event {
    /// One gossip round of the router tier (periodic; only scheduled
    /// with more than one replica).
    GossipRound,
    /// Fault injection: `pool` goes down — flush its work back through
    /// the router tier and keep routing off its model.
    PoolDown(usize),
    /// Fault injection: `pool` recovers.
    PoolUp(usize),
    /// Full offline maintenance (replay + capacity enforcement).
    Maintenance,
    /// Capacity-only cross-shard budget rebalance.
    Rebalance,
    /// One firing of the periodic telemetry sampler
    /// (`EngineConfig::obs_sample_s`).
    ObsSample,
    /// Request `i`, answered by the stage-0 response cache at its
    /// arrival tick, completes after the fixed cache-serve latency
    /// ([`STAGE0_HIT_LATENCY_S`]). Scheduling a real event (instead of
    /// filling the record inline with a future timestamp) keeps the
    /// completion bookkeeping — completions list, sampler percentiles,
    /// Little's-law feedback, the terminal `Finish` lifecycle event —
    /// in global time order.
    Stage0Complete(usize),
}

/// Fixed latency of serving a request from the stage-0 response cache:
/// the embedding probe plus response streaming, orders of magnitude
/// below any prefill/decode path but not free.
const STAGE0_HIT_LATENCY_S: f64 = 0.002;

/// Run aggregates over the requests that actually executed. A
/// queue-cap reject produced no response and contributes nothing.
#[derive(Debug, Default)]
pub(super) struct Tally {
    offloaded: u64,
    solicited: u64,
    selection_hits: u64,
    examples_used: u64,
    quality_sum: f64,
}

impl Tally {
    /// Folds one served record's contributions in (`add`) or back out —
    /// a failover flush withdraws the serving that never completed
    /// before its retry re-tallies.
    pub(super) fn apply(&mut self, r: &RequestRecord, add: bool) {
        let fold = |total: &mut u64, n: u64| *total = if add { *total + n } else { *total - n };
        fold(&mut self.offloaded, u64::from(r.offloaded));
        fold(&mut self.solicited, u64::from(r.solicited));
        fold(&mut self.selection_hits, u64::from(r.examples > 0));
        fold(&mut self.examples_used, r.examples as u64);
        self.quality_sum += if add { r.quality } else { -r.quality };
    }
}

/// Telemetry-sampler state (`EngineConfig::obs_sample_s`): running
/// latency recorders behind the periodic percentile gauges, with the
/// sorted state memoized between completions
/// (`ic_stats::PercentileSnapshot`) so back-to-back idle sample ticks
/// reuse one sort.
#[derive(Default)]
struct Sampler {
    on: bool,
    samples: Vec<TelemetrySample>,
    e2e: Percentiles,
    ttft: Percentiles,
    snapshot: Option<(usize, PercentileSnapshot, PercentileSnapshot)>,
}

/// Everything one replay mutates, borrowed from the engine for the
/// run. Each simulator event is one small handler over this state.
pub(super) struct EngineState<'a> {
    pub(super) config: &'a EngineConfig,
    pub(super) system: &'a mut IcCacheSystem,
    /// `(model, pool index)` in routing order.
    pub(super) model_pools: &'a [(ModelId, usize)],
    pool_configs: &'a [PoolConfig],
    /// Fresh pools per run: queue state never leaks across workloads.
    pub(super) pools: Vec<ModelPool>,
    pub(super) requests: &'a [Request],

    pub(super) sim: Simulator<Event>,
    /// Per pool, the `(time, seq)` key of its next step boundary: the
    /// one copy of every pending step event. Invariant: a pool with a
    /// running batch has exactly one — armed by [`Self::arm_step`] on an
    /// `Offer::Started` admission, taken by the step region that runs
    /// it, re-armed by the region's merge while the pool stays busy,
    /// and cleared when a failover flushes the pool (so a pool that
    /// refills within one step time starts a fresh lineage instead of
    /// being stepped twice per iteration).
    pub(super) armed: Vec<Option<EventKey>>,
    /// Step-region buffers, reused from region to region.
    pub(super) region: RegionScratch,
    /// The arrival sequence in firing order.
    pub(super) cursor: ArrivalCursor,
    /// Stage-0 response cache (`EngineConfig::resp_cache`): probed per
    /// fresh arrival before any selector work. `None` (the default)
    /// keeps every path byte-identical to the pre-stage0 engine.
    pub(super) resp_cache: Option<ResponseCache>,

    pub(super) records: Vec<Option<RequestRecord>>,
    /// One arrival window per router replica: each replica estimates
    /// the arrival rate from the requests *it* owns — a stale, local
    /// view by construction (with one replica this is exactly a global
    /// window).
    arrival_windows: Vec<VecDeque<f64>>,
    completions: Vec<f64>,
    completed: usize,
    pub(super) tally: Tally,
    evicted: u64,
    pub(super) failover_requeues: u64,
    retry_rejects: u64,
    /// Arrivals that missed stage 0 and went through
    /// `IcCacheSystem::serve` — the report's `selector` block.
    pub(super) stage1_arrivals: u64,
    pub(super) replay: ReplayStats,
    /// [`ic_cache::FrontEnd::posterior_counts`] when the run began; the
    /// report carries the growth since.
    posterior_base: (u64, u64),
    /// The selector's `probe_memo_counts` when the run began, likewise.
    probe_memo_base: (u64, u64),
    /// Failover bookkeeping: overlapping outage windows per pool, so a
    /// nested window's `PoolUp` cannot revive a pool an enclosing
    /// window still declares down.
    pub(super) down_depth: Vec<u32>,
    /// Lifecycle tracing (`EngineConfig::trace`): the engine lane. With
    /// tracing off no lane exists anywhere, so the hot path costs one
    /// `Option` check per would-be record.
    recorder: Option<Recorder>,
    sampler: Sampler,
}

impl<'a> EngineState<'a> {
    /// Shapes the router tier for the run and queues the initial
    /// events: the periodic sources and the outage schedule, behind the
    /// seqs `0..n` the cursor's arrivals fire under (same-instant events
    /// fire in this order).
    pub(super) fn new(
        engine: &'a mut EventDrivenEngine,
        requests: &'a [Request],
        arrivals: &[f64],
    ) -> Self {
        let EventDrivenEngine {
            system,
            config,
            model_pools,
            pool_configs,
        } = engine;
        let config: &EngineConfig = config;
        let n = requests.len();
        let mut pools: Vec<ModelPool> = pool_configs.iter().cloned().map(ModelPool::new).collect();
        if config.trace {
            for (p, pool) in pools.iter_mut().enumerate() {
                pool.set_obs(LaneBuf::new(p as u32 + 1, config.obs_ring));
            }
        }
        // A changed replica count re-clones the (possibly warmed)
        // primary router into every replica; an unchanged tier just
        // resets the run-scoped counters and latency EMAs.
        let replicas = config.router_replicas.max(1);
        let fe = system.front_end_mut();
        if fe.num_replicas() != replicas {
            fe.reconfigure(replicas, config.latency_ema_alpha);
        } else {
            fe.begin_run(config.latency_ema_alpha);
        }
        let posterior_base = fe.posterior_counts();
        let probe_memo_base = system.selector().probe_memo_counts();

        let mut state = Self {
            config,
            system,
            model_pools,
            pool_configs,
            armed: vec![None; pools.len()],
            down_depth: vec![0; pools.len()],
            pools,
            requests,
            sim: Simulator::new(),
            region: RegionScratch::default(),
            cursor: ArrivalCursor::new(config, arrivals),
            resp_cache: config.resp_cache.then(|| {
                ResponseCache::new(RespCacheConfig {
                    threshold: config.resp_threshold,
                    budget_bytes: config.resp_budget_bytes,
                    ttl_s: config.resp_ttl_s,
                    prepop_min: config.resp_prepop_min,
                    window_s: config.resp_window_s,
                })
            }),
            records: (0..n).map(|_| None).collect(),
            arrival_windows: vec![VecDeque::new(); replicas],
            completions: Vec::with_capacity(n),
            completed: 0,
            tally: Tally::default(),
            evicted: 0,
            failover_requeues: 0,
            retry_rejects: 0,
            stage1_arrivals: 0,
            replay: ReplayStats::default(),
            posterior_base,
            probe_memo_base,
            recorder: config.trace.then(|| Recorder::new(config.obs_ring)),
            sampler: Sampler {
                on: Periodic::every_secs(config.obs_sample_s).enabled(),
                ..Sampler::default()
            },
        };
        state.sim.reserve_seqs(n as u64);
        state.arm_periodic(state.gossip_period_s(), Event::GossipRound);
        state.arm_periodic(config.obs_sample_s, Event::ObsSample);
        for outage in config.pool_outages.iter().filter(|o| o.duration_s > 0.0) {
            let down_at = SimTime::from_secs_f64(outage.at_s);
            let up_at = SimTime::from_secs_f64(outage.at_s + outage.duration_s);
            state.sim.schedule(down_at, Event::PoolDown(outage.pool));
            state.sim.schedule(up_at, Event::PoolUp(outage.pool));
        }
        state.arm_periodic(config.maintenance_period_s, Event::Maintenance);
        state.arm_periodic(config.rebalance_period_s, Event::Rebalance);
        state
    }

    /// Gossip only exists on a real tier: a single replica has no
    /// peers, so no rounds are ever scheduled.
    fn gossip_period_s(&self) -> f64 {
        if self.config.router_replicas > 1 {
            self.config.gossip_period_s
        } else {
            0.0
        }
    }

    /// The `(time, seq)` key of the next router interaction: the earlier
    /// of the next arrival and the heap head.
    pub(super) fn next_interaction(&self) -> Option<EventKey> {
        let pending = [self.cursor.peek_key(), self.sim.peek_key()];
        pending.into_iter().flatten().min()
    }

    /// The event loop: whichever of {earliest armed step boundary, next
    /// arrival, heap head} has the smallest `(time, seq)` key goes next
    /// — the step boundaries as one region running up to the next
    /// router interaction.
    pub(super) fn run(&mut self) {
        loop {
            if self.run_step_region() {
                continue;
            }
            let arrival = self.cursor.peek_key();
            if arrival.is_some() && arrival == self.next_interaction() {
                self.on_arrival();
                continue;
            }
            let Some((at, event)) = self.sim.next() else {
                return;
            };
            let now = at.as_secs_f64();
            match event {
                Event::Stage0Complete(i) => {
                    // The cache-served request completes: the same
                    // bookkeeping a pool finisher gets, with no pool
                    // state to touch. Queue wait is zero (the cache
                    // answered at the arrival tick), first token ==
                    // completion (the whole response streams at once),
                    // and the stage-0 tier held exactly this request.
                    let lat = STAGE0_HIT_LATENCY_S;
                    self.complete(i, now, 0.0, lat, lat, 1);
                    self.trace(at, i as u64, ObsKind::Finish { preemptions: 0 });
                }
                Event::GossipRound => {
                    let round = self.system.run_gossip(now);
                    self.trace(
                        at,
                        NO_REQUEST,
                        ObsKind::GossipRound {
                            merges: round.merges,
                            staleness_s: round.staleness_sum_s,
                        },
                    );
                    self.rearm_periodic(self.gossip_period_s(), Event::GossipRound);
                }
                Event::PoolDown(pool) => self.on_pool_down(pool, at),
                Event::PoolUp(pool) => self.on_pool_up(pool, at),
                Event::Maintenance => {
                    self.evicted += self.system.run_maintenance(now).evicted as u64;
                    self.rearm_periodic(self.config.maintenance_period_s, Event::Maintenance);
                }
                Event::Rebalance => {
                    self.evicted += self.system.run_rebalance(now) as u64;
                    self.rearm_periodic(self.config.rebalance_period_s, Event::Rebalance);
                }
                Event::ObsSample => {
                    self.on_sample(at);
                    self.rearm_periodic(self.config.obs_sample_s, Event::ObsSample);
                }
            }
        }
    }

    /// Queues `event` one period from now; a non-positive or non-finite
    /// period disables the source.
    fn arm_periodic(&mut self, period_s: f64, event: Event) {
        if let Some(period) = Periodic::every_secs(period_s).period() {
            self.sim.schedule(self.sim.now() + period, event);
        }
    }

    /// Re-arms a periodic source from its handler while work remains.
    fn rearm_periodic(&mut self, period_s: f64, event: Event) {
        if self.completed < self.requests.len() {
            self.arm_periodic(period_s, event);
        }
    }

    /// Arms `pool`'s next step boundary iff it has a running batch,
    /// under the seq a queued event would have drawn here (see
    /// [`Self::armed`]).
    fn arm_step(&mut self, pool: usize) {
        if let Some(dt) = self.pools[pool].step_secs() {
            debug_assert!(self.armed[pool].is_none(), "one step lineage per pool");
            let at = self.sim.now() + SimDuration::from_secs_f64(dt);
            self.armed[pool] = Some((at, self.sim.reserve_seq()));
        }
    }

    /// Records one engine-lane lifecycle event when tracing is on.
    pub(super) fn trace(&mut self, at: SimTime, request: u64, kind: ObsKind) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(at, request, kind);
        }
    }

    /// Feeds the owning replica's load tracker a windowed arrival-rate
    /// estimate before its routing decision (each replica sees only its
    /// own arrivals).
    pub(super) fn observe_arrival(&mut self, owner: usize, now: f64) {
        let window = &mut self.arrival_windows[owner];
        window.push_back(now);
        while window.len() > self.config.load_window {
            window.pop_front();
        }
        if window.len() >= 2 {
            let dt = now - window.front().expect("non-empty window");
            if dt > 0.0 {
                let rps = (window.len() - 1) as f64 / dt;
                self.system.front_end_mut().observe_arrival_load(owner, rps);
            }
        }
    }

    /// The post-selection tail of one serving, shared by fresh arrivals
    /// and failover retries: record the decision, offer the job to its
    /// routed pool now (arming the step event on an idle-pool start),
    /// and fold the outcome into the run tallies. `arrival` is the
    /// request's *original* arrival — a retry's latency includes the
    /// time the outage cost it. Returns whether the pool took the job;
    /// a queue-cap reject is terminal.
    pub(super) fn dispatch(
        &mut self,
        i: usize,
        out: &ServeOutcome,
        arrival: SimTime,
        retry: bool,
    ) -> bool {
        let at = self.sim.now();
        let id = i as u64;
        let mut record = RequestRecord {
            index: i,
            model: out.model.0,
            offloaded: out.offloaded,
            quality: out.outcome.quality,
            solicited: out.solicited_feedback,
            examples: out.selection.ids.len(),
            arrival_s: arrival.as_secs_f64(),
            queue_s: 0.0,
            ttft_s: 0.0,
            e2e_s: 0.0,
            rejected: false,
        };
        let pool = self
            .model_pools
            .iter()
            .find(|(m, _)| *m == out.model)
            .map(|&(_, p)| p)
            .expect("routed model has a pool");
        self.trace(
            at,
            id,
            ObsKind::Selected {
                model: out.model.0 as u32,
                examples: out.selection.ids.len() as u32,
                offloaded: out.offloaded,
            },
        );
        self.trace(at, id, ObsKind::RouterDecision { pool: pool as u32 });
        let job = JobSpec {
            id: JobId(id),
            pool,
            arrival,
            ttft_secs: out.outcome.latency.ttft,
            decode_secs: out.outcome.latency.decode,
            prefill_tokens: out.outcome.input_tokens,
            decode_tokens: out.outcome.output_tokens,
            priority: 0,
            share: shared_prefix_of(out, self.config.kv_share),
        };
        // Iteration-level admission: an idle pool starts the job; a
        // busy pool keeps it queued until the next step boundary.
        match self.pools[pool].offer(job, at) {
            Offer::Rejected => {
                self.trace(at, id, ObsKind::RejectedByCap { retry });
                record.rejected = true;
                self.completed += 1;
                self.retry_rejects += u64::from(retry);
            }
            Offer::Started => self.arm_step(pool),
            Offer::Queued => self.trace(at, id, ObsKind::Enqueued { pool: pool as u32 }),
        }
        let accepted = !record.rejected;
        if accepted {
            self.tally.apply(&record, true);
        }
        self.records[i] = Some(record);
        accepted
    }

    /// Serves request `i` from the stage-0 response cache: record the
    /// hit, emit the `Stage0Hit` lifecycle marker, and schedule the
    /// completion one cache-serve latency out. No selector, router, or
    /// pool state is touched — the hit's only contribution to the run
    /// tallies is its quality (it delivered the cached response's
    /// answer). Timings are filled by `Stage0Complete`.
    pub(super) fn serve_stage0_hit(&mut self, i: usize, resp: &CachedResponse, owner: usize) {
        let at = self.sim.now();
        self.records[i] = Some(RequestRecord {
            index: i,
            model: resp.model,
            // *This* serving ran nothing: no offload, no examples, no
            // solicitation — the cached response's provenance lives in
            // the cache entry, not in the hit's record.
            offloaded: false,
            quality: resp.quality,
            solicited: false,
            examples: 0,
            arrival_s: at.as_secs_f64(),
            queue_s: 0.0,
            ttft_s: 0.0,
            e2e_s: 0.0,
            rejected: false,
        });
        self.tally.quality_sum += resp.quality;
        self.trace(
            at,
            i as u64,
            ObsKind::Stage0Hit {
                replica: owner as u32,
            },
        );
        let done = at + SimDuration::from_secs_f64(STAGE0_HIT_LATENCY_S);
        self.sim.schedule(done, Event::Stage0Complete(i));
    }

    /// Finisher bookkeeping for request `i` completing at `at_s`: fill
    /// the record's timings, then feed measured latency back — Little's
    /// law turns the observed end-to-end latency and the work in flight
    /// (`in_system`) into a demand estimate at the replica that owns
    /// the request.
    pub(super) fn complete(
        &mut self,
        i: usize,
        at_s: f64,
        queue_s: f64,
        ttft_s: f64,
        e2e_s: f64,
        in_system: u32,
    ) {
        let record = self.records[i]
            .as_mut()
            .expect("completion follows arrival");
        record.queue_s = queue_s;
        record.ttft_s = ttft_s;
        record.e2e_s = e2e_s;
        self.completions.push(at_s);
        self.completed += 1;
        if self.sampler.on {
            self.sampler.e2e.record(e2e_s);
            self.sampler.ttft.record(ttft_s);
        }
        let owner = self.system.front_end().replica_of(self.requests[i].id);
        self.system
            .front_end_mut()
            .observe_completion(owner, e2e_s, in_system);
    }

    /// One telemetry sample: cluster-state gauges plus the latency
    /// percentiles so far.
    fn on_sample(&mut self, at: SimTime) {
        // Reuse the memoized sorted snapshot unless a completion landed
        // since the last tick.
        let s = &mut self.sampler;
        let snapshot = match s.snapshot.take() {
            Some(c) if c.0 == s.e2e.len() => c,
            _ => (s.e2e.len(), s.e2e.snapshot(), s.ttft.snapshot()),
        };
        let (_, e2e, ttft) = &snapshot;
        let pools: Vec<PoolSample> = self
            .pools
            .iter()
            .map(|p| PoolSample {
                queue: p.queue_len() as u32,
                active: p.active(),
                swapped: p.swapped_len() as u32,
                kv_used_blocks: p.kv_used_blocks(),
                kv_occupancy: p.kv_occupancy(),
                kv_shared_blocks: p.kv_shared_blocks(),
                dedup_ratio: p.kv_stats().dedup_ratio(),
                mean_step_batch: p.iter_stats().mean_step_batch(),
            })
            .collect();
        // Pool queue caps count every drop, retries included; the
        // sample splits them back out.
        let total_rejects: u64 = self.pools.iter().map(|p| p.rejected()).sum();
        let fe = self.system.front_end().stats();
        s.samples.push(TelemetrySample {
            t_us: at.as_micros(),
            completed: self.completed as u64,
            queue_rejects: total_rejects.saturating_sub(self.retry_rejects),
            retry_rejects: self.retry_rejects,
            failover_requeues: self.failover_requeues,
            p50_e2e_s: e2e.p50().unwrap_or(0.0),
            p99_e2e_s: e2e.p99().unwrap_or(0.0),
            p50_ttft_s: ttft.p50().unwrap_or(0.0),
            p99_ttft_s: ttft.p99().unwrap_or(0.0),
            pools,
            load_estimates: fe.load_estimates,
            decisions: fe.decisions,
            gossip_rounds: fe.gossip_rounds,
            mean_staleness_s: if fe.merges == 0 {
                0.0
            } else {
                fe.staleness_sum_s / fe.merges as f64
            },
        });
        s.snapshot = Some(snapshot);
    }

    /// Folds the finished run into its report.
    pub(super) fn into_report(mut self) -> EngineReport {
        let n = self.requests.len() as u64;
        let mut iter = IterStats::default();
        let mut kv = KvStats::default();
        for p in &self.pools {
            iter.merge(&p.iter_stats());
            kv.merge(&p.kv_stats());
        }
        // Observability block: present whenever tracing or sampling
        // ran, absent (and the report bit-identical to the
        // pre-observability engine) otherwise.
        let obs = (self.config.trace || self.sampler.on).then(|| {
            let (events, dropped) = match self.recorder {
                Some(rec) => rec.finish(
                    self.pools
                        .iter_mut()
                        .filter_map(ModelPool::take_obs)
                        .collect(),
                ),
                None => (Vec::new(), 0),
            };
            ObsReport {
                pools: self
                    .pool_configs
                    .iter()
                    .map(|pc| PoolMeta {
                        name: pc.name.clone(),
                        replicas: pc.replicas,
                    })
                    .collect(),
                router_replicas: self.config.router_replicas.max(1) as u32,
                events,
                dropped,
                samples: self.sampler.samples,
            }
        });
        let per_request: Vec<RequestRecord> = self
            .records
            .into_iter()
            .map(|r| r.expect("every request served"))
            .collect();
        // Quality averages over *executed* requests only; queue-cap
        // rejects never produced a response.
        let executed = n.saturating_sub(iter.queue_rejects);
        let (arm_evaluations, posterior_refits) = self.system.front_end().posterior_counts();
        self.replay.arm_evaluations = arm_evaluations - self.posterior_base.0;
        self.replay.posterior_refits = posterior_refits - self.posterior_base.1;
        self.replay.share_admissions = iter.share_admissions;
        self.replay.prefix_chunks = iter.prefix_chunks;
        let (memo_lookups, memo_hits) = self.system.selector().probe_memo_counts();
        self.replay.probe_memo_lookups = memo_lookups - self.probe_memo_base.0;
        self.replay.probe_memo_hits = memo_hits - self.probe_memo_base.1;
        EngineReport {
            engine: ENGINE_NAME.to_owned(),
            served: n,
            offloaded: self.tally.offloaded,
            solicited: self.tally.solicited,
            latency: LatencyStats::from_records(&per_request),
            throughput_rps: busy_interval_rps(&self.completions),
            mean_quality: if executed == 0 {
                0.0
            } else {
                self.tally.quality_sum / executed as f64
            },
            cache: cache_stats(
                self.system,
                self.tally.selection_hits,
                self.tally.examples_used,
                self.evicted,
            ),
            iter,
            router: RouterStats::from_tier(
                self.system.front_end().stats(),
                self.failover_requeues,
                self.retry_rejects,
            ),
            // One probe per arrival that reached the selector; the
            // block keeps its five keys for the golden's sake.
            selector: SelectorStats {
                batch_limit: self.config.selector_batch as u64,
                batches: self.stage1_arrivals,
                requests: self.stage1_arrivals,
                max_batch: self.stage1_arrivals.min(1),
            },
            kv,
            resp_cache: self.resp_cache.map(|c| c.stats()).unwrap_or_default(),
            replay: self.replay,
            obs,
            per_request,
        }
    }
}

/// The shareable example-set prefix of a served request's prompt, or
/// `None` when sharing is off or no injected examples survived the
/// context-window fit. The set identity is a deterministic
/// `split_mix64` fold over the *kept* example ids in prompt order —
/// two requests handed the same examples in the same order (the common
/// case when concurrent requests hit the same selector entries) hash
/// to the same set and so map the same hash-consed KV blocks; the
/// prefix length is the tokens the template + examples occupy.
fn shared_prefix_of(out: &ServeOutcome, enabled: bool) -> Option<SharedPrefix> {
    if !enabled || out.outcome.example_tokens == 0 {
        return None;
    }
    let kept = out
        .selection
        .ids
        .len()
        .saturating_sub(out.outcome.examples_dropped as usize);
    if kept == 0 {
        return None;
    }
    let mut set = 0x1C_CAC4E_u64; // domain tag: "IC-Cache" prefix sets
    for id in &out.selection.ids[..kept] {
        set = split_mix64(set ^ id.0);
    }
    Some(SharedPrefix {
        set,
        tokens: out.outcome.example_tokens,
    })
}
