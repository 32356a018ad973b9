//! The traced run: set-up with a span per step, an untraced, a traced and
//! another untraced replay, then a *layer-drive pass* that feeds the
//! workload's own bank, requests and arrivals straight into each crate's
//! public entry points, one span per call. Counts come from the untraced
//! replay's `EngineReport`; costs come from the drive. `X.est_share` is
//! the drive's mean call cost times the report's call count, over the
//! `replay_s` of the replay that ran right before the drive.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_desim::{SimDuration, SimTime, Simulator};
use ic_embed::{Embedder, Embedding, EmbeddingSlab};
use ic_engine::{EngineConfig, EngineReport, ServingEngine};
use ic_kvmem::{BlockPool, Divergence};
use ic_llmsim::{Example, ExampleId, GenSetup, Generator, Request};
use ic_manager::{ExampleManager, ManagerConfig};
use ic_obs::{EventKind, LaneBuf};
use ic_respcache::{CachedResponse, RespCacheConfig, ResponseCache};
use ic_selector::{ExampleSelector, SelectorConfig};
use ic_serving::{JobId, JobSpec, ModelPool, Offer, PoolConfig};
use ic_stats::Percentiles;
use ic_stats::rng::rng_from_seed;
use ic_vecindex::{IvfConfig, IvfIndex, VectorIndex, kmeans_best_of, sqrt_cluster_count};

use crate::metrics::{PER_LAYER, Value};
use crate::run::{Counts, Ready, check_report, fnv64, gemma_specs, setup};
use crate::spans::{NO_REQUEST, Spans};
use crate::workload::{FIXTURE_SEED, Workload};

/// Requests the per-request drives sample (the workload's first ones, so
/// arrival spacing — and with it pool batching — stays the workload's).
const DRIVE_REQUESTS: usize = 2_000;
/// Calls per batch span of a sub-microsecond operation.
const BATCH: u32 = 1_000;
/// Rounds of the manager drive after the bank, and admissions in each.
const MANAGER_CYCLES: usize = 5;
const MANAGER_CYCLE_ADMITS: usize = 300;
/// Stage-1 candidates per probe (`SelectorConfig::default`).
const STAGE1_K: usize = 32;

/// What the traced run hands back.
pub struct Traced {
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub values: Vec<Value>,
    /// Request tallies of the untraced replay.
    pub counts: Counts,
    /// FNV-64 of the report (identical for both replays, or the run fails).
    pub hash: u64,
    /// Where the spans were written.
    pub spans_path: PathBuf,
    /// The spans themselves.
    pub spans: Spans,
}

/// Percentile of a span family's per-call cost, in `unit_ns`-sized units;
/// 0 when the family is empty.
fn pct(spans: &Spans, name: &str, q: f64, unit_ns: f64) -> f64 {
    let mut costs = Percentiles::new();
    costs.record_all(spans.per_call_ns(name));
    costs.quantile(q).unwrap_or(0.0) / unit_ns
}

/// Mean per-call cost of a span family in seconds, weighted by calls.
fn mean_s(spans: &Spans, name: &str) -> f64 {
    let (mut ns, mut calls) = (0.0, 0.0);
    for s in spans.all().iter().filter(|s| s.name == name) {
        ns += s.duration_ns() as f64;
        calls += f64::from(s.calls.max(1));
    }
    if calls == 0.0 { 0.0 } else { ns / calls / 1e9 }
}

/// Nanoseconds `f` takes.
fn timed<R>(f: impl FnOnce() -> R) -> u64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_nanos() as u64
}

/// Runs `calls` invocations of `f`, each returning the nanoseconds of the
/// part of it that counts, and records them as batch spans of [`BATCH`]
/// calls each (see [`Spans::record_batch`]).
fn drive_batched(spans: &mut Spans, name: &'static str, calls: u32, mut f: impl FnMut(u32) -> u64) {
    let mut done = 0;
    while done < calls {
        let n = BATCH.min(calls - done);
        let start = spans.now_ns();
        let busy = (0..n).map(|i| f(done + i)).sum();
        spans.record_batch(name, start, busy, n);
        done += n;
    }
}

/// The pool layout `EventDrivenEngine::new` derives from an engine
/// configuration: the primary keeps one replica's GPUs, the offload
/// models split the rest.
fn pool_configs(system: &IcCacheConfig, engine: &EngineConfig) -> Vec<PoolConfig> {
    let primary_gpus = system
        .catalog
        .get(system.primary)
        .gpus_per_replica
        .min(engine.total_gpus);
    let offload = system.offload_models().len() as u32;
    let small_share = (engine.total_gpus.saturating_sub(primary_gpus) / offload.max(1)).max(1);
    system
        .models
        .iter()
        .map(|&m| {
            let spec = system.catalog.get(m);
            let gpus = if m == system.primary {
                primary_gpus.max(1)
            } else {
                small_share
            };
            PoolConfig {
                prefill_chunk_tokens: engine.prefill_chunk_tokens,
                preempt_decode_quantum: engine.preempt_decode_quantum,
                max_queue: engine.max_queue,
                kv_block_tokens: engine.kv_block_tokens,
                kv_budget_blocks: engine.kv_budget_blocks,
                kv_watermarks: engine.kv_watermarks,
                kv_swap: engine.kv_swap,
                kv_share: engine.kv_share,
                ..PoolConfig::for_gpus(
                    &spec.name,
                    gpus,
                    spec.gpus_per_replica,
                    engine.slots_per_replica,
                )
            }
        })
        .collect()
}

/// `embed` and `vecindex`: embedding, slab insert, index build, probes.
fn drive_index(
    spans: &mut Spans,
    bank: &[Embedding],
    sample: &[Request],
    writes: bool,
) -> IvfIndex {
    let embedder = Embedder::standard();
    let mut rng = rng_from_seed(FIXTURE_SEED ^ 0xE3BD);
    for (i, r) in sample.iter().enumerate() {
        spans.time("embed.embed", i as u64, || {
            embedder.embed(&r.latent, &mut rng)
        });
    }
    let rows: Vec<&[f32]> = bank.iter().map(Embedding::as_slice).collect();
    spans.time("embed.slab_bulk", NO_REQUEST, || {
        EmbeddingSlab::new().insert_bulk(&rows, 1)
    });

    let config = IvfConfig::default();
    spans.time("vecindex.kmeans_fit", NO_REQUEST, || {
        kmeans_best_of(
            bank,
            sqrt_cluster_count(bank.len()),
            config.train_iters,
            config.seed,
            1,
        )
    });
    let mut index = IvfIndex::new(config);
    let items: Vec<(u64, Embedding)> = bank
        .iter()
        .enumerate()
        .map(|(i, e)| (i as u64, e.clone()))
        .collect();
    spans.time("vecindex.build", NO_REQUEST, || index.insert_bulk(items));
    for (i, r) in sample.iter().enumerate() {
        spans.time("vecindex.search", i as u64, || {
            index.search(&r.embedding, STAGE1_K)
        });
    }
    for (i, group) in sample.chunks_exact(8).enumerate() {
        let queries: Vec<&Embedding> = group.iter().map(|r| &r.embedding).collect();
        spans.scope("vecindex.search_batch8", (i * 8) as u64, 8, |_| {
            index.search_batch(&queries, STAGE1_K)
        });
    }
    if writes {
        let base = bank.len() as u64;
        for (i, r) in sample.iter().enumerate() {
            spans.time("vecindex.insert", i as u64, || {
                index.insert(base + i as u64, r.embedding.clone())
            });
        }
        for i in 0..sample.len() {
            spans.time("vecindex.remove", i as u64, || {
                index.remove(base + i as u64)
            });
        }
    }
    index
}

/// `selector`, `router`, `llmsim` and `core` on the post-replay system.
/// Returns the jobs the serves produced, for the pool drive.
fn drive_system(
    spans: &mut Spans,
    system: &mut IcCacheSystem,
    sample: &[Request],
    arrivals: &[f64],
    writes: bool,
) -> Vec<JobSpec> {
    let (target, large, _) = gemma_specs();
    // One pass over the sample per operation, so that every call meets the
    // caches as the engine's calls do: after many other requests, not right
    // after the same request's previous stage.
    let selector = system.selector();
    let store = system.manager().cache();
    let candidates: Vec<_> = sample
        .iter()
        .enumerate()
        .map(|(i, r)| spans.time("selector.stage1", i as u64, || selector.stage1(r)))
        .collect();
    for (i, (r, candidates)) in sample.iter().zip(candidates).enumerate() {
        spans.time("selector.stage2", i as u64, || {
            selector.select_with_stage1(r, candidates, store, &target)
        });
    }
    for (i, r) in sample.iter().enumerate() {
        spans.time("selector.select", i as u64, || system.with_selection(r));
    }

    // Routing and generation on their own (a clone of the warmed router,
    // two stand-in example utilities); `core.serve` below runs them again
    // inside the whole serving path.
    let mut router = system.router().clone();
    let generator = Generator::new();
    let mut rng = rng_from_seed(FIXTURE_SEED ^ 0x707E);
    for (i, r) in sample.iter().enumerate() {
        let id = i as u64;
        let decision = spans.time("router.route", id, || {
            router.route(r, &[0.3, 0.2], &mut rng)
        });
        spans.time("router.feedback", id, || {
            router.record_reward(decision.chosen, r, &[0.3, 0.2], 0.7)
        });
        spans.time("llmsim.generate", id, || {
            generator.generate(&large, r, &GenSetup::bare(), &mut rng)
        });
    }

    let pools = system.config().models.clone();
    let mut jobs = Vec::with_capacity(sample.len());
    for (i, (r, &at)) in sample.iter().zip(arrivals).enumerate() {
        let id = i as u64;
        let out = spans.time("core.serve", id, || system.serve(r));
        if writes {
            spans.time("core.update_cache", id, || {
                system.update_cache(r, &out.outcome, out.model, at)
            });
        }
        jobs.push(JobSpec {
            id: JobId(id),
            pool: pools
                .iter()
                .position(|&m| m == out.model)
                .expect("served by a configured model"),
            arrival: SimTime::from_secs_f64(at),
            ttft_secs: out.outcome.latency.ttft,
            decode_secs: out.outcome.latency.decode,
            prefill_tokens: out.outcome.input_tokens,
            decode_tokens: out.outcome.output_tokens,
            priority: 0,
            share: None,
        });
    }
    jobs
}

/// `selector.index_example` on a selector of its own, built over the bank.
fn drive_selector_writes(spans: &mut Spans, bank: &[Embedding], sample: &[Request]) {
    let mut selector = ExampleSelector::new(SelectorConfig::default());
    selector.index_examples(
        bank.iter()
            .enumerate()
            .map(|(i, e)| (ExampleId(i as u64), e.clone()))
            .collect(),
    );
    let base = bank.len() as u64;
    for (i, r) in sample.iter().enumerate() {
        spans.time("selector.index_example", i as u64, || {
            selector.index_example(ExampleId(base + i as u64), r.embedding.clone())
        });
    }
}

/// `respcache`: the engine's per-arrival sequence over the whole
/// workload, on a cache of its own — `observe`, `lookup`, and `admit` on
/// a miss. A lookup's span is named by its outcome, and the two writes
/// share one span, so both are recorded after the calls they cover.
fn drive_respcache(
    spans: &mut Spans,
    engine: &EngineConfig,
    requests: &[Request],
    arrivals: &[f64],
) {
    let mut cache = ResponseCache::new(RespCacheConfig {
        threshold: engine.resp_threshold,
        budget_bytes: engine.resp_budget_bytes,
        ttl_s: engine.resp_ttl_s,
        prepop_min: engine.resp_prepop_min,
        window_s: engine.resp_window_s,
    });
    for (r, &now) in requests.iter().zip(arrivals) {
        let observe_start = spans.now_ns();
        let mut write_ns = timed(|| cache.observe(&r.embedding, now));
        let lookup_start = spans.now_ns();
        let mut hit = false;
        let lookup_ns = timed(|| hit = cache.lookup(&r.embedding, now).is_some());
        if hit {
            spans.record_batch("respcache.lookup_hit", lookup_start, lookup_ns, 1);
        } else {
            spans.record_batch("respcache.lookup_miss", lookup_start, lookup_ns, 1);
            write_ns += timed(|| {
                cache.admit(
                    &r.embedding,
                    CachedResponse {
                        model: 0,
                        offloaded: true,
                        quality: 0.7,
                        examples: 3,
                        response_tokens: r.target_output_tokens,
                    },
                    now,
                )
            });
        }
        spans.record_batch("respcache.observe_admit", observe_start, write_ns, 1);
    }
}

/// `manager`: admission, capacity enforcement and replay on a manager of
/// its own under the workload's byte cap: the bank first, then
/// [`MANAGER_CYCLES`] rounds of fresh admissions, a capacity pass and a
/// replay round after each.
fn drive_manager(spans: &mut Spans, workload: Workload, bank: Vec<Example>, later: Vec<Example>) {
    let (_, large, _) = gemma_specs();
    let generator = Generator::new();
    let mut manager = ExampleManager::new(ManagerConfig {
        capacity_bytes: workload.cache_capacity(),
        ..ManagerConfig::default()
    });
    let mut rng = rng_from_seed(FIXTURE_SEED ^ 0x3A9A);
    let mut admitted = 0u64;
    let mut now = 0.0;
    let mut later = later.into_iter();
    let mut round = |spans: &mut Spans, batch: &mut dyn Iterator<Item = Example>| {
        for e in batch {
            spans.time("manager.admit", admitted, || manager.admit(e, now));
            admitted += 1;
        }
        now += 600.0; // one rebalance period
        spans.scope("manager.enforce_capacity", NO_REQUEST, 1, |spans| {
            if let Some(cap) = workload.cache_capacity() {
                spans.time("manager.rebalance", NO_REQUEST, || {
                    manager.cache().plan_shard_budgets(cap, now)
                });
            }
            manager.enforce_capacity(now)
        });
        spans.time("manager.replay", NO_REQUEST, || {
            manager.run_replay(&large, &generator, &mut rng)
        });
    };
    round(spans, &mut bank.into_iter());
    for _ in 0..MANAGER_CYCLES {
        round(spans, &mut later.by_ref().take(MANAGER_CYCLE_ADMITS));
    }
}

/// `serving`: the drive's jobs through pools laid out as the engine lays
/// them out, on a loop of the benchmark's own.
fn drive_pools(spans: &mut Spans, configs: Vec<PoolConfig>, jobs: Vec<JobSpec>) {
    enum Event {
        Arrival(Box<JobSpec>),
        Step(usize),
    }
    let mut pools: Vec<ModelPool> = configs.into_iter().map(ModelPool::new).collect();
    let mut sim: Simulator<Event> = Simulator::new();
    for job in jobs {
        sim.schedule(job.arrival, Event::Arrival(Box::new(job)));
    }
    spans.scope("serving.drive", NO_REQUEST, 1, |spans| {
        let (mut start, mut busy, mut calls) = (spans.now_ns(), 0u64, 0u32);
        while let Some((at, event)) = sim.next() {
            let pool = match event {
                Event::Arrival(job) => {
                    let (pool, id) = (job.pool, job.id.0);
                    let offer = spans.time("serving.offer", id, || pools[pool].offer(*job, at));
                    if offer != Offer::Started {
                        continue;
                    }
                    pool
                }
                Event::Step(pool) => {
                    if calls == 0 {
                        start = spans.now_ns();
                    }
                    busy += timed(|| pools[pool].advance_step(at));
                    calls += 1;
                    if calls == BATCH {
                        spans.record_batch("serving.step", start, busy, calls);
                        (busy, calls) = (0, 0);
                    }
                    pool
                }
            };
            if let Some(dt) = pools[pool].step_secs() {
                sim.schedule_in(SimDuration::from_secs_f64(dt), Event::Step(pool));
            }
        }
        if calls > 0 {
            spans.record_batch("serving.step", start, busy, calls);
        }
    });
}

/// `kvmem`, `desim` and `obs`: the primitives under the pools, the event
/// heap at the workload's peak pending count, and a recording lane.
fn drive_primitives(spans: &mut Spans, engine: &EngineConfig, pending: usize) {
    let mut kv = BlockPool::new(
        1,
        engine.kv_budget_blocks.max(64),
        engine.kv_block_tokens.max(1),
    );
    drive_batched(spans, "kvmem.alloc_free", 8 * BATCH, |_| {
        timed(|| {
            let blocks = kv.try_alloc(0, 8).expect("budget holds eight blocks");
            kv.free(blocks);
        })
    });
    // One shared-prefix block per call: a second sequence finds it, maps
    // it, and copies on its first write past the prefix.
    drive_batched(spans, "kvmem.share", 8 * BATCH, |i| {
        let set = u64::from(i);
        let home = kv.try_alloc(0, 1).expect("budget holds one block")[0];
        kv.register_prefix(set, 0, home);
        let mut copy = None;
        let ns = timed(|| {
            let block = kv.lookup_prefix(set, 0).expect("just registered");
            kv.map_shared(block);
            copy = kv.diverge(block);
        });
        if let Some(Divergence::Copied(fresh)) = copy {
            kv.free([fresh]);
        }
        kv.free([home]);
        ns
    });

    let mut sim: Simulator<u32> = Simulator::new();
    for i in 0..pending {
        sim.schedule(SimTime::from_micros(i as u64 * 5), 0);
    }
    drive_batched(spans, "desim.schedule_pop", 64 * BATCH, |_| {
        timed(|| {
            let (at, event) = sim.next().expect("heap holds the pending arrivals");
            sim.schedule(at + SimDuration::from_micros(pending as u64 * 5), event);
        })
    });

    let mut lane = LaneBuf::new(1, engine.obs_ring);
    drive_batched(spans, "obs.lane_push", 64 * BATCH, |i| {
        timed(|| {
            lane.push(
                SimTime::from_micros(u64::from(i)),
                u64::from(i),
                EventKind::Enqueued { pool: 0 },
            )
        })
    });
}

/// One set-up + replay of the traced run.
fn replay(
    workload: Workload,
    seed: u64,
    scale: f64,
    trace: bool,
    name: &'static str,
    spans: &mut Spans,
) -> Result<(Ready, EngineReport, f64), String> {
    let (mut ready, _) = setup(workload, seed, scale, trace, spans);
    let (report, ns) = spans.scope(name, NO_REQUEST, 1, |_| {
        ready
            .engine
            .serve_workload(&ready.requests, &ready.arrivals)
    });
    check_report(&report, ready.requests.len())?;
    Ok((ready, report, ns as f64 / 1e9))
}

/// Runs the traced pass of `workload` and writes its spans to
/// `<out_dir>/<workload>.spans.json`.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    scale: f64,
    out_dir: &Path,
) -> Result<Traced, String> {
    let mut spans = Spans::new();
    let engine_config = workload.engine_config(scale);
    let writes = engine_config.admit_served_pairs;

    // Untraced, traced, untraced: the box's speed drifts by 10-20 % over
    // tens of seconds, so the tracing overhead is taken against the mean of
    // the replays on either side, and the layer drive is costed against
    // the replay right before it.
    let (first, first_report, first_replay_s) =
        replay(workload, seed, scale, false, "engine.replay", &mut spans)?;
    let setup_spans = spans.all().len();
    let hash = fnv64(first_report.to_json().as_bytes());
    drop((first, first_report));
    let (traced, traced_report, traced_replay_s) = replay(
        workload,
        seed,
        scale,
        true,
        "engine.replay_traced",
        &mut spans,
    )?;
    let obs = traced_report
        .obs
        .as_ref()
        .ok_or("traced replay recorded nothing")?;
    let (obs_events, obs_dropped) = (obs.events.len() as f64, obs.dropped as f64);
    let traced_hash = fnv64(traced_report.to_json().as_bytes());
    drop((traced, traced_report));
    let (ready, report, replay_s) =
        replay(workload, seed, scale, false, "engine.replay", &mut spans)?;
    for (what, other) in [
        ("traced", traced_hash),
        ("second untraced", fnv64(report.to_json().as_bytes())),
    ] {
        if other != hash {
            return Err(format!(
                "{what} replay hash {other:016x} differs from the first replay's {hash:016x}"
            ));
        }
    }

    let Ready {
        engine,
        requests,
        arrivals,
    } = ready;
    let mut system = engine.into_system();
    // The seeded bank again (the generator is deterministic), followed on
    // the writing workload by the examples the manager drive admits.
    let (_, large, large_id) = gemma_specs();
    let extra = if writes {
        MANAGER_CYCLES * MANAGER_CYCLE_ADMITS
    } else {
        0
    };
    let mut examples = workload.generator().generate_examples(
        workload.bank() + extra,
        &large,
        large_id,
        &Generator::new(),
    );
    let later = examples.split_off(workload.bank());
    let bank: Vec<Embedding> = examples.iter().map(|e| e.embedding.clone()).collect();
    let n = requests.len().min(DRIVE_REQUESTS);
    let (sample, sample_arrivals) = (&requests[..n], &arrivals[..n]);

    let ((clusters, comparisons), _) = spans.scope("drive.total", NO_REQUEST, 1, |spans| {
        let index = drive_index(spans, &bank, sample, writes);
        let shape = (index.num_clusters() as f64, index.expected_comparisons());
        drop(index);
        let jobs = drive_system(spans, &mut system, sample, sample_arrivals, writes);
        if writes {
            drive_selector_writes(spans, &bank, sample);
            drive_manager(spans, workload, examples, later);
        }
        if engine_config.resp_cache {
            drive_respcache(spans, &engine_config, &requests, &arrivals);
        }
        drive_pools(spans, pool_configs(system.config(), &engine_config), jobs);
        drive_primitives(spans, &engine_config, requests.len());
        shape
    });

    let counts = Counts::of(&report);
    let sent = counts.sent as f64;
    let hits = report.resp_cache.hits as f64;
    let requeues = report.router.failover_requeues as f64;
    let routed = sent - hits + requeues;
    let run_admissions = report.cache.admitted.saturating_sub(workload.bank() as u64) as f64;
    let horizon = arrivals.last().copied().unwrap_or(0.0);
    let cycles = |period: f64| {
        if period > 0.0 {
            (horizon / period).floor()
        } else {
            0.0
        }
    };
    let maintenance = cycles(engine_config.maintenance_period_s);
    let capacity_passes = if workload.cache_capacity().is_some() {
        maintenance + cycles(engine_config.rebalance_period_s)
    } else {
        0.0
    };

    let share = |seconds: f64| seconds / replay_s;
    let selector_share = share(mean_s(&spans, "selector.select") * routed);
    let respcache_share = share(
        mean_s(&spans, "respcache.lookup_hit") * hits
            + mean_s(&spans, "respcache.lookup_miss") * (report.resp_cache.lookups as f64 - hits)
            + mean_s(&spans, "respcache.observe_admit") * report.resp_cache.lookups as f64,
    );
    let router_share = share(
        mean_s(&spans, "router.route") * routed
            + mean_s(&spans, "router.feedback") * routed * system.config().feedback_sample_rate,
    );
    let llmsim_share = share(mean_s(&spans, "llmsim.generate") * routed);
    let manager_share = share(
        mean_s(&spans, "manager.admit") * run_admissions
            + mean_s(&spans, "manager.enforce_capacity") * capacity_passes
            + mean_s(&spans, "manager.replay") * maintenance,
    );
    let serving_share = share(
        mean_s(&spans, "serving.step") * report.iter.steps as f64
            + mean_s(&spans, "serving.offer") * routed,
    );
    let desim_share = share(mean_s(&spans, "desim.schedule_pop") * counts.events as f64);
    // `core` is what `serve` and `update_cache` spend outside the layers
    // they call: prompt assembly, feedback absorption, example rendering.
    let own = |whole: &str, parts: &[&str]| {
        (mean_s(&spans, whole) - parts.iter().map(|p| mean_s(&spans, p)).sum::<f64>()).max(0.0)
    };
    let core_share = share(
        own(
            "core.serve",
            &["selector.select", "router.route", "llmsim.generate"],
        ) * routed
            + own(
                "core.update_cache",
                &["manager.admit", "selector.index_example"],
            ) * run_admissions,
    );
    let attributed = core_share
        + selector_share
        + respcache_share
        + router_share
        + llmsim_share
        + manager_share
        + serving_share
        + desim_share;

    let setup_of = |name: &str| {
        spans.all()[..setup_spans]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum::<f64>()
    };
    let served = counts.served.max(1) as f64;
    let us = |name: &str, q: f64| pct(&spans, name, q, 1e3);
    let ms = |name: &str, q: f64| pct(&spans, name, q, 1e6);
    let measured = [
        ("workloads.gen_requests_s", setup_of("setup.gen_requests")),
        ("workloads.gen_bank_s", setup_of("setup.gen_bank")),
        ("embed.embed_us_p50", us("embed.embed", 0.5)),
        ("embed.slab_bulk_s", spans.total_s("embed.slab_bulk")),
        ("vecindex.build_s", spans.total_s("vecindex.build")),
        (
            "vecindex.kmeans_fit_s",
            spans.total_s("vecindex.kmeans_fit"),
        ),
        ("vecindex.clusters", clusters),
        ("vecindex.expected_comparisons", comparisons),
        ("vecindex.search_us_p50", us("vecindex.search", 0.5)),
        ("vecindex.search_us_p99", us("vecindex.search", 0.99)),
        (
            "vecindex.search_batch8_us_per_query",
            us("vecindex.search_batch8", 0.5),
        ),
        ("vecindex.insert_us_p50", us("vecindex.insert", 0.5)),
        ("vecindex.remove_us_p50", us("vecindex.remove", 0.5)),
        ("selector.stage1_us_p50", us("selector.stage1", 0.5)),
        ("selector.stage1_us_p99", us("selector.stage1", 0.99)),
        ("selector.stage2_us_p50", us("selector.stage2", 0.5)),
        ("selector.stage2_us_p99", us("selector.stage2", 0.99)),
        ("selector.select_us_p50", us("selector.select", 0.5)),
        ("selector.select_us_p99", us("selector.select", 0.99)),
        (
            "selector.index_example_us_p50",
            us("selector.index_example", 0.5),
        ),
        (
            "selector.hit_rate",
            report.cache.selection_hits as f64 / served,
        ),
        (
            "selector.examples_per_request",
            report.cache.examples_used as f64 / served,
        ),
        ("selector.est_share", selector_share),
        (
            "respcache.lookup_hit_us_p50",
            us("respcache.lookup_hit", 0.5),
        ),
        (
            "respcache.lookup_miss_us_p50",
            us("respcache.lookup_miss", 0.5),
        ),
        (
            "respcache.observe_admit_us_p50",
            us("respcache.observe_admit", 0.5),
        ),
        ("respcache.hit_ratio", report.resp_cache.hit_ratio()),
        (
            "respcache.admissions",
            report.resp_cache.prepopulations as f64,
        ),
        (
            "respcache.stale_evictions",
            report.resp_cache.stale_evictions as f64,
        ),
        ("respcache.est_share", respcache_share),
        ("router.route_us_p50", us("router.route", 0.5)),
        ("router.route_us_p99", us("router.route", 0.99)),
        ("router.feedback_us_p50", us("router.feedback", 0.5)),
        (
            "router.decisions",
            report.router.decisions.iter().sum::<u64>() as f64,
        ),
        ("router.failover_requeues", requeues),
        ("router.est_share", router_share),
        ("core.serve_us_p50", us("core.serve", 0.5)),
        ("core.serve_us_p99", us("core.serve", 0.99)),
        ("core.warm_up_s", setup_of("setup.warm_up")),
        ("core.update_cache_us_p50", us("core.update_cache", 0.5)),
        ("core.est_share", core_share),
        ("llmsim.generate_us_p50", us("llmsim.generate", 0.5)),
        ("llmsim.est_share", llmsim_share),
        ("manager.admit_us_p50", us("manager.admit", 0.5)),
        (
            "manager.enforce_capacity_ms_p50",
            ms("manager.enforce_capacity", 0.5),
        ),
        ("manager.rebalance_ms_p50", ms("manager.rebalance", 0.5)),
        ("manager.replay_ms_p50", ms("manager.replay", 0.5)),
        ("manager.admitted", run_admissions),
        ("manager.evicted", report.cache.evicted as f64),
        ("manager.est_share", manager_share),
        ("serving.offer_us_p50", us("serving.offer", 0.5)),
        ("serving.step_us_p50", us("serving.step", 0.5)),
        ("serving.step_us_p99", us("serving.step", 0.99)),
        ("serving.steps", report.iter.steps as f64),
        ("serving.mean_step_batch", report.iter.mean_step_batch()),
        ("serving.preemptions", report.iter.preemptions as f64),
        ("serving.queue_wait_mean_s", report.latency.mean_queue),
        ("serving.queue_rejects", report.iter.queue_rejects as f64),
        ("serving.est_share", serving_share),
        (
            "kvmem.alloc_free_ns_per_block",
            pct(&spans, "kvmem.alloc_free", 0.5, 8.0),
        ),
        (
            "kvmem.share_ns_per_block",
            pct(&spans, "kvmem.share", 0.5, 1.0),
        ),
        ("kvmem.peak_occupancy", report.kv.peak_occupancy()),
        ("kvmem.dedup_ratio", report.kv.dedup_ratio()),
        ("kvmem.swap_outs", report.kv.swap_outs as f64),
        (
            "kvmem.pressure_preemptions",
            report.kv.pressure_preemptions as f64,
        ),
        ("kvmem.fragmentation", report.kv.fragmentation_ratio()),
        (
            "desim.schedule_pop_ns_per_event",
            pct(&spans, "desim.schedule_pop", 0.5, 1.0),
        ),
        ("desim.events", counts.events as f64),
        ("desim.est_share", desim_share),
        ("obs.lane_push_ns", pct(&spans, "obs.lane_push", 0.5, 1.0)),
        (
            "obs.traced_replay_ratio",
            traced_replay_s / ((first_replay_s + replay_s) / 2.0),
        ),
        ("obs.events_recorded", obs_events),
        ("obs.events_dropped", obs_dropped),
        (
            "engine.replay_us_per_event",
            replay_s * 1e6 / counts.events.max(1) as f64,
        ),
        ("engine.events_per_s", counts.events as f64 / replay_s),
        ("engine.unattributed_share", 1.0 - attributed),
        ("engine.setup_s", setup_of("setup.total")),
        ("engine.replay_s", replay_s),
        ("engine.traced_replay_s", traced_replay_s),
    ];
    // Keyed by name, so a metric added to one list and not the other fails
    // loudly instead of shifting every value after it.
    assert_eq!(
        measured.len(),
        PER_LAYER.len(),
        "per-layer table and values differ"
    );
    let values: Vec<Value> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = measured.iter().find(|m| m.0 == name);
            (
                name,
                value.unwrap_or_else(|| panic!("no value for {name}")).1,
                unit,
            )
        })
        .collect();

    let spans_path = out_dir.join(format!("{}.spans.json", workload.name()));
    spans
        .write_chrome(&spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    Ok(Traced {
        values,
        counts,
        hash,
        spans_path,
        spans,
    })
}
