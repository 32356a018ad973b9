//! Criterion micro-benchmarks backing the paper's overhead claims:
//! selection (<1% of request latency, §4.1 / Fig. 18), routing decisions
//! (lightweight bandit, §4.2), the knapsack eviction solver (§4.3), and
//! the IVF index's sub-linear search (§4.1).

use criterion::{Criterion, criterion_group, criterion_main};
use std::hint::black_box;

use ic_embed::{Embedding, TopicSpace, TopicSpaceConfig};
use ic_kvmem::BlockPool;
use ic_llmsim::{Catalog, ExampleId, Generator, ModelSpec};
use ic_manager::{KnapsackItem, dp_knapsack, greedy_knapsack};
use ic_router::{RequestRouter, RouterConfig};
use ic_selector::ExampleSelector;
use ic_serving::{ClusterSim, PoolConfig};
use ic_stats::rng::rng_from_seed;
use ic_vecindex::{FlatIndex, IvfConfig, IvfIndex, VectorIndex};
use ic_workloads::{Dataset, WorkloadGenerator};
use std::collections::HashMap;

/// Exact scalar scan vs the IVF lane probe over the same 20 000-row
/// bank, same query, same process: CI gates on the *ratio*
/// `flat_top32 / ivf_sqrtN_top32`, which shared-runner noise moves far
/// less than either time and which collapses if the probe regresses to
/// a scalar per-candidate chain.
///
/// One query in a loop finds its four posting lists in L1/L2, which no
/// arrival of a replay does: `ivf_sqrtN_top32_cold` is the probe as the
/// replay runs it — a topic-clustered bank of the same size (queries land
/// in the big lists, ≈870 rows a probe against the ≈750 a uniform bank
/// gives) and 256 queries, one per topic, taken in turn, so every probe
/// streams its lists from L3. Printed beside the ratio, not gated.
fn bench_index_search(c: &mut Criterion) {
    let mut rng = rng_from_seed(1);
    let n = 20_000;
    let mut flat = FlatIndex::new();
    let mut ivf = IvfIndex::new(IvfConfig::default());
    for i in 0..n {
        let e = Embedding::gaussian(64, 1.0, &mut rng).normalized();
        flat.insert(i, e.clone());
        ivf.insert(i, e);
    }
    let q = Embedding::gaussian(64, 1.0, &mut rng).normalized();
    let mut g = c.benchmark_group("index_search_20k");
    g.bench_function("flat_top32", |b| {
        b.iter(|| black_box(flat.search(black_box(&q), 32)))
    });
    g.bench_function("ivf_sqrtN_top32", |b| {
        b.iter(|| black_box(ivf.search(black_box(&q), 32)))
    });
    // The clustered bank is built in here so that only a run that
    // measures this line pays for its k-means fit.
    g.bench_function("ivf_sqrtN_top32_cold", |b| {
        let space = TopicSpace::generate(13, TopicSpaceConfig::default());
        let topics = space.num_topics();
        let mut clustered = IvfIndex::new(IvfConfig::default());
        clustered.insert_bulk(
            (0..n)
                .map(|i| (i, space.sample_member(i as usize % topics, &mut rng)))
                .collect(),
        );
        let queries: Vec<Embedding> = (0..topics)
            .map(|t| space.sample_member(t, &mut rng))
            .collect();
        let mut turn = 0;
        b.iter(|| {
            turn = (turn + 1) % queries.len();
            black_box(clustered.search(black_box(&queries[turn]), 32))
        })
    });
    g.finish();
}

/// The stage-1 probe memo on the topic-clustered 20 000-row bank of
/// `ivf_sqrtN_top32_cold`, through `ExampleSelector::stage1`:
///
/// - `plain` — the probe as `stage1` runs it on a miss (the index
///   search, mapped to the selector's hit type), memo not involved;
/// - `miss` — `stage1` over the same 2 048 distinct queries in turn:
///   ≈16 queries share each of the memo's 128 slots, so every lookup
///   finds another query's entry, probes and stores;
/// - `hit` — `stage1` over a set of queries that do not evict one
///   another (the first of the bank's 256 per-topic queries to claim
///   each slot, ≈110 of them), again and again: every lookup is
///   answered from the memo.
///
/// CI gates on `miss / hit` (the probe a repeat no longer pays) and
/// prints `miss / plain` (the memo's tax where there is no repeat).
/// The `shape` line is deterministic: the lookups and hits the two
/// sets produced while they were being laid out.
fn bench_stage1_repeat(c: &mut Criterion) {
    struct Fixture {
        selector: ExampleSelector,
        distinct: Vec<ic_llmsim::Request>,
        repeating: Vec<ic_llmsim::Request>,
    }
    fn fixture() -> Fixture {
        let n = 20_000usize;
        let mut rng = rng_from_seed(1);
        let space = TopicSpace::generate(13, TopicSpaceConfig::default());
        let topics = space.num_topics();
        let mut selector = ExampleSelector::standard();
        selector.index_examples(
            (0..n)
                .map(|i| {
                    (
                        ExampleId(i as u64),
                        space.sample_member(i % topics, &mut rng),
                    )
                })
                .collect(),
        );
        let template = WorkloadGenerator::new(Dataset::MsMarco, 2)
            .generate_requests(1)
            .pop()
            .expect("one request");
        let mut sample = |count: usize| -> Vec<ic_llmsim::Request> {
            (0..count)
                .map(|i| ic_llmsim::Request {
                    embedding: space.sample_member(i % topics, &mut rng),
                    ..template.clone()
                })
                .collect()
        };
        // The memo is direct-mapped and its hash is private: a candidate
        // joins the repeating set when storing it leaves every member
        // stored (each member's re-ask is then a hit; an evicted member
        // re-stores itself on its miss, evicting the candidate back).
        let mut repeating: Vec<ic_llmsim::Request> = Vec::new();
        for candidate in sample(topics) {
            selector.stage1(&candidate);
            let (_, before) = selector.probe_memo_counts();
            for member in &repeating {
                selector.stage1(member);
            }
            let (_, after) = selector.probe_memo_counts();
            if after - before == repeating.len() as u64 {
                repeating.push(candidate);
            }
        }
        let distinct = sample(2_048);
        let (lookups, hits) = selector.probe_memo_counts();
        for r in distinct.iter().chain(&distinct) {
            selector.stage1(r);
        }
        let (lookups_after, hits_after) = selector.probe_memo_counts();
        println!(
            "stage1_repeat_20k shape: {} expected comparisons a probe, {} repeating queries; \
             two passes over {} distinct queries: {} lookups, {} hits",
            selector.index().expected_comparisons().round(),
            repeating.len(),
            distinct.len(),
            lookups_after - lookups,
            hits_after - hits,
        );
        Fixture {
            selector,
            distinct,
            repeating,
        }
    }
    // Built by the first line a run measures, so a filtered run that
    // measures none pays nothing.
    let cell = std::cell::OnceCell::new();
    let mut g = c.benchmark_group("stage1_repeat_20k");
    let mut turn = 0usize;
    g.bench_function("plain", |b| {
        let f = cell.get_or_init(fixture);
        let k = f.selector.config().stage1_candidates;
        b.iter(|| {
            turn = (turn + 1) % f.distinct.len();
            let hits = f.selector.index().search(&f.distinct[turn].embedding, k);
            black_box(
                hits.into_iter()
                    .map(|h| (ExampleId(h.id), h.similarity))
                    .collect::<Vec<_>>(),
            )
        })
    });
    g.bench_function("miss", |b| {
        let f = cell.get_or_init(fixture);
        b.iter(|| {
            turn = (turn + 1) % f.distinct.len();
            black_box(f.selector.stage1(&f.distinct[turn]))
        })
    });
    g.bench_function("hit", |b| {
        let f = cell.get_or_init(fixture);
        for r in &f.repeating {
            f.selector.stage1(r);
        }
        b.iter(|| {
            turn = (turn + 1) % f.repeating.len();
            black_box(f.selector.stage1(&f.repeating[turn]))
        })
    });
    g.finish();
}

/// The deterministic index build — the k-means fits and filling the
/// IVF posting lists, what the replay harness times as
/// `index_build_wall_s` — over a topic-clustered bank (the shape of the
/// example pool), at 2k and 20k rows, one and four set-up threads.
///
/// `seq_20k_t1` loads the same 20k rows through per-item `insert`,
/// which retrains at every doubling where `insert_bulk` fits once: CI
/// gates on `seq_20k_t1 / bulk_20k_t1` measured in the same job (the
/// retrain geometry alone makes it about 1.5). `gaussian_bulk_20k_t1`
/// is the same bulk load on unstructured data, where the distance
/// bounds prune least — printed, not gated, so a slowdown there shows.
/// Every variant builds bit-identical indexes (`parallel_determinism`,
/// the bulk-equivalence tests), so this group measures wall time only.
fn bench_index_build(c: &mut Criterion) {
    let mut rng = rng_from_seed(12);
    let space = TopicSpace::generate(13, TopicSpaceConfig::default());
    let topics = space.num_topics();
    let rows: Vec<(u64, Embedding)> = (0..20_000usize)
        .map(|i| (i as u64, space.sample_member(i % topics, &mut rng)))
        .collect();
    let gaussian: Vec<(u64, Embedding)> = (0..20_000u64)
        .map(|i| (i, Embedding::gaussian(64, 1.0, &mut rng).normalized()))
        .collect();
    let bulk = |items: &[(u64, Embedding)], threads: usize| {
        let mut ivf = IvfIndex::new(IvfConfig {
            setup_threads: threads,
            ..IvfConfig::default()
        });
        ivf.insert_bulk(items.to_vec());
        ivf.len()
    };
    let mut g = c.benchmark_group("index_build");
    for n in [2_000usize, 20_000] {
        for threads in [1usize, 4] {
            g.bench_function(&format!("bulk_{}k_t{threads}", n / 1_000), |b| {
                b.iter(|| black_box(bulk(&rows[..n], threads)))
            });
        }
    }
    g.bench_function("seq_20k_t1", |b| {
        b.iter(|| {
            let mut ivf = IvfIndex::new(IvfConfig::default());
            for (id, e) in &rows {
                ivf.insert(*id, e.clone());
            }
            black_box(ivf.len())
        })
    });
    g.bench_function("gaussian_bulk_20k_t1", |b| {
        b.iter(|| black_box(bulk(&gaussian, 1)))
    });
    g.finish();
}

fn bench_selector(c: &mut Criterion) {
    let sim = Generator::new();
    let small = ModelSpec::gemma_2_2b();
    let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 2);
    let examples = wg.generate_examples(
        10_000,
        &ModelSpec::gemma_2_27b(),
        ic_llmsim::ModelId(0),
        &sim,
    );
    let mut selector = ExampleSelector::standard();
    let mut store: HashMap<ExampleId, ic_llmsim::Example> = HashMap::new();
    for e in examples {
        selector.index_example(e.id, e.embedding.clone());
        store.insert(e.id, e);
    }
    // Enough distinct requests that each of the probe memo's 128 slots
    // is shared by ≈16 of them: both lines measure the probe, never a
    // memo hit (`stage1_repeat_20k` measures those).
    let requests = wg.generate_requests(2_048);
    let mut g = c.benchmark_group("selector");
    let mut i = 0usize;
    g.bench_function("stage1_only", |b| {
        b.iter(|| {
            i = (i + 1) % requests.len();
            black_box(selector.stage1(&requests[i]))
        })
    });
    g.bench_function("two_stage_select", |b| {
        b.iter(|| {
            i = (i + 1) % requests.len();
            black_box(selector.select(&requests[i], &store, &small))
        })
    });
    g.finish();
}

/// `route_decision` scores both arms off posteriors kept since their
/// last lesson; `route_after_update` teaches the chosen arm before every
/// decision, so that arm refactors its precision matrix each time —
/// what every decision paid before the factors were kept. Same router,
/// same requests, same process: CI gates on the *ratio*
/// `route_after_update / route_decision`, which falls to ~1.1 (the
/// update alone) if decisions go back to a refit each.
fn bench_router(c: &mut Criterion) {
    let catalog = Catalog::standard();
    let small = catalog.by_name("gemma-2-2b").unwrap();
    let large = catalog.by_name("gemma-2-27b").unwrap();
    let mut router = RequestRouter::new(vec![small, large], &catalog, 64, RouterConfig::default());
    let mut wg = WorkloadGenerator::new(Dataset::Alpaca, 3);
    let requests = wg.generate_requests(64);
    let mut rng = rng_from_seed(4);
    let mut g = c.benchmark_group("router");
    let mut i = 0usize;
    g.bench_function("route_decision", |b| {
        b.iter(|| {
            i = (i + 1) % requests.len();
            black_box(router.route(&requests[i], &[0.2, 0.1], &mut rng))
        })
    });
    g.bench_function("route_after_update", |b| {
        let mut chosen = small;
        b.iter(|| {
            i = (i + 1) % requests.len();
            router.record_reward(chosen, &requests[i], &[0.2, 0.1], 0.7);
            let decision = router.route(&requests[i], &[0.2, 0.1], &mut rng);
            chosen = decision.chosen;
            black_box(decision)
        })
    });
    g.bench_function("reward_update", |b| {
        b.iter(|| {
            i = (i + 1) % requests.len();
            router.record_reward(small, &requests[i], &[0.2], 0.7);
        })
    });
    g.finish();
}

/// Synthetic plaintext at a prompt-sized and a response-sized length —
/// the cost bank generation and `update_cache` pay per example. Printed
/// in CI, not gated.
fn bench_text_synth(c: &mut Criterion) {
    let synth = ic_embed::TextSynthesizer::new(0.04);
    let mut rng = rng_from_seed(6);
    let mut g = c.benchmark_group("text_synth");
    for tokens in [64u32, 256] {
        g.bench_function(&format!("synthesize_{tokens}_tokens"), |b| {
            b.iter(|| black_box(synth.synthesize(black_box(123), tokens, &mut rng)))
        });
    }
    g.finish();
}

fn bench_knapsack(c: &mut Criterion) {
    let mut rng = rng_from_seed(5);
    use rand::RngExt;
    let items: Vec<KnapsackItem> = (0..5_000)
        .map(|i| KnapsackItem {
            id: ExampleId(i),
            weight: rng.random_range(200..4_000),
            value: rng.random::<f64>() * 10.0,
        })
        .collect();
    let capacity: usize = items.iter().map(|i| i.weight).sum::<usize>() / 2;
    let small_items: Vec<KnapsackItem> = items.iter().take(60).cloned().collect();
    let small_cap: usize = small_items.iter().map(|i| i.weight).sum::<usize>() / 2;
    let mut g = c.benchmark_group("knapsack_eviction");
    g.bench_function("greedy_5k_items", |b| {
        b.iter(|| black_box(greedy_knapsack(black_box(&items), capacity)))
    });
    g.bench_function("dp_exact_60_items", |b| {
        b.iter(|| black_box(dp_knapsack(black_box(&small_items), small_cap)))
    });
    g.finish();
}

fn bench_serving_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("serving");
    g.bench_function("cluster_replay_1k_jobs", |b| {
        b.iter(|| {
            let mut cluster = ClusterSim::new(vec![PoolConfig::for_gpus("m", 8, 1, 8)]);
            let jobs: Vec<ic_serving::JobSpec> = (0..1_000)
                .map(|i| ic_serving::JobSpec {
                    id: ic_serving::JobId(i),
                    pool: 0,
                    arrival: ic_desim::SimTime::from_secs_f64(i as f64 * 0.05),
                    ttft_secs: 0.1,
                    decode_secs: 1.5,
                    prefill_tokens: 200,
                    decode_tokens: 150,
                    priority: 0,
                    share: None,
                })
                .collect();
            black_box(cluster.run(jobs))
        })
    });
    g.finish();
}

/// One pool, two 512-token decodes side by side, KV on, run dry: the
/// plain `advance_step` / `step_secs` loop (one call per token) against
/// `advance_chain` (one record per state change, the quiet boundaries
/// between applied in closed form). Same jobs, same process: CI gates
/// on the *ratio* `stepwise_2x512 / chain_2x512`, which falls to ~1 if
/// the chain goes back to one `advance_step` per token.
fn bench_step_chain(c: &mut Criterion) {
    use ic_desim::{SimDuration, SimTime};
    let busy_pool = || {
        let mut pool = ic_serving::ModelPool::new(PoolConfig::default());
        for id in 0..2 {
            pool.offer(
                ic_serving::JobSpec {
                    id: ic_serving::JobId(id),
                    pool: 0,
                    arrival: SimTime::ZERO,
                    ttft_secs: 0.1,
                    decode_secs: 12.0,
                    prefill_tokens: 200,
                    decode_tokens: 512,
                    priority: 0,
                    share: None,
                },
                SimTime::ZERO,
            );
        }
        let first = SimTime::from_secs_f64(pool.step_secs().expect("busy"));
        (pool, first)
    };
    let mut g = c.benchmark_group("step_chain");
    g.bench_function("stepwise_2x512", |b| {
        b.iter(|| {
            let (mut pool, mut at) = busy_pool();
            let mut finished = 0;
            loop {
                finished += pool.advance_step(at).finished.len();
                let Some(dt) = pool.step_secs() else { break };
                at += SimDuration::from_secs_f64(dt);
            }
            black_box((finished, at))
        })
    });
    let mut chain = Vec::new();
    g.bench_function("chain_2x512", |b| {
        b.iter(|| {
            let (mut pool, first) = busy_pool();
            pool.advance_chain(first, None, &mut chain);
            let finished: usize = chain.iter().map(|s| s.report.finished.len()).sum();
            black_box((finished, chain.last().map(|s| s.at)))
        })
    });
    g.finish();
}

fn bench_kvmem(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvmem");
    // Allocator churn: claim and release a replica's worth of blocks in
    // sequence-sized chunks (the per-step hot path of the KV model).
    g.bench_function("alloc_free_churn_512_blocks", |b| {
        let mut pool = BlockPool::new(4, 512, 16);
        b.iter(|| {
            let mut live = Vec::new();
            for _ in 0..32 {
                let r = pool.least_loaded_replica();
                if let Some(blocks) = pool.try_alloc(r, 48) {
                    live.push(blocks);
                }
            }
            for blocks in live {
                pool.free(blocks);
            }
            black_box(pool.used_blocks())
        })
    });
    // End-to-end: a cluster replay whose KV budget forces pressure
    // preemption and swap traffic inside the step loop.
    g.bench_function("pressured_pool_replay_200_jobs", |b| {
        b.iter(|| {
            let mut cfg = PoolConfig::for_gpus("m", 4, 1, 8);
            cfg.preempt_decode_quantum = 0;
            cfg.kv_block_tokens = 16;
            cfg.kv_budget_blocks = 48;
            let mut cluster = ClusterSim::new(vec![cfg]);
            let jobs: Vec<ic_serving::JobSpec> = (0..200)
                .map(|i| ic_serving::JobSpec {
                    id: ic_serving::JobId(i),
                    pool: 0,
                    arrival: ic_desim::SimTime::from_secs_f64(i as f64 * 0.05),
                    ttft_secs: 0.1,
                    decode_secs: 1.5,
                    prefill_tokens: 200,
                    decode_tokens: 150,
                    priority: 0,
                    share: None,
                })
                .collect();
            let results = cluster.run(jobs);
            black_box((results.len(), cluster.kv_stats()))
        })
    });
    g.finish();
}

fn bench_kv_sharing(c: &mut Criterion) {
    // Private vs shared allocation churn on the prefix shape the engine
    // admits (icbench `trending_dups`, `docs/replay-perf.md` "KV sharing
    // path"): a 73-block prompt whose first 70 blocks are the carried
    // example set — unaligned, so the tail block copies on write — and
    // about one job in fifteen repeating a set that is still resident.
    // Fourteen in fifteen admissions therefore find nothing to map and
    // pay the content table for 70 registrations and, at retirement,
    // 70 removals: the shared run does more bookkeeping than the
    // private one at identical traffic, and the ratio of the two says
    // how much a block of it costs. CI gates that ratio, not a time.
    let run = |share: bool| {
        let mut cfg = PoolConfig::for_gpus("m", 4, 1, 8);
        cfg.preempt_decode_quantum = 0;
        cfg.kv_block_tokens = 16;
        cfg.kv_budget_blocks = 1024;
        cfg.kv_share = share;
        let mut cluster = ClusterSim::new(vec![cfg]);
        let jobs: Vec<ic_serving::JobSpec> = (0..480u64)
            .map(|i| ic_serving::JobSpec {
                id: ic_serving::JobId(i),
                pool: 0,
                arrival: ic_desim::SimTime::from_secs_f64((i / 8) as f64 * 0.5),
                ttft_secs: 0.1,
                decode_secs: 1.5,
                prefill_tokens: 73 * 16,
                decode_tokens: 60,
                priority: 0,
                share: Some(ic_serving::SharedPrefix {
                    // Every fifteenth job carries its predecessor's set.
                    set: i - u64::from(i % 15 == 14),
                    tokens: 70 * 16 - 8,
                }),
            })
            .collect();
        let results = cluster.run(jobs);
        (results.len(), cluster.kv_stats(), cluster.iter_stats())
    };
    let mut g = c.benchmark_group("kv_sharing");
    g.bench_function("private_churn_480x73", |b| b.iter(|| black_box(run(false))));
    g.bench_function("shared_churn_480x73", |b| {
        let (_, kv, iter) = run(true);
        println!(
            "kv_sharing shape: {} admissions carried {} prefix chunks, {} found resident, {} copied on write",
            iter.share_admissions, iter.prefix_chunks, kv.blocks_saved, kv.cow_copies,
        );
        b.iter(|| black_box(run(true)))
    });
    g.finish();
}

fn bench_generation(c: &mut Criterion) {
    let sim = Generator::new();
    let spec = ModelSpec::gemma_2_2b();
    let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 6);
    let requests = wg.generate_requests(64);
    let mut rng = rng_from_seed(7);
    let mut g = c.benchmark_group("llmsim");
    let mut i = 0usize;
    g.bench_function("generate_bare", |b| {
        b.iter(|| {
            i = (i + 1) % requests.len();
            black_box(sim.generate(&spec, &requests[i], &ic_llmsim::GenSetup::bare(), &mut rng))
        })
    });
    g.finish();
}

fn bench_replay(c: &mut Criterion) {
    use ic_cache::{IcCacheConfig, IcCacheSystem};
    use ic_engine::{EngineConfig, EventDrivenEngine, ServingEngine};
    use ic_workloads::fixed_qps_arrivals;

    // A tiny end-to-end replay. Setup (example seeding) happens once;
    // each measured iteration replays the trace through a fresh engine
    // sharing the seeded example bank.
    let sys_cfg = IcCacheConfig::gemma_pair();
    let large = sys_cfg.primary;
    let large_spec = sys_cfg.catalog.get(large).clone();
    let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, 97, 300);
    let examples = wg.generate_examples(300, &large_spec, large, &Generator::new());
    let arrivals = fixed_qps_arrivals(4.0, 20.0, 98);
    let requests = wg.generate_requests(arrivals.len());

    let run = |config: EngineConfig| {
        let mut system = IcCacheSystem::new(IcCacheConfig::gemma_pair());
        system.seed_examples(examples.clone(), 0.0);
        let mut engine = EventDrivenEngine::new(system, config);
        engine.serve_workload(&requests, &arrivals).served
    };

    let mut g = c.benchmark_group("replay");
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(run(EngineConfig::default())))
    });
    g.finish();
}

fn bench_obs(c: &mut Criterion) {
    use ic_cache::{IcCacheConfig, IcCacheSystem};
    use ic_engine::{EngineConfig, EventDrivenEngine, ServingEngine};
    use ic_obs::{EventKind, LaneBuf};
    use ic_workloads::fixed_qps_arrivals;

    let mut g = c.benchmark_group("obs");
    // The per-event cost the hot loops pay. `lane_disabled` is the
    // `Option<LaneBuf>` check every would-be record compiles down to
    // when tracing is off — the zero-cost-when-off claim, pinned as a
    // measurement (it must stay indistinguishable from the loop
    // itself); `lane_push` is the enabled ring append.
    g.bench_function("lane_disabled_x1k", |b| {
        let mut lane: Option<LaneBuf> = black_box(None);
        b.iter(|| {
            for i in 0..1_000u64 {
                if let Some(buf) = lane.as_mut() {
                    buf.push(ic_desim::SimTime::from_micros(i), i, EventKind::FirstToken);
                }
            }
            black_box(lane.as_ref().map_or(0, LaneBuf::len))
        })
    });
    g.bench_function("lane_push_x1k", |b| {
        let mut lane: Option<LaneBuf> = black_box(Some(LaneBuf::new(1, 1 << 12)));
        b.iter(|| {
            for i in 0..1_000u64 {
                if let Some(buf) = lane.as_mut() {
                    buf.push(ic_desim::SimTime::from_micros(i), i, EventKind::FirstToken);
                }
            }
            black_box(lane.as_ref().map_or(0, LaneBuf::len))
        })
    });

    // End to end: the same tiny replay as the `replay` group with the
    // recorder off vs on, so the whole-engine tracing overhead shows up
    // in the same criterion table as the claims it guards.
    let sys_cfg = IcCacheConfig::gemma_pair();
    let large = sys_cfg.primary;
    let large_spec = sys_cfg.catalog.get(large).clone();
    let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, 97, 300);
    let examples = wg.generate_examples(300, &large_spec, large, &Generator::new());
    let arrivals = fixed_qps_arrivals(4.0, 20.0, 98);
    let requests = wg.generate_requests(arrivals.len());
    let run = |config: EngineConfig| {
        let mut system = IcCacheSystem::new(IcCacheConfig::gemma_pair());
        system.seed_examples(examples.clone(), 0.0);
        let mut engine = EventDrivenEngine::new(system, config);
        engine.serve_workload(&requests, &arrivals).served
    };
    g.bench_function("replay_untraced", |b| {
        b.iter(|| black_box(run(EngineConfig::default())))
    });
    g.bench_function("replay_traced", |b| {
        b.iter(|| {
            black_box(run(EngineConfig {
                trace: true,
                ..EngineConfig::default()
            }))
        })
    });
    g.finish();
}

fn bench_resp_cache(c: &mut Criterion) {
    use ic_respcache::{CachedResponse, RespCacheConfig, ResponseCache};

    // The stage-0 hot path: every arrival pays one `lookup` against the
    // IVF-indexed store, so its cost bounds the cache's break-even
    // point. A warm store of 512 trending entries; `lookup_hit` probes
    // a resident embedding, `lookup_miss` a query past the accept
    // threshold (the full search runs either way — the miss is the
    // price every uncached arrival pays).
    let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, 41, 600);
    let requests = wg.generate_requests(600);
    let mut cache = ResponseCache::new(RespCacheConfig {
        prepop_min: 1,
        budget_bytes: 64 << 20,
        ..RespCacheConfig::default()
    });
    let resp = CachedResponse {
        model: 0,
        offloaded: false,
        quality: 0.8,
        examples: 4,
        response_tokens: 128,
    };
    for r in requests.iter().take(512) {
        cache.observe(&r.embedding, 0.0);
        cache.admit(&r.embedding, resp.clone(), 0.0);
    }
    let mut g = c.benchmark_group("resp_cache");
    let mut i = 0usize;
    g.bench_function("lookup_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 512;
            black_box(cache.lookup(&requests[i].embedding, 1.0))
        })
    });
    let mut j = 512usize;
    g.bench_function("lookup_miss", |b| {
        b.iter(|| {
            j = 512 + (j - 511) % 88;
            black_box(cache.lookup(&requests[j].embedding, 1.0))
        })
    });
    g.bench_function("observe_admit", |b| {
        let mut fresh = ResponseCache::new(RespCacheConfig {
            prepop_min: 1,
            ..RespCacheConfig::default()
        });
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % requests.len();
            fresh.observe(&requests[k].embedding, 0.0);
            black_box(fresh.admit(&requests[k].embedding, resp.clone(), 0.0))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_index_search,
    bench_stage1_repeat,
    bench_index_build,
    bench_selector,
    bench_router,
    bench_text_synth,
    bench_knapsack,
    bench_serving_step,
    bench_step_chain,
    bench_kvmem,
    bench_kv_sharing,
    bench_generation,
    bench_replay,
    bench_obs,
    bench_resp_cache
);
criterion_main!(benches);
