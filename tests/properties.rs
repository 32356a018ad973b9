//! Cross-crate property-based tests on system invariants.

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_desim::SimTime;
use ic_embed::Embedding;
use ic_engine::{EngineConfig, EventDrivenEngine, ServingEngine};
use ic_llmsim::{GenSetup, Generator, ModelSpec, Request, RequestId, SkillMix, TaskKind};
use ic_serving::{ClusterSim, JobId, JobSpec, ModelPool, PoolConfig};
use ic_stats::rng::rng_from_seed;
use ic_vecindex::{FlatIndex, IvfConfig, IvfIndex, VectorIndex};
use ic_workloads::{Dataset, WorkloadGenerator, fixed_qps_arrivals};
use proptest::prelude::*;

fn arb_unit_embedding(dim: usize) -> impl Strategy<Value = Embedding> {
    proptest::collection::vec(-1.0f32..1.0, dim).prop_map(|v| {
        let e = Embedding::from_vec(v).normalized();
        if e.norm() < 0.5 {
            // Degenerate all-zero draw: replace with a basis vector.
            let mut basis = vec![0.0f32; e.dim()];
            basis[0] = 1.0;
            Embedding::from_vec(basis)
        } else {
            e
        }
    })
}

fn request_with(difficulty: f64, tokens: u32, latent: Embedding) -> Request {
    Request {
        id: RequestId(0),
        topic: 0,
        embedding: latent.clone(),
        latent,
        difficulty,
        complexity_signal: difficulty,
        skills: SkillMix::uniform(),
        task: TaskKind::Conversation,
        input_tokens: tokens,
        target_output_tokens: tokens.max(8),
        text: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generation output is always well-formed, whatever the inputs.
    #[test]
    fn generation_is_always_well_formed(
        difficulty in 0.0f64..1.0,
        tokens in 1u32..2_000,
        seed in 0u64..1_000,
    ) {
        let sim = Generator::new();
        let mut rng = rng_from_seed(seed);
        let latent = Embedding::gaussian(16, 1.0, &mut rng).normalized();
        let r = request_with(difficulty, tokens, latent);
        for spec in [ModelSpec::gemma_2_2b(), ModelSpec::deepseek_r1()] {
            let out = sim.generate(&spec, &r, &GenSetup::bare(), &mut rng);
            prop_assert!((0.0..=1.0).contains(&out.quality));
            prop_assert!(out.output_tokens >= 1);
            prop_assert!(out.input_tokens >= tokens);
            prop_assert!(out.latency.ttft > 0.0);
            prop_assert!(out.latency.decode > 0.0);
        }
    }

    /// Harder requests never have higher expected base quality.
    #[test]
    fn base_quality_is_monotone_in_difficulty(
        d1 in 0.0f64..1.0,
        d2 in 0.0f64..1.0,
    ) {
        let sim = Generator::new();
        let mut rng = rng_from_seed(1);
        let latent = Embedding::gaussian(8, 1.0, &mut rng).normalized();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let spec = ModelSpec::gemma_2_27b();
        let q_easy = sim.base_quality(&spec, &request_with(lo, 50, latent.clone()));
        let q_hard = sim.base_quality(&spec, &request_with(hi, 50, latent));
        prop_assert!(q_easy >= q_hard);
    }

    /// IVF search results are a subset of the item universe, sorted by
    /// similarity, and never contain duplicates.
    #[test]
    fn ivf_search_is_sorted_and_unique(
        vectors in proptest::collection::vec(arb_unit_embedding(8), 1..120),
        k in 1usize..20,
    ) {
        let mut ivf = IvfIndex::new(IvfConfig::default());
        let mut flat = FlatIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            ivf.insert(i as u64, v.clone());
            flat.insert(i as u64, v.clone());
        }
        let q = &vectors[0];
        let hits = ivf.search(q, k);
        prop_assert!(hits.len() <= k.min(vectors.len()));
        for w in hits.windows(2) {
            prop_assert!(w[0].similarity >= w[1].similarity);
        }
        let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), hits.len());
        // The top hit of an exact query is the query itself.
        prop_assert_eq!(flat.search(q, 1)[0].id, 0);
    }

    /// More in-context examples never lengthen decoding (the shortening
    /// factor applies once) and never shrink the prompt.
    #[test]
    fn examples_grow_prompt_monotonically(n_examples in 0usize..6) {
        let sim = Generator::new();
        let mut rng = rng_from_seed(42);
        let mut wl = ic_workloads::WorkloadGenerator::sized(
            ic_workloads::Dataset::MsMarco, 5, 500);
        let examples = wl.generate_examples(
            6,
            &ModelSpec::gemma_2_27b(),
            ic_llmsim::ModelId(0),
            &sim,
        );
        let request = wl.generate_requests(1).pop().expect("one request");
        let refs: Vec<&ic_llmsim::Example> = examples.iter().take(n_examples).collect();
        let with_n = sim.generate(
            &ModelSpec::gemma_2_2b(), &request, &GenSetup::with_examples(refs), &mut rng);
        let bare = sim.generate(
            &ModelSpec::gemma_2_2b(), &request, &GenSetup::bare(), &mut rng);
        if n_examples > 0 {
            prop_assert!(with_n.input_tokens > bare.input_tokens);
        } else {
            prop_assert_eq!(with_n.input_tokens, bare.input_tokens);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The iteration-level (token-step) scheduler and the legacy
    /// occupancy-stretch estimate agree for a single job at zero load:
    /// prefill chunks sum to exactly `ttft_secs` and decode tokens to
    /// `decode_secs * (1 + beta / total_slots)`, whatever the chunk
    /// size, token counts, or slot count.
    #[test]
    fn iteration_model_matches_occupancy_stretch_at_zero_load(
        ttft in 0.01f64..2.0,
        decode in 0.05f64..10.0,
        ptoks in 1u32..2_000,
        dtoks in 1u32..500,
        chunk in 0u32..512,
        beta in 0.0f64..1.0,
        slots in 1u32..32,
    ) {
        let cfg = PoolConfig {
            name: "p".into(),
            replicas: 1,
            slots_per_replica: slots,
            congestion_beta: beta,
            prefill_chunk_tokens: chunk,
            preempt_decode_quantum: 0,
            max_queue: None,
            // KV on at the for_gpus default budget: a single job at
            // zero load never triggers pressure, so the iteration
            // model must still match the occupancy-stretch estimate.
            ..PoolConfig::default()
        };
        let job = JobSpec {
            id: JobId(0),
            pool: 0,
            arrival: SimTime::ZERO,
            ttft_secs: ttft,
            decode_secs: decode,
            prefill_tokens: ptoks,
            decode_tokens: dtoks,
            priority: 0,
            share: None,
        };
        let expected = ModelPool::new(cfg.clone()).service_secs(&job);
        let mut cluster = ClusterSim::new(vec![cfg]);
        let results = cluster.run(vec![job]);
        prop_assert_eq!(results.len(), 1);
        let got = results[0].e2e_secs();
        // Each iteration is rounded to a whole microsecond when
        // scheduled, so allow up to 1us of drift per token step.
        let n_steps = u64::from(dtoks) + u64::from(ptoks.div_ceil(chunk.max(1)));
        let tol = n_steps as f64 * 1e-6 + 1e-9;
        prop_assert!(
            (got - expected).abs() <= tol,
            "iteration model {} vs occupancy-stretch {} (tol {})",
            got, expected, tol
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// KV blocks are conserved across the full scheduler lifecycle —
    /// admission alloc, growth alloc, quantum eviction, pressure
    /// swap-out, resume re-alloc, retire free — for arbitrary job
    /// mixes over arbitrarily tight budgets: every job completes with
    /// its exact token budget executed, every allocated block is freed
    /// (the allocator panics on double frees), and the pool ends
    /// empty. Covers budgets smaller than one prefill chunk and
    /// watermarks equal to the budget.
    #[test]
    fn kv_blocks_conserved_across_preempt_swap_resume(
        n_jobs in 1usize..10,
        slots in 1u32..6,
        block_tokens in 1u32..24,
        budget in 1u32..40,
        quantum in 0u32..6,
        chunk in 0u32..64,
        high_tenths in 5u32..11,
        ptoks in 1u32..300,
        dtoks in 0u32..60,
    ) {
        let cfg = PoolConfig {
            name: "p".into(),
            replicas: 1,
            slots_per_replica: slots,
            congestion_beta: 0.3,
            prefill_chunk_tokens: chunk,
            preempt_decode_quantum: quantum,
            max_queue: None,
            kv_block_tokens: block_tokens,
            kv_budget_blocks: budget,
            // high == low exercises the degenerate watermark pair up
            // to and including watermarks equal to the whole budget.
            kv_watermarks: ic_serving::Watermarks::new(
                f64::from(high_tenths) / 10.0,
                f64::from(high_tenths) / 10.0,
            ),
            kv_swap: ic_serving::KvSwap {
                out_secs_per_block: 1e-4,
                in_secs_per_block: 1e-4,
                ..ic_serving::KvSwap::DEFAULT
            },
            kv_share: false,
        };
        let jobs: Vec<JobSpec> = (0..n_jobs as u64)
            .map(|i| JobSpec {
                id: JobId(i),
                pool: 0,
                arrival: SimTime::from_secs_f64(i as f64 * 0.01),
                ttft_secs: 0.05,
                decode_secs: 0.4,
                // Vary sizes across jobs deterministically.
                prefill_tokens: ptoks + (i as u32 * 37) % 200,
                decode_tokens: dtoks + (i as u32 * 13) % 40,
                priority: 0,
                share: None,
            })
            .collect();
        let total_decode: u64 = jobs.iter().map(|j| u64::from(j.decode_tokens)).sum();
        let mut cluster = ClusterSim::new(vec![cfg]);
        let results = cluster.run(jobs);
        prop_assert_eq!(results.len(), n_jobs, "every job completes");
        let kv = cluster.kv_stats();
        prop_assert_eq!(kv.allocs, kv.frees, "no leaked or double-freed blocks");
        prop_assert!(kv.peak_blocks <= kv.total_blocks);
        prop_assert_eq!(
            cluster.iter_stats().decode_steps, total_decode,
            "preempt/swap/resume must not lose or repeat tokens"
        );
        prop_assert_eq!(cluster.pool(0).active(), 0);
        prop_assert_eq!(cluster.pool(0).swapped_len(), 0);
        prop_assert_eq!(cluster.pool(0).queue_len(), 0);
    }

    /// The same full preempt→swap→resume lifecycle with shared-prefix
    /// KV reuse on and every job carrying one of a few example sets:
    /// mapping, copy-on-write divergence, and refcounted swap-outs must
    /// preserve the exact conservation guarantees of the private
    /// allocator — every job completes with its exact token budget,
    /// physical allocs == physical frees, no block or host-ledger
    /// residue — and no sequence may ever be stranded by a co-reader's
    /// eviction. Saved blocks only ever reduce the allocation count.
    #[test]
    fn shared_kv_blocks_conserved_across_preempt_swap_resume(
        n_jobs in 2usize..10,
        slots in 1u32..6,
        block_tokens in 1u32..24,
        budget in 2u32..40,
        quantum in 0u32..6,
        chunk in 0u32..64,
        high_tenths in 5u32..11,
        ptoks in 1u32..300,
        dtoks in 0u32..60,
        n_sets in 1u64..4,
    ) {
        let cfg = PoolConfig {
            name: "p".into(),
            replicas: 1,
            slots_per_replica: slots,
            congestion_beta: 0.3,
            prefill_chunk_tokens: chunk,
            preempt_decode_quantum: quantum,
            max_queue: None,
            kv_block_tokens: block_tokens,
            kv_budget_blocks: budget,
            kv_watermarks: ic_serving::Watermarks::new(
                f64::from(high_tenths) / 10.0,
                f64::from(high_tenths) / 10.0,
            ),
            kv_swap: ic_serving::KvSwap {
                out_secs_per_block: 1e-4,
                in_secs_per_block: 1e-4,
                ..ic_serving::KvSwap::DEFAULT
            },
            kv_share: true,
        };
        let jobs: Vec<JobSpec> = (0..n_jobs as u64)
            .map(|i| {
                let prefill = ptoks + (i as u32 * 37) % 200;
                let set = i % n_sets;
                JobSpec {
                    id: JobId(i),
                    pool: 0,
                    arrival: SimTime::from_secs_f64(i as f64 * 0.01),
                    ttft_secs: 0.05,
                    decode_secs: 0.4,
                    prefill_tokens: prefill,
                    decode_tokens: dtoks + (i as u32 * 13) % 40,
                    priority: 0,
                    // One shared prefix per set, identical token count
                    // across its carriers (as the engine guarantees),
                    // covering part or occasionally all of the prompt.
                    share: Some(ic_serving::SharedPrefix {
                        set,
                        tokens: (1 + (set as u32 * 53) % 97).min(prefill),
                    }),
                }
            })
            .collect();
        let total_decode: u64 = jobs.iter().map(|j| u64::from(j.decode_tokens)).sum();
        let mut cluster = ClusterSim::new(vec![cfg]);
        let results = cluster.run(jobs);
        prop_assert_eq!(results.len(), n_jobs, "every job completes");
        let kv = cluster.kv_stats();
        prop_assert_eq!(kv.allocs, kv.frees, "no leaked or double-freed blocks");
        prop_assert!(kv.peak_blocks <= kv.total_blocks);
        prop_assert_eq!(
            cluster.iter_stats().decode_steps, total_decode,
            "shared preempt/swap/resume must not lose or repeat tokens"
        );
        prop_assert_eq!(cluster.pool(0).active(), 0);
        prop_assert_eq!(cluster.pool(0).swapped_len(), 0);
        prop_assert_eq!(cluster.pool(0).queue_len(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Running the event-driven engine twice with the same seed produces
    /// identical served/offloaded counts and latency percentiles —
    /// byte-identical serialized metrics, across arbitrary seeds and
    /// offered loads.
    #[test]
    fn event_driven_engine_is_deterministic(
        seed in 0u64..10_000,
        qps_deci in 5u64..60,
    ) {
        let run = || {
            let config = IcCacheConfig::gemma_pair();
            let large = config.primary;
            let large_spec = config.catalog.get(large).clone();
            let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, seed, 300);
            let examples =
                wg.generate_examples(300, &large_spec, large, &Generator::new());
            let mut system = IcCacheSystem::new(config);
            system.seed_examples(examples, 0.0);
            let arrivals = fixed_qps_arrivals(qps_deci as f64 / 10.0, 60.0, seed ^ 0xA11);
            let requests = wg.generate_requests(arrivals.len());
            let mut engine = EventDrivenEngine::new(system, EngineConfig::default());
            let report = engine.serve_workload(&requests, &arrivals);
            (
                report.served,
                report.offloaded,
                report.latency.p50_e2e.to_bits(),
                report.latency.p99_e2e.to_bits(),
                report.to_json(),
            )
        };
        let (served_a, off_a, p50_a, p99_a, json_a) = run();
        let (served_b, off_b, p50_b, p99_b, json_b) = run();
        prop_assert_eq!(served_a, served_b);
        prop_assert_eq!(off_a, off_b);
        prop_assert_eq!(p50_a, p50_b, "p50 must replay bit-identically");
        prop_assert_eq!(p99_a, p99_b, "p99 must replay bit-identically");
        prop_assert_eq!(json_a, json_b);
    }
}
