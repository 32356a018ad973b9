//! Cross-crate integration tests: the full IC-Cache pipeline exercised
//! through the public API, spanning workloads → selector → router →
//! manager → llmsim → serving → judge.

use ic_cache::{IcCacheClient, IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EventDrivenEngine, LatencyStats, ServingEngine};
use ic_judge::{Autorater, PairwiseEval};
use ic_llmsim::{GenSetup, Generator, ModelSpec};
use ic_serving::{ClusterSim, JobId, JobSpec, PoolConfig};
use ic_stats::rng::rng_from_seed;
use ic_workloads::{Dataset, WorkloadGenerator, fixed_qps_arrivals};

fn seeded_system(
    dataset: Dataset,
    n_examples: usize,
    seed: u64,
) -> (IcCacheSystem, WorkloadGenerator) {
    let config = IcCacheConfig::gemma_pair();
    let large = config.primary;
    let large_spec = config.catalog.get(large).clone();
    let mut wg = WorkloadGenerator::sized(dataset, seed, n_examples);
    let examples = wg.generate_examples(n_examples, &large_spec, large, &Generator::new());
    let mut system = IcCacheSystem::new(config);
    system.seed_examples(examples, 0.0);
    (system, wg)
}

#[test]
fn ic_cache_beats_bare_small_model_on_quality() {
    let (mut system, mut wg) = seeded_system(Dataset::MsMarco, 3_000, 1001);
    // Warm up the learning components.
    for r in wg.generate_requests(500) {
        let _ = system.serve(&r);
    }
    // Paired evaluation on fresh traffic with common random numbers.
    let requests = wg.generate_requests(250);
    let sim = Generator::new();
    let small = ModelSpec::gemma_2_2b();
    let mut rng_a = rng_from_seed(7);
    let mut rng_b = rng_from_seed(7);
    let mut q_ic = Vec::new();
    let mut q_bare = Vec::new();
    for r in &requests {
        let sel = system.with_selection(r);
        let refs = sel.resolve(system.manager().cache());
        q_ic.push(
            sim.generate(&small, r, &GenSetup::with_examples(refs), &mut rng_a)
                .quality,
        );
        q_bare.push(
            sim.generate(&small, r, &GenSetup::bare(), &mut rng_b)
                .quality,
        );
    }
    let judge = Autorater::standard();
    let mut eval = PairwiseEval::new();
    let mut rng = rng_from_seed(8);
    for (a, b) in q_ic.iter().zip(&q_bare) {
        eval.record(judge.score_balanced(*a, *b, 8, &mut rng));
    }
    assert!(
        eval.win_rate() > 0.55,
        "IC selection should beat bare small generations: {}",
        eval.win_rate()
    );
}

#[test]
fn full_client_lifecycle_with_maintenance() {
    let config = IcCacheConfig::gemma_pair();
    let large = config.primary;
    let large_spec = config.catalog.get(large).clone();
    let mut client = IcCacheClient::new(config);
    let mut wg = WorkloadGenerator::sized(Dataset::Alpaca, 1002, 800);
    client.seed_examples(wg.generate_examples(800, &large_spec, large, &Generator::new()));

    for _ in 0..4 {
        let requests = wg.generate_requests(40);
        let responses = client.generate(&requests);
        client.update_cache(&requests, &responses);
        client.advance_clock(3600.0);
        let _ = client.run_maintenance();
    }
    assert!(
        client.cached_examples() > 800,
        "cache should grow with traffic"
    );
    client.stop();
}

#[test]
fn offloading_reduces_cluster_latency_under_load() {
    // The headline mechanism end-to-end: identical traffic, a 16-GPU
    // cluster; IC-Cache through the unified event-driven engine vs an
    // always-large replay of the same requests.
    let (mut system, mut wg) = seeded_system(Dataset::MsMarco, 2_000, 1003);
    for r in wg.generate_requests(400) {
        let _ = system.serve(&r);
    }
    let arrivals = fixed_qps_arrivals(2.0, 400.0, 1004);
    let requests = wg.generate_requests(arrivals.len());
    let sim = Generator::new();
    let large_spec = ModelSpec::gemma_2_27b();
    let mut rng = rng_from_seed(9);

    // IC-Cache path: selection, routing, continuous batching and load
    // feedback all inside the engine's simulation clock.
    let mut engine = EventDrivenEngine::new(system, EngineConfig::default());
    let ic_report = engine.serve_workload(&requests, &arrivals);

    // Baseline: every request on a 16-GPU large-model cluster.
    let mut large_jobs = Vec::new();
    for (i, (r, &at)) in requests.iter().zip(&arrivals).enumerate() {
        let lo = sim.generate(&large_spec, r, &GenSetup::bare(), &mut rng);
        large_jobs.push(JobSpec {
            id: JobId(i as u64),
            pool: 0,
            arrival: ic_desim::SimTime::from_secs_f64(at),
            ttft_secs: lo.latency.ttft,
            decode_secs: lo.latency.decode,
            prefill_tokens: lo.input_tokens,
            decode_tokens: lo.output_tokens,
            priority: 0,
            share: None,
        });
    }
    let mut large_only = ClusterSim::new(vec![PoolConfig::for_gpus(
        "large",
        16,
        large_spec.gpus_per_replica,
        8,
    )]);
    let large = LatencyStats::from_samples(
        large_only
            .run(large_jobs)
            .iter()
            .map(|r| (r.e2e_secs(), r.ttft_secs(), r.queue_wait_secs())),
    );
    assert!(
        ic_report.latency.mean_e2e < large.mean_e2e * 0.75,
        "IC-Cache should cut mean latency by >25%: {:.2}s vs {:.2}s",
        ic_report.latency.mean_e2e,
        large.mean_e2e
    );
}

#[test]
fn engine_runs_are_byte_identical_given_a_seed() {
    // The acceptance bar for the unified engine: same seed, same
    // workload, continuous batching on, and two runs
    // produce byte-identical serialized metrics.
    let run = || {
        let (system, mut wg) = seeded_system(Dataset::MsMarco, 800, 1007);
        let arrivals = fixed_qps_arrivals(3.0, 120.0, 1008);
        let requests = wg.generate_requests(arrivals.len());
        let config = EngineConfig::default();
        assert!(config.slots_per_replica > 1, "continuous batching enabled");
        let mut engine = EventDrivenEngine::new(system, config);
        let report = engine.serve_workload(&requests, &arrivals);
        (report.served, report.offloaded, report.to_json())
    };
    let (served_a, offloaded_a, json_a) = run();
    let (served_b, offloaded_b, json_b) = run();
    assert_eq!(served_a, served_b);
    assert_eq!(offloaded_a, offloaded_b);
    assert_eq!(json_a, json_b, "metrics output must be byte-identical");
}

#[test]
fn engine_feedback_loop_sheds_load_when_saturated() {
    // Completion latency feeds the router's load estimate: past cluster
    // capacity, offloading must rise without any external load oracle.
    let offload_at = |qps: f64, duration: f64| {
        let (system, mut wg) = seeded_system(Dataset::MsMarco, 800, 1009);
        let arrivals = fixed_qps_arrivals(qps, duration, 1010);
        let requests = wg.generate_requests(arrivals.len());
        let mut engine = EventDrivenEngine::new(system, EngineConfig::default());
        engine.serve_workload(&requests, &arrivals).offload_ratio()
    };
    let calm = offload_at(0.2, 240.0);
    let saturated = offload_at(10.0, 120.0);
    assert!(
        saturated > calm,
        "saturation should raise offloading: {calm} vs {saturated}"
    );
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let (mut system, mut wg) = seeded_system(Dataset::Alpaca, 400, 1006);
        let requests = wg.generate_requests(50);
        requests
            .iter()
            .map(|r| {
                let o = system.serve(r);
                (o.model, o.offloaded, (o.outcome.quality * 1e9) as i64)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed must replay identically");
}
