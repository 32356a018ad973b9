//! Quickstart: IC-Cache behind the unified serving engine.
//!
//! Builds the Gemma-2 pair system, seeds the example cache with
//! historical large-model responses (Appendix A.4 initialization), then
//! replays a Poisson request trace through the event-driven engine:
//! arrivals flow admission → selection (example cache) → routing →
//! continuous-batching pool queues → completions that feed measured
//! latency back into the router.
//!
//! Run with: `cargo run --release --example quickstart`

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EventDrivenEngine, ServingEngine};
use ic_llmsim::{Generator, ModelSpec};
use ic_workloads::{Dataset, WorkloadGenerator, fixed_qps_arrivals};

fn main() {
    // 1. Configuration: offload Gemma-2-27B traffic to Gemma-2-2B.
    let config = IcCacheConfig::gemma_pair();
    let large = config.primary;

    // 2. Seed the example cache with historical request-response pairs
    //    answered by the large model.
    let mut workload = WorkloadGenerator::new(Dataset::MsMarco, 42);
    let examples =
        workload.generate_examples(2_000, &ModelSpec::gemma_2_27b(), large, &Generator::new());
    let mut system = IcCacheSystem::new(config);
    system.seed_examples(examples, 0.0);

    // 3. Wrap the system in the event-driven engine: a 16-GPU cluster
    //    with continuous batching, caching served pairs back as examples.
    let mut engine = EventDrivenEngine::new(
        system,
        EngineConfig {
            admit_served_pairs: true,
            ..EngineConfig::default()
        },
    );

    // 4. Replay two minutes of 2-QPS Poisson traffic through the engine.
    let arrivals = fixed_qps_arrivals(2.0, 120.0, 7);
    let requests = workload.generate_requests(arrivals.len());
    let report = engine.serve_workload(&requests, &arrivals);

    println!("engine: {}", report.engine);
    println!("served {} requests", report.served);
    println!(
        "offloaded to the small model: {} ({:.1}%)",
        report.offloaded,
        report.offload_ratio() * 100.0
    );
    println!(
        "latency: p50 {:.3}s, p99 {:.3}s (mean queue wait {:.3}s)",
        report.latency.p50_e2e, report.latency.p99_e2e, report.latency.mean_queue
    );
    println!("mean latent response quality: {:.3}", report.mean_quality);
    println!(
        "example cache: {} examples ({} bytes), selection hit rate {:.1}%",
        report.cache.examples,
        report.cache.bytes,
        report.selection_hit_rate() * 100.0
    );
}
