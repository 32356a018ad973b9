//! Cloud deployment under a bursty trace (the paper's primary setting,
//! §3 "Cloud Deployment" and Fig. 12).
//!
//! Replays a 30-minute bursty arrival trace through the full system and a
//! 16-GPU simulated cluster, printing the offload ratio, latency and
//! quality alongside an always-large baseline.
//!
//! Run with: `cargo run --release --example cloud_offload`

use ic_cache::IcCacheConfig;
use ic_cache::IcCacheSystem;
use ic_desim::SimTime;
use ic_engine::LatencyStats;
use ic_llmsim::{GenSetup, Generator};
use ic_serving::{ClusterSim, JobId, JobResult, JobSpec, PoolConfig, busy_interval_rps};
use ic_stats::rng::rng_from_seed;
use ic_workloads::{Dataset, WorkloadGenerator, thirty_minute_trace};

/// The latency summary and busy-interval throughput of one cluster replay.
fn summarize(results: &[JobResult]) -> (LatencyStats, f64) {
    let latency = LatencyStats::from_samples(
        results
            .iter()
            .map(|r| (r.e2e_secs(), r.ttft_secs(), r.queue_wait_secs())),
    );
    let completions: Vec<f64> = results.iter().map(|r| r.completed.as_secs_f64()).collect();
    (latency, busy_interval_rps(&completions))
}

fn main() {
    let config = IcCacheConfig::gemma_pair();
    let small_spec = config.catalog.get(config.offload_models()[0]).clone();
    let large_spec = config.catalog.get(config.primary).clone();
    let large = config.primary;

    // Seed and warm the system.
    let mut workload = WorkloadGenerator::new(Dataset::MsMarco, 7);
    let sim = Generator::new();
    let examples = workload.generate_examples(4_000, &large_spec, large, &sim);
    let mut system = IcCacheSystem::new(config);
    system.seed_examples(examples, 0.0);
    for r in workload.generate_requests(500) {
        let _ = system.serve(&r);
    }

    // The bursty trace.
    let arrivals = thirty_minute_trace(0.8, 11);
    let requests = workload.generate_requests(arrivals.len());
    println!(
        "replaying {} requests over 30 simulated minutes",
        arrivals.len()
    );

    // IC-Cache run.
    let mut rng = rng_from_seed(13);
    let mut jobs = Vec::new();
    let mut large_jobs = Vec::new();
    for (i, (r, &at)) in requests.iter().zip(&arrivals).enumerate() {
        // Estimate instantaneous load from the last 30 arrivals.
        if i > 0 {
            let lo = i.saturating_sub(30);
            let dt = (arrivals[i] - arrivals[lo]).max(1e-3);
            system.observe_load((i - lo) as f64 / dt);
        }
        let out = system.serve(r);
        jobs.push(JobSpec {
            id: JobId(i as u64),
            pool: if out.offloaded { 0 } else { 1 },
            arrival: SimTime::from_secs_f64(at),
            ttft_secs: out.outcome.latency.ttft,
            decode_secs: out.outcome.latency.decode,
            prefill_tokens: out.outcome.input_tokens,
            decode_tokens: out.outcome.output_tokens,
            priority: 0,
            share: None,
        });
        let lo = sim.generate(&large_spec, r, &GenSetup::bare(), &mut rng);
        large_jobs.push(JobSpec {
            id: JobId(i as u64),
            pool: 0,
            arrival: SimTime::from_secs_f64(at),
            ttft_secs: lo.latency.ttft,
            decode_secs: lo.latency.decode,
            prefill_tokens: lo.input_tokens,
            decode_tokens: lo.output_tokens,
            priority: 0,
            share: None,
        });
    }

    // 16-GPU cluster: 8 GPUs of small replicas + one 8-GPU large replica.
    let mut cluster = ClusterSim::new(vec![
        PoolConfig::for_gpus(&small_spec.name, 8, small_spec.gpus_per_replica, 8),
        PoolConfig::for_gpus(&large_spec.name, 8, large_spec.gpus_per_replica, 8),
    ]);
    let (ic, ic_rps) = summarize(&cluster.run(jobs));

    // Always-large baseline on the same 16 GPUs.
    let mut large_cluster = ClusterSim::new(vec![PoolConfig::for_gpus(
        &large_spec.name,
        16,
        large_spec.gpus_per_replica,
        8,
    )]);
    let (large, large_rps) = summarize(&large_cluster.run(large_jobs));

    println!("\n              IC-Cache    Always-Large");
    println!(
        "offload       {:>7.1}%            0.0%",
        system.offload_ratio() * 100.0
    );
    println!(
        "mean latency  {:>7.2}s    {:>10.2}s",
        ic.mean_e2e, large.mean_e2e
    );
    println!(
        "P99 latency   {:>7.2}s    {:>10.2}s",
        ic.p99_e2e, large.p99_e2e
    );
    println!("throughput    {:>7.2} rps {:>8.2} rps", ic_rps, large_rps);
    println!(
        "\nlatency reduction: {:.0}%  (paper reports 28-71%)",
        (1.0 - ic.mean_e2e / large.mean_e2e) * 100.0
    );
    let iter = cluster.iter_stats();
    println!(
        "iteration scheduler: {} token steps, mean batch {:.2}, \
         chunked-prefill {:.1}%, {} preemptions, {} queue rejects",
        iter.steps,
        iter.mean_step_batch(),
        iter.chunked_prefill_ratio() * 100.0,
        iter.preemptions,
        cluster.rejected(),
    );
    let kv = cluster.kv_stats();
    println!(
        "paged KV memory: {}/{} peak blocks ({:.1}% peak, {:.1}% mean occupancy), \
         {} pressure preemptions, {} swap-outs / {} swap-ins, fragmentation {:.1}%",
        kv.peak_blocks,
        kv.total_blocks,
        kv.peak_occupancy() * 100.0,
        kv.mean_occupancy() * 100.0,
        kv.pressure_preemptions,
        kv.swap_outs,
        kv.swap_ins,
        kv.fragmentation_ratio() * 100.0,
    );
}
