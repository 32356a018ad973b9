//! Replay-equivalence properties for the step-region executor
//! (`EngineConfig::replay_threads`): where the step chains run must not
//! show at all — no masking, trace event stream included.

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EngineReport, EventDrivenEngine, PoolOutage, ServingEngine};
use ic_llmsim::{Generator, Request, RequestId};
use ic_workloads::{Dataset, WorkloadGenerator, fixed_qps_arrivals};
use proptest::prelude::*;

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

fn run(config: EngineConfig, arrivals: &[f64], seed: u64) -> EngineReport {
    let (mut engine, mut wg) = seeded_engine(400, config, seed);
    let requests = wg.generate_requests(arrivals.len());
    engine.serve_workload(&requests, arrivals)
}

/// [`run`] over a trace whose same-tick groups of `per_tick` arrivals
/// all carry the group's first request (fresh ids): the duplicates the
/// stage-0 cache and shared-prefix KV reuse feed on.
fn run_duplicates(
    config: EngineConfig,
    arrivals: &[f64],
    per_tick: usize,
    seed: u64,
) -> EngineReport {
    let (mut engine, mut wg) = seeded_engine(400, config, seed);
    let mut requests: Vec<Request> = wg.generate_requests(arrivals.len());
    for i in 0..requests.len() {
        let head = requests[i - i % per_tick].clone();
        requests[i] = Request {
            id: RequestId(i as u64),
            ..head
        };
    }
    engine.serve_workload(&requests, arrivals)
}

/// `n` arrivals in same-tick groups of `per_tick`, `step` seconds apart.
fn tick_burst_arrivals(n: usize, per_tick: usize, step: f64) -> Vec<f64> {
    (0..n).map(|i| (i / per_tick) as f64 * step).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Step regions on any number of worker threads are bit-identical
    /// to the inline executor — the full report, no masking.
    #[test]
    fn parallel_replay_is_bit_identical(
        seed in 0u64..500,
        qps in 2.0f64..10.0,
        threads in 2usize..6,
    ) {
        let arrivals = fixed_qps_arrivals(qps, 25.0, seed ^ 0x9a60);
        let sequential = run(EngineConfig::default(), &arrivals, seed);
        let parallel = run(
            EngineConfig {
                replay_threads: threads,
                ..EngineConfig::default()
            },
            &arrivals,
            seed,
        );
        prop_assert!(parallel.replay.parallel_regions > 0);
        prop_assert_eq!(sequential.to_json(), parallel.to_json());
    }
}

/// The single step path under every feature that touches pool state
/// between regions: whichever threads run the chains, the report bytes
/// and the trace event stream are identical, and one thread forms the
/// very same regions (it only runs them inline).
#[test]
fn region_executor_is_invisible_under_outage_stage0_sharing_and_kv_pressure() {
    let bursts = tick_burst_arrivals(240, 4, 0.2);
    let poisson = fixed_qps_arrivals(20.0, 20.0, 0x57e9);
    // (name, config, trace, duplicates per tick, what must have bitten)
    type Bites = fn(&EngineReport) -> bool;
    let scenarios: [(&str, EngineConfig, &[f64], usize, Bites); 4] = [
        (
            "outage",
            EngineConfig {
                router_replicas: 3,
                pool_outages: vec![PoolOutage {
                    pool: 0,
                    at_s: 5.0,
                    duration_s: 8.0,
                }],
                ..EngineConfig::default()
            },
            &poisson,
            1,
            |r| r.router.failover_requeues > 0,
        ),
        (
            "resp_cache",
            EngineConfig {
                resp_cache: true,
                selector_batch: 8,
                ..EngineConfig::default()
            },
            &bursts,
            4,
            |r| r.resp_cache.hits > 0,
        ),
        (
            "kv_share",
            EngineConfig {
                kv_share: true,
                ..EngineConfig::default()
            },
            &bursts,
            4,
            |r| r.kv.blocks_saved > 0,
        ),
        (
            "tight kv budget",
            EngineConfig {
                preempt_decode_quantum: 0,
                kv_budget_blocks: 128,
                ..EngineConfig::default()
            },
            &poisson,
            1,
            |r| r.kv.pressure_preemptions > 0,
        ),
    ];
    for (name, config, arrivals, per_tick, bites) in scenarios {
        let at = |replay_threads: usize| {
            let config = EngineConfig {
                replay_threads,
                trace: true,
                ..config.clone()
            };
            run_duplicates(config, arrivals, per_tick, 77)
        };
        let inline = at(1);
        assert!(
            inline.replay.parallel_regions > 0,
            "{name}: {:?}",
            inline.replay
        );
        assert!(bites(&inline), "{name} must bite, or it pins nothing");
        let events = &inline.obs.as_ref().expect("tracing was on").events;
        for threads in [2, 4] {
            let threaded = at(threads);
            assert_eq!(
                inline.to_json(),
                threaded.to_json(),
                "{name} at {threads} threads"
            );
            assert_eq!(
                inline.replay.parallel_regions, threaded.replay.parallel_regions,
                "{name} at {threads} threads"
            );
            let threaded = threaded.obs.expect("tracing was on");
            assert_eq!(threaded.dropped, 0);
            assert!(
                events == &threaded.events,
                "{name}: trace differs at {threads} threads"
            );
        }
    }
}
