//! Pool-failover integration tests: outage windows flush a pool's work
//! and requeue it through the router as retries, which count once in
//! the router's decisions, route around the down model, and replay
//! deterministically.

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EngineReport, EventDrivenEngine, PoolOutage, ServingEngine};
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

fn run(config: EngineConfig, qps: f64, duration: f64, seed: u64) -> EngineReport {
    let (mut engine, mut wg) = seeded_engine(400, config, seed);
    let arrivals = fixed_qps_arrivals(qps, duration, seed ^ 0x5eed);
    let requests = wg.generate_requests(arrivals.len());
    engine.serve_workload(&requests, &arrivals)
}

#[test]
fn pool_failover_preempts_and_requeues_through_the_router() {
    // Saturate the cluster, then take the offload pool (pool 0, where
    // the shed traffic lives) down mid-run: its queued + running jobs
    // must be flushed, retried on the healthy pool, and counted.
    let config = EngineConfig {
        pool_outages: vec![PoolOutage {
            pool: 0,
            at_s: 10.0,
            duration_s: 20.0,
        }],
        ..EngineConfig::default()
    };
    let report = run(config.clone(), 30.0, 40.0, 211);
    assert!(
        report.router.failover_requeues > 0,
        "a saturated pool must have work to flush: {:?}",
        report.router
    );
    // Every request still resolves exactly once: completions plus
    // queue-cap rejects cover the workload. A rejected retry also
    // increments the pool's queue_rejects, so retry_rejects is a
    // *subset* of (never additional to) the iter counter.
    assert_eq!(report.served, report.per_request.len() as u64);
    let rejected = report.per_request.iter().filter(|r| r.rejected).count() as u64;
    assert_eq!(rejected, report.iter.queue_rejects);
    assert!(report.router.retry_rejects <= report.iter.queue_rejects);
    for r in &report.per_request {
        if !r.rejected {
            assert!(r.e2e_s > 0.0, "request {} never completed", r.index);
            assert!(r.e2e_s >= r.ttft_s);
        }
    }
    // KV blocks released by the failover path are conserved.
    assert_eq!(report.kv.allocs, report.kv.frees, "failover leaked blocks");
    // Deterministic replay, failovers included.
    let again = run(config, 30.0, 40.0, 211);
    assert_eq!(report.to_json(), again.to_json());
}

#[test]
fn failover_retries_record_router_decisions_exactly_once() {
    // Regression: a failover retry used to re-enter the router as a
    // fresh arrival, rolling a second routing decision (and a second
    // round of selector/bandit bookkeeping) for the same logical
    // request. The retry path must leave the decision count untouched,
    // so even with requeues in flight the router records exactly one
    // decision per request.
    let config = EngineConfig {
        pool_outages: vec![PoolOutage {
            pool: 0,
            at_s: 10.0,
            duration_s: 20.0,
        }],
        ..EngineConfig::default()
    };
    let report = run(config, 30.0, 40.0, 211);
    assert!(
        report.router.failover_requeues > 0,
        "the outage must actually flush work: {:?}",
        report.router
    );
    assert_eq!(
        report.router.decisions,
        vec![report.served],
        "retries must not double-count routing decisions: {:?}",
        report.router.decisions
    );
}

#[test]
fn rejected_retries_count_once_in_queue_rejects_and_again_in_retry_rejects() {
    // A tight queue cap under saturation plus an outage: some flushed
    // jobs find the healthy pool's queue full and are dropped. Each
    // such drop is one pool-level queue reject (the shared counter) and
    // one router-level retry reject (the failover-specific view).
    let config = || EngineConfig {
        max_queue: Some(2),
        pool_outages: vec![PoolOutage {
            pool: 0,
            at_s: 8.0,
            duration_s: 15.0,
        }],
        ..EngineConfig::default()
    };
    let report = run(config(), 40.0, 25.0, 613);
    assert!(report.router.failover_requeues > 0, "{:?}", report.router);
    assert!(
        report.router.retry_rejects > 0,
        "a full healthy pool must drop some retries: {:?}",
        report.router
    );
    assert!(report.router.retry_rejects <= report.iter.queue_rejects);
    let rejected = report.per_request.iter().filter(|r| r.rejected).count() as u64;
    assert_eq!(rejected, report.iter.queue_rejects);
    assert_eq!(report.to_json(), run(config(), 40.0, 25.0, 613).to_json());
}

#[test]
fn overlapping_outages_keep_the_pool_down_until_the_last_window_ends() {
    // Two nested windows for pool 0: [20, 80) and [30, 50). The inner
    // window's recovery at t=50 must NOT revive the pool — it stays
    // down until the outer window closes at t=80.
    let config = EngineConfig {
        pool_outages: vec![
            PoolOutage {
                pool: 0,
                at_s: 20.0,
                duration_s: 60.0,
            },
            PoolOutage {
                pool: 0,
                at_s: 30.0,
                duration_s: 20.0,
            },
        ],
        ..EngineConfig::default()
    };
    let report = run(config, 4.0, 120.0, 409);
    let offloads_in = |lo: f64, hi: f64| {
        report
            .per_request
            .iter()
            .filter(|r| r.arrival_s >= lo && r.arrival_s < hi)
            .filter(|r| r.offloaded)
            .count()
    };
    assert_eq!(
        offloads_in(50.0, 80.0),
        0,
        "the nested window's recovery must not revive the pool early"
    );
    assert!(
        offloads_in(80.0, 120.0) > 0,
        "offloading resumes after the outer window closes"
    );
}

#[test]
fn short_outage_with_inflight_steps_stays_consistent() {
    // An outage much shorter than a step: the flushed pool refills
    // right after recovery while its pre-flush StepComplete is still
    // queued. The failover epoch must kill the stale event — otherwise
    // the pool runs two step lineages and the replay corrupts (or
    // diverges). Saturating load makes in-flight steps a certainty.
    let config = || EngineConfig {
        pool_outages: vec![PoolOutage {
            pool: 0,
            at_s: 5.0,
            duration_s: 0.01,
        }],
        ..EngineConfig::default()
    };
    let report = run(config(), 30.0, 20.0, 503);
    assert!(
        report.router.failover_requeues > 0,
        "the flush must catch in-flight work: {:?}",
        report.router
    );
    // Every request resolves exactly once and memory is conserved
    // (retry rejects are a subset of the pool-level queue_rejects).
    let rejected = report.per_request.iter().filter(|r| r.rejected).count() as u64;
    assert_eq!(rejected, report.iter.queue_rejects);
    assert!(report.router.retry_rejects <= report.iter.queue_rejects);
    for r in report.per_request.iter().filter(|r| !r.rejected) {
        assert!(r.e2e_s > 0.0, "request {} never completed", r.index);
    }
    assert_eq!(report.kv.allocs, report.kv.frees);
    assert_eq!(report.to_json(), run(config(), 30.0, 20.0, 503).to_json());
}

#[test]
fn outage_window_moves_traffic_off_the_dead_pool() {
    // While pool 0 (the offload side) is down, arrivals must route to
    // the primary; after recovery the offload path resumes.
    let config = EngineConfig {
        pool_outages: vec![PoolOutage {
            pool: 0,
            at_s: 20.0,
            duration_s: 30.0,
        }],
        ..EngineConfig::default()
    };
    let report = run(config, 4.0, 90.0, 307);
    let in_window = |r: &&ic_engine::RequestRecord| r.arrival_s >= 20.0 && r.arrival_s < 50.0;
    let down_offloads = report
        .per_request
        .iter()
        .filter(in_window)
        .filter(|r| r.offloaded)
        .count();
    assert_eq!(
        down_offloads, 0,
        "no arrival during the outage may land on the dead pool"
    );
    let after = report
        .per_request
        .iter()
        .filter(|r| r.arrival_s >= 50.0)
        .filter(|r| r.offloaded)
        .count();
    assert!(after > 0, "offloading must resume after recovery");
}
