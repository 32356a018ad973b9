//! Replicated-router-tier integration tests: single-replica equivalence
//! with the pre-refactor engine (masked-JSON pattern, as for
//! `selector_batch`), gossip convergence, deterministic replay at
//! R > 1, and failover preemption with retry requeues.

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EngineReport, EventDrivenEngine, PoolOutage, ServingEngine};
use ic_llmsim::Generator;
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

fn run(config: EngineConfig, qps: f64, duration: f64, seed: u64) -> EngineReport {
    let (mut engine, mut wg) = seeded_engine(400, config, seed);
    let arrivals = fixed_qps_arrivals(qps, duration, seed ^ 0x5eed);
    let requests = wg.generate_requests(arrivals.len());
    engine.serve_workload(&requests, &arrivals)
}

/// Drops the `router` stats object — the one block the replicated tier
/// adds — from a report JSON (the same masking pattern the CI
/// determinism job applies with `sed`).
fn mask_router_block(json: &str) -> String {
    let start = json.find("\"router\":{").expect("router block present");
    let end = start + json[start..].find('}').expect("router block closes") + 2;
    format!("{}{}", &json[..start], &json[end..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The pre-refactor-equivalence property: an engine explicitly
    /// configured with one router replica is byte-identical to the
    /// default configuration — including the `router` block — no matter
    /// what the gossip period is set to (a single replica schedules no
    /// gossip and owns every request, i.e. the refactor's new machinery
    /// is provably inert at R = 1).
    #[test]
    fn single_replica_is_byte_identical_to_default(
        seed in 0u64..500,
        qps in 1.0f64..6.0,
        gossip_period_s in 0.0f64..30.0,
    ) {
        let default = run(EngineConfig::default(), qps, 30.0, seed);
        let explicit = run(
            EngineConfig {
                router_replicas: 1,
                gossip_period_s,
                pool_outages: Vec::new(),
                ..EngineConfig::default()
            },
            qps,
            30.0,
            seed,
        );
        prop_assert_eq!(default.to_json(), explicit.to_json());
    }
}

#[test]
fn replicated_run_is_deterministic_and_differs_only_in_shape_not_bytes() {
    // Same seed, same config, R = 4: byte-identical replay (the tier's
    // hash assignment, gossip ring and per-replica feedback are all
    // deterministic).
    let config = || EngineConfig {
        router_replicas: 4,
        gossip_period_s: 2.0,
        ..EngineConfig::default()
    };
    let a = run(config(), 4.0, 60.0, 77);
    let b = run(config(), 4.0, 60.0, 77);
    assert_eq!(a.to_json(), b.to_json());
    // The tier leaves a visible trace...
    assert_eq!(a.router.replicas, 4);
    assert_eq!(a.router.decisions.len(), 4);
    assert_eq!(
        a.router.decisions.iter().sum::<u64>(),
        a.served,
        "every request routed exactly once (no failovers injected)"
    );
    assert!(
        a.router.decisions.iter().all(|&d| d > 0),
        "hash assignment should hit every replica: {:?}",
        a.router.decisions
    );
    assert!(a.router.gossip_rounds > 0, "gossip must run at R > 1");
    assert!(a.router.merges > 0, "feedback must travel the ring");
    assert!(a.router.mean_staleness_s() >= 0.0);
    // ...and the masked report still carries the same schema as R = 1.
    let single = run(EngineConfig::default(), 4.0, 60.0, 77);
    assert_eq!(single.router.replicas, 1);
    assert_eq!(single.router.gossip_rounds, 0);
    assert_ne!(mask_router_block(&a.to_json()), a.to_json());
    assert_ne!(
        a.to_json(),
        single.to_json(),
        "four diverging bandits should route differently"
    );
}

#[test]
fn gossip_converges_replica_load_views_under_steady_traffic() {
    // Steady 6 rps for two minutes, four replicas gossiping every 2s:
    // by the end of the run every replica's smoothed load estimate must
    // sit within a tight band — the gossip-convergence acceptance test.
    let config = EngineConfig {
        router_replicas: 4,
        gossip_period_s: 2.0,
        ..EngineConfig::default()
    };
    let (mut engine, mut wg) = seeded_engine(400, config, 131);
    let arrivals = fixed_qps_arrivals(6.0, 120.0, 132);
    let requests = wg.generate_requests(arrivals.len());
    let report = engine.serve_workload(&requests, &arrivals);
    assert!(report.router.gossip_rounds >= 50);
    let estimates = engine.system().front_end().stats().load_estimates;
    assert_eq!(estimates.len(), 4);
    let lo = estimates.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = estimates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        lo > 0.0,
        "every replica must have a load view: {estimates:?}"
    );
    // Fresh local observations land between rounds, so the band is
    // looser than the pure-contraction bound pinned by the FrontEnd
    // unit test (`gossip_converges_load_estimates`) — but it must stay
    // a band, not a scatter.
    assert!(
        hi - lo < 0.5 * hi,
        "gossiped views must converge: {estimates:?}"
    );
    // Control: the same run with gossip disabled leaves the views
    // further apart (each replica only ever sees its own quarter of the
    // traffic and its own completions).
    let config = EngineConfig {
        router_replicas: 4,
        gossip_period_s: 0.0,
        ..EngineConfig::default()
    };
    let (mut engine2, mut wg2) = seeded_engine(400, config, 131);
    let requests2 = wg2.generate_requests(arrivals.len());
    let report2 = engine2.serve_workload(&requests2, &arrivals);
    assert_eq!(report2.router.gossip_rounds, 0);
    let isolated = engine2.system().front_end().stats().load_estimates;
    let lo2 = isolated.iter().copied().fold(f64::INFINITY, f64::min);
    let hi2 = isolated.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        (hi2 - lo2) / hi2.max(1e-9) > (hi - lo) / hi.max(1e-9),
        "gossip must tighten the spread: with {estimates:?} without {isolated:?}"
    );
}

#[test]
fn pool_failover_preempts_and_requeues_through_the_tier() {
    // Saturate the cluster, then take the offload pool (pool 0, where
    // the shed traffic lives) down mid-run: its queued + running jobs
    // must be flushed, retried on the healthy pool, and counted.
    let config = EngineConfig {
        router_replicas: 2,
        gossip_period_s: 2.0,
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
    // Regression: a failover retry used to re-enter the tier as a fresh
    // arrival, rolling a second routing decision (and a second round of
    // selector/bandit bookkeeping) for the same logical request. The
    // retry path must leave per-replica decision counts untouched, so
    // even with requeues in flight the tier records exactly one
    // decision per request.
    let config = EngineConfig {
        router_replicas: 2,
        gossip_period_s: 2.0,
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
        report.router.decisions.iter().sum::<u64>(),
        report.served,
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
        router_replicas: 2,
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
        router_replicas: 1,
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
