//! Observability lifecycle properties: with tracing on, every arrival's
//! recorded event stream must be *well-formed* — exactly one terminal
//! event, timestamps that never go backwards, and critical-path phase
//! buckets that account for every microsecond between arrival and
//! terminal — and the reconstruction must agree with the report's own
//! per-request latencies. The property is exercised under the three
//! disruptive schedules (quantum preemption, memory-pressure swap, and
//! pool-outage failover), plus the parallel replay, whose merged event
//! stream must be identical to the sequential one.

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EngineReport, EventDrivenEngine, PoolOutage, ServingEngine};
use ic_llmsim::Generator;
use ic_obs::EventKind;
use ic_workloads::{Dataset, WorkloadGenerator, fixed_qps_arrivals};
use proptest::prelude::*;

fn run(config: EngineConfig, qps: f64, duration: f64, seed: u64) -> EngineReport {
    let sys_cfg = IcCacheConfig::gemma_pair();
    let large = sys_cfg.primary;
    let large_spec = sys_cfg.catalog.get(large).clone();
    let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, seed, 400);
    let examples = wg.generate_examples(400, &large_spec, large, &Generator::new());
    let mut system = IcCacheSystem::new(sys_cfg);
    system.seed_examples(examples, 0.0);
    let mut engine = EventDrivenEngine::new(system, config);
    let arrivals = fixed_qps_arrivals(qps, duration, seed ^ 0x5eed);
    let requests = wg.generate_requests(arrivals.len());
    engine.serve_workload(&requests, &arrivals)
}

/// The well-formedness contract, checked for every request of a traced
/// run: one critical path per request record, exactly one terminal
/// event, monotone timestamps, exact phase-bucket accounting, and
/// agreement with the report's seconds-valued per-request latencies
/// (span vs `e2e_s` within float-formatting tolerance).
fn assert_streams_well_formed(report: &EngineReport) {
    let obs = report.obs.as_ref().expect("tracing was on");
    assert_eq!(obs.dropped, 0, "test rings must not wrap");
    assert!(
        obs.events.windows(2).all(|w| w[0].at <= w[1].at),
        "merged stream must be globally time-ordered"
    );
    let paths = obs.critical_paths();
    assert_eq!(
        paths.len(),
        report.per_request.len(),
        "one critical path per served request"
    );
    for rec in &report.per_request {
        let p = paths
            .get(&(rec.index as u64))
            .unwrap_or_else(|| panic!("request {} has no event stream", rec.index));
        assert!(
            p.well_formed(),
            "request {} stream ill-formed: {p:?}",
            rec.index
        );
        assert_eq!(
            p.rejected, rec.rejected,
            "request {} terminal kind disagrees with its record",
            rec.index
        );
        let span_s = p.span_us() as f64 / 1e6;
        let record_s = if rec.rejected { 0.0 } else { rec.e2e_s };
        assert!(
            (span_s - record_s).abs() < 1e-5,
            "request {}: event span {span_s}s vs record e2e {record_s}s",
            rec.index
        );
    }
}

fn count_kind(report: &EngineReport, pred: impl Fn(&EventKind) -> bool) -> usize {
    report
        .obs
        .as_ref()
        .expect("tracing was on")
        .events
        .iter()
        .filter(|e| pred(&e.kind))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The core property over randomly disrupted schedules: any mix of
    /// decode-quantum preemption, tight KV budgets (pressure swap), and
    /// a mid-run pool outage (failover flush + retry) still yields a
    /// well-formed stream for every request.
    #[test]
    fn traced_streams_are_well_formed_under_disruption(
        seed in 0u64..500,
        qps in 8.0f64..20.0,
        // 0 disables the quantum; 1..6 force preemption churn.
        quantum in 0u32..6,
        // 0 keeps the default budget; otherwise a tight 24..56-block one.
        kv_budget in (0u32..5).prop_map(|b| if b == 0 { 0 } else { 16 + 8 * b }),
        outage in (0u32..2).prop_map(|v| v == 1),
    ) {
        let mut config = EngineConfig {
            trace: true,
            preempt_decode_quantum: quantum,
            ..EngineConfig::default()
        };
        if kv_budget > 0 {
            config.kv_block_tokens = 16;
            config.kv_budget_blocks = kv_budget;
        }
        if outage {
            config.router_replicas = 2;
            config.pool_outages = vec![PoolOutage {
                pool: 0,
                at_s: 5.0,
                duration_s: 10.0,
            }];
        }
        let report = run(config, qps, 25.0, seed);
        assert_streams_well_formed(&report);
    }
}

#[test]
fn preemption_events_are_recorded_and_streams_stay_well_formed() {
    // A 2-token decode quantum under saturating load: sequences must
    // yield and re-queue, and the preempt/re-admission cycles must not
    // break the phase accounting.
    let report = run(
        EngineConfig {
            trace: true,
            preempt_decode_quantum: 2,
            ..EngineConfig::default()
        },
        30.0,
        20.0,
        101,
    );
    assert!(report.iter.preemptions > 0, "quantum must trigger");
    assert_eq!(
        count_kind(&report, |k| matches!(k, EventKind::QuantumPreempt)) as u64,
        report.iter.preemptions,
        "one QuantumPreempt event per counted preemption"
    );
    assert_streams_well_formed(&report);
}

#[test]
fn pressure_swap_events_are_recorded_and_streams_stay_well_formed() {
    // A KV budget far below the working set: the pools must swap
    // sequences out and resume them, and the swapped-out wait must land
    // in the swap bucket, not leak into queue or decode time.
    let report = run(
        EngineConfig {
            trace: true,
            kv_block_tokens: 16,
            kv_budget_blocks: 32,
            ..EngineConfig::default()
        },
        20.0,
        20.0,
        211,
    );
    assert!(report.kv.swap_outs > 0, "budget must force swaps");
    assert!(count_kind(&report, |k| matches!(k, EventKind::PressureSwapOut { .. })) > 0);
    assert!(count_kind(&report, |k| matches!(k, EventKind::Resumed { .. })) > 0);
    assert_streams_well_formed(&report);
    let paths = report.obs.as_ref().unwrap().critical_paths();
    assert!(
        paths.values().any(|p| p.swap_us > 0),
        "some request must have waited swapped out"
    );
}

#[test]
fn failover_events_are_recorded_and_streams_stay_well_formed() {
    // The IC_POOL_OUTAGE schedule: pool 0 dies mid-run under
    // saturation, its flushed jobs retry on the healthy pool, and the
    // discarded progress must be charged to retry overhead.
    let report = run(
        EngineConfig {
            trace: true,
            router_replicas: 2,
            gossip_period_s: 2.0,
            pool_outages: vec![PoolOutage {
                pool: 0,
                at_s: 10.0,
                duration_s: 20.0,
            }],
            ..EngineConfig::default()
        },
        30.0,
        40.0,
        211,
    );
    assert!(report.router.failover_requeues > 0, "flush must catch work");
    assert_eq!(
        count_kind(&report, |k| matches!(k, EventKind::FailoverFlush { .. })) as u64,
        report.router.failover_requeues,
        "one FailoverFlush event per requeued job"
    );
    assert_eq!(
        count_kind(&report, |k| matches!(k, EventKind::PoolDown { .. })),
        1
    );
    assert_eq!(
        count_kind(&report, |k| matches!(k, EventKind::PoolUp { .. })),
        1
    );
    assert_streams_well_formed(&report);
    let paths = report.obs.as_ref().unwrap().critical_paths();
    assert!(
        paths.values().any(|p| p.retry_us > 0),
        "some flushed request must carry retry overhead"
    );
}
