//! Event order around the arrival cursor. Arrivals are not heap events:
//! arrival `i` fires under the key `(time, i)`, below the seq of anything
//! the run schedules, so at one instant every arrival goes before every
//! periodic source, outage edge and step boundary, and arrivals among
//! themselves go in `(time, index)` order whatever order the workload
//! lists them in. The engine lane of a traced run keeps its recording
//! order (`Recorder::finish` sorts stably by `(time, lane)`), so the
//! order events were *handled* in is the order they read here.
//!
//! Mutations that bite: comparing the cursor and the heap head on time
//! alone with the heap first, or dropping `sim.reserve_seqs(n)` in
//! `EngineState::new` (the first gossip round then draws seq 0), puts
//! the round and the outage edge before their same-instant arrival;
//! building the cursor without sorting fails the unsorted workload.

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EngineReport, EventDrivenEngine, PoolOutage, ServingEngine};
use ic_llmsim::Generator;
use ic_obs::{EventKind, ObsEvent};
use ic_workloads::{Dataset, WorkloadGenerator};

fn run(config: EngineConfig, arrivals: &[f64]) -> EngineReport {
    let sys_cfg = IcCacheConfig::gemma_pair();
    let large = sys_cfg.primary;
    let large_spec = sys_cfg.catalog.get(large).clone();
    let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, 611, 200);
    let examples = wg.generate_examples(200, &large_spec, large, &Generator::new());
    let mut system = IcCacheSystem::new(sys_cfg);
    system.seed_examples(examples, 0.0);
    let mut engine = EventDrivenEngine::new(system, config);
    let requests = wg.generate_requests(arrivals.len());
    engine.serve_workload(&requests, arrivals)
}

fn traced() -> EngineConfig {
    EngineConfig {
        trace: true,
        ..EngineConfig::default()
    }
}

/// The engine-lane events of a traced report, in handling order.
fn engine_lane(report: &EngineReport) -> Vec<&ObsEvent> {
    let obs = report.obs.as_ref().expect("tracing was on");
    assert_eq!(obs.dropped, 0);
    obs.events.iter().filter(|e| e.lane == 0).collect()
}

fn position(lane: &[&ObsEvent], what: &str, pred: impl Fn(&ObsEvent) -> bool) -> usize {
    (lane.iter().position(|e| pred(e))).unwrap_or_else(|| panic!("no {what} in the trace"))
}

#[test]
fn an_arrival_goes_before_a_periodic_event_at_its_microsecond() {
    // The first gossip round is scheduled for exactly 5 s — where the
    // workload's *last* arrival (index 7, the largest seq) lands too.
    let arrivals = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 5.0];
    let report = run(
        EngineConfig {
            router_replicas: 2,
            gossip_period_s: 5.0,
            ..traced()
        },
        &arrivals,
    );
    let lane = engine_lane(&report);
    let round = position(&lane, "gossip round", |e| {
        matches!(e.kind, EventKind::GossipRound { .. })
    });
    let arrival = position(&lane, "arrival of request 7", |e| {
        e.request == 7 && matches!(e.kind, EventKind::Arrival { .. })
    });
    assert_eq!(lane[round].at, lane[arrival].at, "same microsecond");
    assert!(
        arrival < round,
        "arrival at {arrival}, round at {round}: {lane:?}"
    );
    assert_eq!(report.served, 8);
}

#[test]
fn unsorted_arrivals_with_exact_ties_fire_in_time_then_index_order() {
    let arrivals = [3.0, 1.0, 1.0, 2.0, 1.0, 0.5, 3.0];
    let report = run(traced(), &arrivals);
    let fired: Vec<u64> = engine_lane(&report)
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Arrival { .. }))
        .map(|e| e.request)
        .collect();
    assert_eq!(fired, vec![5, 1, 2, 4, 3, 0, 6]);
    // Each record still belongs to the request the workload listed there.
    for (i, record) in report.per_request.iter().enumerate() {
        assert_eq!((record.index, record.arrival_s), (i, arrivals[i]));
    }
}

#[test]
fn an_empty_workload_runs_to_an_empty_report() {
    let report = run(
        EngineConfig {
            router_replicas: 2,
            maintenance_period_s: 30.0,
            obs_sample_s: 10.0,
            pool_outages: vec![PoolOutage {
                pool: 0,
                at_s: 0.0,
                duration_s: 5.0,
            }],
            ..traced()
        },
        &[],
    );
    assert_eq!(report.served, 0);
    assert!(report.per_request.is_empty());
    assert_eq!(report.replay.regions, 0);
}

#[test]
fn an_outage_at_time_zero_starts_behind_the_arrivals_of_time_zero() {
    // Three arrivals at t = 0 and the outage edge at t = 0: the edge was
    // scheduled (seq >= n) and the arrivals were not, so all three are
    // served — and offered to their pools — before pool 0 goes down and
    // flushes what it was handed.
    let arrivals = [0.0, 0.0, 0.0, 4.0];
    let report = run(
        EngineConfig {
            pool_outages: vec![PoolOutage {
                pool: 0,
                at_s: 0.0,
                duration_s: 2.0,
            }],
            ..traced()
        },
        &arrivals,
    );
    let lane = engine_lane(&report);
    let down = position(&lane, "pool-down edge", |e| {
        matches!(e.kind, EventKind::PoolDown { .. })
    });
    let before: Vec<u64> = lane[..down]
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Arrival { .. }))
        .map(|e| e.request)
        .collect();
    assert_eq!(before, vec![0, 1, 2]);
    assert_eq!(report.served, 4);
    assert!(report.per_request.iter().all(|r| !r.rejected));
}
