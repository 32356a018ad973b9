//! Stage-0 response-cache integration tests: cache-off inertness (the
//! knob must be provably byte-invisible when disabled), deterministic
//! replay with the cache on, the stampede guarantee (N identical
//! same-tick arrivals, each observed in the trending sketch as it is
//! looked up, miss until the sketch counts `prepop_min` of them, pay one
//! insertion and serve the rest from the cache), and lifecycle
//! well-formedness of the short-circuited hit path (`Stage0Hit` →
//! `Finish`, pool never touched).

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EngineReport, EventDrivenEngine, ServingEngine};
use ic_llmsim::Generator;
use ic_llmsim::{Request, RequestId};
use ic_obs::EventKind;
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

fn run_requests(config: EngineConfig, requests: &[Request], arrivals: &[f64]) -> EngineReport {
    let (mut engine, _) = seeded_engine(400, config, 7);
    engine.serve_workload(requests, arrivals)
}

fn cache_on() -> EngineConfig {
    EngineConfig {
        resp_cache: true,
        ..EngineConfig::default()
    }
}

/// Hits of an `n`-member same-tick stampede, derived from the stage-0
/// rules: member `k` is the sketch's `k + 1`-th sighting when it is
/// looked up, a served miss is admitted once the sketch counts
/// `prepop_min` sightings, and every member after the first admission
/// hits.
fn expected_stampede_hits(n: usize, prepop_min: u64) -> u64 {
    let first_admitted = (0..n)
        .find(|&k| k as u64 + 1 >= prepop_min)
        .expect("the stampede reaches prepop_min");
    (n - first_admitted - 1) as u64
}

/// A stampede trace: `n` copies of one request, all on the same tick,
/// followed by nothing — the worst case for cache insertion races.
fn stampede(n: usize, seed: u64) -> (Vec<Request>, Vec<f64>) {
    let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, seed, 10);
    let proto = wg.generate_requests(1).pop().expect("one request");
    let requests: Vec<Request> = (0..n)
        .map(|i| {
            let mut r = proto.clone();
            r.id = RequestId(i as u64);
            r
        })
        .collect();
    let arrivals = vec![0.0; n];
    (requests, arrivals)
}

#[test]
fn cache_off_is_byte_inert_even_with_knobs_set() {
    // The other resp_* knobs must be dead weight while the master
    // switch is off: byte-identical to the default configuration.
    let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, 7, 10);
    let arrivals = fixed_qps_arrivals(4.0, 30.0, 42);
    let requests = wg.generate_requests(arrivals.len());
    let default = run_requests(EngineConfig::default(), &requests, &arrivals);
    let knobbed = run_requests(
        EngineConfig {
            resp_cache: false,
            resp_threshold: 0.5,
            resp_budget_bytes: 1 << 30,
            resp_ttl_s: 1.0,
            resp_prepop_min: 1,
            resp_window_s: 1e9,
            ..EngineConfig::default()
        },
        &requests,
        &arrivals,
    );
    assert_eq!(default.to_json(), knobbed.to_json());
    assert_eq!(default.resp_cache.lookups, 0);
    assert_eq!(default.resp_cache.hits, 0);
}

#[test]
fn stampede_burst_pays_one_insertion_and_serves_the_rest() {
    // Eight identical arrivals on one tick: each is one sighting in the
    // frequency sketch, so the members miss until it counts
    // `prepop_min` of them, that miss is admitted and the rest hit.
    let n = 8;
    let prepop_min = EngineConfig::default().resp_prepop_min;
    let (requests, arrivals) = stampede(n, 99);
    let report = run_requests(cache_on(), &requests, &arrivals);
    assert_eq!(report.resp_cache.lookups, n as u64);
    let hits = expected_stampede_hits(n, prepop_min);
    assert_eq!(report.resp_cache.hits, hits, "{:?}", report.resp_cache);
    assert_eq!(
        report.resp_cache.prepopulations, 1,
        "one insertion, not a stampede"
    );
    assert_eq!(report.served, n as u64);
    // Only the misses reached the selector and the router.
    assert_eq!(report.router.decisions, [n as u64 - hits]);
    // Deterministic replay, hits included.
    let again = run_requests(cache_on(), &requests, &arrivals);
    assert_eq!(report.to_json(), again.to_json());
}

#[test]
fn stage0_hits_skip_the_pool_and_keep_lifecycle_well_formed() {
    let n = 6;
    let (requests, arrivals) = stampede(n, 123);
    let config = EngineConfig {
        trace: true,
        ..cache_on()
    };
    let prepop_min = config.resp_prepop_min;
    let report = run_requests(config, &requests, &arrivals);
    assert_eq!(
        report.resp_cache.hits,
        expected_stampede_hits(n, prepop_min)
    );
    let obs = report.obs.as_ref().expect("tracing was on");
    assert_eq!(obs.dropped, 0);
    let hits = obs
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Stage0Hit))
        .count();
    assert_eq!(hits as u64, report.resp_cache.hits);
    // Hit requests never touch a pool: no SlotStart on their streams,
    // and their critical path is queue-only but still well-formed.
    let paths = obs.critical_paths();
    assert_eq!(paths.len(), n);
    let mut stage0_paths = 0;
    for ev in &obs.events {
        if matches!(ev.kind, EventKind::Stage0Hit) {
            assert!(
                !obs.events
                    .iter()
                    .any(|e| e.request == ev.request
                        && matches!(e.kind, EventKind::SlotStart { .. })),
                "request {} hit stage 0 yet reached a pool slot",
                ev.request
            );
            let p = &paths[&ev.request];
            assert!(p.well_formed(), "{p:?}");
            stage0_paths += 1;
        }
    }
    assert_eq!(stage0_paths as u64, report.resp_cache.hits);
    // The served hits carry the fixed cache latency in the report.
    for rec in report.per_request.iter().skip(n - hits) {
        assert!(rec.e2e_s > 0.0 && rec.e2e_s < 0.01, "{:?}", rec.e2e_s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The stampede guarantee for any burst size and seed: N identical
    /// same-tick arrivals produce exactly one cache insertion and the
    /// hits the stage-0 rules derive, deterministically.
    #[test]
    fn stampede_hits_are_deterministic(packed in 0u64..1_500) {
        let n = 2 + (packed % 7) as usize; // 2..=8
        let seed = packed / 7;
        let (requests, arrivals) = stampede(n, seed);
        let report = run_requests(cache_on(), &requests, &arrivals);
        let prepop_min = cache_on().resp_prepop_min;
        prop_assert_eq!(report.resp_cache.hits, expected_stampede_hits(n, prepop_min));
        prop_assert_eq!(report.resp_cache.prepopulations, 1);
        let again = run_requests(cache_on(), &requests, &arrivals);
        prop_assert_eq!(report.to_json(), again.to_json());
    }
}
