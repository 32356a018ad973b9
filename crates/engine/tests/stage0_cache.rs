//! Stage-0 response-cache integration tests: cache-off inertness (the
//! knob must be provably byte-invisible when disabled), deterministic
//! replay with the cache on, the stampede guarantee (N identical
//! same-tick arrivals pay one insertion and serve the rest from the
//! cache), what `EngineConfig::selector_batch` caps (the same-tick run
//! the trending sketch pre-observes), and lifecycle well-formedness of
//! the short-circuited hit path (`Stage0Hit` → `Finish`, pool never
//! touched).
//!
//! The cap tests bite: pre-observing with `cap = 1` whatever the config
//! says (`tick_cap: 1` in `ArrivalCursor::new`) fails
//! `same_tick_cap_bounds_the_run_the_sketch_pre_observes` at caps 4, 8
//! and 64; dropping the `t == at` bound from the run fails
//! `pre_observation_never_crosses_a_tick_boundary`.

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

fn cache_on(selector_batch: usize) -> EngineConfig {
    EngineConfig {
        resp_cache: true,
        selector_batch,
        ..EngineConfig::default()
    }
}

/// Hits of an `n`-member same-tick stampede under same-tick cap `cap`,
/// derived from the stage-0 rules: the head of every run of `cap`
/// members observes its run in the sketch, a served miss is admitted
/// once the sketch counts `prepop_min` sightings, and every member
/// after the first admission hits.
fn expected_stampede_hits(n: usize, cap: usize, prepop_min: u64) -> u64 {
    let cap = cap.max(1);
    let observed_when_served = |k: usize| ((k / cap + 1) * cap).min(n) as u64;
    let first_admitted = (0..n)
        .find(|&k| observed_when_served(k) >= prepop_min)
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
    // Eight identical arrivals on one tick under a cap of eight: the
    // first miss is admitted (the whole run lands in the frequency
    // sketch before anyone is served), the other seven hit.
    let n = 8;
    let (requests, arrivals) = stampede(n, 99);
    let report = run_requests(cache_on(n), &requests, &arrivals);
    assert_eq!(report.resp_cache.lookups, n as u64);
    assert_eq!(
        report.resp_cache.hits,
        n as u64 - 1,
        "{:?}",
        report.resp_cache
    );
    assert_eq!(
        report.resp_cache.prepopulations, 1,
        "one insertion, not a stampede"
    );
    assert_eq!(report.served, n as u64);
    // The selector served only the single miss.
    assert_eq!(report.selector.requests, 1, "{:?}", report.selector);
    // Deterministic replay, hits included.
    let again = run_requests(cache_on(n), &requests, &arrivals);
    assert_eq!(report.to_json(), again.to_json());
}

#[test]
fn same_tick_cap_bounds_the_run_the_sketch_pre_observes() {
    let n = 12;
    let (requests, arrivals) = stampede(n, 99);
    let hits_at = |cap: usize, prepop_min: u64| {
        let config = EngineConfig {
            resp_prepop_min: prepop_min,
            ..cache_on(cap)
        };
        let report = run_requests(config, &requests, &arrivals);
        let stats = report.resp_cache;
        assert_eq!(stats.lookups, n as u64);
        assert_eq!(
            stats.hits,
            expected_stampede_hits(n, cap, prepop_min),
            "cap {cap}, prepop_min {prepop_min}: {stats:?}"
        );
        // Selection is one probe per arrival past stage 0, whatever
        // the cap; the block only echoes it.
        let selector = report.selector;
        assert_eq!(selector.batch_limit, cap as u64);
        assert_eq!(selector.requests, n as u64 - stats.hits);
        assert_eq!(selector.batches, selector.requests);
        assert!(selector.max_batch <= 1, "{selector:?}");
        stats.hits
    };
    // Caps 0 and 1 observe each member on its own, so the default
    // `prepop_min = 2` admits the second miss; a cap covering two or
    // more members admits the first.
    let prepop_min = EngineConfig::default().resp_prepop_min;
    assert_eq!(hits_at(0, prepop_min), hits_at(1, prepop_min));
    assert_eq!(hits_at(8, prepop_min), hits_at(64, prepop_min));
    assert_eq!(hits_at(1, prepop_min) + 1, hits_at(8, prepop_min));
    // A cap shorter than the run splits it: at `prepop_min = 5` a cap
    // of 4 leaves the first run under the bar, so its four members
    // all miss and the second run's head is the first admission.
    assert_eq!(hits_at(4, 5) + 4, hits_at(64, 5));
}

#[test]
fn pre_observation_never_crosses_a_tick_boundary() {
    // One arrival, then six copies of it 1 µs later. The lone head
    // sees a sketch count of one and is not admitted however large
    // the cap; the next tick's head is, and its five followers hit.
    let later = 6;
    let (requests, mut arrivals) = stampede(1 + later, 99);
    arrivals[1..].fill(1e-6);
    let stats = run_requests(cache_on(64), &requests, &arrivals).resp_cache;
    assert_eq!(stats.hits, later as u64 - 1, "{stats:?}");
    assert_eq!(stats.prepopulations, 1);
}

#[test]
fn stage0_hits_skip_the_pool_and_keep_lifecycle_well_formed() {
    let n = 6;
    let (requests, arrivals) = stampede(n, 123);
    let config = EngineConfig {
        trace: true,
        ..cache_on(n)
    };
    let report = run_requests(config, &requests, &arrivals);
    assert_eq!(report.resp_cache.hits, n as u64 - 1);
    let obs = report.obs.as_ref().expect("tracing was on");
    assert_eq!(obs.dropped, 0);
    let hits = obs
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Stage0Hit { .. }))
        .count();
    assert_eq!(hits as u64, report.resp_cache.hits);
    // Hit requests never touch a pool: no SlotStart on their streams,
    // and their critical path is queue-only but still well-formed.
    let paths = obs.critical_paths();
    assert_eq!(paths.len(), n);
    let mut stage0_paths = 0;
    for ev in &obs.events {
        if matches!(ev.kind, EventKind::Stage0Hit { .. }) {
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
    for rec in report.per_request.iter().skip(1) {
        assert!(rec.e2e_s > 0.0 && rec.e2e_s < 0.01, "{:?}", rec.e2e_s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The stampede guarantee for any burst size and seed: N identical
    /// same-tick arrivals produce exactly one cache insertion and
    /// N − 1 hits, deterministically.
    #[test]
    fn stampede_hits_are_deterministic(packed in 0u64..1_500) {
        let n = 2 + (packed % 7) as usize; // 2..=8
        let seed = packed / 7;
        let (requests, arrivals) = stampede(n, seed);
        let report = run_requests(cache_on(8), &requests, &arrivals);
        prop_assert_eq!(report.resp_cache.hits, n as u64 - 1);
        prop_assert_eq!(report.resp_cache.prepopulations, 1);
        let again = run_requests(cache_on(8), &requests, &arrivals);
        prop_assert_eq!(report.to_json(), again.to_json());
    }
}
