//! Stage-0 response-cache acceptance tests on the e2e replay.
//!
//! Three contracts, CI-enforced end to end:
//!
//! 1. **Inertness** — a cache-off run is byte-identical to the
//!    committed golden for *any* setting of the other `resp_*` knobs
//!    (proptest).
//! 2. **Stampede** — on the burst-reshaped trace (every `n` same-tick
//!    arrivals carry one request) each burst pays at most one cache
//!    insertion and serves at least the `n - prepop_min` members after
//!    it from the cache, with byte-deterministic hit counts.
//! 3. **Latency** — on the trending workload the cache-on run has a
//!    non-zero hit ratio, admits trending responses and has a strictly
//!    better served-path p50 e2e latency than the cache-off run at
//!    identical traffic.

mod common;

use common::quick;
use ic_engine::EngineConfig;
use proptest::prelude::*;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/BENCH_e2e.quick.json"
);

fn cache_on() -> EngineConfig {
    EngineConfig {
        resp_cache: true,
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cache-off runs are byte-identical to the committed golden no
    /// matter how the other `resp_*` knobs are set — the master switch
    /// alone decides whether any cache machinery runs. One packed
    /// integer drives all four knobs (the vendored proptest has no
    /// tuple strategies).
    #[test]
    fn cache_off_matches_the_golden_at_any_resp_knobs(packed in 0u64..10_000) {
        let config = EngineConfig {
            resp_cache: false,
            resp_threshold: 0.5 + (packed % 10) as f64 * 0.05,
            resp_budget_bytes: 1 << (10 + (packed / 10 % 10) as u32),
            resp_ttl_s: 1.0 + (packed / 100 % 10) as f64 * 60.0,
            resp_prepop_min: 1 + packed / 1_000,
            ..EngineConfig::default()
        };
        let report = quick(config, 0);
        prop_assert_eq!(report.resp_cache.lookups, 0, "cache-off must never look up");
        let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file exists");
        prop_assert_eq!(report.to_json(), golden.trim_end());
    }

    /// The stampede guarantee at e2e scale: with every `n` consecutive
    /// arrivals collapsed onto one instant carrying one request, each
    /// arrival is one sighting in the trending sketch, so a burst
    /// misses until the sketch counts `prepop_min` members, admits
    /// that miss's response and serves the rest from it — hits ≥
    /// (n − prepop_min) · bursts and insertions ≤ bursts — with
    /// byte-deterministic counts.
    #[test]
    fn stampede_bursts_pay_one_insertion_each(n in 2u64..9) {
        let a = quick(cache_on(), n as usize);
        let b = quick(cache_on(), n as usize);
        prop_assert_eq!(a.to_json(), b.to_json(), "hit counts must replay byte-identically");
        let bursts = a.served.div_ceil(n); // Trailing partial burst included.
        let hits_per_burst = n.saturating_sub(cache_on().resp_prepop_min);
        prop_assert!(
            a.resp_cache.hits >= hits_per_burst * (a.served / n),
            "each full {}-burst must serve at least {} hits: {:?} over {} served",
            n, hits_per_burst, a.resp_cache, a.served
        );
        prop_assert!(
            a.resp_cache.prepopulations <= bursts,
            "stampedes must coalesce onto one insertion per burst: {:?} over {} bursts",
            a.resp_cache, bursts
        );
        prop_assert_eq!(a.resp_cache.lookups, a.served, "every arrival consults stage 0");
    }
}

/// The headline acceptance: on the trending workload the cache serves a
/// visible share of traffic and strictly improves the served-path p50
/// end-to-end latency over the identical cache-off run.
#[test]
fn trending_workload_hits_and_improves_p50() {
    let on = quick(cache_on(), 8);
    let off = quick(EngineConfig::default(), 8);
    assert!(
        on.resp_cache.hit_ratio() > 0.0,
        "the trending trace must produce stage-0 hits: {:?}",
        on.resp_cache
    );
    assert!(
        on.resp_cache.prepopulations > 0,
        "trending misses must be admitted into the store: {:?}",
        on.resp_cache
    );
    assert_eq!(on.served, off.served, "identical traffic on both sides");
    assert!(
        on.latency.p50_e2e < off.latency.p50_e2e,
        "stage-0 hits must strictly improve served-path p50: on {} vs off {}",
        on.latency.p50_e2e,
        off.latency.p50_e2e
    );
    // The skipped work is visible end to end: fewer selector-served
    // requests and fewer pool steps than the cache-off run.
    assert!(
        on.iter.steps < off.iter.steps,
        "hits must skip the pool path"
    );
}
