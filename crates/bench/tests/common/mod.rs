//! The quick-scale replay the e2e tests share, optionally reshaped into
//! same-instant bursts of one request.

use ic_bench::Scale;
use ic_bench::experiments::e2e::E2eRun;
use ic_engine::{EngineConfig, EngineReport, ServingEngine};
use ic_workloads::Dataset;

/// The quick-scale MS MARCO run under `config`. With `burst >= 2` every
/// run of `burst` consecutive arrivals collapses onto the run's first
/// arrival instant, all carrying the run's first request: the selector
/// hands each member the same example set, the KV pools see `burst`
/// concurrent sequences with one example prefix, and stage 0 sees a
/// stampede. Traffic volume is unchanged. The natural trace has
/// neither (no two arrivals share a microsecond), so this is the
/// traffic the stampede tests and the `kv_share` inertness pin need.
pub fn quick(config: EngineConfig, burst: usize) -> EngineReport {
    let (mut engine, mut requests, mut arrivals, _) =
        E2eRun::with(Scale::quick(), Dataset::MsMarco, &config).parts();
    if burst >= 2 {
        for i in (0..requests.len()).filter(|i| i % burst != 0) {
            let head = i - i % burst;
            requests[i] = requests[head].clone();
            arrivals[i] = arrivals[head];
        }
    }
    engine.serve_workload(&requests, &arrivals)
}
