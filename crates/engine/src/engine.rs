//! The [`ServingEngine`] trait.

use ic_cache::IcCacheSystem;
use ic_llmsim::Request;

use crate::report::{CacheStats, EngineReport};

/// A serving path that can replay a timed workload through IC-Cache.
///
/// Implementations own an [`IcCacheSystem`] and decide how execution
/// time is modelled: [`crate::EventDrivenEngine`] queues every request
/// on a simulated GPU cluster with continuous batching.
pub trait ServingEngine {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Serves `requests[i]` at time `arrivals[i]` (seconds, in any
    /// order: they fire in `(time, i)` order) and returns aggregate
    /// metrics.
    ///
    /// # Panics
    ///
    /// Panics if `requests` and `arrivals` lengths differ, or if an
    /// arrival is not a finite time ≥ 0.
    fn serve_workload(&mut self, requests: &[Request], arrivals: &[f64]) -> EngineReport;

    /// Read access to the underlying system.
    fn system(&self) -> &IcCacheSystem;

    /// Mutable access to the underlying system (seeding, fault
    /// injection).
    fn system_mut(&mut self) -> &mut IcCacheSystem;
}

/// Builds the end-of-run cache statistics from a system.
pub(crate) fn cache_stats(
    system: &IcCacheSystem,
    selection_hits: u64,
    examples_used: u64,
    evicted: u64,
) -> CacheStats {
    let cache = system.manager().cache();
    let (admitted, rejected) = system.manager().admission_stats();
    CacheStats {
        examples: cache.len(),
        bytes: cache.total_bytes(),
        selection_hits,
        examples_used,
        admitted,
        rejected,
        evicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, EventDrivenEngine};
    use ic_cache::IcCacheConfig;
    use ic_workloads::{Dataset, WorkloadGenerator};

    /// The trait's documented panic, on its one implementor.
    #[test]
    #[should_panic(expected = "one arrival time per request")]
    fn mismatched_lengths_panic() {
        let system = IcCacheSystem::new(IcCacheConfig::gemma_pair());
        let mut engine = EventDrivenEngine::new(system, EngineConfig::default());
        let requests = WorkloadGenerator::sized(Dataset::MsMarco, 301, 10).generate_requests(3);
        let _ = engine.serve_workload(&requests, &[0.0]);
    }
}
