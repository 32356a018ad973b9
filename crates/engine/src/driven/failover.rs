//! Pool-outage handlers (`EngineConfig::pool_outages`).

use ic_desim::SimTime;
use ic_obs::{EventKind as ObsKind, NO_REQUEST};

use super::state::EngineState;

impl EngineState<'_> {
    /// Marks the model down first so the retries below (and all future
    /// arrivals) route around it, then flushes everything the pool held
    /// — running sequences free their KV blocks through the normal
    /// kvmem release path — and re-enqueues each job through the router
    /// tier as a retry. Overlapping outage windows nest: the depth
    /// counter keeps the pool down until the last window's recovery.
    /// Clearing the armed slot drops the flushed lineage's pending step
    /// boundary.
    pub(super) fn on_pool_down(&mut self, pool: usize, at: SimTime) {
        let model = self.model_pools[pool].0;
        self.system.failover_mut().set_model_healthy(model, false);
        self.down_depth[pool] += 1;
        self.armed[pool] = None;
        self.trace(at, NO_REQUEST, ObsKind::PoolDown { pool: pool as u32 });
        let flushed = self.pools[pool].fail_over();
        for job in flushed {
            let i = job.0 as usize;
            self.failover_requeues += 1;
            self.trace(at, job.0, ObsKind::FailoverFlush { pool: pool as u32 });
            // The first serving never completed: withdraw its
            // contributions before the retry re-tallies.
            let old = self.records[i].as_ref().expect("flushed job was served");
            let arrival = SimTime::from_secs_f64(old.arrival_s);
            self.tally.apply(old, false);
            // Retry: a fresh selection + routing decision at the owning
            // replica (the down model is excluded by the failover
            // state) and a fresh generation — through the stats-neutral
            // retry path, so the already-counted request is not
            // double-probed into the selector/router stats and no
            // bandit feedback is absorbed twice. Retries bypass stage 0
            // (a cached answer cannot be re-offered for a request the
            // tier already answered once) and `update_cache` (the
            // request's pair was already admitted at its arrival).
            let out = self.system.serve_retry(&self.requests[i]);
            self.dispatch(i, &out, arrival, true);
        }
    }

    /// Recovers the pool only when the outermost outage window closes
    /// (nested windows each delivered a `PoolDown`).
    pub(super) fn on_pool_up(&mut self, pool: usize, at: SimTime) {
        self.trace(at, NO_REQUEST, ObsKind::PoolUp { pool: pool as u32 });
        self.down_depth[pool] = self.down_depth[pool].saturating_sub(1);
        if self.down_depth[pool] == 0 {
            let model = self.model_pools[pool].0;
            self.system.failover_mut().set_model_healthy(model, true);
        }
    }
}
