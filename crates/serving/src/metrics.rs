//! Serving metrics: latency percentiles and throughput.

use ic_kvmem::KvStats;
use ic_stats::Percentiles;

use crate::job::JobResult;

/// Aggregated serving metrics over a set of job results.
#[derive(Debug, Default)]
pub struct ServingMetrics {
    ttft: Percentiles,
    e2e: Percentiles,
    queue_wait: Percentiles,
    completions: Vec<f64>,
    rejected: u64,
    kv: KvStats,
}

impl ServingMetrics {
    /// Builds metrics from job results.
    pub fn from_results(results: &[JobResult]) -> Self {
        let mut m = Self::default();
        for r in results {
            m.ttft.record(r.ttft_secs());
            m.e2e.record(r.e2e_secs());
            m.queue_wait.record(r.queue_wait_secs());
            m.completions.push(r.completed.as_secs_f64());
        }
        m
    }

    /// Number of completed jobs.
    pub fn count(&self) -> usize {
        self.completions.len()
    }

    /// Records jobs dropped by pool queue caps (rejected jobs never
    /// complete, so they are invisible to the latency aggregates).
    pub fn set_rejected(&mut self, rejected: u64) {
        self.rejected = rejected;
    }

    /// Jobs rejected by pool queue caps (see
    /// [`crate::PoolConfig::max_queue`]).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Attaches the cluster's KV-memory counters (see
    /// [`crate::ClusterSim::kv_stats`]).
    pub fn set_kv(&mut self, kv: KvStats) {
        self.kv = kv;
    }

    /// Block-level KV-memory counters (all-zero unless attached via
    /// [`ServingMetrics::set_kv`]).
    pub fn kv(&self) -> KvStats {
        self.kv
    }

    /// Mean user-perceived TTFT in seconds.
    pub fn mean_ttft(&self) -> f64 {
        self.ttft.mean().unwrap_or(0.0)
    }

    /// Mean end-to-end latency in seconds.
    pub fn mean_e2e(&self) -> f64 {
        self.e2e.mean().unwrap_or(0.0)
    }

    /// Latency quantile of end-to-end time.
    pub fn e2e_quantile(&mut self, q: f64) -> f64 {
        self.e2e.quantile(q).unwrap_or(0.0)
    }

    /// Mean queueing delay in seconds.
    pub fn mean_queue_wait(&self) -> f64 {
        self.queue_wait.mean().unwrap_or(0.0)
    }

    /// Overall throughput: completions per second over the busy interval.
    pub fn throughput_rps(&self) -> f64 {
        busy_interval_rps(&self.completions)
    }
}

/// Completions per second over the busy interval of a completion-time
/// series (seconds). Fewer than two completions degenerate to the count.
pub fn busy_interval_rps(completions: &[f64]) -> f64 {
    if completions.len() < 2 {
        return completions.len() as f64;
    }
    let lo = completions.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = completions
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if hi <= lo {
        return completions.len() as f64;
    }
    completions.len() as f64 / (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use ic_desim::SimTime;

    #[test]
    fn rejected_count_is_surfaced() {
        let mut m = ServingMetrics::from_results(&[]);
        assert_eq!(m.rejected(), 0);
        m.set_rejected(7);
        assert_eq!(m.rejected(), 7);
    }

    fn result(id: u64, arrival: f64, start: f64, first: f64, done: f64) -> JobResult {
        JobResult {
            id: JobId(id),
            pool: 0,
            arrival: SimTime::from_secs_f64(arrival),
            started: SimTime::from_secs_f64(start),
            first_token: SimTime::from_secs_f64(first),
            completed: SimTime::from_secs_f64(done),
        }
    }

    #[test]
    fn aggregates_basic_latencies() {
        let rs = vec![result(0, 0.0, 0.0, 0.5, 2.0), result(1, 1.0, 2.0, 2.5, 4.0)];
        let mut m = ServingMetrics::from_results(&rs);
        assert_eq!(m.count(), 2);
        assert!((m.mean_ttft() - 1.0).abs() < 1e-9); // (0.5 + 1.5) / 2.
        assert!((m.mean_e2e() - 2.5).abs() < 1e-9); // (2 + 3) / 2.
        assert!((m.mean_queue_wait() - 0.5).abs() < 1e-9);
        assert!(m.e2e_quantile(1.0) >= m.e2e_quantile(0.5));
    }

    #[test]
    fn throughput_uses_busy_interval() {
        let rs = vec![
            result(0, 0.0, 0.0, 0.1, 1.0),
            result(1, 0.0, 0.0, 0.1, 2.0),
            result(2, 0.0, 0.0, 0.1, 3.0),
        ];
        let m = ServingMetrics::from_results(&rs);
        // 3 completions over [1, 3] => 1.5 rps.
        assert!((m.throughput_rps() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_neutral() {
        let mut m = ServingMetrics::from_results(&[]);
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean_ttft(), 0.0);
        assert_eq!(m.throughput_rps(), 0.0);
        assert_eq!(m.e2e_quantile(0.99), 0.0);
    }
}
