//! Time-series telemetry: periodic cluster snapshots and their
//! byte-deterministic JSONL serialization.
//!
//! The engine arms an `ic_desim::Periodic` sampler; every firing builds
//! one [`TelemetrySample`] from live pool and router state. Samples
//! serialize with a fixed key order and fixed-precision floats
//! (`{:.6}`), so two replays of the same seed produce byte-identical
//! JSONL artifacts.

use std::fmt::Write as _;

/// Formats a float with the repo-wide fixed artifact precision.
pub(crate) fn f6(x: f64) -> String {
    format!("{x:.6}")
}

/// Per-pool gauges captured at one sample instant.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSample {
    /// Jobs waiting for first admission.
    pub queue: u32,
    /// Sequences occupying slots.
    pub active: u32,
    /// Sequences swapped out under memory pressure.
    pub swapped: u32,
    /// KV blocks allocated across the pool's replicas.
    pub kv_used_blocks: u64,
    /// Allocated fraction of the pool's KV budget (0 when unpaged).
    pub kv_occupancy: f64,
    /// Mean sequences per iteration since the run started.
    pub mean_step_batch: f64,
}

impl PoolSample {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            concat!(
                "{{\"queue\":{},\"active\":{},\"swapped\":{},",
                "\"kv_used_blocks\":{},\"kv_occupancy\":{},\"mean_step_batch\":{}}}"
            ),
            self.queue,
            self.active,
            self.swapped,
            self.kv_used_blocks,
            f6(self.kv_occupancy),
            f6(self.mean_step_batch),
        );
    }
}

/// One cluster-wide snapshot emitted by the periodic sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySample {
    /// Sample instant, microseconds since simulation start.
    pub t_us: u64,
    /// Requests that have left the system (served or rejected).
    pub completed: u64,
    /// Offers dropped by pool queue caps (fresh arrivals).
    pub queue_rejects: u64,
    /// Failover retries dropped by pool queue caps.
    pub retry_rejects: u64,
    /// Jobs flushed and re-enqueued by pool failovers.
    pub failover_requeues: u64,
    /// Running e2e latency percentiles over completions so far (0 when
    /// none yet).
    pub p50_e2e_s: f64,
    /// See [`TelemetrySample::p50_e2e_s`].
    pub p99_e2e_s: f64,
    /// Running TTFT percentiles over completions so far.
    pub p50_ttft_s: f64,
    /// See [`TelemetrySample::p50_ttft_s`].
    pub p99_ttft_s: f64,
    /// Per-pool gauges, in routing order.
    pub pools: Vec<PoolSample>,
    /// The router's smoothed load estimate.
    pub load_estimate: f64,
    /// Routing decisions so far.
    pub decisions: u64,
}

impl TelemetrySample {
    /// Serializes the sample as one JSONL line (no trailing newline),
    /// with fixed key order and fixed-precision floats.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            concat!(
                "{{\"kind\":\"sample\",\"t_s\":{},\"completed\":{},",
                "\"queue_rejects\":{},\"retry_rejects\":{},\"failover_requeues\":{},",
                "\"p50_e2e_s\":{},\"p99_e2e_s\":{},\"p50_ttft_s\":{},\"p99_ttft_s\":{},",
                "\"pools\":["
            ),
            f6(self.t_us as f64 / 1e6),
            self.completed,
            self.queue_rejects,
            self.retry_rejects,
            self.failover_requeues,
            f6(self.p50_e2e_s),
            f6(self.p99_e2e_s),
            f6(self.p50_ttft_s),
            f6(self.p99_ttft_s),
        );
        for (i, p) in self.pools.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            p.write_json(&mut out);
        }
        let _ = write!(
            out,
            "],\"router\":{{\"load_estimate\":{},\"decisions\":{}}}}}",
            f6(self.load_estimate),
            self.decisions,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySample {
        TelemetrySample {
            t_us: 60_000_000,
            completed: 42,
            queue_rejects: 1,
            retry_rejects: 0,
            failover_requeues: 3,
            p50_e2e_s: 1.25,
            p99_e2e_s: 4.5,
            p50_ttft_s: 0.25,
            p99_ttft_s: 0.75,
            pools: vec![PoolSample {
                queue: 2,
                active: 8,
                swapped: 1,
                kv_used_blocks: 120,
                kv_occupancy: 0.46875,
                mean_step_batch: 7.5,
            }],
            load_estimate: 0.5,
            decisions: 20,
        }
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let line = sample().to_json();
        assert_eq!(line, sample().to_json());
        assert!(line.starts_with("{\"kind\":\"sample\",\"t_s\":60.000000,"));
        assert!(line.contains("\"pools\":[{\"queue\":2,\"active\":8,\"swapped\":1,"));
        assert!(line.ends_with(",\"router\":{\"load_estimate\":0.500000,\"decisions\":20}}"));
        let opens = line.matches(['{', '[']).count();
        let closes = line.matches(['}', ']']).count();
        assert_eq!(opens, closes);
        assert!(!line.contains('\n'));
    }
}
