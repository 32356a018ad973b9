//! Jobs: what the cluster executes.

use ic_desim::SimTime;

/// Unique id of a serving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// One request's execution demand, computed upstream from the generation
/// simulator (zero-load costs; the cluster adds queueing and contention).
///
/// Token counts drive the iteration-level scheduler in
/// [`crate::ModelPool`]: prefill is processed in chunks of
/// `prefill_chunk_tokens` and decode one token per iteration, with the
/// zero-load seconds spread uniformly across the tokens of each phase.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job id (usually the request id).
    pub id: JobId,
    /// Target pool index in the cluster.
    pub pool: usize,
    /// Arrival time.
    pub arrival: SimTime,
    /// Zero-load prefill latency in seconds (includes fixed overhead).
    pub ttft_secs: f64,
    /// Zero-load decode time in seconds.
    pub decode_secs: f64,
    /// Prompt length in tokens (prefill work; clamped to at least one
    /// token of work by the scheduler).
    pub prefill_tokens: u32,
    /// Output length in tokens (decode work; zero-output jobs finish at
    /// the end of prefill).
    pub decode_tokens: u32,
    /// Inert: nothing reads it (pressure victims are the longest
    /// remaining decode first). The field stays only because the frozen
    /// `benchmark/src/layers.rs` (`priority: 0`) names it in a struct
    /// literal, and goes when a benchmark-owning PR drops that line.
    #[doc(hidden)]
    pub priority: u8,
    /// Inert and always `None`: its type holds no value. Every sequence
    /// allocates its KV privately. The field stays only because the
    /// frozen `benchmark/src/layers.rs` (`share: None`) names it in a
    /// struct literal, and goes when a benchmark-owning PR drops that
    /// line.
    #[doc(hidden)]
    pub share: Option<std::convert::Infallible>,
}

/// The measured outcome of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job id.
    pub id: JobId,
    /// Pool that served it.
    pub pool: usize,
    /// Arrival time.
    pub arrival: SimTime,
    /// When a slot was granted (arrival + queueing delay).
    pub started: SimTime,
    /// When the first output token was emitted: the end of the job's
    /// first decode iteration (not the end of prefill).
    pub first_token: SimTime,
    /// When the last token was emitted.
    pub completed: SimTime,
}

impl JobResult {
    /// Queueing delay in seconds.
    pub fn queue_wait_secs(&self) -> f64 {
        (self.started - self.arrival).as_secs_f64()
    }

    /// User-perceived time-to-first-token (queueing + prefill), seconds.
    pub fn ttft_secs(&self) -> f64 {
        (self.first_token - self.arrival).as_secs_f64()
    }

    /// End-to-end completion time, seconds.
    pub fn e2e_secs(&self) -> f64 {
        (self.completed - self.arrival).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_latencies_are_consistent() {
        let r = JobResult {
            id: JobId(1),
            pool: 0,
            arrival: SimTime::from_secs_f64(10.0),
            started: SimTime::from_secs_f64(12.0),
            first_token: SimTime::from_secs_f64(12.5),
            completed: SimTime::from_secs_f64(20.0),
        };
        assert!((r.queue_wait_secs() - 2.0).abs() < 1e-9);
        assert!((r.ttft_secs() - 2.5).abs() < 1e-9);
        assert!((r.e2e_secs() - 10.0).abs() < 1e-9);
    }
}
