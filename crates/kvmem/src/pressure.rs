//! Watermark-driven pressure policy and the swap cost model.

/// High/low occupancy watermarks over a block budget, as fractions of
/// the total block capacity.
///
/// - At or above `high`, the pool stops admitting new sequences (their
///   projected prefill demand would push memory into the thrash zone).
/// - Below `low`, swapped-out sequences are resumed (memory has
///   drained enough that bringing KV state back will not immediately
///   re-trigger pressure).
///
/// `high == low == 1.0` degenerates to "preempt only on hard
/// allocation failure, resume whenever any block is free" — the
/// laziest legal policy, exercised by the edge-case tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Watermarks {
    /// Admission gate: no new sequences at or above this occupancy.
    pub high: f64,
    /// Resume gate: swapped sequences return below this occupancy.
    pub low: f64,
}

impl Watermarks {
    /// The default gate pair used by `PoolConfig::for_gpus`.
    pub const DEFAULT: Watermarks = Watermarks {
        high: 0.9,
        low: 0.7,
    };

    /// Builds a watermark pair.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low <= high <= 1`.
    pub fn new(high: f64, low: f64) -> Self {
        assert!(
            low > 0.0 && low <= high && high <= 1.0,
            "watermarks must satisfy 0 < low <= high <= 1, got high={high} low={low}"
        );
        Self { high, low }
    }
}

impl Default for Watermarks {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// What a pressure preemption costs in simulated seconds, plus the
/// CPU-side (host) capacity that swapped-out KV blocks occupy.
///
/// A victim's exclusively-held blocks are copied out to host memory
/// and back in on resume, each direction priced per block moved. Real
/// engines do not get free host memory: vLLM's `swap_space` caps how
/// many blocks can be parked in CPU RAM. `host_capacity_blocks` models
/// that cap; `0` means unbounded (the default). A victim that does not
/// fit drops its KV state instead: the swap-out is free and resume
/// charges [`KvSwap::overflow_recompute_secs_per_token`] per
/// materialized KV token to rebuild it (vLLM's recompute preemption,
/// here the overflow price).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvSwap {
    /// Seconds per block swapped out (GPU -> host).
    pub out_secs_per_block: f64,
    /// Seconds per block swapped in (host -> GPU).
    pub in_secs_per_block: f64,
    /// Host blocks available to park swapped-out KV state; `0` is
    /// unbounded.
    pub host_capacity_blocks: u32,
    /// Recompute price (seconds per KV token rebuilt at resume) for
    /// victims evicted while host space is exhausted.
    pub overflow_recompute_secs_per_token: f64,
}

impl KvSwap {
    /// Default configuration: PCIe-ish block copies in both directions,
    /// unbounded host space, and a prefill-rate-ish overflow recompute
    /// price.
    pub const DEFAULT: KvSwap = KvSwap {
        out_secs_per_block: 5e-4,
        in_secs_per_block: 5e-4,
        host_capacity_blocks: 0,
        overflow_recompute_secs_per_token: 2e-5,
    };
}

impl Default for KvSwap {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// The pressure policy: watermark gates plus the swap cost model. The
/// scheduler owns victim *selection* (it has the sequence state); the
/// policy owns the *gates* and the *prices*.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PressurePolicy {
    /// Admission / resume gates.
    pub watermarks: Watermarks,
    /// Swap pricing plus host-side swap capacity.
    pub swap: KvSwap,
}

impl PressurePolicy {
    /// A policy with the given watermarks and the default cost model.
    pub fn new(watermarks: Watermarks) -> Self {
        Self {
            watermarks,
            swap: KvSwap::default(),
        }
    }

    /// Whether occupancy is at or above the high watermark (admission
    /// closed).
    pub fn under_pressure(&self, occupancy: f64) -> bool {
        occupancy >= self.watermarks.high
    }

    /// Whether occupancy has drained below the low watermark (swapped
    /// sequences may resume).
    pub fn can_resume(&self, occupancy: f64) -> bool {
        occupancy < self.watermarks.low
    }

    /// Seconds charged at the boundary where a victim's `blocks` are
    /// swapped out to host memory.
    pub fn swap_out_penalty(&self, blocks: u32) -> f64 {
        self.swap.out_secs_per_block * f64::from(blocks)
    }

    /// Seconds charged at the boundary where a parked victim's `blocks`
    /// are swapped back in.
    pub fn swap_in_penalty(&self, blocks: u32) -> f64 {
        self.swap.in_secs_per_block * f64::from(blocks)
    }

    /// Seconds charged when a victim that overflowed host capacity
    /// resumes: its state was dropped, so `kv_tokens` of KV entries are
    /// rebuilt at the overflow recompute rate.
    pub fn overflow_resume_penalty(&self, kv_tokens: u64) -> f64 {
        self.swap.overflow_recompute_secs_per_token * kv_tokens as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_follow_the_watermarks() {
        let p = PressurePolicy::new(Watermarks::new(0.9, 0.7));
        assert!(!p.under_pressure(0.89));
        assert!(p.under_pressure(0.9));
        assert!(p.can_resume(0.69));
        assert!(!p.can_resume(0.7));
    }

    #[test]
    fn watermarks_equal_to_budget_are_legal() {
        let p = PressurePolicy::new(Watermarks::new(1.0, 1.0));
        assert!(!p.under_pressure(0.999), "admission open until full");
        assert!(p.under_pressure(1.0));
        assert!(p.can_resume(0.999), "resume whenever any block is free");
    }

    #[test]
    #[should_panic(expected = "watermarks must satisfy")]
    fn inverted_watermarks_panic() {
        let _ = Watermarks::new(0.5, 0.8);
    }

    #[test]
    fn swap_model_prices_both_directions() {
        let p = PressurePolicy {
            watermarks: Watermarks::DEFAULT,
            swap: KvSwap {
                out_secs_per_block: 1e-3,
                in_secs_per_block: 2e-3,
                ..KvSwap::DEFAULT
            },
        };
        assert!((p.swap_out_penalty(10) - 0.01).abs() < 1e-12);
        assert!((p.swap_in_penalty(10) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn overflow_resume_is_priced_per_token() {
        let p = PressurePolicy {
            watermarks: Watermarks::DEFAULT,
            swap: KvSwap {
                host_capacity_blocks: 4,
                overflow_recompute_secs_per_token: 1e-3,
                ..KvSwap::DEFAULT
            },
        };
        assert!((p.overflow_resume_penalty(250) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn kvswap_defaults_are_unbounded() {
        let swap = KvSwap::default();
        assert_eq!(swap.host_capacity_blocks, 0, "0 = unbounded host space");
    }
}
