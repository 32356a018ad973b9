//! Serving throughput. Latency is summarized by `ic_engine::LatencyStats`
//! over a replay's `(e2e, ttft, queue)` samples.

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

    #[test]
    fn throughput_uses_busy_interval() {
        // 3 completions over [1, 3] => 1.5 rps, in any order.
        assert!((busy_interval_rps(&[1.0, 2.0, 3.0]) - 1.5).abs() < 1e-9);
        assert!((busy_interval_rps(&[3.0, 1.0, 2.0]) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_neutral() {
        assert_eq!(busy_interval_rps(&[]), 0.0);
        // One completion, or a zero-length busy interval, is the count.
        assert_eq!(busy_interval_rps(&[4.0]), 1.0);
        assert_eq!(busy_interval_rps(&[4.0, 4.0]), 2.0);
    }
}
