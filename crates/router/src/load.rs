//! Load tracking and the tanh bias controller (§4.2).
//!
//! "The Request Router incorporates a load-aware biasing strategy ... it
//! tracks the Exponential Moving Average (EMA) of the system serving load
//! ... when the EMA exceeds the operational threshold, the router triggers
//! a feedback controller to compute a corrective bias ... calculated using
//! the hyperbolic tangent (tanh) function applied to the positive load
//! deviation. The resulting bias adjusts the bandit's output logits,
//! reducing the selection scores of high-cost models."

use ic_stats::Ema;

/// EMA-based serving-load tracker.
///
/// Load is expressed in requests/second (callers feed instantaneous or
/// windowed rates).
#[derive(Debug, Clone)]
pub struct LoadTracker {
    ema: Ema,
}

impl LoadTracker {
    /// Creates a tracker with smoothing factor `alpha`.
    pub fn new(alpha: f64) -> Self {
        Self {
            ema: Ema::new(alpha),
        }
    }

    /// Feeds one load observation.
    pub fn observe(&mut self, load: f64) {
        self.ema.observe(load.max(0.0));
    }

    /// Smoothed load.
    pub fn current(&self) -> f64 {
        self.ema.value()
    }

    /// Gossip merge: blends a peer replica's smoothed estimate into this
    /// one (`current = (1 - weight) * current + weight * peer`). A
    /// tracker that has seen no traffic adopts the peer estimate.
    pub fn merge(&mut self, peer: f64, weight: f64) {
        self.ema.merge(peer.max(0.0), weight);
    }
}

/// The tanh feedback controller.
///
/// The bias is zero at or below the operational threshold and saturates at
/// `lambda0` under extreme overload, giving a smooth, bounded correction.
/// The persistent bias magnitude doubles as an auto-scaling signal (§4.2).
#[derive(Debug, Clone)]
pub struct LoadBias {
    /// Maximum bias magnitude (score units).
    pub lambda0: f64,
    /// Sensitivity of the tanh to load deviation (per request/second).
    pub gamma: f64,
    /// Operational threshold: the service capacity of the large models.
    pub threshold: f64,
}

impl LoadBias {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `lambda0` or `gamma`.
    pub fn new(lambda0: f64, gamma: f64, threshold: f64) -> Self {
        assert!(lambda0 > 0.0, "lambda0 must be positive");
        assert!(gamma > 0.0, "gamma must be positive");
        Self {
            lambda0,
            gamma,
            threshold,
        }
    }

    /// Bias magnitude for the current load: `lambda0 * tanh(gamma * max(0,
    /// load - threshold))`.
    pub fn bias(&self, load: f64) -> f64 {
        let deviation = (load - self.threshold).max(0.0);
        self.lambda0 * (self.gamma * deviation).tanh()
    }

    /// Applies the bias to one arm's score given its normalized cost in
    /// `[0, 1]` (cheapest arm 0, most expensive 1): expensive arms are
    /// pushed down under overload, cheap arms are untouched.
    pub fn adjust(&self, score: f64, normalized_cost: f64, load: f64) -> f64 {
        score - self.bias(load) * normalized_cost.clamp(0.0, 1.0)
    }
}

/// Normalizes per-model costs into `[0, 1]` for [`LoadBias::adjust`].
pub fn normalize_costs(costs: &[f64]) -> Vec<f64> {
    let lo = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !(hi > lo) {
        return vec![0.0; costs.len()];
    }
    costs.iter().map(|&c| (c - lo) / (hi - lo)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_bias_below_threshold() {
        let b = LoadBias::new(2.0, 0.5, 10.0);
        assert_eq!(b.bias(5.0), 0.0);
        assert_eq!(b.bias(10.0), 0.0);
    }

    #[test]
    fn bias_grows_smoothly_and_saturates() {
        let b = LoadBias::new(2.0, 0.5, 10.0);
        let b1 = b.bias(11.0);
        let b2 = b.bias(13.0);
        let b3 = b.bias(100.0);
        assert!(b1 > 0.0);
        assert!(b2 > b1);
        assert!(b3 > b2);
        assert!(b3 <= 2.0, "bias must saturate at lambda0");
        assert!((b3 - 2.0).abs() < 1e-6, "extreme load should reach lambda0");
    }

    #[test]
    fn adjust_penalizes_expensive_arms_only() {
        let b = LoadBias::new(1.0, 1.0, 0.0);
        let load = 10.0; // Deep overload: bias ~= 1.
        let cheap = b.adjust(0.5, 0.0, load);
        let pricey = b.adjust(0.5, 1.0, load);
        assert_eq!(cheap, 0.5);
        assert!(pricey < -0.4);
    }

    #[test]
    fn theorem4_cheap_arm_dominates_at_extreme_load() {
        // Theorem 4: with load -> infinity the min-cost arm's selection
        // probability -> 1 (for lambda0 large enough to dominate utility
        // gaps). Here: utility gap 0.3, lambda0 2.0.
        let b = LoadBias::new(2.0, 0.1, 10.0);
        let utils = [0.9, 0.6]; // Arm 0 better but expensive.
        let costs = normalize_costs(&[16.0, 1.0]);
        for load in [0.0, 10.0, 12.0, 20.0, 60.0, 1000.0] {
            let s0 = b.adjust(utils[0], costs[0], load);
            let s1 = b.adjust(utils[1], costs[1], load);
            if load <= 10.0 {
                assert!(s0 > s1, "quality should win at low load");
            }
            if load >= 60.0 {
                assert!(s1 > s0, "cheap arm must win at load {load}");
            }
        }
    }

    #[test]
    fn tracker_smooths_spikes() {
        let mut t = LoadTracker::new(0.1);
        for _ in 0..50 {
            t.observe(2.0);
        }
        t.observe(50.0); // One spike.
        assert!(t.current() < 10.0, "EMA should damp a single spike");
        for _ in 0..100 {
            t.observe(50.0);
        }
        assert!(t.current() > 45.0, "sustained load should pass through");
    }

    #[test]
    fn merge_blends_peer_estimates() {
        let mut t = LoadTracker::new(0.2);
        for _ in 0..20 {
            t.observe(4.0);
        }
        t.merge(8.0, 0.5);
        assert!((t.current() - 6.0).abs() < 1e-9);
        // A fresh tracker adopts the peer view.
        let mut fresh = LoadTracker::new(0.2);
        fresh.merge(3.0, 0.5);
        assert!((fresh.current() - 3.0).abs() < 1e-12);
        // Negative peer estimates are clamped like observations.
        fresh.merge(-10.0, 1.0);
        assert_eq!(fresh.current(), 0.0);
    }

    #[test]
    fn cost_normalization_maps_to_unit_interval() {
        let n = normalize_costs(&[1.0, 8.0, 16.0]);
        assert_eq!(n[0], 0.0);
        assert_eq!(n[2], 1.0);
        assert!(n[1] > 0.0 && n[1] < 1.0);
        // Degenerate case: all equal.
        assert_eq!(normalize_costs(&[3.0, 3.0]), vec![0.0, 0.0]);
    }
}
