//! Exponential moving averages and decaying counters.
//!
//! The Request Router tracks an EMA of the serving load (§4.2), the Example
//! Manager tracks an EMA of each example's potential replay gain `G(e)`
//! (§4.3), and the eviction policy keeps a moving average of offload gains
//! with a 0.9/hour decay (§4.3). Both primitives live here.

/// Classic exponential moving average with smoothing factor `alpha`.
///
/// `alpha` close to 1 tracks the most recent observation; close to 0 it
/// averages over a long horizon. Before the first observation the EMA
/// reports the configured initial value.
///
/// # Examples
///
/// ```
/// use ic_stats::Ema;
///
/// let mut load = Ema::new(0.2);
/// load.observe(10.0);
/// load.observe(20.0);
/// assert!(load.value() > 10.0 && load.value() < 20.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ema {
    alpha: f64,
    value: f64,
    initialized: bool,
}

impl Ema {
    /// Creates an EMA with smoothing factor `alpha in (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`; this is a programming error,
    /// not a data error.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EMA alpha must be in (0, 1], got {alpha}"
        );
        Self {
            alpha,
            value: 0.0,
            initialized: false,
        }
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        if self.initialized {
            self.value = self.alpha * x + (1.0 - self.alpha) * self.value;
        } else {
            self.value = x;
            self.initialized = true;
        }
    }

    /// Current smoothed value (0.0 before any observation).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Blends a peer estimate into this EMA:
    /// `value = (1 - weight) * value + weight * peer`. This is the gossip
    /// merge used by replicated load trackers — unlike [`Ema::observe`]
    /// it ignores `alpha` (the blend weight is the consensus step size,
    /// not the smoothing factor) and it adopts the peer value outright
    /// when this EMA has seen nothing yet.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is outside `[0, 1]` (programming error).
    pub fn merge(&mut self, peer: f64, weight: f64) {
        assert!(
            (0.0..=1.0).contains(&weight),
            "merge weight must be in [0, 1], got {weight}"
        );
        if self.initialized {
            self.value = (1.0 - weight) * self.value + weight * peer;
        } else {
            self.value = peer;
            self.initialized = true;
        }
    }

    /// Whether at least one observation (or a prior) has been absorbed.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// A counter whose accumulated value decays by a fixed factor per period.
///
/// This is the paper's eviction-gain tracker: "we maintain a moving average
/// of this gain, applying a decay factor of 0.9 every hour to emphasize
/// recent usage" (§4.3). Decay is applied lazily on access, so the counter
/// is cheap even with millions of instances.
#[derive(Debug, Clone)]
pub struct DecayingCounter {
    /// Decay multiplier applied once per period.
    decay: f64,
    /// Period length in the caller's time unit (the manager uses seconds).
    period: f64,
    /// Accumulated value as of `last_update`.
    value: f64,
    /// Timestamp of the last add/decay application.
    last_update: f64,
}

impl DecayingCounter {
    /// Creates a counter decaying by `decay in (0, 1]` every `period > 0`
    /// time units.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters (programming error).
    pub fn new(decay: f64, period: f64) -> Self {
        assert!(
            decay > 0.0 && decay <= 1.0,
            "decay must be in (0, 1], got {decay}"
        );
        assert!(period > 0.0, "period must be positive, got {period}");
        Self {
            decay,
            period,
            value: 0.0,
            last_update: 0.0,
        }
    }

    /// Adds `amount` at time `now`, applying any pending decay first.
    pub fn add(&mut self, now: f64, amount: f64) {
        self.apply_decay(now);
        self.value += amount;
    }

    /// Returns the decayed value as of time `now`.
    pub fn value_at(&self, now: f64) -> f64 {
        let elapsed = (now - self.last_update).max(0.0);
        self.value * self.decay.powf(elapsed / self.period)
    }

    /// Folds pending decay into the stored value.
    fn apply_decay(&mut self, now: f64) {
        if now > self.last_update {
            self.value = self.value_at(now);
            self.last_update = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_first_observation_snaps() {
        let mut e = Ema::new(0.1);
        assert!(!e.is_initialized());
        e.observe(5.0);
        assert_eq!(e.value(), 5.0);
    }

    #[test]
    fn ema_tracks_with_alpha() {
        let mut e = Ema::new(0.5);
        e.observe(0.0);
        e.observe(10.0);
        assert!((e.value() - 5.0).abs() < 1e-12);
        e.observe(10.0);
        assert!((e.value() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn ema_converges_to_constant_input() {
        let mut e = Ema::new(0.2);
        for _ in 0..200 {
            e.observe(3.0);
        }
        assert!((e.value() - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "EMA alpha")]
    fn ema_rejects_zero_alpha() {
        let _ = Ema::new(0.0);
    }

    #[test]
    fn merge_blends_toward_peer() {
        let mut e = Ema::new(0.2);
        e.observe(10.0);
        e.merge(20.0, 0.5);
        assert!((e.value() - 15.0).abs() < 1e-12);
        e.merge(15.0, 0.0);
        assert!((e.value() - 15.0).abs() < 1e-12, "zero weight is a no-op");
        e.merge(3.0, 1.0);
        assert!((e.value() - 3.0).abs() < 1e-12, "unit weight adopts peer");
    }

    #[test]
    fn merge_into_uninitialized_adopts_peer() {
        let mut e = Ema::new(0.2);
        e.merge(7.0, 0.25);
        assert!(e.is_initialized());
        assert!((e.value() - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "merge weight")]
    fn merge_rejects_out_of_range_weight() {
        let mut e = Ema::new(0.2);
        e.merge(1.0, 1.5);
    }

    #[test]
    fn decaying_counter_decays_by_factor_per_period() {
        let mut c = DecayingCounter::new(0.9, 3600.0);
        c.add(0.0, 10.0);
        let one_hour = c.value_at(3600.0);
        assert!((one_hour - 9.0).abs() < 1e-9);
        let two_hours = c.value_at(7200.0);
        assert!((two_hours - 8.1).abs() < 1e-9);
    }

    #[test]
    fn decaying_counter_accumulates() {
        let mut c = DecayingCounter::new(0.5, 1.0);
        c.add(0.0, 4.0);
        c.add(1.0, 4.0);
        // First 4 decayed to 2, plus fresh 4.
        assert!((c.value_at(1.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn decaying_counter_is_monotone_in_time() {
        let mut c = DecayingCounter::new(0.9, 10.0);
        c.add(0.0, 100.0);
        let mut prev = c.value_at(0.0);
        for t in 1..50 {
            let v = c.value_at(t as f64);
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    fn decaying_counter_ignores_time_travel() {
        let mut c = DecayingCounter::new(0.9, 1.0);
        c.add(10.0, 5.0);
        // Asking about the past returns the undecayed value rather than
        // amplifying it.
        assert!((c.value_at(5.0) - 5.0).abs() < 1e-9);
    }
}
