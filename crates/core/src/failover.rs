//! Component health and bypass behaviour (§5, Fault Tolerance).
//!
//! "If a failed request to the Example Retriever or Request Router is
//! detected, the system automatically bypasses these components and routes
//! the request directly to the inference backend to maintain service
//! continuity. Each component runs a lightweight daemon process that
//! monitors service health and initiates automatic recovery."
//!
//! In this single-process reference implementation, health is a state
//! machine driven by failure/success reports (the daemon's heartbeat) with
//! automatic recovery after a configurable number of clean probes.

/// Health state of one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentHealth {
    /// Serving normally.
    Healthy,
    /// Bypassed; probes count toward recovery.
    Unhealthy {
        /// Consecutive successful probes seen so far.
        clean_probes: u32,
    },
}

impl ComponentHealth {
    fn is_healthy(self) -> bool {
        matches!(self, ComponentHealth::Healthy)
    }
}

/// Tracks the selector's and router's health, plus the health of the
/// model pools behind them (a pool failover drains the pool's work back
/// through the router and keeps new routing decisions off the
/// model until it recovers).
#[derive(Debug, Clone)]
pub struct FailoverState {
    selector: ComponentHealth,
    router: ComponentHealth,
    /// Models whose serving pools are currently down (sorted; tiny).
    down_models: Vec<ic_llmsim::ModelId>,
    /// Clean probes required before an unhealthy component recovers.
    recovery_probes: u32,
    /// Failures observed (diagnostics).
    failures: u64,
}

impl Default for FailoverState {
    fn default() -> Self {
        Self {
            selector: ComponentHealth::Healthy,
            router: ComponentHealth::Healthy,
            down_models: Vec::new(),
            recovery_probes: 3,
            failures: 0,
        }
    }
}

impl FailoverState {
    /// Whether selection should run (false = bypass: serve bare).
    pub fn selector_healthy(&self) -> bool {
        self.selector.is_healthy()
    }

    /// Whether routing should run (false = bypass: primary model).
    pub fn router_healthy(&self) -> bool {
        self.router.is_healthy()
    }

    /// Total failures reported.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Force selector health (fault injection in tests).
    pub fn set_selector_healthy(&mut self, healthy: bool) {
        self.selector = if healthy {
            ComponentHealth::Healthy
        } else {
            ComponentHealth::Unhealthy { clean_probes: 0 }
        };
    }

    /// Force router health (fault injection in tests).
    pub fn set_router_healthy(&mut self, healthy: bool) {
        self.router = if healthy {
            ComponentHealth::Healthy
        } else {
            ComponentHealth::Unhealthy { clean_probes: 0 }
        };
    }

    /// Whether a model's serving pool is up (routing should avoid down
    /// models; the system falls back to the best healthy arm).
    pub fn model_healthy(&self, model: ic_llmsim::ModelId) -> bool {
        self.down_models.binary_search(&model).is_err()
    }

    /// Marks a model's serving pool up or down. A down transition counts
    /// as a failure; repeated marks are idempotent.
    pub fn set_model_healthy(&mut self, model: ic_llmsim::ModelId, healthy: bool) {
        match self.down_models.binary_search(&model) {
            Ok(i) if healthy => {
                self.down_models.remove(i);
            }
            Err(i) if !healthy => {
                self.down_models.insert(i, model);
                self.failures += 1;
            }
            _ => {}
        }
    }

    /// Number of models currently marked down.
    pub fn down_models(&self) -> usize {
        self.down_models.len()
    }

    /// Reports a selector failure (request timed out / errored).
    pub fn report_selector_failure(&mut self) {
        self.failures += 1;
        self.selector = ComponentHealth::Unhealthy { clean_probes: 0 };
    }

    /// Reports a router failure.
    pub fn report_router_failure(&mut self) {
        self.failures += 1;
        self.router = ComponentHealth::Unhealthy { clean_probes: 0 };
    }

    /// One health-daemon tick: a successful probe of each unhealthy
    /// component; recovery after `recovery_probes` consecutive successes.
    pub fn probe_tick(&mut self) {
        for component in [&mut self.selector, &mut self.router] {
            if let ComponentHealth::Unhealthy { clean_probes } = component {
                *clean_probes += 1;
                if *clean_probes >= self.recovery_probes {
                    *component = ComponentHealth::Healthy;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_healthy() {
        let f = FailoverState::default();
        assert!(f.selector_healthy());
        assert!(f.router_healthy());
        assert_eq!(f.failures(), 0);
    }

    #[test]
    fn failure_marks_unhealthy_and_counts() {
        let mut f = FailoverState::default();
        f.report_selector_failure();
        assert!(!f.selector_healthy());
        assert!(f.router_healthy());
        f.report_router_failure();
        assert!(!f.router_healthy());
        assert_eq!(f.failures(), 2);
    }

    #[test]
    fn recovery_after_clean_probes() {
        let mut f = FailoverState::default();
        f.report_selector_failure();
        f.probe_tick();
        f.probe_tick();
        assert!(!f.selector_healthy(), "needs 3 clean probes");
        f.probe_tick();
        assert!(f.selector_healthy());
    }

    #[test]
    fn model_health_marks_are_idempotent_and_counted() {
        use ic_llmsim::ModelId;
        let mut f = FailoverState::default();
        assert!(f.model_healthy(ModelId(0)));
        assert_eq!(f.down_models(), 0);
        f.set_model_healthy(ModelId(1), false);
        f.set_model_healthy(ModelId(1), false); // Idempotent.
        assert!(!f.model_healthy(ModelId(1)));
        assert!(f.model_healthy(ModelId(0)));
        assert_eq!(f.down_models(), 1);
        assert_eq!(f.failures(), 1, "re-marking down is not a new failure");
        f.set_model_healthy(ModelId(0), false);
        assert_eq!(f.down_models(), 2);
        f.set_model_healthy(ModelId(1), true);
        f.set_model_healthy(ModelId(1), true); // Idempotent.
        assert!(f.model_healthy(ModelId(1)));
        assert_eq!(f.down_models(), 1);
        assert_eq!(f.failures(), 2);
    }

    #[test]
    fn new_failure_resets_recovery_progress() {
        let mut f = FailoverState::default();
        f.report_router_failure();
        f.probe_tick();
        f.probe_tick();
        f.report_router_failure();
        f.probe_tick();
        assert!(!f.router_healthy(), "progress must reset on re-failure");
        f.probe_tick();
        f.probe_tick();
        assert!(f.router_healthy());
    }
}
