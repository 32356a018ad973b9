//! The Figure 6 client API.
//!
//! ```python
//! client = IC_cacheClient(config=generation_config)
//! response = client.generate(requests)
//! client.update_cache(requests, response)
//! client.stop()
//! ```
//!
//! The Rust client wraps [`IcCacheSystem`] behind a mutex so callers can
//! share it across threads, mirroring the client-session model of the
//! paper's prototype.

use ic_llmsim::{GenOutcome, ModelId, Request};
use parking_lot::Mutex;

use crate::config::IcCacheConfig;
use crate::prompt::render_prompt;
use crate::system::IcCacheSystem;

/// A response returned by [`IcCacheClient::generate`].
#[derive(Debug, Clone)]
pub struct Response {
    /// Which model produced the response.
    pub model: ModelId,
    /// Whether the request was offloaded from the primary model.
    pub offloaded: bool,
    /// The rendered prompt that was (virtually) sent.
    pub prompt: String,
    /// Generation outcome (tokens, latency, latent quality for eval).
    pub outcome: GenOutcome,
}

/// A client session to the IC-Cache service.
pub struct IcCacheClient {
    system: Mutex<IcCacheSystem>,
    stopped: Mutex<bool>,
    clock: Mutex<f64>,
}

impl IcCacheClient {
    /// Creates a client session (Fig. 6 line 5).
    pub fn new(config: IcCacheConfig) -> Self {
        Self {
            system: Mutex::new(IcCacheSystem::new(config)),
            stopped: Mutex::new(false),
            clock: Mutex::new(0.0),
        }
    }

    /// Pre-populates the example cache (Appendix A.4 initialization).
    pub fn seed_examples(&self, examples: Vec<ic_llmsim::Example>) {
        let now = *self.clock.lock();
        self.system.lock().seed_examples(examples, now);
    }

    /// Generates responses for a batch of requests (Fig. 6 line 8).
    ///
    /// # Panics
    ///
    /// Panics if called after [`IcCacheClient::stop`].
    pub fn generate(&self, requests: &[Request]) -> Vec<Response> {
        assert!(!*self.stopped.lock(), "client session is stopped");
        let mut system = self.system.lock();
        requests
            .iter()
            .map(|r| {
                let out = system.serve(r);
                let examples = out.selection.resolve(system.manager().cache());
                let prompt = if out.offloaded {
                    render_prompt(r, &examples)
                } else {
                    render_prompt(r, &[])
                };
                Response {
                    model: out.model,
                    offloaded: out.offloaded,
                    prompt,
                    outcome: out.outcome,
                }
            })
            .collect()
    }

    /// Registers request–response pairs into the cache (Fig. 6 line 11).
    /// Pairs are admitted through the privacy policy; rejected pairs are
    /// skipped silently.
    pub fn update_cache(&self, requests: &[Request], responses: &[Response]) {
        let now = *self.clock.lock();
        let mut system = self.system.lock();
        for (r, resp) in requests.iter().zip(responses) {
            let _ = system.update_cache(r, &resp.outcome, resp.model, now);
        }
    }

    /// Advances the client's logical clock (seconds) — drives decay and
    /// maintenance timing in long-running sessions.
    pub fn advance_clock(&self, seconds: f64) {
        *self.clock.lock() += seconds.max(0.0);
    }

    /// Runs one offline maintenance cycle (replay + eviction).
    pub fn run_maintenance(&self) -> crate::system::MaintenanceReport {
        let now = *self.clock.lock();
        self.system.lock().run_maintenance(now)
    }

    /// Feeds a load observation to the router.
    pub fn observe_load(&self, rps: f64) {
        self.system.lock().observe_load(rps);
    }

    /// Number of cached examples.
    pub fn cached_examples(&self) -> usize {
        self.system.lock().cached_examples()
    }

    /// Fraction of served requests that were offloaded.
    pub fn offload_ratio(&self) -> f64 {
        self.system.lock().offload_ratio()
    }

    /// Ends the session (Fig. 6 line 12). Further `generate` calls panic.
    pub fn stop(&self) {
        *self.stopped.lock() = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::{Generator, ModelSpec};
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn client_with_examples() -> (IcCacheClient, WorkloadGenerator) {
        let config = IcCacheConfig::gemma_pair();
        let large = config.catalog.by_name("gemma-2-27b").unwrap();
        let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 161);
        let examples =
            wg.generate_examples(300, &ModelSpec::gemma_2_27b(), large, &Generator::new());
        let client = IcCacheClient::new(config);
        client.seed_examples(examples);
        (client, wg)
    }

    #[test]
    fn fig6_workflow_round_trips() {
        let (client, mut wg) = client_with_examples();
        let requests = wg.generate_requests(10);
        let responses = client.generate(&requests);
        assert_eq!(responses.len(), 10);
        let before = client.cached_examples();
        client.update_cache(&requests, &responses);
        assert!(client.cached_examples() >= before);
        client.stop();
    }

    #[test]
    fn responses_carry_rendered_prompts() {
        let (client, mut wg) = client_with_examples();
        let requests = wg.generate_requests(5);
        for (r, resp) in requests.iter().zip(client.generate(&requests)) {
            assert!(resp.prompt.contains(&r.text));
            if resp.offloaded && !resp.prompt.contains("[Example 1]") {
                // Offloaded with an empty selection is legal (no useful
                // examples found); otherwise the prompt embeds examples.
                continue;
            }
        }
    }

    #[test]
    #[should_panic(expected = "stopped")]
    fn generate_after_stop_panics() {
        let (client, mut wg) = client_with_examples();
        client.stop();
        let _ = client.generate(&wg.generate_requests(1));
    }

    #[test]
    fn clock_advances_monotonically() {
        let (client, _) = client_with_examples();
        client.advance_clock(5.0);
        client.advance_clock(-10.0); // Negative deltas are ignored.
        client.advance_clock(1.0);
        let report = client.run_maintenance();
        assert_eq!(report.evicted, 0);
    }
}
