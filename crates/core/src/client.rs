//! The Figure 6 client API.
//!
//! ```python
//! client = IC_cacheClient(config=generation_config)
//! response = client.generate(requests)
//! client.update_cache(requests, response)
//! client.stop()
//! ```
//!
//! The Rust client owns one [`IcCacheSystem`], a stop flag and a
//! logical clock; the calls that change any of them take `&mut self`.

use ic_llmsim::{GenOutcome, ModelId, Request};

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
    system: IcCacheSystem,
    stopped: bool,
    clock: f64,
}

impl IcCacheClient {
    /// Creates a client session (Fig. 6 line 5).
    pub fn new(config: IcCacheConfig) -> Self {
        Self {
            system: IcCacheSystem::new(config),
            stopped: false,
            clock: 0.0,
        }
    }

    /// Pre-populates the example cache (Appendix A.4 initialization).
    pub fn seed_examples(&mut self, examples: Vec<ic_llmsim::Example>) {
        self.system.seed_examples(examples, self.clock);
    }

    /// Generates responses for a batch of requests (Fig. 6 line 8).
    ///
    /// # Panics
    ///
    /// Panics if called after [`IcCacheClient::stop`].
    pub fn generate(&mut self, requests: &[Request]) -> Vec<Response> {
        assert!(!self.stopped, "client session is stopped");
        let system = &mut self.system;
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
    pub fn update_cache(&mut self, requests: &[Request], responses: &[Response]) {
        for (r, resp) in requests.iter().zip(responses) {
            let _ = self
                .system
                .update_cache(r, &resp.outcome, resp.model, self.clock);
        }
    }

    /// Advances the client's logical clock (seconds) — drives decay and
    /// maintenance timing in long-running sessions.
    pub fn advance_clock(&mut self, seconds: f64) {
        self.clock += seconds.max(0.0);
    }

    /// Runs one offline maintenance cycle (replay + eviction).
    pub fn run_maintenance(&mut self) -> crate::system::MaintenanceReport {
        self.system.run_maintenance(self.clock)
    }

    /// Feeds a load observation to the router.
    pub fn observe_load(&mut self, rps: f64) {
        self.system.observe_load(rps);
    }

    /// Number of cached examples.
    pub fn cached_examples(&self) -> usize {
        self.system.cached_examples()
    }

    /// Fraction of served requests that were offloaded.
    pub fn offload_ratio(&self) -> f64 {
        self.system.offload_ratio()
    }

    /// Ends the session (Fig. 6 line 12). Further `generate` calls panic.
    pub fn stop(&mut self) {
        self.stopped = true;
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
        let mut client = IcCacheClient::new(config);
        client.seed_examples(examples);
        (client, wg)
    }

    #[test]
    fn fig6_workflow_round_trips() {
        let (mut client, mut wg) = client_with_examples();
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
        let (mut client, mut wg) = client_with_examples();
        let requests = wg.generate_requests(5);
        for (r, resp) in requests.iter().zip(client.generate(&requests)) {
            assert!(resp.prompt.contains(&r.text.to_string()));
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
        let (mut client, mut wg) = client_with_examples();
        client.stop();
        let _ = client.generate(&wg.generate_requests(1));
    }

    #[test]
    fn clock_advances_monotonically() {
        let (mut client, _) = client_with_examples();
        client.advance_clock(5.0);
        client.advance_clock(-10.0); // Negative deltas are ignored.
        client.advance_clock(1.0);
        let report = client.run_maintenance();
        assert_eq!(report.evicted, 0);
    }
}
