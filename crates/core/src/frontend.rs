//! The replicated front-end (router tier) of the serving system.
//!
//! The paper's deployment runs the Request Router as a horizontally
//! scaled service (§5): several router instances sit behind the request
//! ingress, each holding its *own* bandit posterior and load view,
//! learning only from the feedback of the requests it owns, and
//! converging with its peers through periodic gossip — never through a
//! shared mutable state. [`FrontEnd`] models exactly that:
//!
//! - **Deterministic assignment**: request `id` is owned by replica
//!   `split_mix64(id) % R`, so replays are byte-identical and a request's
//!   feedback always lands on the replica that routed it.
//! - **Per-replica state**: each replica wraps a full
//!   [`RequestRouter`] (bandit + load tracker + bias controller) plus the
//!   completion-latency EMA that drives the Little's-law load estimate.
//! - **Gossip rounds** ([`FrontEnd::gossip_round`]): bandit
//!   sufficient-statistic deltas travel the deterministic ring with
//!   per-hop staleness discounting, and load estimates blend by
//!   consensus (see `ic_router::gossip`).
//!
//! With one replica (the default) every request hashes to replica 0 and
//! the front end is behaviourally identical to the pre-refactor single
//! `RequestRouter` — byte-for-byte, which CI enforces on the e2e report.

use ic_llmsim::{ModelId, Request, RequestId};
use ic_router::gossip::{DeltaBatch, GossipConfig, GossipRoundReport};
use ic_router::{ROUTE_FEATURE_DIM, RequestRouter, RouteDecision};
use ic_stats::{Ema, split_mix64};
use rand::Rng;

/// Default smoothing of the per-replica completion-latency EMA (matches
/// the engine's `latency_ema_alpha` default).
pub const DEFAULT_LATENCY_ALPHA: f64 = 0.2;

/// One router replica: an independent bandit + load view, plus the
/// run-scoped counters the report surfaces.
#[derive(Debug, Clone)]
struct Replica {
    router: RequestRouter,
    /// EMA of observed end-to-end completion latency; feeds the
    /// Little's-law demand estimate at completion time.
    latency_ema: Ema,
    /// Routing decisions made by this replica (run-scoped).
    decisions: u64,
    /// Delta batches received last round, pending one more ring hop.
    inbox: Vec<DeltaBatch>,
}

impl Replica {
    fn new(router: RequestRouter, latency_alpha: f64) -> Self {
        Self {
            router,
            latency_ema: Ema::new(latency_alpha),
            decisions: 0,
            inbox: Vec::new(),
        }
    }
}

/// Aggregate statistics of the router tier (run-scoped, deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontEndStats {
    /// Router replicas in the tier.
    pub replicas: usize,
    /// Routing decisions per replica, in replica order.
    pub decisions: Vec<u64>,
    /// Gossip rounds executed.
    pub gossip_rounds: u64,
    /// Delta-batch deliveries (a batch applied at one replica).
    pub merges: u64,
    /// Summed age (seconds since sealing) of delivered batches; divide by
    /// `merges` for the mean merge staleness.
    pub staleness_sum_s: f64,
    /// Each replica's current smoothed load estimate.
    pub load_estimates: Vec<f64>,
}

impl FrontEndStats {
    /// Mean age of a delta batch at delivery, seconds.
    pub fn mean_staleness_s(&self) -> f64 {
        if self.merges == 0 {
            0.0
        } else {
            self.staleness_sum_s / self.merges as f64
        }
    }
}

/// The replicated router tier. See the module docs.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    replicas: Vec<Replica>,
    gossip: GossipConfig,
    latency_alpha: f64,
    gossip_rounds: u64,
    merges: u64,
    staleness_sum_s: f64,
}

impl FrontEnd {
    /// A single-replica front end over the given router — the
    /// pre-refactor topology.
    pub fn new(router: RequestRouter) -> Self {
        Self {
            replicas: vec![Replica::new(router, DEFAULT_LATENCY_ALPHA)],
            gossip: GossipConfig::DEFAULT,
            latency_alpha: DEFAULT_LATENCY_ALPHA,
            gossip_rounds: 0,
            merges: 0,
            staleness_sum_s: 0.0,
        }
    }

    /// Number of router replicas.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The gossip configuration.
    pub fn gossip_config(&self) -> GossipConfig {
        self.gossip
    }

    /// Replaces the gossip tuning.
    pub fn set_gossip_config(&mut self, config: GossipConfig) {
        self.gossip = config;
    }

    /// Reshapes the tier to `replicas` copies of replica 0's *learned*
    /// state (a scale-out clones the warmed router; a scale-in keeps the
    /// primary), resets the run-scoped counters, and re-arms the
    /// completion-latency EMAs with `latency_alpha`. Call between runs —
    /// never mid-run, or the per-replica decision counts lose meaning.
    pub fn reconfigure(&mut self, replicas: usize, latency_alpha: f64) {
        let replicas = replicas.max(1);
        let mut primary = self.replicas[0].router.clone();
        // The clones all share the primary's posterior already: shipping
        // its pre-clone gossip buffer would double-count that evidence.
        primary.gossip_clear();
        self.replicas = (0..replicas)
            .map(|_| Replica::new(primary.clone(), latency_alpha))
            .collect();
        self.latency_alpha = latency_alpha;
        self.gossip_rounds = 0;
        self.merges = 0;
        self.staleness_sum_s = 0.0;
    }

    /// Starts a fresh run on the existing tier: resets the run-scoped
    /// decision/gossip counters and re-arms the completion-latency EMAs
    /// without touching any replica's learned posterior or load view.
    pub fn begin_run(&mut self, latency_alpha: f64) {
        for replica in &mut self.replicas {
            replica.latency_ema = Ema::new(latency_alpha);
            replica.decisions = 0;
        }
        self.latency_alpha = latency_alpha;
        self.gossip_rounds = 0;
        self.merges = 0;
        self.staleness_sum_s = 0.0;
    }

    /// The replica that owns a request id: `split_mix64(id) % R`.
    pub fn replica_of(&self, id: RequestId) -> usize {
        (split_mix64(id.0) % self.replicas.len() as u64) as usize
    }

    /// Read access to a replica's router (replica 0 is the primary the
    /// single-replica accessors of `IcCacheSystem` expose).
    pub fn router(&self, replica: usize) -> &RequestRouter {
        &self.replicas[replica].router
    }

    /// Mutable access to a replica's router (tests, fault injection).
    pub fn router_mut(&mut self, replica: usize) -> &mut RequestRouter {
        &mut self.replicas[replica].router
    }

    /// Routes a request through its owning replica. Returns the decision
    /// and the replica index that made it. `counted` is false for a
    /// failover *retry* of an already-counted request: the decision is
    /// computed identically (same replica, same bandit state, same RNG
    /// stream) but the replica's decision counter is not bumped — one
    /// logical request appears once in the per-replica decision stats.
    pub fn route(
        &mut self,
        request: &Request,
        selection_utilities: &[f64],
        rng: &mut impl Rng,
        counted: bool,
    ) -> (RouteDecision, usize) {
        let r = self.replica_of(request.id);
        let replica = &mut self.replicas[r];
        replica.decisions += u64::from(counted);
        (replica.router.route(request, selection_utilities, rng), r)
    }

    /// The routing context vector of a request and its selection's
    /// utilities — what [`FrontEnd::route`]'s decision carries as
    /// `features`; every replica projects with the same seed.
    pub fn features(
        &self,
        request: &Request,
        selection_utilities: &[f64],
    ) -> [f64; ROUTE_FEATURE_DIM] {
        self.replicas[0]
            .router
            .features(request, selection_utilities)
    }

    /// Records an observed reward at the owning replica only.
    pub fn record_reward(
        &mut self,
        model: ModelId,
        request: &Request,
        selection_utilities: &[f64],
        reward: f64,
    ) {
        let x = self.features(request, selection_utilities);
        self.record_reward_on(model, request.id, &x, reward);
    }

    /// [`FrontEnd::record_reward`] on the context vector the request was
    /// routed on ([`RouteDecision::features`]).
    pub fn record_reward_on(
        &mut self,
        model: ModelId,
        id: RequestId,
        x: &[f64; ROUTE_FEATURE_DIM],
        reward: f64,
    ) {
        let r = self.replica_of(id);
        self.replicas[r].router.record_reward_on(model, x, reward);
    }

    /// Records a pairwise preference at the owning replica only, on the
    /// context vector the request was routed on.
    pub fn record_preference_on(
        &mut self,
        id: RequestId,
        x: &[f64; ROUTE_FEATURE_DIM],
        preferred: ModelId,
        other: ModelId,
    ) {
        let r = self.replica_of(id);
        self.replicas[r]
            .router
            .record_preference_on(x, preferred, other);
    }

    /// Feeds a load observation (requests/second) to every replica — the
    /// legacy single-view path kept for callers outside the event-driven
    /// engine (warm-up loops, experiments driving `serve` directly).
    pub fn observe_load_all(&mut self, rps: f64) {
        for replica in &mut self.replicas {
            replica.router.observe_load(rps);
        }
    }

    /// Feeds an arrival-rate observation to one replica (the engine's
    /// per-replica windowed estimate).
    pub fn observe_arrival_load(&mut self, replica: usize, rps: f64) {
        self.replicas[replica].router.observe_load(rps);
    }

    /// Feeds one completion into a replica's latency EMA and converts it
    /// into a Little's-law demand estimate (`lambda = L / W`, with
    /// `in_system` jobs in flight across the cluster). The single
    /// feedback path shared by the engine's completion handler and its
    /// failover-retry completions — they must not drift apart.
    pub fn observe_completion(&mut self, replica: usize, e2e_s: f64, in_system: u32) {
        let rep = &mut self.replicas[replica];
        rep.latency_ema.observe(e2e_s);
        let w = rep.latency_ema.value();
        if w > 0.0 {
            rep.router.observe_load(f64::from(in_system) / w);
        }
    }

    /// A replica's smoothed load estimate.
    pub fn load_estimate(&self, replica: usize) -> f64 {
        self.replicas[replica].router.current_load()
    }

    /// One gossip round at simulation time `now_s` (no-op with fewer
    /// than two replicas): every replica seals its local bandit delta
    /// (TTL `R - 1`), sends it — together with the still-live batches it
    /// relayed last round — one hop along the ring, and blends its load
    /// estimate toward its ring predecessor's snapshot value. All sends
    /// use round-start snapshots, so the outcome is independent of the
    /// replica iteration order. Returns the round's own merge/staleness
    /// delta (the cumulative counters stay in [`FrontEndStats`]).
    pub fn gossip_round(&mut self, now_s: f64) -> GossipRoundReport {
        let mut round = GossipRoundReport::default();
        let n = self.replicas.len();
        if n < 2 {
            return round;
        }
        self.gossip_rounds += 1;
        let discount = self.gossip.staleness_discount;

        // Snapshot phase: seal fresh deltas and collect each replica's
        // outbox (fresh batch + batches relayed from last round).
        let loads: Vec<f64> = (0..n).map(|i| self.load_estimate(i)).collect();
        let mut outboxes: Vec<Vec<DeltaBatch>> = Vec::with_capacity(n);
        for replica in &mut self.replicas {
            let mut outbox = std::mem::take(&mut replica.inbox);
            if let Some(fresh) = replica.router.gossip_take(now_s, (n - 1) as u32) {
                outbox.push(fresh);
            }
            outboxes.push(outbox);
        }

        // Delivery phase: replica i's outbox lands at (i + 1) % n.
        for (i, outbox) in outboxes.into_iter().enumerate() {
            let dest = (i + 1) % n;
            for batch in outbox {
                self.replicas[dest].router.gossip_apply(&batch, discount);
                round.merges += 1;
                round.staleness_sum_s += (now_s - batch.born_s).max(0.0);
                if let Some(relay) = batch.forwarded(discount) {
                    self.replicas[dest].inbox.push(relay);
                }
            }
        }
        self.merges += round.merges;
        self.staleness_sum_s += round.staleness_sum_s;

        // Load consensus: blend toward the ring predecessor's snapshot.
        let w = self.gossip.load_blend;
        for (i, replica) in self.replicas.iter_mut().enumerate() {
            replica.router.merge_load(loads[(i + n - 1) % n], w);
        }
        round
    }

    /// `(arm evaluations, posterior refits)` summed over the replicas'
    /// bandits since each was constructed (a replica cloned by
    /// [`FrontEnd::reconfigure`] starts from the primary's counts) —
    /// callers wanting a run's share subtract a reading from its start.
    pub fn posterior_counts(&self) -> (u64, u64) {
        self.replicas.iter().fold((0, 0), |(evals, refits), r| {
            let (e, f) = r.router.posterior_counts();
            (evals + e, refits + f)
        })
    }

    /// Run-scoped tier statistics for the report.
    pub fn stats(&self) -> FrontEndStats {
        FrontEndStats {
            replicas: self.replicas.len(),
            decisions: self.replicas.iter().map(|r| r.decisions).collect(),
            gossip_rounds: self.gossip_rounds,
            merges: self.merges,
            staleness_sum_s: self.staleness_sum_s,
            load_estimates: (0..self.replicas.len())
                .map(|i| self.load_estimate(i))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::Catalog;
    use ic_router::RouterConfig;
    use ic_stats::rng::rng_from_seed;
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn front_end(replicas: usize) -> (FrontEnd, WorkloadGenerator) {
        let catalog = Catalog::standard();
        let small = catalog.by_name("gemma-2-2b").unwrap();
        let large = catalog.by_name("gemma-2-27b").unwrap();
        let router = RequestRouter::new(vec![small, large], &catalog, 64, RouterConfig::default());
        let mut fe = FrontEnd::new(router);
        fe.reconfigure(replicas, DEFAULT_LATENCY_ALPHA);
        (fe, WorkloadGenerator::new(Dataset::MsMarco, 71))
    }

    #[test]
    fn assignment_is_deterministic_and_covers_replicas() {
        let (fe, mut wg) = front_end(4);
        let requests = wg.generate_requests(200);
        let mut seen = [false; 4];
        for r in &requests {
            let a = fe.replica_of(r.id);
            assert_eq!(a, fe.replica_of(r.id), "assignment must be stable");
            seen[a] = true;
        }
        assert!(seen.iter().all(|&s| s), "200 ids should hit all replicas");
        // Single replica owns everything.
        let (fe1, _) = front_end(1);
        assert!(requests.iter().all(|r| fe1.replica_of(r.id) == 0));
    }

    #[test]
    fn feedback_lands_only_at_the_owning_replica() {
        let (mut fe, mut wg) = front_end(3);
        let request = wg.generate_requests(1).pop().unwrap();
        let owner = fe.replica_of(request.id);
        let model = fe.router(0).models()[0];
        fe.record_reward(model, &request, &[], 0.9);
        // The owning replica has a sealed-able gossip buffer; peers not.
        for i in 0..3 {
            let has_delta = fe.router_mut(i).gossip_take(0.0, 2).is_some();
            assert_eq!(has_delta, i == owner, "replica {i}");
        }
    }

    #[test]
    fn gossip_converges_load_estimates() {
        // The convergence acceptance test: replicas with wildly different
        // local load views agree within epsilon after k rounds of ring
        // blending under a steady workload (no new observations).
        let (mut fe, _) = front_end(4);
        for (i, load) in [0.5, 40.0, 10.0, 25.0].iter().enumerate() {
            for _ in 0..100 {
                fe.observe_arrival_load(i, *load);
            }
        }
        let spread = |fe: &FrontEnd| {
            let e: Vec<f64> = (0..4).map(|i| fe.load_estimate(i)).collect();
            let lo = e.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = e.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        };
        let initial = spread(&fe);
        assert!(initial > 10.0, "views must start apart: {initial}");
        for round in 0..24 {
            fe.gossip_round(round as f64);
        }
        assert!(
            spread(&fe) < 0.05 * initial,
            "gossip must converge load views: {} -> {}",
            initial,
            spread(&fe)
        );
        assert_eq!(fe.stats().gossip_rounds, 24);
    }

    #[test]
    fn gossip_spreads_bandit_evidence_to_every_peer() {
        let (mut fe, mut wg) = front_end(3);
        let requests = wg.generate_requests(60);
        let large = fe.router(0).models()[1];
        // Only owning replicas learn.
        for r in &requests {
            fe.record_reward(large, r, &[], 0.95);
        }
        let local: Vec<u64> = (0..3).map(|i| fe.router(i).arm_pulls(large)).collect();
        assert!(
            local.iter().filter(|&&p| p > 0).count() >= 2,
            "60 ids should give several replicas local evidence: {local:?}"
        );
        assert!(local.iter().any(|&p| p < 60), "no replica saw everything");
        // Two rounds move every batch TTL=2 hops: all peers visited.
        fe.gossip_round(1.0);
        fe.gossip_round(2.0);
        let stats = fe.stats();
        assert!(stats.merges >= 3, "batches must be delivered: {stats:?}");
        assert!(stats.staleness_sum_s > 0.0, "relayed batches aged a round");
        assert!(stats.mean_staleness_s() > 0.0);
        // Every replica's posterior now carries the full 60 updates even
        // though only owners learned locally (pull counts travel raw;
        // the statistics themselves arrive staleness-discounted).
        for i in 0..3 {
            assert_eq!(
                fe.router(i).arm_pulls(large),
                60,
                "replica {i} missed gossiped evidence"
            );
        }
    }

    #[test]
    fn single_replica_gossip_is_a_no_op() {
        let (mut fe, mut wg) = front_end(1);
        let request = wg.generate_requests(1).pop().unwrap();
        let model = fe.router(0).models()[0];
        fe.record_reward(model, &request, &[], 0.5);
        fe.gossip_round(1.0);
        let stats = fe.stats();
        assert_eq!(stats.gossip_rounds, 0);
        assert_eq!(stats.merges, 0);
        assert_eq!(stats.replicas, 1);
    }

    #[test]
    fn observe_completion_drives_the_load_estimate() {
        let (mut fe, _) = front_end(2);
        // 10 jobs in flight at 2s latency: lambda = 5 rps at replica 0.
        fe.observe_completion(0, 2.0, 10);
        assert!((fe.load_estimate(0) - 5.0).abs() < 1e-9);
        assert_eq!(fe.load_estimate(1), 0.0, "peer untouched");
        // The EMA smooths subsequent observations.
        fe.observe_completion(0, 4.0, 10);
        let est = fe.load_estimate(0);
        assert!(est < 5.0 && est > 2.5, "smoothed estimate: {est}");
    }

    #[test]
    fn reconfigure_clones_learned_state_and_resets_counters() {
        let (mut fe, mut wg) = front_end(1);
        let requests = wg.generate_requests(30);
        let large = fe.router(0).models()[1];
        for r in &requests {
            fe.record_reward(large, r, &[], 0.9);
        }
        let mut rng = rng_from_seed(5);
        let (_, replica) = fe.route(&requests[0], &[], &mut rng, true);
        assert_eq!(replica, 0);
        assert_eq!(fe.stats().decisions, vec![1]);
        fe.reconfigure(3, 0.2);
        assert_eq!(fe.num_replicas(), 3);
        assert_eq!(fe.stats().decisions, vec![0, 0, 0], "counters reset");
        for i in 1..3 {
            assert_eq!(
                fe.router(i).models(),
                fe.router(0).models(),
                "replica {i} must clone the primary"
            );
        }
    }
}
