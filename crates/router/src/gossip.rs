//! Gossip dissemination of router state across front-end replicas.
//!
//! A replicated router tier cannot share one mutable bandit: each replica
//! routes on its own posterior and load view, learns only from the
//! feedback of the requests it owns, and periodically *gossips* with its
//! ring neighbour so the replicas converge without a shared-state
//! shortcut. Two kinds of state travel:
//!
//! - **Load estimates** merge by consensus blending
//!   ([`crate::LoadTracker::merge`]): every round each replica pulls its
//!   ring predecessor's smoothed estimate toward its own with a fixed
//!   weight — an EMA merge whose spread contracts geometrically (see
//!   [`ring_blend`] and its test).
//! - **Bandit sufficient statistics** merge additively. Each replica
//!   accumulates its local updates since the last round in a
//!   [`GossipState`] buffer (`sum(x xT)`, `sum(r x)` per arm — exactly
//!   the Bayesian linear posterior's sufficient statistics, so addition
//!   is the correct posterior merge, cf.
//!   [`crate::ContextualBandit::apply_stats`]). At a gossip
//!   round the buffer is sealed into a [`DeltaBatch`] and handed one hop
//!   along the ring; every hop applies it discounted by
//!   [`GossipConfig::staleness_discount`] and forwards the discounted
//!   remainder until the batch's TTL (replica count minus one) expires.
//!   A batch therefore visits every *other* replica exactly once — no
//!   double counting, no echo back to its origin — and evidence `k` hops
//!   (rounds) stale counts `discount^k` as much as fresh local evidence.
//!
//! The ring itself is deterministic (replica `i` always sends to
//! `(i + 1) % R`), so a seeded run replays byte-identically.

use ic_llmsim::ModelId;

use crate::linalg::Matrix;

/// Tuning of the gossip rounds.
#[derive(Debug, Clone, Copy)]
pub struct GossipConfig {
    /// Multiplier applied to a delta batch at every ring hop: evidence
    /// `k` rounds stale is worth `staleness_discount^k` fresh updates.
    pub staleness_discount: f64,
    /// Consensus step of the load-estimate blend: each round a replica
    /// moves this fraction of the way toward its ring predecessor.
    pub load_blend: f64,
}

impl GossipConfig {
    /// Discount 0.6 per hop, half-way load blending.
    pub const DEFAULT: GossipConfig = GossipConfig {
        staleness_discount: 0.6,
        load_blend: 0.5,
    };
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// What one gossip round delivered: the per-round delta behind the
/// tier's cumulative merge/staleness counters, for time-resolved
/// diagnostics (the observability layer stamps it on the round's
/// timeline instant).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GossipRoundReport {
    /// Delta batches applied across the tier this round.
    pub merges: u64,
    /// Summed batch age at delivery this round, seconds.
    pub staleness_sum_s: f64,
}

/// One arm's sufficient-statistic delta: the pure observation part of the
/// posterior (no ridge prior), plus the raw pull count for diagnostics.
#[derive(Debug, Clone)]
pub struct ArmDelta {
    /// The arm.
    pub model: ModelId,
    /// `sum(x xT)` over the buffered updates.
    pub a: Matrix,
    /// `sum(r x)` over the buffered updates.
    pub b: Vec<f64>,
    /// Updates buffered.
    pub pulls: u64,
}

/// A sealed batch of one replica's local updates, travelling the ring.
#[derive(Debug, Clone)]
pub struct DeltaBatch {
    /// Per-arm deltas (only arms with at least one update).
    pub arms: Vec<ArmDelta>,
    /// Remaining ring hops; a batch born on a ring of `R` replicas
    /// starts at `R - 1` and is dropped when it reaches zero, so it
    /// visits every other replica exactly once.
    pub ttl: u32,
    /// Simulation time the batch was sealed (staleness diagnostics).
    pub born_s: f64,
}

impl DeltaBatch {
    /// The batch one further hop along the ring: statistics scaled by
    /// `discount`, TTL decremented. Returns `None` when the TTL expires.
    pub fn forwarded(&self, discount: f64) -> Option<DeltaBatch> {
        if self.ttl <= 1 {
            return None;
        }
        let arms = self
            .arms
            .iter()
            .map(|arm| {
                let mut a = Matrix::zeros(arm.a.n());
                a.add_scaled(&arm.a, discount);
                ArmDelta {
                    model: arm.model,
                    a,
                    b: arm.b.iter().map(|x| discount * x).collect(),
                    pulls: arm.pulls,
                }
            })
            .collect();
        Some(DeltaBatch {
            arms,
            ttl: self.ttl - 1,
            born_s: self.born_s,
        })
    }
}

/// A replica's local-update buffer between gossip rounds.
///
/// [`GossipState::record`] mirrors every bandit update the replica makes
/// locally; [`GossipState::take`] seals the buffer into a [`DeltaBatch`]
/// and resets it.
#[derive(Debug, Clone)]
pub struct GossipState {
    dim: usize,
    arms: Vec<ArmDelta>,
}

impl GossipState {
    /// An empty buffer over the given arms and feature dimension.
    pub fn new(models: &[ModelId], dim: usize) -> Self {
        Self {
            dim,
            arms: models
                .iter()
                .map(|&model| ArmDelta {
                    model,
                    a: Matrix::zeros(dim),
                    b: vec![0.0; dim],
                    pulls: 0,
                })
                .collect(),
        }
    }

    /// Tracks a new arm (mirrors [`crate::ContextualBandit::add_arm`]).
    pub fn add_arm(&mut self, model: ModelId) {
        if self.arms.iter().any(|a| a.model == model) {
            return;
        }
        self.arms.push(ArmDelta {
            model,
            a: Matrix::zeros(self.dim),
            b: vec![0.0; self.dim],
            pulls: 0,
        });
    }

    /// Buffers one local update (the shadow of a `bandit.update` call).
    pub fn record(&mut self, model: ModelId, x: &[f64], reward: f64) {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let Some(arm) = self.arms.iter_mut().find(|a| a.model == model) else {
            return;
        };
        arm.a.add_outer(x);
        for (bi, xi) in arm.b.iter_mut().zip(x) {
            *bi += reward * xi;
        }
        arm.pulls += 1;
    }

    /// Whether any update is buffered.
    pub fn is_empty(&self) -> bool {
        self.arms.iter().all(|a| a.pulls == 0)
    }

    /// Discards any buffered updates (used when a replica is cloned
    /// into a tier: the clones already share the posterior, so shipping
    /// the pre-clone buffer would double-count it).
    pub fn clear(&mut self) {
        for arm in &mut self.arms {
            arm.a = Matrix::zeros(self.dim);
            arm.b.iter_mut().for_each(|x| *x = 0.0);
            arm.pulls = 0;
        }
    }

    /// Seals the buffered updates into a batch (born `now_s`, living
    /// `ttl` hops) and resets the buffer. `None` when nothing is
    /// buffered or the batch would die immediately (`ttl == 0`).
    pub fn take(&mut self, now_s: f64, ttl: u32) -> Option<DeltaBatch> {
        if ttl == 0 || self.is_empty() {
            return None;
        }
        let arms: Vec<ArmDelta> = self
            .arms
            .iter_mut()
            .filter(|a| a.pulls > 0)
            .map(|arm| {
                let sealed = ArmDelta {
                    model: arm.model,
                    a: arm.a.clone(),
                    b: arm.b.clone(),
                    pulls: arm.pulls,
                };
                arm.a = Matrix::zeros(sealed.b.len());
                arm.b.iter_mut().for_each(|x| *x = 0.0);
                arm.pulls = 0;
                sealed
            })
            .collect();
        Some(DeltaBatch {
            arms,
            ttl,
            born_s: now_s,
        })
    }
}

/// One consensus round of load blending on the deterministic ring: entry
/// `i` moves `weight` of the way toward its predecessor's (snapshot)
/// value. Pure function so the contraction property is testable in
/// isolation; [`crate::LoadTracker::merge`] applies the same step
/// in-place per replica.
pub fn ring_blend(values: &[f64], weight: f64) -> Vec<f64> {
    let n = values.len();
    if n < 2 {
        return values.to_vec();
    }
    (0..n)
        .map(|i| {
            let pred = values[(i + n - 1) % n];
            (1.0 - weight) * values[i] + weight * pred
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_take_roundtrip_preserves_statistics() {
        let mut g = GossipState::new(&[ModelId(0), ModelId(1)], 2);
        assert!(g.is_empty());
        assert!(g.take(0.0, 3).is_none(), "empty buffer seals nothing");
        g.record(ModelId(0), &[1.0, 2.0], 0.5);
        g.record(ModelId(0), &[0.0, 1.0], 1.0);
        let batch = g.take(4.0, 3).expect("buffered updates");
        assert_eq!(batch.ttl, 3);
        assert_eq!(batch.born_s, 4.0);
        assert_eq!(batch.arms.len(), 1, "untouched arms are not shipped");
        let arm = &batch.arms[0];
        assert_eq!(arm.pulls, 2);
        assert!((arm.a[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((arm.a[(1, 1)] - 5.0).abs() < 1e-12);
        assert!((arm.b[1] - 2.0).abs() < 1e-12); // 0.5*2 + 1*1.
        // Taking resets the buffer.
        assert!(g.is_empty());
        assert!(g.take(5.0, 3).is_none());
    }

    #[test]
    fn unknown_arm_records_are_ignored_and_arms_addable() {
        let mut g = GossipState::new(&[ModelId(0)], 2);
        g.record(ModelId(9), &[1.0, 0.0], 1.0);
        assert!(g.is_empty());
        g.add_arm(ModelId(9));
        g.add_arm(ModelId(9)); // Duplicate: no-op.
        g.record(ModelId(9), &[1.0, 0.0], 1.0);
        assert_eq!(g.take(0.0, 1).expect("recorded").arms[0].model, ModelId(9));
    }

    #[test]
    fn forwarding_discounts_and_expires() {
        let mut g = GossipState::new(&[ModelId(0)], 2);
        g.record(ModelId(0), &[2.0, 0.0], 1.0);
        let batch = g.take(1.0, 2).unwrap();
        let hop = batch.forwarded(0.5).expect("ttl 2 survives one hop");
        assert_eq!(hop.ttl, 1);
        assert_eq!(hop.born_s, 1.0, "age travels with the batch");
        assert!((hop.arms[0].a[(0, 0)] - 2.0).abs() < 1e-12); // 0.5 * 4.
        assert!((hop.arms[0].b[0] - 1.0).abs() < 1e-12); // 0.5 * 2.
        assert!(hop.forwarded(0.5).is_none(), "ttl 1 dies at the next hop");
        assert!(g.take(1.0, 0).is_none(), "ttl 0 batches are never born");
    }

    #[test]
    fn ring_blend_contracts_to_consensus() {
        // The gossip-convergence property in miniature: disagreeing
        // replicas pull toward consensus every round; after k rounds the
        // spread is within epsilon.
        let mut v = vec![0.0, 8.0, 2.0, 6.0];
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        let spread = |v: &[f64]| v.iter().fold(0.0f64, |m, &x| m.max((x - mean).abs()));
        let initial = spread(&v);
        for _ in 0..32 {
            v = ring_blend(&v, 0.5);
        }
        assert!(
            spread(&v) < 1e-3 * initial.max(1.0),
            "ring blending must converge: {v:?}"
        );
        // The blend is mean-preserving on the ring (doubly stochastic).
        let final_mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        assert!((final_mean - mean).abs() < 1e-9);
        // Degenerate rings are identity.
        assert_eq!(ring_blend(&[3.0], 0.5), vec![3.0]);
        assert_eq!(ring_blend(&[], 0.5), Vec::<f64>::new());
    }
}
