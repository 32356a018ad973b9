//! The request-lifecycle event taxonomy.
//!
//! Every observable state transition in the serving stack is one
//! [`ObsEvent`]: a simulation timestamp, the request it concerns (or
//! [`NO_REQUEST`] for cluster-level instants), and an [`EventKind`]
//! payload. Events are recorded into per-component lanes (see
//! [`crate::LaneBuf`]) and merged into one globally ordered stream at
//! the end of a run, so the taxonomy is designed to be reconstructable:
//! a request's filtered stream is a complete state machine from
//! `Arrival` to exactly one terminal event (`Finish` or
//! `RejectedByCap`), from which [`crate::critical_paths`] derives the
//! per-phase latency breakdown.

use ic_desim::SimTime;

/// Sentinel request id for events that concern the cluster rather than
/// one request (step spans, outage edges).
pub const NO_REQUEST: u64 = u64::MAX;

/// What happened. Request-scoped kinds carry only the payload the lane
/// cannot supply: pool identity comes from the event's lane (engine
/// events that name a pool carry it explicitly, since the engine lane
/// serves every pool).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The request entered the system.
    Arrival,
    /// The stage-0 response cache answered this request: a stored
    /// response within the similarity threshold was found, so selection,
    /// routing, and the pool path are skipped entirely. Non-terminal —
    /// the request still finishes (with `Finish`) after the fixed
    /// cache-serve latency.
    Stage0Hit,
    /// The request missed stage 0 and ran its stage-1 selector probe
    /// (one per arrival that reaches the selector).
    Stage1Probe,
    /// Example selection finished: the request was handed `examples`
    /// in-context examples and routed to `model` (`offloaded` when that
    /// is not the primary).
    Selected {
        /// Catalog id of the serving model.
        model: u32,
        /// In-context examples selected.
        examples: u32,
        /// Routed off the primary model.
        offloaded: bool,
    },
    /// The routing decision mapped the model onto serving pool `pool`.
    RouterDecision {
        /// Pool index in routing order.
        pool: u32,
    },
    /// The pool was busy: the request waits in `pool`'s admission
    /// queue.
    Enqueued {
        /// Pool index in routing order.
        pool: u32,
    },
    /// Terminal: the pool's queue cap dropped the request (`retry` when
    /// it was a failover retry rather than a fresh arrival).
    RejectedByCap {
        /// The dropped offer was a failover retry.
        retry: bool,
    },
    /// A pool failover flushed this request's in-flight state; the
    /// router re-enqueues it as a retry.
    FailoverFlush {
        /// Pool index that went down.
        pool: u32,
    },
    /// The request occupied a slot (first admission, or re-admission of
    /// a quantum-preempted sequence) on `replica` of the lane's pool.
    SlotStart {
        /// Serving replica within the pool.
        replica: u32,
    },
    /// One chunked-prefill iteration processed `tokens` prompt tokens.
    PrefillChunk {
        /// Prompt tokens in the chunk.
        tokens: u32,
    },
    /// End of the first decode iteration — the user-perceived first
    /// token (prefill end for zero-decode jobs).
    FirstToken,
    /// The sequence yielded its slot at a token boundary (decode
    /// quantum exhausted while jobs queued behind it) and re-queued.
    QuantumPreempt,
    /// Memory pressure swapped the sequence out; `host_blocks` of its
    /// KV state were parked on the host ledger (`0` = dropped, to be
    /// rebuilt by recompute).
    PressureSwapOut {
        /// Host blocks parked.
        host_blocks: u32,
    },
    /// A swapped-out sequence returned to a slot on `replica`.
    Resumed {
        /// Serving replica within the pool.
        replica: u32,
    },
    /// Terminal: the sequence emitted its last token.
    Finish {
        /// Times the sequence was preempted over its lifetime.
        preemptions: u32,
    },
    /// One pool iteration (token step) ran from `started` to the
    /// event's timestamp with `batch` sequences in lockstep. Cluster
    /// scoped ([`NO_REQUEST`]).
    StepEnd {
        /// When the iteration started.
        started: SimTime,
        /// Sequences in the batch.
        batch: u32,
    },
    /// Fault injection: the pool went down. Cluster scoped.
    PoolDown {
        /// Pool index in routing order.
        pool: u32,
    },
    /// Fault injection: the pool recovered. Cluster scoped.
    PoolUp {
        /// Pool index in routing order.
        pool: u32,
    },
}

impl EventKind {
    /// Whether this kind ends a request's lifecycle.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            EventKind::Finish { .. } | EventKind::RejectedByCap { .. }
        )
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsEvent {
    /// Simulation time the transition happened.
    pub at: SimTime,
    /// Recording lane: `0` is the engine (arrivals, selection, routing,
    /// failover); lane `p + 1` is serving pool `p`.
    pub lane: u32,
    /// Request the event concerns, or [`NO_REQUEST`].
    pub request: u64,
    /// The transition.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_kinds() {
        assert!(EventKind::Finish { preemptions: 0 }.is_terminal());
        assert!(EventKind::RejectedByCap { retry: true }.is_terminal());
        assert!(!EventKind::Arrival.is_terminal());
        assert!(!EventKind::Stage0Hit.is_terminal());
        assert!(!EventKind::FirstToken.is_terminal());
    }
}
