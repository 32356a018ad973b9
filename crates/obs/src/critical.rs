//! Per-request critical-path reconstruction.
//!
//! Folds the merged event stream into one [`CriticalPath`] per request:
//! an exact integer-microsecond decomposition of the request's
//! end-to-end latency into queue wait, prefill, decode, swap penalty,
//! and retry overhead. Because every bucket is accrued in whole
//! microseconds between consecutive lifecycle transitions, the buckets
//! sum *exactly* to `terminal - arrival` for any well-formed stream —
//! no float tolerance is involved until the caller compares against the
//! seconds-valued latencies in `EngineReport`.

use std::collections::BTreeMap;

use ic_desim::SimTime;

use crate::event::{EventKind, ObsEvent};

/// Exact latency decomposition of one request, in integer microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPath {
    /// When the request entered the system.
    pub arrival: SimTime,
    /// When the terminal event (finish or reject) fired, if one did.
    pub terminal: Option<SimTime>,
    /// The terminal event was a queue-cap rejection.
    pub rejected: bool,
    /// Terminal events observed (a well-formed stream has exactly one).
    pub terminals: u32,
    /// Time spent waiting for first admission or re-admission after a
    /// quantum preemption or failover.
    pub queue_us: u64,
    /// Time spent in chunked prefill iterations.
    pub prefill_us: u64,
    /// Time spent in decode iterations.
    pub decode_us: u64,
    /// Time spent swapped out under memory pressure.
    pub swap_us: u64,
    /// Progress discarded by failover: everything accrued before a
    /// `FailoverFlush` is moved here and the phases restart.
    pub retry_us: u64,
    /// Event timestamps never decreased while folding this request.
    pub monotone: bool,
}

impl CriticalPath {
    /// Sum of all phase buckets.
    pub fn total_us(&self) -> u64 {
        self.queue_us + self.prefill_us + self.decode_us + self.swap_us + self.retry_us
    }

    /// `terminal - arrival`, or 0 while the request is still in flight.
    pub fn span_us(&self) -> u64 {
        self.terminal
            .map(|t| (t - self.arrival).as_micros())
            .unwrap_or(0)
    }

    /// A stream is well-formed when it closed with exactly one terminal
    /// event, timestamps never went backwards, and the phase buckets
    /// account for every microsecond between arrival and terminal.
    pub fn well_formed(&self) -> bool {
        self.terminals == 1 && self.monotone && self.span_us() == self.total_us()
    }
}

/// Where un-accrued time since `mark` will be charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting to be admitted for the first time (or after a failover
    /// reset / quantum preemption): charges `queue_us`.
    WaitFresh,
    /// Swapped out under pressure: charges `swap_us`.
    WaitSwapped,
    /// Occupying a slot: charges `prefill_us` until the first token,
    /// `decode_us` after.
    Running,
    /// Terminal event seen; nothing accrues.
    Done,
}

#[derive(Debug)]
struct Builder {
    path: CriticalPath,
    mark: SimTime,
    phase: Phase,
    decoding: bool,
}

impl Builder {
    fn new(arrival: SimTime) -> Self {
        Builder {
            path: CriticalPath {
                arrival,
                terminal: None,
                rejected: false,
                terminals: 0,
                queue_us: 0,
                prefill_us: 0,
                decode_us: 0,
                swap_us: 0,
                retry_us: 0,
                monotone: true,
            },
            mark: arrival,
            phase: Phase::WaitFresh,
            decoding: false,
        }
    }

    /// Charges `mark..at` to the active phase's bucket and advances the
    /// mark.
    fn accrue(&mut self, at: SimTime) {
        if at < self.mark {
            self.path.monotone = false;
        }
        let us = (at - self.mark).as_micros();
        match self.phase {
            Phase::WaitFresh => self.path.queue_us += us,
            Phase::WaitSwapped => self.path.swap_us += us,
            Phase::Running => {
                if self.decoding {
                    self.path.decode_us += us;
                } else {
                    self.path.prefill_us += us;
                }
            }
            Phase::Done => {}
        }
        self.mark = at;
    }

    fn fold(&mut self, at: SimTime, kind: &EventKind) {
        match kind {
            // Selection and routing happen while the request waits; the
            // time stays in the queue bucket. A stage-0 cache hit never
            // occupies a slot, so its whole (fixed) serve latency is
            // queue-phase time too.
            EventKind::Arrival { .. }
            | EventKind::Stage0Hit { .. }
            | EventKind::Stage1Probe
            | EventKind::Selected { .. }
            | EventKind::RouterDecision { .. }
            | EventKind::Enqueued { .. }
            | EventKind::PrefillChunk { .. }
            | EventKind::CowDiverged { .. } => {
                if at < self.mark {
                    self.path.monotone = false;
                }
            }
            EventKind::SlotStart { .. } | EventKind::Resumed { .. } => {
                self.accrue(at);
                self.phase = Phase::Running;
            }
            EventKind::FirstToken => {
                self.accrue(at);
                self.decoding = true;
            }
            EventKind::QuantumPreempt => {
                self.accrue(at);
                self.phase = Phase::WaitFresh;
            }
            EventKind::PressureSwapOut { .. } => {
                self.accrue(at);
                self.phase = Phase::WaitSwapped;
            }
            EventKind::FailoverFlush { .. } => {
                // All progress so far is lost; charge it to retry
                // overhead and restart the lifecycle from the flush.
                self.accrue(at);
                let p = &mut self.path;
                p.retry_us += p.queue_us + p.prefill_us + p.decode_us + p.swap_us;
                p.queue_us = 0;
                p.prefill_us = 0;
                p.decode_us = 0;
                p.swap_us = 0;
                self.decoding = false;
                self.phase = Phase::WaitFresh;
            }
            EventKind::RejectedByCap { .. } => {
                self.accrue(at);
                self.path.terminal = Some(at);
                self.path.rejected = true;
                self.path.terminals += 1;
                self.phase = Phase::Done;
            }
            EventKind::Finish { .. } => {
                self.accrue(at);
                self.path.terminal = Some(at);
                self.path.terminals += 1;
                self.phase = Phase::Done;
            }
            // Cluster-scoped kinds never reach a request builder.
            EventKind::StepEnd { .. }
            | EventKind::GossipRound { .. }
            | EventKind::PoolDown { .. }
            | EventKind::PoolUp { .. } => {}
        }
    }
}

/// Folds a merged event stream into one [`CriticalPath`] per request.
///
/// Requests whose `Arrival` fell out of the ring (or cluster-scoped
/// events) are skipped — a critical path without its arrival anchor
/// would be meaningless.
pub fn critical_paths(events: &[ObsEvent]) -> BTreeMap<u64, CriticalPath> {
    let mut builders: BTreeMap<u64, Builder> = BTreeMap::new();
    for ev in events {
        if ev.request == crate::event::NO_REQUEST {
            continue;
        }
        if let EventKind::Arrival { .. } = ev.kind {
            builders.insert(ev.request, Builder::new(ev.at));
            continue;
        }
        if let Some(b) = builders.get_mut(&ev.request) {
            b.fold(ev.at, &ev.kind);
        }
    }
    builders.into_iter().map(|(id, b)| (id, b.path)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_REQUEST;

    fn ev(us: u64, lane: u32, request: u64, kind: EventKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_micros(us),
            lane,
            request,
            kind,
        }
    }

    #[test]
    fn simple_lifecycle_sums_exactly() {
        let events = vec![
            ev(100, 0, 1, EventKind::Arrival { replica: 0 }),
            ev(
                100,
                0,
                1,
                EventKind::Selected {
                    model: 0,
                    examples: 4,
                    offloaded: false,
                },
            ),
            ev(100, 0, 1, EventKind::RouterDecision { pool: 0 }),
            ev(150, 1, 1, EventKind::SlotStart { replica: 0 }),
            ev(150, 1, 1, EventKind::PrefillChunk { tokens: 256 }),
            ev(400, 1, 1, EventKind::FirstToken),
            ev(900, 1, 1, EventKind::Finish { preemptions: 0 }),
        ];
        let paths = critical_paths(&events);
        let p = &paths[&1];
        assert!(p.well_formed());
        assert_eq!(p.queue_us, 50);
        assert_eq!(p.prefill_us, 250);
        assert_eq!(p.decode_us, 500);
        assert_eq!(p.swap_us, 0);
        assert_eq!(p.retry_us, 0);
        assert_eq!(p.span_us(), 800);
        assert!(!p.rejected);
    }

    #[test]
    fn preempt_swap_and_failover_partition_the_span() {
        let events = vec![
            ev(0, 0, 2, EventKind::Arrival { replica: 1 }),
            ev(10, 1, 2, EventKind::SlotStart { replica: 0 }),
            ev(30, 1, 2, EventKind::FirstToken),
            // Quantum preemption: 30..50 decoded, 50..60 queued again.
            ev(50, 1, 2, EventKind::QuantumPreempt),
            ev(60, 1, 2, EventKind::SlotStart { replica: 1 }),
            // Pressure swap: 60..70 decoded, 70..90 swapped out.
            ev(70, 1, 2, EventKind::PressureSwapOut { host_blocks: 3 }),
            ev(90, 1, 2, EventKind::Resumed { replica: 0 }),
            // Failover at 100 voids everything accrued so far.
            ev(100, 0, 2, EventKind::FailoverFlush { pool: 0 }),
            ev(120, 2, 2, EventKind::SlotStart { replica: 0 }),
            ev(140, 2, 2, EventKind::FirstToken),
            ev(160, 2, 2, EventKind::Finish { preemptions: 2 }),
        ];
        let paths = critical_paths(&events);
        let p = &paths[&2];
        assert!(p.well_formed());
        assert_eq!(p.retry_us, 100);
        assert_eq!(p.queue_us, 20);
        assert_eq!(p.prefill_us, 20);
        assert_eq!(p.decode_us, 20);
        assert_eq!(p.swap_us, 0);
        assert_eq!(p.span_us(), 160);
    }

    #[test]
    fn stage0_hit_charges_queue_only() {
        let events = vec![
            ev(100, 0, 7, EventKind::Arrival { replica: 0 }),
            ev(100, 0, 7, EventKind::Stage0Hit { replica: 0 }),
            ev(2100, 0, 7, EventKind::Finish { preemptions: 0 }),
        ];
        let paths = critical_paths(&events);
        let p = &paths[&7];
        assert!(p.well_formed());
        assert_eq!(p.queue_us, 2000);
        assert_eq!(p.prefill_us + p.decode_us + p.swap_us + p.retry_us, 0);
        assert_eq!(p.span_us(), 2000);
    }

    #[test]
    fn rejection_is_terminal_and_charges_queue() {
        let events = vec![
            ev(0, 0, 3, EventKind::Arrival { replica: 0 }),
            ev(0, 0, 3, EventKind::RouterDecision { pool: 1 }),
            ev(0, 0, 3, EventKind::RejectedByCap { retry: false }),
        ];
        let paths = critical_paths(&events);
        let p = &paths[&3];
        assert!(p.well_formed());
        assert!(p.rejected);
        assert_eq!(p.total_us(), 0);
    }

    #[test]
    fn double_terminal_and_regressions_flagged() {
        let events = vec![
            ev(10, 0, 4, EventKind::Arrival { replica: 0 }),
            ev(20, 1, 4, EventKind::Finish { preemptions: 0 }),
            ev(15, 1, 4, EventKind::Finish { preemptions: 0 }),
        ];
        let paths = critical_paths(&events);
        let p = &paths[&4];
        assert_eq!(p.terminals, 2);
        assert!(!p.monotone);
        assert!(!p.well_formed());
    }

    #[test]
    fn cluster_events_and_orphans_skipped() {
        let events = vec![
            ev(
                0,
                1,
                NO_REQUEST,
                EventKind::StepEnd {
                    started: SimTime::ZERO,
                    batch: 4,
                },
            ),
            // Finish with no arrival anchor (evicted from the ring).
            ev(5, 1, 9, EventKind::Finish { preemptions: 0 }),
        ];
        assert!(critical_paths(&events).is_empty());
    }
}
