//! Ring-buffered event recording lanes and the merging recorder.
//!
//! Each recording component owns one [`LaneBuf`] — the engine holds
//! lane 0 inside the [`Recorder`], and each serving pool is handed lane
//! `p + 1` so pool-internal events are recorded by the pool itself,
//! while a step region advances its chain ahead of the other pools'.
//! Because every component records in non-decreasing simulation time,
//! each lane is time-sorted by construction, and the final merge only
//! needs a stable sort by `(time, lane)` to produce one deterministic
//! global stream, whatever order the chains were advanced in.

use std::collections::VecDeque;

use ic_desim::SimTime;

use crate::event::{EventKind, ObsEvent};

/// One component's ring buffer of lifecycle events.
///
/// The buffer holds at most `cap` events; when full, the oldest event is
/// dropped and counted, so a long run degrades to a suffix trace rather
/// than unbounded memory. Capacity `0` keeps the lane as a pure counter.
#[derive(Debug)]
pub struct LaneBuf {
    lane: u32,
    cap: usize,
    events: VecDeque<ObsEvent>,
    dropped: u64,
}

impl LaneBuf {
    /// Creates a lane with identity `lane` holding at most `cap` events.
    pub fn new(lane: u32, cap: usize) -> Self {
        LaneBuf {
            lane,
            cap,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The lane identity events are stamped with.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Records one event. Callers must push in non-decreasing `at`
    /// order; the merge relies on each lane being time-sorted.
    pub fn push(&mut self, at: SimTime, request: u64, kind: EventKind) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ObsEvent {
            at,
            lane: self.lane,
            request,
            kind,
        });
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the lane holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring (or refused at capacity 0).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Owns the engine lane and merges all lanes into one ordered stream.
#[derive(Debug)]
pub struct Recorder {
    engine: LaneBuf,
}

impl Recorder {
    /// Lane id the recorder's own (engine) events are stamped with.
    pub const ENGINE_LANE: u32 = 0;

    /// Creates a recorder whose engine lane holds at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Recorder {
            engine: LaneBuf::new(Self::ENGINE_LANE, cap),
        }
    }

    /// Records one engine-lane event (arrival, selection, routing,
    /// failover, gossip, outage edges).
    pub fn record(&mut self, at: SimTime, request: u64, kind: EventKind) {
        self.engine.push(at, request, kind);
    }

    /// Consumes the recorder plus the pool lanes handed back by the
    /// serving tier, returning the globally ordered event stream and
    /// the total ring-drop count.
    ///
    /// The sort key is `(time, lane)` and the sort is stable, so events
    /// a single component recorded at the same instant keep their
    /// recording order — the order state transitions actually happened.
    pub fn finish(self, pool_lanes: Vec<LaneBuf>) -> (Vec<ObsEvent>, u64) {
        let mut dropped = self.engine.dropped;
        let mut events: Vec<ObsEvent> = self.engine.events.into_iter().collect();
        for lane in pool_lanes {
            dropped += lane.dropped;
            events.extend(lane.events);
        }
        events.sort_by_key(|e| (e.at, e.lane));
        (events, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut lane = LaneBuf::new(1, 2);
        lane.push(t(1), 7, EventKind::FirstToken);
        lane.push(t(2), 7, EventKind::QuantumPreempt);
        lane.push(t(3), 7, EventKind::Finish { preemptions: 1 });
        assert_eq!(lane.len(), 2);
        assert_eq!(lane.dropped(), 1);
        let (events, dropped) = Recorder::new(4).finish(vec![lane]);
        assert_eq!(dropped, 1);
        assert_eq!(events[0].at, t(2));
        assert_eq!(events[1].kind, EventKind::Finish { preemptions: 1 });
    }

    #[test]
    fn zero_capacity_lane_only_counts() {
        let mut lane = LaneBuf::new(3, 0);
        lane.push(t(1), 1, EventKind::FirstToken);
        assert!(lane.is_empty());
        assert_eq!(lane.dropped(), 1);
    }

    #[test]
    fn merge_orders_by_time_then_lane_stably() {
        let mut rec = Recorder::new(16);
        rec.record(t(5), 1, EventKind::Arrival { replica: 0 });
        rec.record(t(5), 1, EventKind::RouterDecision { pool: 0 });
        let mut pool = LaneBuf::new(1, 16);
        pool.push(t(5), 1, EventKind::SlotStart { replica: 0 });
        pool.push(t(9), 1, EventKind::FirstToken);
        let mut pool2 = LaneBuf::new(2, 16);
        pool2.push(t(5), 2, EventKind::SlotStart { replica: 1 });
        let (events, dropped) = rec.finish(vec![pool2, pool]);
        assert_eq!(dropped, 0);
        let key: Vec<(u64, u32)> = events.iter().map(|e| (e.at.as_micros(), e.lane)).collect();
        assert_eq!(key, vec![(5, 0), (5, 0), (5, 1), (5, 2), (9, 1)]);
        // Stable within (time, lane): arrival precedes the router decision.
        assert_eq!(events[0].kind, EventKind::Arrival { replica: 0 });
        assert_eq!(events[1].kind, EventKind::RouterDecision { pool: 0 });
    }
}
