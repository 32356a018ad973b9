//! The event queue and simulation driver.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A scheduled event: ordering key is `(time, seq)` so that events scheduled
/// for the same instant fire in scheduling (FIFO) order — a requirement for
/// deterministic replay.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event simulator over events of type `E`.
///
/// The simulator owns a virtual clock and a priority queue of pending
/// events. Callers either drive it manually with [`Simulator::next`] or hand
/// a handler to [`Simulator::run`] / [`Simulator::run_until`]. Handlers may
/// schedule further events, including at the current instant (which fire
/// after already-queued same-instant events).
///
/// # Examples
///
/// ```
/// use ic_desim::{SimDuration, SimTime, Simulator};
///
/// // A ping-pong of two events 100ms apart.
/// let mut sim: Simulator<u32> = Simulator::new();
/// sim.schedule(SimTime::ZERO, 0);
/// let mut fired = Vec::new();
/// sim.run(|sim, n| {
///     fired.push((sim.now(), n));
///     if n < 3 {
///         sim.schedule_in(SimDuration::from_millis(100), n + 1);
///     }
/// });
/// assert_eq!(fired.len(), 4);
/// assert_eq!(fired[3].0, SimTime::from_millis(300));
/// ```
pub struct Simulator<E> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    processed: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an empty simulator with the clock at zero.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to
    /// "now" so time never runs backwards, and debug builds assert.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        self.heap.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Schedules `event` after `delay` from the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// The `(time, seq)` ordering key of the earliest pending event, if
    /// any — seq being the same-time tie-break assigned at scheduling.
    ///
    /// Drivers that keep some events *outside* the queue (e.g. one armed
    /// step slot per pool, keyed by [`Simulator::reserve_seq`]) compare
    /// against it to handle everything in the exact total order a fully
    /// queued run would have used.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(s)| (s.at, s.seq))
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    ///
    /// Deliberately *not* an `Iterator` impl: drivers interleave `next`
    /// with `schedule` calls on the same simulator, which an iterator
    /// borrow would forbid.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.at;
        self.processed += 1;
        Some((s.at, s.event))
    }

    /// Moves the clock to `at` for an event the driver keeps outside the
    /// queue (it was never scheduled, so nothing is popped or counted).
    /// Like [`Simulator::schedule`], a time in the past is a logic error:
    /// debug builds assert and the clock never runs backwards.
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(
            at >= self.now,
            "advanced into the past: {at} < {}",
            self.now
        );
        self.now = self.now.max(at);
    }

    /// Consumes and returns the next sequence number as if an event had been
    /// scheduled, without enqueueing anything.
    ///
    /// Used by drivers that execute some events outside the queue but must
    /// keep the `(time, seq)` total order bit-identical to a fully queued
    /// run: each externally-simulated event burns exactly the seq it would
    /// have been assigned by [`Simulator::schedule`].
    pub fn reserve_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Consumes `n` sequence numbers at once: exactly `n` calls of
    /// [`Simulator::reserve_seq`] whose values nobody reads (a run of
    /// externally-simulated events handled back to back).
    pub fn reserve_seqs(&mut self, n: u64) {
        self.seq += n;
    }

    /// Runs until the queue is empty, passing each event to `handler`.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, E)) {
        while let Some((_, ev)) = self.next() {
            handler(self, ev);
        }
    }

    /// Runs until the queue is empty or the next event is strictly after
    /// `end`. Events exactly at `end` are processed. On return, the clock is
    /// at the last processed event (or `end` if nothing remained earlier
    /// than it).
    pub fn run_until(&mut self, end: SimTime, mut handler: impl FnMut(&mut Self, E)) {
        while let Some(t) = self.peek_time() {
            if t > end {
                break;
            }
            let (_, ev) = self.next().expect("peeked event exists");
            handler(self, ev);
        }
        if self.now < end {
            self.now = end;
        }
    }

    /// Discards all pending events without running them.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::from_micros(30), 3);
        sim.schedule(SimTime::from_micros(10), 1);
        sim.schedule(SimTime::from_micros(20), 2);
        let mut out = Vec::new();
        sim.run(|_, e| out.push(e));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut sim: Simulator<u32> = Simulator::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            sim.schedule(t, i);
        }
        let mut out = Vec::new();
        sim.run(|_, e| out.push(e));
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.schedule(SimTime::from_secs(2), ());
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.next();
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::ZERO, 0);
        let mut count = 0;
        sim.run(|sim, n| {
            count += 1;
            if n < 9 {
                sim.schedule_in(SimDuration::from_micros(1), n + 1);
            }
        });
        assert_eq!(count, 10);
        assert_eq!(sim.now(), SimTime::from_micros(9));
        assert_eq!(sim.processed(), 10);
    }

    #[test]
    fn same_instant_followups_run_after_queued_peers() {
        let mut sim: Simulator<&'static str> = Simulator::new();
        sim.schedule(SimTime::ZERO, "a");
        sim.schedule(SimTime::ZERO, "b");
        let mut out = Vec::new();
        sim.run(|sim, e| {
            out.push(e);
            if e == "a" {
                sim.schedule(sim.now(), "a-followup");
            }
        });
        assert_eq!(out, vec!["a", "b", "a-followup"]);
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut sim: Simulator<u32> = Simulator::new();
        for i in 1..=10 {
            sim.schedule(SimTime::from_secs(i), i as u32);
        }
        let mut out = Vec::new();
        sim.run_until(SimTime::from_secs(5), |_, e| out.push(e));
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.len(), 5);
        // Resume picks up where it left off.
        sim.run_until(SimTime::from_secs(20), |_, e| out.push(e));
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.run_until(SimTime::from_secs(7), |_, _| {});
        assert_eq!(sim.now(), SimTime::from_secs(7));
    }

    #[test]
    fn peek_key_exposes_seq_and_reserve_seq_matches_schedule() {
        let mut sim: Simulator<u32> = Simulator::new();
        assert_eq!(sim.peek_key(), None);
        let t = SimTime::from_micros(4);
        sim.schedule(t, 10); // seq 0
        sim.schedule(t, 11); // seq 1
        // Peeking leaves the queue and the clock untouched.
        assert_eq!(sim.peek_key(), Some((t, 0)));
        assert_eq!((sim.len(), sim.now()), (2, SimTime::ZERO));
        assert_eq!(sim.next(), Some((t, 10)));
        // reserve_seq burns exactly the seq the next schedule would have used,
        // so a subsequent schedule sorts after it at the same instant.
        let burned = sim.reserve_seq();
        assert_eq!(burned, 2);
        sim.schedule(t, 12); // seq 3
        assert_eq!(sim.peek_key(), Some((t, 1)));
        assert_eq!(sim.next(), Some((t, 11)));
        assert_eq!(sim.peek_key(), Some((t, 3)));
        assert_eq!(sim.next(), Some((t, 12)));
    }

    #[test]
    fn advance_to_moves_the_clock_and_nothing_else() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::from_micros(9), 1);
        sim.advance_to(SimTime::from_micros(4));
        assert_eq!(sim.now(), SimTime::from_micros(4));
        assert_eq!((sim.len(), sim.processed()), (1, 0));
        // An event scheduled from there keeps the next seq and fires first.
        sim.schedule_in(SimDuration::from_micros(1), 2);
        assert_eq!(sim.peek_key(), Some((SimTime::from_micros(5), 1)));
    }

    #[test]
    fn reserve_seqs_equals_repeated_reserve_seq() {
        let t = SimTime::from_micros(1);
        for n in [0u64, 1, 2, 17] {
            let mut bulk: Simulator<u32> = Simulator::new();
            let mut single: Simulator<u32> = Simulator::new();
            for sim in [&mut bulk, &mut single] {
                sim.schedule(t, 0);
                sim.reserve_seq();
            }
            bulk.reserve_seqs(n);
            for _ in 0..n {
                single.reserve_seq();
            }
            // The next reserved seq and the next scheduled event's seq agree.
            assert_eq!(bulk.reserve_seq(), single.reserve_seq());
            bulk.schedule(t, 1);
            single.schedule(t, 1);
            let drain = |sim: &mut Simulator<u32>| {
                std::iter::from_fn(|| {
                    let key = sim.peek_key()?;
                    sim.next().map(|(_, event)| (key, event))
                })
                .collect::<Vec<_>>()
            };
            assert_eq!(drain(&mut bulk), drain(&mut single));
        }
    }

    #[test]
    fn clear_discards_pending() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule(SimTime::from_secs(1), 1);
        sim.clear();
        assert!(sim.is_empty());
        assert_eq!(sim.next().map(|(_, e)| e), None);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let build = || {
            let mut sim: Simulator<u64> = Simulator::new();
            for i in 0..50u64 {
                sim.schedule(SimTime::from_micros((i * 37) % 13), i);
            }
            let mut trace = Vec::new();
            sim.run(|sim, e| trace.push((sim.now().as_micros(), e)));
            trace
        };
        assert_eq!(build(), build());
    }
}
