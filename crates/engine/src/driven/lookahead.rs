//! The stage-1 look-ahead: upcoming arrivals' IVF probes on a second
//! core.
//!
//! A stage-1 probe is a pure function of the query's bits and the index
//! contents, and every arrival's query is known when the replay starts.
//! So on a replay that never writes the index, while the host has a
//! second core, one helper thread walks the arrival cursor's firing
//! order ahead of the event loop and probes each arrival against a
//! shared handle on the selector's index
//! ([`ic_selector::ExampleSelector::shared_index`]), writing the top
//! [`STAGE1_CANDIDATES`] hits into a fixed ring of [`RING`] slots, each
//! stamped with the arrival's seq and the index generation it was probed
//! under. The event loop takes the arrival's slot when it is there and
//! its stamps are current, and probes inline otherwise — the path of a
//! one-core host and of every replay that writes the index.
//! A repeat query takes its own slot like any other arrival. Stage 2,
//! the cut, routing, learning, every counter and every report byte stay
//! on the event loop; a slot holds what the inline probe would have
//! returned, so the bytes are the same whichever side probed.
//!
//! - **Never waiting.** The event loop only `try_lock`s a slot: one the
//!   helper is writing, or has not reached, is probed inline. Per
//!   arrival it stores one counter and loads one; it wakes the helper,
//!   the one syscall on its side, only when the helper sleeps.
//! - **Hysteresis.** The helper stays at most [`RING`] arrivals ahead.
//!   When the ring is full it parks until the event loop has freed
//!   [`WAKE_FREE`] slots, so a long run costs one park and one wake per
//!   [`WAKE_FREE`] arrivals, not one per arrival.
//! - **Allocation-free.** The ring is one value in `serve_workload`'s
//!   frame, not on the heap. The helper sizes its probe buffers once,
//!   when it starts ([`ProbeScratch::for_index`]), frees them when it
//!   returns, and [`ic_vecindex::IvfIndex::search_into`] fills them in
//!   place: nothing per probe, and nothing the event loop's heap ever
//!   sees (`docs/replay-perf.md`, "Stage-1 look-ahead", for what a `Vec`
//!   per probe, or the same buffers on the event loop's heap, cost in
//!   peak RSS).
//! - **Read-only replays only.** The index changes only at an admission
//!   and at a capacity pass that evicts, so the engine starts the helper
//!   only when neither can happen: no served-pair admission and no
//!   manager byte cap (`EventDrivenEngine::lookahead_ring`). It then
//!   runs until the replay ends, when [`LookAhead`]'s `Drop` stops it
//!   and the scope joins it. The selector writes through
//!   `Arc::get_mut`, so a write under a wrong start condition panics
//!   instead of racing.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::{Scope, Thread};

use ic_desim::SimTime;
use ic_llmsim::{ExampleId, Request};
use ic_selector::STAGE1_CANDIDATES;
use ic_vecindex::{IvfIndex, ProbeScratch, SearchHit};

use super::EventDrivenEngine;
use super::state::EngineState;
use crate::report::EngineReport;

/// Whether the host has a second core for the helper.
pub(super) fn second_core() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

/// One replay of `requests` at `arrivals` on `engine`, with a look-ahead
/// through `ring` when one is given, stopped and joined by the time the
/// replay returns.
pub(super) fn replay(
    engine: &mut EventDrivenEngine,
    requests: &[Request],
    arrivals: &[f64],
    ring: Option<&Ring>,
) -> EngineReport {
    std::thread::scope(|scope| {
        let mut state = EngineState::new(engine, requests, arrivals);
        if let Some(ring) = ring {
            let index = state.system.selector().shared_index();
            let order = state.cursor.order();
            state.lookahead = LookAhead::start(scope, ring, index, requests, order);
        }
        state.run();
        state.into_report()
    })
}

/// Ring slots: how many arrivals the helper may probe ahead of the
/// event loop.
const RING: usize = 256;

/// Slots the event loop frees before it wakes a helper that parked on
/// a full ring.
const WAKE_FREE: usize = RING / 2;

/// `wake_at` while the helper is not waiting to be woken.
const AWAKE: usize = usize::MAX;

/// One arrival's stage-1 hits, stamped with what they were probed for.
/// The hits sit in the slot itself, so the ring is one plain value.
struct Slot {
    /// The arrival's seq (its request index); `usize::MAX` while empty.
    seq: usize,
    /// The index generation the probe ran under.
    generation: u64,
    /// The probe's hits are `hits[..len]`.
    len: usize,
    hits: [SearchHit; STAGE1_CANDIDATES],
}

/// What the two threads share: the slots and three flags. About 140 KB,
/// built where the replay starts and lent to the helper.
pub(super) struct Ring {
    /// Arrival at firing position `p` writes slot `p % RING`.
    slots: [Mutex<Slot>; RING],
    /// Arrivals the event loop has started: positions below it are
    /// taken or being taken, and the helper writes a position `p` only
    /// while `p + 1 < started + RING`, so the slot the event loop reads
    /// is never rewritten under it.
    started: AtomicUsize,
    /// Set by a helper about to park on a full ring: the `started`
    /// count at which the event loop wakes it ([`AWAKE`] otherwise).
    wake_at: AtomicUsize,
    /// Tells the helper to return.
    stop: AtomicBool,
    /// Test-only: wait for each arrival's slot instead of probing
    /// inline when the helper has not reached it, so that tests see the
    /// slot path on every arrival the helper serves.
    #[cfg(test)]
    patient: bool,
    /// Test-only: positions the helper has passed (`usize::MAX` once it
    /// returned), what a patient event loop waits on.
    #[cfg(test)]
    probed: AtomicUsize,
    /// Test-only: arrivals whose stage 1 came from a slot.
    #[cfg(test)]
    taken: AtomicUsize,
}

impl Ring {
    /// Empty slots, nothing started.
    pub(super) fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| {
                Mutex::new(Slot {
                    seq: usize::MAX,
                    generation: 0,
                    len: 0,
                    hits: [SearchHit {
                        id: 0,
                        similarity: 0.0,
                    }; STAGE1_CANDIDATES],
                })
            }),
            started: AtomicUsize::new(0),
            wake_at: AtomicUsize::new(AWAKE),
            stop: AtomicBool::new(false),
            #[cfg(test)]
            patient: false,
            #[cfg(test)]
            probed: AtomicUsize::new(0),
            #[cfg(test)]
            taken: AtomicUsize::new(0),
        }
    }

    /// Writes the hits of arrival `seq` at firing position `pos`, probed
    /// under `generation`, unless the event loop is reading the slot.
    fn put(&self, pos: usize, seq: usize, generation: u64, hits: &[SearchHit]) {
        if let Ok(mut slot) = self.slots[pos % RING].try_lock() {
            slot.len = hits.len();
            slot.hits[..hits.len()].copy_from_slice(hits);
            slot.seq = seq;
            slot.generation = generation;
        }
    }

    /// The hits in position `pos`'s slot if they are arrival `seq`'s
    /// under `generation`, and the helper is not writing them.
    fn take(&self, pos: usize, seq: usize, generation: u64) -> Option<Vec<(ExampleId, f64)>> {
        let slot = self.slots[pos % RING].try_lock().ok()?;
        if slot.seq != seq || slot.generation != generation {
            return None;
        }
        #[cfg(test)]
        self.taken.fetch_add(1, SeqCst);
        Some(
            (slot.hits[..slot.len].iter())
                .map(|h| (ExampleId(h.id), h.similarity))
                .collect(),
        )
    }

    /// Test-only: a ring whose event loop waits for each slot.
    #[cfg(test)]
    pub(super) fn patient() -> Self {
        Self {
            patient: true,
            ..Self::new()
        }
    }

    /// Test-only: arrivals whose stage 1 came from a slot.
    #[cfg(test)]
    pub(super) fn taken(&self) -> u64 {
        self.taken.load(SeqCst) as u64
    }
}

/// A running look-ahead, owned by the event loop until the replay ends.
pub(super) struct LookAhead<'s> {
    ring: &'s Ring,
    thread: Thread,
}

impl<'s> LookAhead<'s> {
    /// Starts the helper on `scope`: through `ring`, it probes
    /// `requests` in the firing order `order` against `index`, and the
    /// scope joins it. `None` if the thread cannot be spawned: the
    /// replay then probes inline, as on one core.
    pub(super) fn start(
        scope: &'s Scope<'s, '_>,
        ring: &'s Ring,
        index: Arc<IvfIndex>,
        requests: &'s [Request],
        order: Arc<[(SimTime, usize)]>,
    ) -> Option<Self> {
        let helper = std::thread::Builder::new()
            .spawn_scoped(scope, move || probe_ahead(ring, requests, &order, &index))
            .ok()?;
        Some(Self {
            thread: helper.thread().clone(),
            ring,
        })
    }

    /// The event loop starts the arrival at firing position `pos`:
    /// frees the slot of the one before it, and wakes a helper that
    /// parked until this many slots were free.
    pub(super) fn arrive(&self, pos: usize) {
        let started = pos + 1;
        self.ring.started.store(started, SeqCst);
        if started >= self.ring.wake_at.load(SeqCst)
            && self.ring.wake_at.swap(AWAKE, SeqCst) != AWAKE
        {
            self.thread.unpark();
        }
    }

    /// The stage-1 hits of arrival `seq` at firing position `pos` under
    /// index generation `generation`, if the helper has written them and
    /// is not writing the slot right now.
    pub(super) fn take(
        &self,
        pos: usize,
        seq: usize,
        generation: u64,
    ) -> Option<Vec<(ExampleId, f64)>> {
        #[cfg(test)]
        while self.ring.patient && self.ring.probed.load(SeqCst) <= pos {
            std::thread::yield_now();
        }
        self.ring.take(pos, seq, generation)
    }
}

impl Drop for LookAhead<'_> {
    /// Stops the helper: the one place it stops, when the replay's
    /// state goes at its end or as its event loop unwinds. A helper
    /// parked on a full ring is woken to see the flag; the scope joins
    /// it, its handle on the index goes with it, and a helper panic
    /// propagates from the scope.
    fn drop(&mut self) {
        self.ring.stop.store(true, SeqCst);
        self.thread.unpark();
    }
}

/// The helper's loop: probe each position in firing order, at most
/// [`RING`] ahead of the event loop, skipping to the arrival the event
/// loop is on when it fell behind.
fn probe_ahead(ring: &Ring, requests: &[Request], order: &[(SimTime, usize)], index: &IvfIndex) {
    let generation = index.generation();
    let mut scratch = ProbeScratch::for_index(index);
    let mut out = Vec::with_capacity(STAGE1_CANDIDATES);
    let mut pos = 0;
    while pos < order.len() && !ring.stop.load(SeqCst) {
        let started = ring.started.load(SeqCst);
        pos = pos.max(started.saturating_sub(1));
        if pos + 1 >= started + RING {
            // Full: sleep until the event loop has freed `WAKE_FREE`
            // slots. The event loop stores `started` before it loads
            // `wake_at` and the helper stores `wake_at` before it loads
            // `started`, so one of them sees the other: no lost wake.
            let wake = pos + 1 + WAKE_FREE - RING;
            ring.wake_at.store(wake, SeqCst);
            if ring.started.load(SeqCst) < wake && !ring.stop.load(SeqCst) {
                std::thread::park();
            }
            ring.wake_at.store(AWAKE, SeqCst);
            continue;
        }
        let Some(&(_, seq)) = order.get(pos) else {
            break;
        };
        let query = &requests[seq].embedding;
        index.search_into(query, STAGE1_CANDIDATES, &mut scratch, &mut out);
        ring.put(pos, seq, generation, &out);
        pos += 1;
        #[cfg(test)]
        ring.probed.store(pos, SeqCst);
    }
    #[cfg(test)]
    ring.probed.store(usize::MAX, SeqCst);
}

#[cfg(test)]
mod tests {
    use super::super::EngineConfig;
    use super::super::tests::seeded_engine;
    use super::*;

    fn hits(ids: &[u64]) -> Vec<SearchHit> {
        (ids.iter())
            .map(|&id| SearchHit {
                id,
                similarity: 1.0 / (id + 1) as f64,
            })
            .collect()
    }

    /// A slot answers only the arrival and the generation it was written
    /// for, and a slot the event loop holds is neither overwritten nor
    /// read twice. Mutations that fail it: dropping the seq or the
    /// generation comparison in `take` (a wrapped or stale slot would be
    /// served as this arrival's).
    #[test]
    fn a_slot_answers_only_its_own_arrival_and_generation() {
        let ring = Ring::new();
        assert_eq!(ring.take(3, 3, 0), None, "nothing written yet");
        ring.put(3, 17, 5, &hits(&[4, 2]));
        let want: Vec<(ExampleId, f64)> = (hits(&[4, 2]).iter())
            .map(|h| (ExampleId(h.id), h.similarity))
            .collect();
        assert_eq!(ring.take(3, 17, 5), Some(want.clone()));
        assert_eq!(ring.take(3, 18, 5), None, "another arrival's seq");
        assert_eq!(ring.take(3, 17, 6), None, "a later index generation");
        // Position 3 + RING shares the slot: what is there is position
        // 3's, not its own.
        assert_eq!(ring.take(3 + RING, 300, 5), None);
        // A slot the event loop is reading is not written, nor taken.
        let held = ring.slots[3].lock().expect("unpoisoned");
        ring.put(3, 300, 5, &hits(&[9]));
        assert_eq!(ring.take(3, 17, 5), None, "busy");
        drop(held);
        assert_eq!(ring.take(3, 17, 5), Some(want));
        assert_eq!(ring.take(3 + RING, 300, 5), None);
    }

    #[test]
    #[should_panic(expected = "an index write while a stage-1 look-ahead shares the index")]
    fn an_index_write_while_the_lookahead_holds_the_index_panics() {
        // More arrivals than the ring holds, so the helper cannot finish
        // and let go of the index before the write.
        let (mut engine, mut wg) = seeded_engine(300, EngineConfig::default(), 443);
        let requests = wg.generate_requests(400);
        let arrivals = [0.0; 400];
        let ring = Ring::new();
        std::thread::scope(|scope| {
            let mut state = EngineState::new(&mut engine, &requests, &arrivals);
            let index = state.system.selector().shared_index();
            let order = state.cursor.order();
            state.lookahead = LookAhead::start(scope, &ring, index, &requests, order);
            assert!(state.lookahead.is_some(), "the helper must start");
            // An admission while the helper runs, as a wrong start
            // condition would allow: the selector's write finds the
            // index shared.
            let out = state.system.serve(&requests[0]);
            let admitted = (state.system).update_cache(&requests[0], &out.outcome, out.model, 0.0);
            assert!(admitted.is_some(), "the pair must be admitted to write");
        });
    }
}
