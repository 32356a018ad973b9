//! The stage-1 look-ahead: upcoming arrivals' IVF probes on a second
//! core.
//!
//! A stage-1 probe is a pure function of the query's bits and the index
//! contents, and every arrival's query is known when the replay starts.
//! So while the host has a second core, one helper thread walks the
//! arrival cursor's firing order ahead of the event loop and probes each
//! arrival against a read-only view of the selector's index
//! ([`ic_vecindex::IvfIndex::view`]), writing the top
//! [`STAGE1_CANDIDATES`] hits into a fixed ring of [`RING`] slots, each
//! stamped with the arrival's seq and the probe's
//! [`ic_vecindex::ProbeStamp`]: the generation and epoch of the view,
//! and the posting lists it scanned. The event loop takes the arrival's
//! slot when it is there, brings the hits up to the index as it stands
//! ([`ic_vecindex::IvfIndex::refresh`]: the rows inserted since, in the
//! lists the probe scanned, scored and merged) and probes inline when the
//! slot is missing or its epoch has moved — the path of a one-core host.
//! A repeat query takes its own slot like any other arrival. Stage 2,
//! the cut, routing, learning, every index write, every counter and
//! every report byte stay on the event loop; a refreshed slot holds what
//! the inline probe would have returned, so the bytes are the same
//! whichever side probed.
//!
//! - **Never waiting, but once a pass.** The event loop only
//!   `try_lock`s a slot: one the helper is writing, or has not reached,
//!   is probed inline. An admission appends past the helper's view, to a
//!   segment of the posting list the view does not hold, so it never
//!   waits for a probe either. Per arrival the event loop stores
//!   one counter and loads one; it wakes the helper, the one syscall on
//!   its side, only when the helper sleeps. The one wait: before a
//!   capacity pass that will evict, it takes the helper's view back
//!   ([`LookAhead::release`], the rest of one probe), so the removals
//!   edit the index in place instead of copying every segment they
//!   touch — a second index at the peak of the pass.
//! - **Hysteresis.** The helper stays at most [`RING`] arrivals ahead.
//!   When the ring is full it parks until the event loop has freed
//!   [`WAKE_FREE`] slots, so a long run costs one park and one wake per
//!   [`WAKE_FREE`] arrivals, not one per arrival.
//! - **Fresh views, at two moments.** Before each arrival the event loop
//!   publishes a new view if the index started an epoch (a capacity pass
//!   evicted, a retrain ran), the helper gave its view back, or the index
//!   took [`RING`] inserts since the last one, so a refresh merges at
//!   most about two rings' worth of logged inserts. A new epoch makes
//!   every slot ahead stale: the event loop wakes a parked helper, which
//!   takes the view and starts again from the event loop's position
//!   instead of running out its stale lead. Both moments are constants,
//!   not knobs.
//! - **Few allocations.** The ring is one value in `serve_workload`'s
//!   frame, not on the heap. The helper's probe buffers are its own,
//!   allocated on its thread and grown there when the lists outgrow
//!   them, and [`ic_vecindex::IndexView::search_into`] fills them in
//!   place: nothing per probe, and nothing the event loop's heap ever
//!   sees (`docs/replay-perf.md`, "Stage-1 look-ahead", for what a `Vec`
//!   per probe, or the same buffers on the event loop's heap, cost in
//!   peak RSS).
//!
//! The helper starts with every replay that has arrivals, on a host with
//! a second core (`EventDrivenEngine::lookahead_ring`), and runs until
//! the replay ends, when [`LookAhead`]'s `Drop` stops it and the scope
//! joins it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, TryLockError};
use std::thread::{Scope, Thread};

use ic_desim::SimTime;
use ic_llmsim::{ExampleId, Request};
use ic_selector::STAGE1_CANDIDATES;
use ic_vecindex::{IndexView, IvfIndex, ProbeScratch, ProbeStamp, SearchHit};

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
            let view = state.system.selector().index().view();
            let order = state.cursor.order();
            state.lookahead = LookAhead::start(scope, ring, view, requests, order);
        }
        state.run();
        state.into_report()
    })
}

/// Ring slots: how many arrivals the helper may probe ahead of the
/// event loop, and how many inserts a published view may fall behind
/// the index before the next one.
const RING: usize = 256;

/// Slots the event loop frees before it wakes a helper that parked on
/// a full ring.
const WAKE_FREE: usize = RING / 2;

/// `wake_at` while the helper is not waiting to be woken.
const AWAKE: usize = usize::MAX;

/// One arrival's stage-1 hits, stamped with what they were probed for.
/// The hits sit in the slot itself, so the ring is one plain value.
struct Slot {
    /// The arrival's seq (its request index) and the probe's stamp;
    /// `None` while empty.
    probe: Option<(usize, ProbeStamp)>,
    /// The probe's hits are `hits[..len]`.
    len: usize,
    hits: [SearchHit; STAGE1_CANDIDATES],
}

/// What the two threads share: the slots, the helper's view, and five
/// counters and flags. About 155 KB, built where the replay starts and
/// lent to the helper.
pub(super) struct Ring {
    /// Arrival at firing position `p` writes slot `p % RING`.
    slots: [Mutex<Slot>; RING],
    /// Arrivals the event loop has started: positions below it are
    /// taken or being taken, and the helper writes a position `p` only
    /// while `p + 1 < started + RING`, so the slot the event loop reads
    /// is never rewritten under it.
    started: AtomicUsize,
    /// Set by a helper about to park: the `started` count at which the
    /// event loop wakes it ([`AWAKE`] otherwise). A view of a new epoch
    /// wakes it too.
    wake_at: AtomicUsize,
    /// Tells the helper to return.
    stop: AtomicBool,
    /// The view the helper probes, locked for one probe at a time: the
    /// event loop replaces it (`publish`) or takes it away (`release`)
    /// between two probes, and drops the old one on its own thread.
    view: Mutex<Option<IndexView>>,
    /// Views published so far: what a helper without one waits for.
    published: AtomicUsize,
    /// Set while the event loop waits for `view`: the helper starts no
    /// probe, so the lock passes to the event loop when the current
    /// probe ends instead of going back to the helper.
    swapping: AtomicBool,
    /// Test-only: wait for each arrival's slot instead of probing
    /// inline when the helper has not reached it, so that tests see the
    /// slot path on every arrival the helper serves.
    #[cfg(test)]
    patient: bool,
    /// Test-only: the position the helper probes next, what a patient
    /// event loop waits on.
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
                    probe: None,
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
            view: Mutex::new(None),
            published: AtomicUsize::new(0),
            swapping: AtomicBool::new(false),
            #[cfg(test)]
            patient: false,
            #[cfg(test)]
            probed: AtomicUsize::new(0),
            #[cfg(test)]
            taken: AtomicUsize::new(0),
        }
    }

    /// Writes the hits of arrival `seq` at firing position `pos`, probed
    /// as `stamp` says, unless the event loop is reading the slot.
    fn put(&self, pos: usize, seq: usize, stamp: ProbeStamp, hits: &[SearchHit]) {
        if let Ok(mut slot) = self.slots[pos % RING].try_lock() {
            slot.len = hits.len();
            slot.hits[..hits.len()].copy_from_slice(hits);
            slot.probe = Some((seq, stamp));
        }
    }

    /// The hits in position `pos`'s slot, brought up to `index` as it
    /// stands, if they are arrival `seq`'s, the helper is not writing
    /// them and the index is still in their epoch.
    fn take(
        &self,
        pos: usize,
        seq: usize,
        index: &IvfIndex,
        request: &Request,
    ) -> Option<Vec<(ExampleId, f64)>> {
        let (stamp, mut hits) = {
            let slot = self.slots[pos % RING].try_lock().ok()?;
            let (_, stamp) = slot.probe.filter(|&(probed, _)| probed == seq)?;
            (stamp, slot.hits[..slot.len].to_vec())
        };
        if !index.refresh(&request.embedding, STAGE1_CANDIDATES, &stamp, &mut hits) {
            return None;
        }
        #[cfg(test)]
        self.taken.fetch_add(1, SeqCst);
        Some(
            hits.iter()
                .map(|h| (ExampleId(h.id), h.similarity))
                .collect(),
        )
    }

    /// Puts `view` in the helper's place and returns the one it replaces,
    /// once the helper is between two probes.
    fn swap_view(&self, view: Option<IndexView>) -> Option<IndexView> {
        self.swapping.store(true, SeqCst);
        // Yielding, not sleeping on the lock: the probe ends within
        // microseconds, sooner than a sleeping thread is woken.
        let mut held = loop {
            match self.view.try_lock() {
                Ok(held) => break held,
                Err(TryLockError::WouldBlock) => std::thread::yield_now(),
                Err(TryLockError::Poisoned(_)) => panic!("the look-ahead helper panicked"),
            }
        };
        let old = std::mem::replace(&mut *held, view);
        drop(held);
        self.swapping.store(false, SeqCst);
        old
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
    /// The epoch and generation of the view published last.
    epoch: u64,
    generation: u64,
    /// Whether the event loop took the view back since.
    released: bool,
}

impl<'s> LookAhead<'s> {
    /// Starts the helper on `scope`: through `ring`, it probes
    /// `requests` in the firing order `order`, against `view` until the
    /// event loop publishes another, and the scope joins it. `None` if
    /// the thread cannot be spawned: the replay then probes inline, as
    /// on one core.
    pub(super) fn start(
        scope: &'s Scope<'s, '_>,
        ring: &'s Ring,
        view: IndexView,
        requests: &'s [Request],
        order: Arc<[(SimTime, usize)]>,
    ) -> Option<Self> {
        let (epoch, generation) = (view.epoch(), view.generation());
        *ring.view.lock().expect("unpoisoned") = Some(view);
        let helper = std::thread::Builder::new()
            .spawn_scoped(scope, move || probe_ahead(ring, requests, &order))
            .ok()?;
        Some(Self {
            thread: helper.thread().clone(),
            ring,
            epoch,
            generation,
            released: false,
        })
    }

    /// Hands the helper a view of `index` if the index started an epoch
    /// since the last one, took [`RING`] inserts, or the view was taken
    /// back; in all but the second case, also wakes a helper parked
    /// behind a lead that just went stale. Waits for the rest of the
    /// helper's probe, if it is in one.
    pub(super) fn publish(&mut self, index: &IvfIndex) {
        let moved = self.released || index.epoch() != self.epoch;
        if !moved && index.generation() - self.generation < RING as u64 {
            return;
        }
        (self.epoch, self.generation) = (index.epoch(), index.generation());
        self.released = false;
        drop(self.ring.swap_view(Some(index.view())));
        // Stored before `wake_at` is loaded, as a parking helper stores
        // `wake_at` before it loads this: one of them sees the other.
        self.ring.published.fetch_add(1, SeqCst);
        if moved && self.ring.wake_at.swap(AWAKE, SeqCst) != AWAKE {
            self.thread.unpark();
        }
    }

    /// Takes the helper's view away before a write that would otherwise
    /// copy every segment it touches (a capacity pass that evicts),
    /// waiting for the rest of the helper's probe if it is in one: once
    /// a pass. The next arrival publishes a fresh view.
    pub(super) fn release(&mut self) {
        drop(self.ring.swap_view(None));
        self.released = true;
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

    /// The stage-1 hits of arrival `seq` at firing position `pos`, as
    /// a search of `index` returns them now, if the helper has written
    /// them in the index's epoch and is not writing the slot right now.
    pub(super) fn take(
        &self,
        pos: usize,
        seq: usize,
        index: &IvfIndex,
        request: &Request,
    ) -> Option<Vec<(ExampleId, f64)>> {
        #[cfg(test)]
        while self.ring.patient && self.ring.probed.load(SeqCst) <= pos {
            std::thread::yield_now();
        }
        self.ring.take(pos, seq, index, request)
    }
}

impl Drop for LookAhead<'_> {
    /// Stops the helper: the one place it stops, when the replay's
    /// state goes at its end or as its event loop unwinds. The view goes
    /// first, a parked helper is woken to see the flag, the scope joins
    /// it, and a helper panic propagates from the scope.
    fn drop(&mut self) {
        self.ring.stop.store(true, SeqCst);
        if let Ok(mut view) = self.ring.view.lock() {
            view.take();
        }
        self.thread.unpark();
    }
}

/// The helper's loop: probe each position in firing order through the
/// ring's view, at most [`RING`] ahead of the event loop, skipping to
/// the arrival the event loop is on when it fell behind, and starting
/// again from there on a view of another epoch. Past the last arrival,
/// or without a view, it sleeps until the next view or the stop.
fn probe_ahead(ring: &Ring, requests: &[Request], order: &[(SimTime, usize)]) {
    let mut scratch = ProbeScratch::default();
    let mut out = Vec::with_capacity(STAGE1_CANDIDATES);
    // The epoch of the view the last probe read.
    let mut epoch = None;
    let mut pos = 0;
    while !ring.stop.load(SeqCst) {
        if ring.swapping.load(SeqCst) {
            std::thread::yield_now();
            continue;
        }
        let published = ring.published.load(SeqCst);
        let started = ring.started.load(SeqCst);
        let held = ring.view.lock().expect("unpoisoned");
        if let Some(view) = held.as_ref()
            && epoch != Some(view.epoch())
        {
            // Every slot ahead may be stale: start again from the event
            // loop's position.
            epoch = Some(view.epoch());
            pos = 0;
        }
        pos = pos.max(started.saturating_sub(1));
        let full = pos + 1 >= started + RING;
        if let Some(view) = held.as_ref().filter(|_| !full && pos < order.len()) {
            let (_, seq) = order[pos];
            let query = &requests[seq].embedding;
            let stamp = view.search_into(query, STAGE1_CANDIDATES, &mut scratch, &mut out);
            drop(held);
            ring.put(pos, seq, stamp, &out);
            pos += 1;
            #[cfg(test)]
            ring.probed.store(pos, SeqCst);
            continue;
        }
        drop(held);
        // Sleep until the event loop has freed `WAKE_FREE` slots (past the
        // last arrival, or not full: never) or publishes a view. The
        // event loop stores `started` and `published` before it loads
        // `wake_at`, and the helper stores `wake_at` before it loads them,
        // so one of them sees the other: no lost wake.
        let wake = if full {
            pos + 1 + WAKE_FREE - RING
        } else {
            order.len() + 1
        };
        ring.wake_at.store(wake, SeqCst);
        if ring.started.load(SeqCst) < wake
            && ring.published.load(SeqCst) == published
            && !ring.stop.load(SeqCst)
        {
            std::thread::park();
        }
        ring.wake_at.store(AWAKE, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::super::EngineConfig;
    use super::super::tests::seeded_engine;
    use super::*;
    use ic_vecindex::{IvfConfig, VectorIndex};

    /// A slot answers only the arrival it was written for, and only in
    /// its index epoch: brought up to the rows inserted since, refused
    /// once a removal started another epoch. A slot the event loop holds
    /// is neither overwritten nor read twice. Mutations that fail it:
    /// dropping the seq comparison in `take` (a wrapped slot would be
    /// served as this arrival's), dropping the `refresh` in `take` (a
    /// stale slot would be served as it was).
    #[test]
    fn a_slot_answers_only_its_own_arrival_in_its_own_epoch() {
        let (_, mut wg) = seeded_engine(10, EngineConfig::default(), 443);
        let rows = wg.generate_requests(301);
        let request = &rows[300];
        let mut index = IvfIndex::new(IvfConfig::default());
        for (id, row) in rows[..300].iter().enumerate() {
            index.insert(id as u64, row.embedding.clone());
        }
        let want = |index: &IvfIndex| -> Vec<(ExampleId, f64)> {
            (index.search(&request.embedding, STAGE1_CANDIDATES).iter())
                .map(|h| (ExampleId(h.id), h.similarity))
                .collect()
        };
        let ring = Ring::new();
        assert_eq!(
            ring.take(3, 17, &index, request),
            None,
            "nothing written yet"
        );
        let mut out = Vec::new();
        let mut scratch = ProbeScratch::default();
        let view = index.view();
        let stamp = view.search_into(
            &request.embedding,
            STAGE1_CANDIDATES,
            &mut scratch,
            &mut out,
        );
        ring.put(3, 17, stamp, &out);
        assert_eq!(ring.take(3, 17, &index, request), Some(want(&index)));
        assert_eq!(
            ring.take(3, 18, &index, request),
            None,
            "another arrival's seq"
        );
        // Position 3 + RING shares the slot: what is there is position
        // 3's, not its own.
        assert_eq!(ring.take(3 + RING, 300, &index, request), None);
        // A copy of the query lands in the nearest centroid's list, the
        // first the probe scanned: the refreshed slot leads with it.
        index.insert(1_000, request.embedding.clone());
        let refreshed = ring.take(3, 17, &index, request).expect("same epoch");
        assert_eq!(refreshed[0].0, ExampleId(1_000));
        assert_eq!(refreshed, want(&index));
        // A slot the event loop is reading is not written, nor taken.
        let held = ring.slots[3].lock().expect("unpoisoned");
        ring.put(3, 300, stamp, &out);
        assert_eq!(ring.take(3, 17, &index, request), None, "busy");
        drop(held);
        assert_eq!(ring.take(3, 17, &index, request), Some(want(&index)));
        assert!(index.remove(1_000));
        assert_eq!(ring.take(3, 17, &index, request), None, "a later epoch");
    }
}
