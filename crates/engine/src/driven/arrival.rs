//! The arrival handler: prologue (load window, stage 0) →
//! `IcCacheSystem::serve` → epilogue (`dispatch`, cache admissions).

use std::sync::Arc;

use ic_desim::SimTime;
use ic_obs::EventKind as ObsKind;
use ic_respcache::CachedResponse;

use super::state::EngineState;
use super::step::EventKey;

/// The arrival sequence in firing order, and the one copy of it: which
/// arrival fires next. Arrivals never enter the event heap. The order is
/// shared with the stage-1 look-ahead, which walks it ahead of the event
/// loop.
pub(super) struct ArrivalCursor {
    /// Arrivals `(time, index)`, sorted: arrival `i` fires under the key
    /// `(time, i)` — the seq it would have drawn had the workload been
    /// scheduled first, in index order (`EngineState::new` reserves
    /// `0..n` for that), so it goes before any event scheduled for the
    /// same instant.
    order: Arc<[(SimTime, usize)]>,
    /// Arrivals fired so far: the current arrival's position in `order`.
    fired: usize,
}

impl ArrivalCursor {
    /// # Panics
    ///
    /// On an arrival that is not a finite time ≥ 0, which
    /// `SimTime::from_secs_f64` would clamp to t = 0.
    pub(super) fn new(arrivals: &[f64]) -> Self {
        let times = arrivals.iter().map(|&a| {
            assert!(
                a.is_finite() && a >= 0.0,
                "arrival time {a} is not a finite time >= 0"
            );
            SimTime::from_secs_f64(a)
        });
        // Collected straight into its one allocation, then sorted there.
        let mut order: Arc<[(SimTime, usize)]> = times.zip(0..).collect();
        Arc::get_mut(&mut order)
            .expect("a fresh order has one owner")
            .sort_unstable();
        Self { order, fired: 0 }
    }

    /// The firing order, for the look-ahead.
    pub(super) fn order(&self) -> Arc<[(SimTime, usize)]> {
        Arc::clone(&self.order)
    }

    /// The `(time, seq)` key of the next arrival, if any is left.
    pub(super) fn peek_key(&self) -> Option<EventKey> {
        let next = self.order.get(self.fired);
        next.map(|&(at, i)| (at, i as u64))
    }
}

impl EngineState<'_> {
    /// Fires the cursor's next arrival.
    pub(super) fn on_arrival(&mut self) {
        let pos = self.cursor.fired;
        let (at, i) = self.cursor.order[pos];
        self.cursor.fired += 1;
        if let Some(lookahead) = &mut self.lookahead {
            lookahead.publish(self.system.selector().index());
            lookahead.arrive(pos);
        }
        self.sim.advance_to(at);
        let now = at.as_secs_f64();
        let request = &self.requests[i];
        self.observe_arrival(now);
        self.trace(at, i as u64, ObsKind::Arrival);
        // Stage 0: a response-cache hit skips the whole selection path.
        if let Some(resp) = self.stage0_lookup(i, now) {
            self.serve_stage0_hit(i, &resp);
            return;
        }

        // Stage 1 from the look-ahead's slot when it is ready and was
        // probed in the index's current epoch, brought up to its current
        // generation; probed in `serve_ahead` otherwise.
        let index = self.system.selector().index();
        let stage1 = (self.lookahead.as_ref()).and_then(|ahead| ahead.take(pos, i, index, request));
        let out = self.system.serve_ahead(request, stage1);
        self.trace(at, i as u64, ObsKind::Stage1Probe);

        if self.dispatch(i, &out, at, false) {
            if self.config.admit_served_pairs {
                let _ = self
                    .system
                    .update_cache(request, &out.outcome, out.model, now);
            }
            if let Some(cache) = self.resp_cache.as_mut() {
                let served = CachedResponse {
                    model: out.model.0,
                    offloaded: out.offloaded,
                    quality: out.outcome.quality,
                    examples: out.selection.ids.len(),
                    response_tokens: out.outcome.output_tokens,
                };
                cache.admit(&request.embedding, served, now);
            }
        }
    }

    /// The stage-0 probe of arrival `i`: one sighting in the trending
    /// sketch, then the lookup. A stampede of N identical arrivals
    /// misses until the sketch counts `prepop_min` of them; that miss's
    /// served response is admitted and the rest hit it — one insertion
    /// per stampede.
    fn stage0_lookup(&mut self, i: usize, now: f64) -> Option<CachedResponse> {
        let cache = self.resp_cache.as_mut()?;
        let embedding = &self.requests[i].embedding;
        cache.observe(embedding, now);
        cache.lookup(embedding, now)
    }
}
