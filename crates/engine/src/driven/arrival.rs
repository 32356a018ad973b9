//! The arrival handler: prologue (load window, stage 0) →
//! `IcCacheSystem::serve` → epilogue (`dispatch`, cache admissions).

use ic_desim::SimTime;
use ic_obs::EventKind as ObsKind;
use ic_respcache::CachedResponse;

use super::state::EngineState;
use super::step::EventKey;

/// The arrival sequence in firing order, and the one copy of it: which
/// arrival fires next. Arrivals never enter the event heap.
pub(super) struct ArrivalCursor {
    /// Arrivals `(time, index)`, sorted: arrival `i` fires under the key
    /// `(time, i)` — the seq it would have drawn had the workload been
    /// scheduled first, in index order (`EngineState::new` reserves
    /// `0..n` for that), so it goes before any event scheduled for the
    /// same instant.
    order: Vec<(SimTime, usize)>,
    /// Arrivals fired so far: the current arrival's position in `order`.
    fired: usize,
}

impl ArrivalCursor {
    pub(super) fn new(arrivals: &[f64]) -> Self {
        let times = arrivals.iter().map(|&a| SimTime::from_secs_f64(a));
        let mut order: Vec<(SimTime, usize)> = times.zip(0..).collect();
        order.sort_unstable();
        Self { order, fired: 0 }
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
        let (at, i) = self.cursor.order[self.cursor.fired];
        self.cursor.fired += 1;
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

        let out = self.system.serve(request);
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
