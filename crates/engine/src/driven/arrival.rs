//! The arrival handler: prologue (load window, stage 0) →
//! `IcCacheSystem::serve` → epilogue (`dispatch`, cache admissions).

use ic_desim::SimTime;
use ic_obs::EventKind as ObsKind;
use ic_respcache::CachedResponse;

use super::EngineConfig;
use super::state::EngineState;
use super::step::EventKey;

/// The arrival sequence in firing order, and the one copy of it: which
/// arrival fires next and how much of the sequence the stage-0 trending
/// sketch has already seen. Arrivals never enter the event heap.
pub(super) struct ArrivalCursor {
    /// Arrivals `(time, index)`, sorted: arrival `i` fires under the key
    /// `(time, i)` — the seq it would have drawn had the workload been
    /// scheduled first, in index order (`EngineState::new` reserves
    /// `0..n` for that), so it goes before any event scheduled for the
    /// same instant.
    order: Vec<(SimTime, usize)>,
    /// Arrivals fired so far: the current arrival's position in `order`.
    fired: usize,
    /// `order[..observed_until]` is already in the stage-0 trending
    /// sketch.
    observed_until: usize,
    /// Cap on the same-tick run the sketch pre-observes
    /// (`EngineConfig::selector_batch`).
    tick_cap: usize,
}

impl ArrivalCursor {
    pub(super) fn new(config: &EngineConfig, arrivals: &[f64]) -> Self {
        let times = arrivals.iter().map(|&a| SimTime::from_secs_f64(a));
        let mut order: Vec<(SimTime, usize)> = times.zip(0..).collect();
        order.sort_unstable();
        Self {
            order,
            fired: 0,
            observed_until: 0,
            tick_cap: config.selector_batch.max(1),
        }
    }

    /// The `(time, seq)` key of the next arrival, if any is left.
    pub(super) fn peek_key(&self) -> Option<EventKey> {
        let next = self.order.get(self.fired);
        next.map(|&(at, i)| (at, i as u64))
    }

    /// End (exclusive, in `order`) of the run of arrivals from `pos`
    /// that share the tick `at`, at most `tick_cap` long.
    fn tick_run_end(&self, pos: usize, at: SimTime) -> usize {
        let run = self.order[pos..]
            .iter()
            .take(self.tick_cap)
            .take_while(|&&(t, _)| t == at);
        pos + run.count()
    }
}

impl EngineState<'_> {
    /// Fires the cursor's next arrival.
    pub(super) fn on_arrival(&mut self) {
        let pos = self.cursor.fired;
        let (at, i) = self.cursor.order[pos];
        self.cursor.fired += 1;
        self.sim.advance_to(at);
        let now = at.as_secs_f64();
        let request = &self.requests[i];
        self.observe_arrival(now);
        self.trace(at, i as u64, ObsKind::Arrival);
        // Stage 0: a response-cache hit skips the whole selection path.
        if let Some(resp) = self.stage0_lookup(i, pos, at) {
            self.serve_stage0_hit(i, &resp);
            return;
        }

        let out = self.system.serve(request);
        self.stage1_arrivals += 1;
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

    /// The stage-0 probe of arrival `i` (at `pos` in firing order).
    /// The head of a same-tick run first observes the whole run in the
    /// trending sketch: a stampede of N identical arrivals is already
    /// at count N when its first member misses, so that member's served
    /// response is admitted and the other N−1 hit it — one insertion
    /// per stampede.
    fn stage0_lookup(&mut self, i: usize, pos: usize, at: SimTime) -> Option<CachedResponse> {
        let cache = self.resp_cache.as_mut()?;
        let now = at.as_secs_f64();
        if pos >= self.cursor.observed_until {
            let end = self.cursor.tick_run_end(pos, at);
            for &(_, j) in &self.cursor.order[pos..end] {
                cache.observe(&self.requests[j].embedding, now);
            }
            self.cursor.observed_until = end;
        }
        cache.lookup(&self.requests[i].embedding, now)
    }
}
