//! The arrival handler: shared prologue (owner load window, stage 0) →
//! one stage-1 source (inline probe or a look-ahead entry) → shared
//! epilogue (`dispatch`, cache admissions).

use ic_cache::Selection;
use ic_desim::{SimDuration, SimTime};
use ic_llmsim::{ExampleId, Request};
use ic_obs::EventKind as ObsKind;
use ic_respcache::CachedResponse;

use super::EngineConfig;
use super::state::EngineState;

/// Probe cap of a look-ahead window when `selector_batch` sets none.
const DEFAULT_WINDOW_PROBE_CAP: usize = 64;

/// A selection precomputed by a look-ahead probe, plus the selector
/// epochs it was certified under. At the arrival's own event position
/// the entry is re-validated: both epochs unchanged serves the cached
/// [`Selection`] outright; an unchanged index epoch alone still reuses
/// the cached stage-1 candidates (stage 2 re-scores); anything else
/// recomputes.
struct PreSel {
    stage1: Vec<(ExampleId, f64)>,
    selection: Selection,
    index_epoch: u64,
    learn_epoch: u64,
}

/// Selector look-ahead over the arrival sequence. An arrival with no
/// precomputed entry probes stage 1 for itself and every arrival up to
/// `window` ahead (at most `probe_cap` of them) in one multi-query
/// shot; each arrival then consumes its entry at its own event
/// position. Same-tick coalescing (`EngineConfig::selector_batch`) is
/// the zero-width window; `selector_window_s` widens it. Both are off
/// (singleton probes) while served pairs are cached back, because the
/// sequential order would index a member's pair before later members
/// probe.
pub(super) struct Lookahead {
    /// Arrivals `(time, index)` in firing order — the heap pops
    /// `(time, seq)` and arrivals are scheduled first, in index order,
    /// so sorting the pairs is exactly that order.
    order: Vec<(SimTime, usize)>,
    /// Arrivals fired so far: the current arrival's position in `order`.
    fired: usize,
    /// `order[..observed_until]` is already in the stage-0 trending
    /// sketch.
    observed_until: usize,
    /// `order[..probed_until]` is covered by a stage-1 probe.
    probed_until: usize,
    entries: Vec<Option<PreSel>>,
    window: SimDuration,
    /// Cap on a same-tick run: the stage-0 pre-observation and the
    /// zero-width probe.
    tick_cap: usize,
    probe_cap: usize,
    /// Members of the current probe's batch that reached stage 1.
    batch_served: u64,
}

impl Lookahead {
    pub(super) fn new(config: &EngineConfig, times: &[SimTime]) -> Self {
        let batching = !config.admit_served_pairs;
        let tick_cap = if batching {
            config.selector_batch.max(1)
        } else {
            1
        };
        let window_s = config.selector_window_s;
        let window_on = batching && window_s > 0.0 && window_s.is_finite();
        let mut order: Vec<(SimTime, usize)> = times.iter().copied().zip(0..).collect();
        order.sort_unstable();
        Self {
            entries: (0..times.len()).map(|_| None).collect(),
            order,
            fired: 0,
            observed_until: 0,
            probed_until: 0,
            window: SimDuration::from_secs_f64(if window_on { window_s } else { 0.0 }),
            tick_cap,
            probe_cap: if window_on && config.selector_batch < 2 {
                DEFAULT_WINDOW_PROBE_CAP
            } else {
                tick_cap
            },
            batch_served: 0,
        }
    }

    /// When the next arrival fires, if any is left — one half of the
    /// step-region barrier (`EngineState::region_barrier`).
    pub(super) fn next_arrival(&self) -> Option<SimTime> {
        self.order.get(self.fired).map(|&(t, _)| t)
    }

    /// End (exclusive, in `order`) of the run of arrivals from `pos`
    /// that land no later than `horizon`, at most `cap` long.
    fn run_end(&self, pos: usize, horizon: SimTime, cap: usize) -> usize {
        let run = self.order[pos..]
            .iter()
            .take(cap)
            .take_while(|&&(t, _)| t <= horizon);
        pos + run.count()
    }
}

impl EngineState<'_> {
    pub(super) fn on_arrival(&mut self, i: usize, at: SimTime) {
        let now = at.as_secs_f64();
        let pos = self.look.fired;
        self.look.fired += 1;
        debug_assert_eq!(self.look.order[pos], (at, i), "arrivals fire in `order`");
        let request = &self.requests[i];
        let owner = self.system.front_end().replica_of(request.id);
        self.observe_arrival(owner, now);
        self.trace(
            at,
            i as u64,
            ObsKind::Arrival {
                replica: owner as u32,
            },
        );
        // Stage 0: a response-cache hit skips the whole selection path
        // (a look-ahead entry precomputed for it is wasted probe work,
        // nothing more).
        if let Some(resp) = self.stage0_lookup(i, pos, at) {
            self.look.entries[i] = None;
            self.serve_stage0_hit(i, &resp, owner);
            return;
        }

        let mut probe = if pos >= self.look.probed_until {
            self.probe_ahead(pos, at)
        } else {
            0
        };
        let selector = self.system.selector();
        let (index_epoch, learn_epoch) = (selector.index_epoch(), selector.learn_epoch());
        let out = match self.look.entries[i].take() {
            // A singleton probe hoists nothing: `serve` probes inline.
            None => self.system.serve_with_stage1(request, None),
            // The index moved (admission/eviction) since the probe:
            // recompute from scratch, as `serve` would.
            Some(e) if e.index_epoch != index_epoch => {
                self.replay.invalidations += 1;
                probe = 1;
                self.system.serve_with_stage1(request, None)
            }
            // Both epochs unchanged: the precomputed selection is
            // exactly what `serve` would compute now.
            Some(e) if e.learn_epoch == learn_epoch => {
                self.replay.preselect_hits += 1;
                self.system.serve_with_selection(request, e.selection)
            }
            // The proxy/threshold learned since the probe but the index
            // is untouched: stage-1 candidates are still exact;
            // re-score stage 2 only.
            Some(e) => {
                self.replay.stage1_reuses += 1;
                self.system.serve_with_stage1(request, Some(e.stage1))
            }
        };
        self.look.batch_served += 1;
        self.trace(
            at,
            i as u64,
            ObsKind::Stage1Probe {
                batch: probe,
                reused: probe == 0,
            },
        );

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
        if pos >= self.look.observed_until {
            let end = self.look.run_end(pos, at, self.look.tick_cap);
            for &(_, j) in &self.look.order[pos..end] {
                cache.observe(&self.requests[j].embedding, now);
            }
            self.look.observed_until = end;
        }
        cache.lookup(&self.requests[i].embedding, now)
    }

    /// One multi-query stage-1 probe for the arrival at `pos` and the
    /// arrivals behind it inside the window, with their full selections
    /// precomputed. The probe is read-only, so each entry is exactly
    /// what an inline probe would return until a selector epoch moves.
    /// Returns the number of arrivals covered.
    fn probe_ahead(&mut self, pos: usize, at: SimTime) -> u32 {
        self.flush_selector_batch();
        let look = &mut self.look;
        let end = look.run_end(pos, at + look.window, look.probe_cap);
        look.probed_until = end;
        let batch = &look.order[pos..end];
        if batch.len() > 1 {
            let refs: Vec<&Request> = batch.iter().map(|&(_, j)| &self.requests[j]).collect();
            let stage1 = self.system.stage1_batch(&refs);
            let selector = self.system.selector();
            let (index_epoch, learn_epoch) = (selector.index_epoch(), selector.learn_epoch());
            for (&(_, j), stage1) in batch.iter().zip(stage1) {
                look.entries[j] = Some(PreSel {
                    selection: self.system.preselect(&self.requests[j], stage1.clone()),
                    stage1,
                    index_epoch,
                    learn_epoch,
                });
            }
            self.replay.preselects += batch.len() as u64;
        }
        batch.len() as u32
    }

    /// Folds the finished probe batch into the selector stats. They
    /// count what stage 1 actually served: cache-answered members never
    /// reached it (an invalidated member's inline re-probe counts with
    /// its batch; `replay.invalidations` reports those).
    pub(super) fn flush_selector_batch(&mut self) {
        let served = std::mem::take(&mut self.look.batch_served);
        if served > 0 {
            self.selector.batches += 1;
            self.selector.requests += served;
            self.selector.max_batch = self.selector.max_batch.max(served);
        }
    }
}
