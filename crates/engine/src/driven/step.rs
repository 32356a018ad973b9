//! The step handler. Step events never enter the event heap: a busy
//! pool's next boundary sits in its *armed slot* ([`Armed`]) under the
//! `(time, seq)` key a queued event would have drawn, one more pending
//! key next to the arrival cursor and the heap head.
//!
//! A pool's state is never ahead of the loop but inside a *quiet run*
//! (`ic_serving::pool`, "Run-length quiet runs"), which the pool applies
//! in closed form after a boundary through `advance_step`, up to the
//! next router interaction. A quiet boundary reports nothing and leaves
//! occupancy and the step time unchanged, so the loop only keeps its
//! *place*: [`EngineState::on_step`] counts, in one go, the quiet
//! boundaries strictly before the next pending key, burning the seqs a
//! one-event-per-step loop would have assigned, and re-arms the slot for
//! the first one that ties or passes that key under the seq it would
//! have carried.

use ic_desim::{SimDuration, SimTime};

use super::state::EngineState;

/// The `(time, seq)` ordering key of a step boundary, an arrival or a
/// heap event.
pub(super) type EventKey = (SimTime, u64);

/// A busy pool's pending step boundary.
#[derive(Clone, Copy, Default)]
pub(super) struct Armed {
    pub(super) key: EventKey,
    /// Stride of the pool's current quiet run.
    pub(super) every: SimDuration,
    /// Quiet boundaries left from `key` on, `key`'s own included: the
    /// pool already applied them. `0` when the boundary at `key` goes
    /// through `advance_step`.
    pub(super) quiet: u64,
}

impl EngineState<'_> {
    /// The pool whose armed boundary is the smallest pending key, if one
    /// is. The comparison is on the whole key: a step boundary and an
    /// arrival or heap event at the same instant go in seq order, as if
    /// all had been queued.
    pub(super) fn due_step(&self) -> Option<usize> {
        let slots = self.armed.iter().enumerate();
        let (key, pool) = slots
            .filter_map(|(p, a)| Some((a.as_ref()?.key, p)))
            .min()?;
        self.next_interaction()
            .is_none_or(|next| key < next)
            .then_some(pool)
    }

    /// Handles `pool`'s armed boundary — the smallest pending key — and
    /// the quiet boundaries behind it that precede every other pending
    /// key, then re-arms the pool while it stays busy.
    pub(super) fn on_step(&mut self, pool: usize) {
        let Armed {
            key: (at, _),
            every,
            quiet,
        } = self.armed[pool].take().expect("a due pool is armed");
        let interaction = self.next_interaction();
        let (every, left) = if quiet > 0 {
            (every, quiet - 1)
        } else {
            let report = self.pools[pool].advance_step(at);
            // Every other pool is at its last handled boundary, or inside
            // a quiet run, which leaves occupancy as it was.
            let in_system = self
                .pools
                .iter()
                .map(|p| p.active() + p.queue_len() as u32)
                .sum();
            for fin in &report.finished {
                let since = |then: SimTime| (then - fin.job.arrival).as_secs_f64();
                self.complete(
                    fin.job.id.0 as usize,
                    at.as_secs_f64(),
                    since(fin.started),
                    since(fin.first_token),
                    since(fin.completed),
                    in_system,
                );
            }
            let Some(dt) = self.pools[pool].step_secs() else {
                return;
            };
            let every = SimDuration::from_secs_f64(dt);
            let barrier = interaction.map(|(t, _)| t);
            // Test-only stepwise replay: a barrier at `at` admits no quiet run.
            #[cfg(test)]
            let barrier = if self.stepwise { Some(at) } else { barrier };
            let quiet = u64::from(self.pools[pool].advance_quiet(at, every, barrier));
            if quiet > 0 {
                self.replay.step_runs += 1;
                self.replay.quiet_steps += quiet;
            }
            (every, quiet)
        };
        let other = self.armed.iter().flatten().map(|a| a.key).min();
        let next = [other, interaction].into_iter().flatten().min();
        let bulk = next.map_or(left, |(next, _)| left.min(at.strides_before(every, next)));
        self.sim.reserve_seqs(bulk);
        self.armed[pool] = Some(Armed {
            key: (at + every * (bulk + 1), self.sim.reserve_seq()),
            every,
            quiet: left - bulk,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driven::state::Event;
    use crate::driven::tests::seeded_engine;
    use crate::driven::{EngineConfig, PoolOutage};
    use crate::report::RequestRecord;
    use ic_serving::{JobId, JobSpec, KvSwap, ModelPool, Offer, PoolConfig};
    use ic_workloads::fixed_qps_arrivals;

    fn ms(t: f64) -> SimTime {
        SimTime::from_secs_f64(t / 1e3)
    }

    /// Runs `body` over a replay whose only router interactions are
    /// `arrivals` (none of which the tests fire) and whose two pools are
    /// identical: no congestion stretch, a KV budget these tests never
    /// bind with free swaps, the whole prompt in one step.
    fn with_pools(arrivals: &[f64], body: impl FnOnce(&mut EngineState<'_>)) {
        let config = EngineConfig {
            rebalance_period_s: 0.0,
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(20, config, 433);
        let requests = wg.generate_requests(arrivals.len());
        let mut state = EngineState::new(&mut engine, &requests, arrivals);
        let pool = PoolConfig {
            replicas: 1,
            slots_per_replica: 4,
            congestion_beta: 0.0,
            prefill_chunk_tokens: 0,
            kv_swap: KvSwap {
                out_secs_per_block: 0.0,
                in_secs_per_block: 0.0,
                ..KvSwap::DEFAULT
            },
            ..PoolConfig::default()
        };
        state.pools = vec![ModelPool::new(pool.clone()), ModelPool::new(pool)];
        body(&mut state);
    }

    /// Offers request `id` to `pool` at time zero, arming the pool if it
    /// was idle: a one-step prefill of `ttft_ms`, then `tokens` decode
    /// steps of `step_ms`.
    fn offer(
        state: &mut EngineState<'_>,
        pool: usize,
        id: usize,
        ttft_ms: f64,
        tokens: u32,
        step_ms: f64,
    ) {
        state.records[id] = Some(RequestRecord {
            index: id,
            model: pool,
            offloaded: false,
            quality: 0.0,
            solicited: false,
            examples: 0,
            arrival_s: 0.0,
            queue_s: 0.0,
            ttft_s: 0.0,
            e2e_s: 0.0,
            rejected: false,
        });
        let job = JobSpec {
            id: JobId(id as u64),
            pool,
            arrival: SimTime::ZERO,
            ttft_secs: ttft_ms / 1e3,
            decode_secs: step_ms * f64::from(tokens) / 1e3,
            prefill_tokens: 100,
            decode_tokens: tokens,
            priority: 0,
            share: None,
        };
        if state.pools[pool].offer(job, SimTime::ZERO) == Offer::Started {
            state.arm_step(pool);
        }
    }

    /// Handles step boundaries until a router interaction is next; the
    /// handling order as `(time, pool)`, with the quiet boundaries each
    /// `on_step` counted spelled out.
    fn drain(state: &mut EngineState<'_>) -> Vec<(SimTime, usize)> {
        let mut order = Vec::new();
        while let Some(pool) = state.due_step() {
            let at = state.armed[pool].expect("due").key.0;
            state.on_step(pool);
            // Re-armed `bulk + 1` strides after `at`.
            let (every, bulk) = state.armed[pool].map_or((SimDuration::ZERO, 0), |a| {
                (a.every, at.strides_before(a.every, a.key.0))
            });
            order.extend((0..=bulk).map(|j| (at + every * j, pool)));
        }
        order
    }

    fn steps(state: &EngineState<'_>) -> u64 {
        state.pools.iter().map(|p| p.iter_stats().steps).sum()
    }

    #[test]
    fn two_pools_with_identical_jobs_tie_on_every_boundary() {
        with_pools(&[0.5; 4], |state| {
            // Same jobs, armed pool 0 first: a 6-token job finishes at
            // 160 ms while a 60-token one runs on into the arrival at
            // 500 ms.
            for (pool, first) in [(0, 0), (1, 2)] {
                offer(state, pool, first, 10.0, 6, 25.0);
            }
            for (pool, second) in [(0, 1), (1, 3)] {
                offer(state, pool, second, 10.0, 60, 25.0);
            }
            let order = drain(state);
            // Every tie resolves in arming order: pool 0, then pool 1.
            assert_eq!(order.len() as u64, steps(state));
            for pair in order.chunks(2) {
                assert_eq!(pair[0].0, pair[1].0);
                assert_eq!((pair[0].1, pair[1].1), (0, 1));
            }
            assert!(state.replay.quiet_steps > 0, "quiet runs were applied");
            assert!(state.records[2].as_ref().expect("offered").e2e_s > 0.0);
            let (a, b) = (state.armed[0].expect("busy"), state.armed[1].expect("busy"));
            assert_eq!(a.key.0, b.key.0);
            assert!(a.key.1 < b.key.1);
        });
    }

    #[test]
    fn a_run_ending_on_the_other_chains_finishing_step_yields_to_it() {
        with_pools(&[1.0; 2], |state| {
            // Pool 0: prefill at 10 ms, first token at 30, quiet every
            // 20 ms through 390, finish at 410. Pool 1: prefill at 5,
            // first token at 57.5, its finishing step at exactly 110 —
            // a quiet boundary of pool 0.
            offer(state, 0, 0, 10.0, 20, 20.0);
            offer(state, 1, 1, 5.0, 2, 52.5);
            let order = drain(state);
            let at_110: Vec<usize> = order
                .iter()
                .filter(|(t, _)| *t == ms(110.0))
                .map(|&(_, pool)| pool)
                .collect();
            // Pool 1's finisher was queued (at 57.5) before pool 0's
            // quiet boundary at 110 was (at 90): the finisher goes first.
            assert_eq!(at_110, vec![1, 0]);
            assert!(order.windows(2).all(|w| w[0].0 <= w[1].0), "time order");
            assert_eq!(order.len() as u64, steps(state));
            assert_eq!(order.len(), 21 + 3);
            assert!(state.armed.iter().all(Option::is_none), "both idle");
        });
    }

    #[test]
    fn a_lone_chain_is_one_pop_per_record() {
        with_pools(&[10.0], |state| {
            offer(state, 0, 0, 3.0, 1000, 3.0);
            let mut pops = 0;
            while let Some(pool) = state.due_step() {
                state.on_step(pool);
                pops += 1;
            }
            // Prefill, first token, finish: the 998 quiet boundaries
            // between ride on the first-token pop.
            assert_eq!(pops, 3);
            assert_eq!(steps(state), 1001);
            assert_eq!(state.replay.quiet_steps, 998);
        });
    }

    #[test]
    fn a_step_armed_before_a_same_instant_event_goes_first() {
        with_pools(&[1.0; 2], |state| {
            // Pool 0's boundary at 100 ms was armed, then a gossip round
            // was scheduled for 100 ms, then pool 1's boundary at 100 ms
            // was armed: the three keys differ only in seq.
            offer(state, 0, 0, 100.0, 5, 40.0);
            state.sim.schedule(ms(100.0), Event::GossipRound);
            offer(state, 1, 1, 100.0, 5, 40.0);
            assert_eq!(state.due_step(), Some(0));
            state.on_step(0);
            // Pool 0's next boundary (140 ms) is past the round, which
            // goes before pool 1's boundary at its own instant.
            let (a, b) = (state.armed[0].expect("busy"), state.armed[1].expect("busy"));
            assert_eq!((a.key.0, b.key.0), (ms(140.0), ms(100.0)));
            assert!(a.key.1 > b.key.1);
            assert_eq!(state.due_step(), None, "the round goes next");
            assert!(matches!(state.sim.next(), Some((_, Event::GossipRound))));
            assert_eq!(state.due_step(), Some(1));
        });
    }

    #[test]
    fn a_step_rearmed_onto_a_pending_events_instant_waits_behind_it() {
        with_pools(&[1.0], |state| {
            // A round is pending at 50 ms; the pool's boundary at 10 ms
            // re-arms onto the round's instant.
            offer(state, 0, 0, 10.0, 5, 40.0);
            state.sim.schedule(ms(50.0), Event::GossipRound);
            let (_, round) = state.sim.peek_key().expect("scheduled");
            assert_eq!(state.due_step(), Some(0));
            state.on_step(0);
            let key = state.armed[0].expect("busy").key;
            assert_eq!(key.0, ms(50.0));
            assert!(key.1 > round);
            // The round was scheduled first: it goes before the step.
            assert_eq!(state.due_step(), None, "the round goes first");
            assert!(matches!(state.sim.next(), Some((_, Event::GossipRound))));
            assert_eq!(state.due_step(), Some(0));
        });
    }

    /// The report bytes, the lifecycle lanes and the next seq of one
    /// replay, with quiet runs or (`stepwise`) every boundary through
    /// `advance_step`.
    fn replay(stepwise: bool) -> (String, String, u64, u64) {
        let config = EngineConfig {
            trace: true,
            router_replicas: 2,
            pool_outages: vec![PoolOutage {
                pool: 0,
                at_s: 20.0,
                duration_s: 10.0,
            }],
            ..EngineConfig::default()
        };
        let (mut engine, mut wg) = seeded_engine(300, config, 441);
        let arrivals = fixed_qps_arrivals(6.0, 60.0, 442);
        let requests = wg.generate_requests(arrivals.len());
        let mut state = EngineState::new(&mut engine, &requests, &arrivals);
        state.stepwise = stepwise;
        state.run();
        let next_seq = state.sim.reserve_seq();
        let quiet = state.replay.quiet_steps;
        let report = state.into_report();
        let lanes = format!("{:?}", report.obs.as_ref().expect("traced").events);
        (report.to_json(), lanes, next_seq, quiet)
    }

    #[test]
    fn mixed_step_times_interleave_like_single_steps() {
        // Two pools of different step times, finishers, a failover and
        // gossip rounds between: counting quiet boundaries must decide
        // what handling each one on its own decides, seqs included.
        let (json, lanes, seq, quiet) = replay(false);
        let (want_json, want_lanes, want_seq, none) = replay(true);
        assert_eq!(none, 0, "the stepwise replay ran no quiet run");
        assert!(quiet > 1000, "{quiet} quiet boundaries");
        assert_eq!(json, want_json);
        assert_eq!(lanes, want_lanes);
        assert_eq!(seq, want_seq);
    }
}
