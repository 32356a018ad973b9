//! The step handler: every run of step boundaries between two router
//! interactions executes as per-pool step chains and merges back in
//! exact `(time, seq)` order.
//!
//! Step events never enter the event heap. A busy pool has one *armed
//! slot* — the `(time, seq)` key of its next boundary, the seq drawn
//! from `Simulator::reserve_seq` at the moment a queued event would
//! have drawn it — and the event loop handles whichever of {earliest
//! armed slot, next arrival, heap head} has the smallest key. A region's
//! heads are the armed slots that sort before the next router
//! interaction ([`take_heads`]) and its barrier is that interaction's
//! time: every router interaction is the cursor's next arrival or a
//! heap event, so each pool's chain between its head and the barrier
//! depends only on that pool's own state.
//!
//! A chain is run-length encoded (`ic_serving::ChainStep::quiet`): one
//! record per boundary that changed something, carrying the count of
//! quiet boundaries behind it. A quiet boundary reports nothing and
//! leaves occupancy and the step time unchanged, so the merge only has
//! to keep its *place* in the event order: [`merge_next`] counts, in
//! one go, the quiet boundaries that fall strictly before the merge
//! heap's next key — nothing else could have been handled between them
//! — burning the sequence numbers a one-event-per-step loop would have
//! assigned, and re-queues the first one that ties or passes that key
//! under the seq it would have carried. A chain with `quiet == 0`
//! everywhere takes the same code with nothing to count.

use ic_desim::{SimDuration, SimTime, Simulator};
use ic_serving::ChainStep;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::state::{EngineState, Event};

/// The `(time, seq)` ordering key of a step boundary or a heap event.
pub(super) type EventKey = (SimTime, u64);

/// The armed step boundary heading one pool's chain.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Head {
    at: SimTime,
    seq: u64,
    pool: usize,
}

/// Moves every armed slot that sorts before `barrier` — the key of the
/// next router interaction, `None` when nothing else is pending — into
/// `heads`. The comparison is on the whole key: a step boundary and an
/// arrival or heap event at the same instant go in seq order, as if all
/// had been queued.
fn take_heads(armed: &mut [Option<EventKey>], barrier: Option<EventKey>, heads: &mut Vec<Head>) {
    heads.clear();
    for (pool, slot) in armed.iter_mut().enumerate() {
        if let Some((at, seq)) = slot.take_if(|key| barrier.is_none_or(|next| *key < next)) {
            heads.push(Head { at, seq, pool });
        }
    }
}

/// Merge-heap entry: the `(time, seq)` key of one pending boundary,
/// then where it sits — head slot, record index in the slot's chain,
/// and its position inside the record (`0` is the record's own
/// boundary, `j` its `j`-th quiet one).
type MergeEntry = Reverse<(SimTime, u64, usize, usize, u32)>;

/// Per-region buffers, kept across the regions of a replay.
#[derive(Default)]
pub(super) struct RegionScratch {
    heads: Vec<Head>,
    occ: Vec<u32>,
    /// `chains[slot]` belongs to `heads[slot]`; buffers past the head
    /// count are spares from wider regions.
    chains: Vec<Vec<ChainStep>>,
    merge: BinaryHeap<MergeEntry>,
}

/// What one pop of the region merge handled.
struct Handled {
    slot: usize,
    /// Index of the boundary's record in `chains[slot]`.
    record: usize,
    /// Whether the popped boundary was the record's own (its report and
    /// occupancy apply now) rather than one of its quiet ones.
    own: bool,
    at: SimTime,
    /// Boundaries this pop accounts for: the popped one plus the quiet
    /// boundaries behind it that precede every other pending key.
    steps: u64,
}

/// Pops the earliest pending boundary and queues its successor at
/// exactly the seq a one-event-per-step loop would assign: another
/// merge entry, or — when the chain stopped at the barrier — the
/// pool's armed slot. Quiet boundaries that follow the popped one and
/// fall *strictly* before the merge heap's next key are handled in the
/// same pop (a tie goes to the pending key: it was queued first, so its
/// seq is smaller); each burns the one seq its own handling would have
/// reserved.
fn merge_next(
    merge: &mut BinaryHeap<MergeEntry>,
    heads: &[Head],
    chains: &[Vec<ChainStep>],
    sim: &mut Simulator<Event>,
    armed: &mut [Option<EventKey>],
) -> Option<Handled> {
    let Reverse((at, _, slot, record, pos)) = merge.pop()?;
    let step = &chains[slot][record];
    debug_assert!(pos > 0 || step.at == at, "merge key tracks the chain");
    let mut steps = 1;
    if let Some(dt) = step.next_dt {
        let every = SimDuration::from_secs_f64(dt);
        let left = u64::from(step.quiet - pos);
        let bulk = merge.peek().map_or(left, |Reverse((next, ..))| {
            left.min(at.strides_before(every, *next))
        });
        sim.reserve_seqs(bulk);
        steps += bulk;
        let pos = pos + bulk as u32;
        let next_at = at + every * (bulk + 1);
        if pos < step.quiet {
            merge.push(Reverse((next_at, sim.reserve_seq(), slot, record, pos + 1)));
        } else if record + 1 < chains[slot].len() {
            merge.push(Reverse((next_at, sim.reserve_seq(), slot, record + 1, 0)));
        } else {
            // The chain stopped at the barrier: re-arm the pool's slot.
            armed[heads[slot].pool] = Some((next_at, sim.reserve_seq()));
        }
    }
    Some(Handled {
        slot,
        record,
        own: pos == 0,
        at,
        steps,
    })
}

impl EngineState<'_> {
    /// Runs the step region that sorts before the next router
    /// interaction, if any pool is armed there; returns whether one ran.
    pub(super) fn run_step_region(&mut self) -> bool {
        let barrier = self.next_interaction();
        take_heads(&mut self.armed, barrier, &mut self.region.heads);
        if self.region.heads.is_empty() {
            return false;
        }
        let mut region = std::mem::take(&mut self.region);
        self.run_region(&mut region, barrier.map(|(at, _)| at));
        self.region = region;
        true
    }

    fn run_region(&mut self, region: &mut RegionScratch, barrier: Option<SimTime>) {
        let RegionScratch {
            heads,
            occ,
            chains,
            merge,
        } = region;
        // Occupancy snapshot before any chain advances; the merge below
        // updates it in handling order, so every finisher sees the
        // `in_system` of its own step boundary.
        occ.clear();
        occ.extend(self.pools.iter().map(|p| p.active() + p.queue_len() as u32));
        if chains.len() < heads.len() {
            chains.resize_with(heads.len(), Vec::new);
        }
        for (head, chain) in heads.iter().zip(chains.iter_mut()) {
            self.pools[head.pool].advance_chain(head.at, barrier, chain);
        }
        self.replay.regions += 1;

        // Deterministic merge: replay the chains in the `(time, seq)`
        // order a one-event-per-step loop would handle them, burning
        // the sequence numbers it would assign — intermediate rearms
        // consume a reserved seq, the final rearm per pool lands in the
        // pool's armed slot.
        merge.extend(
            heads
                .iter()
                .enumerate()
                .map(|(slot, h)| Reverse((h.at, h.seq, slot, 0, 0))),
        );
        while let Some(handled) = merge_next(merge, heads, chains, &mut self.sim, &mut self.armed) {
            self.replay.region_steps += handled.steps;
            if !handled.own {
                continue;
            }
            let step = &chains[handled.slot][handled.record];
            if step.quiet > 0 {
                self.replay.step_runs += 1;
                self.replay.quiet_steps += u64::from(step.quiet);
            }
            occ[heads[handled.slot].pool] = step.occ_after;
            if step.report.finished.is_empty() {
                continue;
            }
            let in_system: u32 = occ.iter().sum();
            for fin in &step.report.finished {
                let since = |then: SimTime| (then - fin.job.arrival).as_secs_f64();
                self.complete(
                    fin.job.id.0 as usize,
                    handled.at.as_secs_f64(),
                    since(fin.started),
                    since(fin.first_token),
                    since(fin.completed),
                    in_system,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_serving::StepReport;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    /// A record at `at` whose next step takes `every_us` (`None`: the
    /// pool idles after it), with `quiet` quiet boundaries behind it.
    fn record(at: u64, every_us: Option<u64>, quiet: u32) -> ChainStep {
        ChainStep {
            at: us(at),
            report: StepReport::default(),
            occ_after: 1,
            next_dt: every_us.map(|d| d as f64 / 1e6),
            quiet,
        }
    }

    /// A chain from `(gap to the next record's boundary in whole steps,
    /// step µs)` pairs: record `i` sits `gaps[i].0` steps of
    /// `gaps[i].1` µs before record `i + 1`, all but one of them quiet.
    /// `rearm` leaves the last record busy (its step time continues to
    /// the barrier), otherwise the pool idles there.
    fn chain(start: u64, gaps: &[(u32, u64)], rearm: bool) -> Vec<ChainStep> {
        let mut at = start;
        let mut out = Vec::new();
        for (i, &(steps, every)) in gaps.iter().enumerate() {
            let last = i + 1 == gaps.len();
            if last && !rearm {
                out.push(record(at, None, 0));
            } else {
                out.push(record(at, Some(every), steps - 1));
                at += u64::from(steps) * every;
            }
        }
        out
    }

    /// The `quiet == 0` form of a chain: one record per boundary.
    fn expand(chain: &[ChainStep]) -> Vec<ChainStep> {
        let mut out = Vec::new();
        for step in chain {
            let every = SimDuration::from_secs_f64(step.next_dt.unwrap_or(0.0));
            for j in 0..=u64::from(step.quiet) {
                out.push(ChainStep {
                    at: step.at + every * j,
                    report: StepReport::default(),
                    occ_after: step.occ_after,
                    next_dt: step.next_dt,
                    quiet: 0,
                });
            }
        }
        out
    }

    /// Everything a merge decides: the boundary handling order as
    /// `(time, pool)` — own boundaries flagged — the next seq the
    /// simulator would hand out, and the final rearms `(time, seq,
    /// pool)` left in the armed slots, in `(time, seq)` order.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        order: Vec<(SimTime, usize)>,
        own: Vec<(SimTime, usize)>,
        next_seq: u64,
        rearms: Vec<(SimTime, u64, usize)>,
    }

    /// Runs one region: the heads are whatever `armed` holds ahead of
    /// `sim`'s heap head, `chains` has their hand-built chains in pool
    /// order, and the final rearms land back in `armed`.
    fn drive_region(
        sim: &mut Simulator<Event>,
        armed: &mut [Option<EventKey>],
        chains: &[Vec<ChainStep>],
    ) -> Outcome {
        let mut heads = Vec::new();
        take_heads(armed, sim.peek_key(), &mut heads);
        assert_eq!(heads.len(), chains.len(), "one chain per gathered head");
        let mut merge: BinaryHeap<MergeEntry> = heads
            .iter()
            .enumerate()
            .map(|(slot, h)| Reverse((h.at, h.seq, slot, 0, 0)))
            .collect();
        let (mut order, mut own) = (Vec::new(), Vec::new());
        while let Some(h) = merge_next(&mut merge, &heads, chains, sim, armed) {
            let step = &chains[h.slot][h.record];
            let every = SimDuration::from_secs_f64(step.next_dt.unwrap_or(0.0));
            let pool = heads[h.slot].pool;
            order.extend((0..h.steps).map(|k| (h.at + every * k, pool)));
            if h.own {
                own.push((h.at, pool));
            }
        }
        let mut rearms: Vec<_> = armed
            .iter()
            .enumerate()
            .filter_map(|(pool, slot)| slot.map(|(at, seq)| (at, seq, pool)))
            .collect();
        rearms.sort_unstable();
        Outcome {
            order,
            own,
            next_seq: sim.reserve_seq(),
            rearms,
        }
    }

    /// [`drive_region`] over pools armed in pool order with nothing
    /// else pending: every chain is in the region.
    fn drive(chains: &[Vec<ChainStep>]) -> Outcome {
        let mut sim: Simulator<Event> = Simulator::new();
        let mut armed: Vec<_> = chains
            .iter()
            .map(|c| Some((c[0].at, sim.reserve_seq())))
            .collect();
        drive_region(&mut sim, &mut armed, chains)
    }

    /// The run-length encoding and its expansion must decide the same
    /// order, seqs and rearms; the expansion's handling order must be
    /// `(time, arming order)`-sorted like a one-event-per-step loop's.
    fn check(chains: &[Vec<ChainStep>]) -> Outcome {
        let encoded = drive(chains);
        let expanded_chains: Vec<_> = chains.iter().map(|c| expand(c)).collect();
        let expanded = drive(&expanded_chains);
        assert_eq!(encoded.order, expanded.order, "handling order");
        assert_eq!(encoded.next_seq, expanded.next_seq, "burned seqs");
        assert_eq!(encoded.rearms, expanded.rearms, "final rearms");
        assert_eq!(
            encoded.own.len(),
            chains.iter().map(Vec::len).sum::<usize>()
        );
        assert!(
            expanded.order.windows(2).all(|w| w[0].0 <= w[1].0),
            "time order"
        );
        let boundaries: usize = expanded_chains.iter().map(Vec::len).sum();
        assert_eq!(expanded.order.len(), boundaries);
        // One seq per head, one per boundary that has a successor.
        let idled = chains
            .iter()
            .filter(|c| c.last().expect("non-empty").next_dt.is_none())
            .count();
        assert_eq!(encoded.next_seq as usize, chains.len() + boundaries - idled);
        encoded
    }

    #[test]
    fn two_pools_with_identical_jobs_tie_on_every_boundary() {
        // Same jobs, same tick: both chains are 40 steps of 25 µs, then
        // a finisher, then 9 more steps into the barrier.
        let twin = || chain(100, &[(40, 25), (10, 25)], true);
        let out = check(&[twin(), twin()]);
        // Every tie resolves in arming order: pool 0, then pool 1.
        for pair in out.order.chunks(2) {
            assert_eq!(pair[0].0, pair[1].0);
            assert_eq!((pair[0].1, pair[1].1), (0, 1));
        }
        assert_eq!(out.rearms.len(), 2);
        assert_eq!(out.rearms[0].0, out.rearms[1].0);
        assert!(out.rearms[0].1 < out.rearms[1].1);
        assert_eq!((out.rearms[0].2, out.rearms[1].2), (0, 1));
    }

    #[test]
    fn a_run_ending_on_the_other_chains_finishing_step_yields_to_it() {
        // Pool 0: boundary at 0, 5 quiet steps of 20 µs (the last at
        // 100), own boundary at 120. Pool 1: boundary at 10, then its
        // finishing step at exactly 100, where it idles.
        let long = chain(0, &[(6, 20), (1, 20)], true);
        let short = vec![record(10, Some(90), 0), record(100, None, 0)];
        let out = check(&[long, short]);
        let at_100: Vec<usize> = out
            .order
            .iter()
            .filter(|(t, _)| *t == us(100))
            .map(|&(_, pool)| pool)
            .collect();
        // Pool 1's finisher was queued (at 10) before pool 0's quiet
        // boundary at 100 was (at 80): the finisher goes first.
        assert_eq!(at_100, vec![1, 0]);
        assert_eq!(out.rearms.len(), 1);
        assert_eq!(out.rearms[0].0, us(140));
    }

    #[test]
    fn a_lone_chain_is_one_pop_per_record() {
        let out = check(&[chain(5, &[(1000, 3), (1, 3), (500, 4)], false)]);
        assert_eq!(out.order.len(), 1002);
        assert!(out.rearms.is_empty());
    }

    #[test]
    fn mixed_step_times_interleave_like_single_steps() {
        // Co-prime step times, runs cut by each other's records, one
        // pool idling mid-region, zero-length runs between.
        check(&[
            chain(0, &[(7, 13), (1, 13), (30, 11), (2, 17)], true),
            chain(3, &[(50, 7), (1, 9), (1, 9), (12, 5)], false),
            chain(3, &[(4, 91), (9, 13)], true),
        ]);
        // A zero step time (sub-µs iterations) never leaves its instant.
        check(&[
            vec![record(10, Some(0), 5), record(10, Some(4), 3)],
            chain(9, &[(3, 1), (2, 1)], true),
        ]);
    }

    #[test]
    fn a_step_armed_before_a_same_instant_event_is_in_the_region() {
        // Pool 0's boundary at 100 was armed, then a gossip round was
        // scheduled for 100, then pool 1's boundary at 100 was armed:
        // the three keys differ only in seq.
        let mut sim: Simulator<Event> = Simulator::new();
        let mut armed = vec![Some((us(100), sim.reserve_seq())), None];
        sim.schedule(us(100), Event::GossipRound);
        armed[1] = Some((us(100), sim.reserve_seq()));
        // Pool 0 goes first and is the whole region; its next boundary
        // (140) is past the barrier — the round's instant.
        let first = drive_region(&mut sim, &mut armed, &[chain(100, &[(1, 40)], true)]);
        assert_eq!(first.order, vec![(us(100), 0)]);
        assert_eq!(first.rearms, vec![(us(100), 2, 1), (us(140), 3, 0)]);
        // Nothing else sorts before the round, which is handled next …
        let mut heads = Vec::new();
        take_heads(&mut armed, sim.peek_key(), &mut heads);
        assert!(heads.is_empty(), "the round goes before {heads:?}");
        assert!(matches!(sim.next(), Some((_, Event::GossipRound))));
        // … and only then pool 1's boundary at the same instant.
        take_heads(&mut armed, sim.peek_key(), &mut heads);
        let head = |at, seq, pool| Head { at, seq, pool };
        assert_eq!(heads, vec![head(us(140), 3, 0), head(us(100), 2, 1)]);
    }

    #[test]
    fn a_step_rearmed_onto_a_pending_events_instant_waits_behind_it() {
        // A round is pending at 140; the pool's chain from 100 stops
        // there and its final rearm ties the round in time.
        let mut sim: Simulator<Event> = Simulator::new();
        sim.schedule(us(140), Event::GossipRound);
        let mut armed = vec![Some((us(100), sim.reserve_seq()))];
        let out = drive_region(&mut sim, &mut armed, &[chain(100, &[(1, 40)], true)]);
        assert_eq!(out.rearms, vec![(us(140), 2, 0)]);
        // The round was scheduled first: it is the barrier, not a peer.
        let mut heads = Vec::new();
        take_heads(&mut armed, sim.peek_key(), &mut heads);
        assert!(heads.is_empty(), "the round goes before {heads:?}");
        assert!(matches!(sim.next(), Some((_, Event::GossipRound))));
        take_heads(&mut armed, sim.peek_key(), &mut heads);
        assert_eq!(
            heads,
            vec![Head {
                at: us(140),
                seq: 2,
                pool: 0
            }]
        );
    }
}
