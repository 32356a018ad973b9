//! The step handler: every run of `StepComplete` events between two
//! router interactions executes as per-pool step chains and merges back
//! in exact `(time, seq)` order. [`RegionWorkers`] is only *where* the
//! chains run — inline, or on worker threads.
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
use ic_serving::{ChainStep, ModelPool};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc;

use super::state::{EngineState, Event};

/// The popped step event heading one pool's chain.
#[derive(Clone, Copy)]
struct Head {
    at: SimTime,
    seq: u64,
    pool: usize,
    epoch: u64,
}

/// One per-pool chain assignment for a region worker.
struct RegionTask {
    /// Index into the region's head list (result routing).
    slot: usize,
    /// Pool whose chain to advance.
    pool: usize,
    /// Time of the chain's first (already-popped) step event.
    at: SimTime,
    /// Region barrier: the chain stops before this instant.
    barrier: Option<SimTime>,
    /// The chain's record buffer: travels out empty, comes back filled.
    chain: Vec<ChainStep>,
}

/// The executor of a step region's chains. With no workers
/// (`EngineConfig::replay_threads <= 1`) every chain runs inline on the
/// event-loop thread; otherwise the first chain runs inline and the
/// rest go to persistent worker threads, which hold
/// `&[Mutex<ModelPool>]` and run [`ModelPool::advance_chain`] per task.
/// Each region is handed off as **one batch per worker** — a single
/// channel message carrying every chain assigned to that worker, and
/// the same batch coming back with its chains filled. Results are
/// routed by slot, so the executor can never change the replay bytes.
/// Workers exit when the task senders drop at scope end.
pub(super) struct RegionWorkers {
    task_txs: Vec<mpsc::Sender<Vec<RegionTask>>>,
    done_rx: mpsc::Receiver<(usize, Vec<RegionTask>)>,
    /// One task batch per worker, reused across regions.
    batches: Vec<Vec<RegionTask>>,
}

impl RegionWorkers {
    pub(super) fn spawn<'scope, 'pools: 'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        pools: &'pools [Mutex<ModelPool>],
        workers: usize,
    ) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        let mut task_txs = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (task_tx, task_rx) = mpsc::channel::<Vec<RegionTask>>();
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                while let Ok(mut batch) = task_rx.recv() {
                    for task in &mut batch {
                        pools[task.pool].lock().advance_chain(
                            task.at,
                            task.barrier,
                            &mut task.chain,
                        );
                    }
                    if done_tx.send((worker, batch)).is_err() {
                        break;
                    }
                }
            });
            task_txs.push(task_tx);
        }
        Self {
            task_txs,
            done_rx,
            batches: (0..workers).map(|_| Vec::new()).collect(),
        }
    }

    /// Advances every head's chain up to `barrier` into `chains[slot]`
    /// (`chains` has a buffer per head).
    fn run(
        &mut self,
        pools: &[Mutex<ModelPool>],
        heads: &[Head],
        barrier: Option<SimTime>,
        chains: &mut [Vec<ChainStep>],
    ) {
        let workers = self.task_txs.len();
        let inline = if workers == 0 { heads.len() } else { 1 };
        for (slot, head) in heads.iter().enumerate().skip(inline) {
            self.batches[(slot - inline) % workers].push(RegionTask {
                slot,
                pool: head.pool,
                at: head.at,
                barrier,
                chain: std::mem::take(&mut chains[slot]),
            });
        }
        let mut outstanding = 0usize;
        for (tx, batch) in self.task_txs.iter().zip(&mut self.batches) {
            if !batch.is_empty() {
                tx.send(std::mem::take(batch)).expect("region worker alive");
                outstanding += 1;
            }
        }
        for (slot, head) in heads.iter().enumerate().take(inline) {
            pools[head.pool]
                .lock()
                .advance_chain(head.at, barrier, &mut chains[slot]);
        }
        for _ in 0..outstanding {
            let (worker, mut batch) = self.done_rx.recv().expect("region worker alive");
            for task in batch.drain(..) {
                chains[task.slot] = task.chain;
            }
            self.batches[worker] = batch;
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
/// pool's real `StepComplete`, armed in `sim`. Quiet boundaries that
/// follow the popped one and fall *strictly* before the heap's next
/// key are handled in the same pop (a tie goes to the pending key: it
/// was queued first, so its seq is smaller); each burns the one seq its
/// own handling would have reserved.
fn merge_next(
    merge: &mut BinaryHeap<MergeEntry>,
    heads: &[Head],
    chains: &[Vec<ChainStep>],
    sim: &mut Simulator<Event>,
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
            // The chain stopped at the barrier: rearm in the real queue.
            let head = heads[slot];
            sim.schedule(next_at, Event::StepComplete(head.pool, head.epoch));
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
    pub(super) fn on_step(&mut self, at: SimTime, seq: u64, pool: usize, epoch: u64) {
        let mut region = std::mem::take(&mut self.region);
        // Gather every consecutive step event off the heap: all of them
        // sort before the earliest pending non-step event (the region
        // barrier), so each pool's chain between here and the barrier
        // depends only on that pool's own state.
        region.heads.clear();
        region.heads.push(Head {
            at,
            seq,
            pool,
            epoch,
        });
        while let Some((at, seq, event)) = self.sim.next_if_full(|_, event| event.is_step()) {
            let Event::StepComplete(pool, epoch) = event else {
                unreachable!("predicate admits only step events")
            };
            region.heads.push(Head {
                at,
                seq,
                pool,
                epoch,
            });
        }
        // A failover flushed the lineage a stale head was armed for;
        // the live lineage (if any) has its own pending event.
        region.heads.retain(|h| h.epoch == self.pool_epochs[h.pool]);
        if !region.heads.is_empty() {
            self.run_region(&mut region);
        }
        self.region = region;
    }

    fn run_region(&mut self, region: &mut RegionScratch) {
        let RegionScratch {
            heads,
            occ,
            chains,
            merge,
        } = region;
        let barrier = self.region_barrier();
        debug_assert!(
            barrier.is_none_or(|b| heads.iter().all(|h| h.at <= b)),
            "step heads must not outrun the barrier"
        );
        // Occupancy snapshot before any chain advances; the merge below
        // updates it in handling order, so every finisher sees the
        // `in_system` of its own step boundary.
        occ.clear();
        occ.extend(self.pools.iter().map(|p| {
            let p = p.lock();
            p.active() + p.queue_len() as u32
        }));
        if chains.len() < heads.len() {
            chains.resize_with(heads.len(), Vec::new);
        }
        self.workers.run(self.pools, heads, barrier, chains);
        self.replay.parallel_regions += 1;

        // Deterministic merge: replay the chains in the `(time, seq)`
        // order a one-event-per-step loop would handle them, burning
        // the sequence numbers it would assign — intermediate rearms
        // consume a reserved seq, the final rearm per pool goes back
        // into the real queue.
        merge.extend(
            heads
                .iter()
                .enumerate()
                .map(|(slot, h)| Reverse((h.at, h.seq, slot, 0, 0))),
        );
        while let Some(handled) = merge_next(merge, heads, chains, &mut self.sim) {
            self.replay.parallel_steps += handled.steps;
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
    /// pool)` left in the real queue.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        order: Vec<(SimTime, usize)>,
        own: Vec<(SimTime, usize)>,
        next_seq: u64,
        rearms: Vec<(SimTime, u64, usize)>,
    }

    /// Runs the region merge over hand-built chains, one per pool, whose
    /// heads were armed in pool order.
    fn drive(chains: &[Vec<ChainStep>]) -> Outcome {
        let mut sim: Simulator<Event> = Simulator::new();
        let heads: Vec<Head> = chains
            .iter()
            .enumerate()
            .map(|(pool, c)| Head {
                at: c[0].at,
                seq: sim.reserve_seq(),
                pool,
                epoch: 7,
            })
            .collect();
        let mut merge: BinaryHeap<MergeEntry> = heads
            .iter()
            .enumerate()
            .map(|(slot, h)| Reverse((h.at, h.seq, slot, 0, 0)))
            .collect();
        let (mut order, mut own) = (Vec::new(), Vec::new());
        while let Some(h) = merge_next(&mut merge, &heads, chains, &mut sim) {
            let step = &chains[h.slot][h.record];
            let every = SimDuration::from_secs_f64(step.next_dt.unwrap_or(0.0));
            order.extend((0..h.steps).map(|k| (h.at + every * k, h.slot)));
            if h.own {
                own.push((h.at, h.slot));
            }
        }
        let next_seq = sim.reserve_seq();
        let rearms = std::iter::from_fn(|| sim.next_if_full(|_, _| true))
            .map(|(at, seq, event)| match event {
                Event::StepComplete(pool, 7) => (at, seq, pool),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        Outcome {
            order,
            own,
            next_seq,
            rearms,
        }
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
}
