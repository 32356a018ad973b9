//! The step handler: every run of `StepComplete` events between two
//! router interactions executes as per-pool step chains and merges back
//! in exact `(time, seq)` order. [`RegionWorkers`] is only *where* the
//! chains run — inline, or on worker threads.

use ic_desim::{SimDuration, SimTime};
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
}

/// The executor of a step region's chains. With no workers
/// (`EngineConfig::replay_threads <= 1`) every chain runs inline on the
/// event-loop thread; otherwise the first chain runs inline and the
/// rest go to persistent worker threads, which hold
/// `&[Mutex<ModelPool>]` and run [`ModelPool::advance_chain`] per task.
/// Each region is handed off as **one batch per worker** — a single
/// channel message carrying every chain assigned to that worker, and a
/// single reply carrying all of its chains back. Results are routed by
/// slot, so the executor can never change the replay bytes. Workers
/// exit when the task senders drop at scope end.
pub(super) struct RegionWorkers {
    task_txs: Vec<mpsc::Sender<Vec<RegionTask>>>,
    results_rx: mpsc::Receiver<Vec<(usize, Vec<ChainStep>)>>,
}

impl RegionWorkers {
    pub(super) fn spawn<'scope, 'pools: 'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        pools: &'pools [Mutex<ModelPool>],
        workers: usize,
    ) -> Self {
        let (results_tx, results_rx) = mpsc::channel();
        let mut task_txs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (task_tx, task_rx) = mpsc::channel::<Vec<RegionTask>>();
            let results_tx = results_tx.clone();
            scope.spawn(move || {
                while let Ok(batch) = task_rx.recv() {
                    let results = batch
                        .into_iter()
                        .map(|task| {
                            let chain =
                                pools[task.pool].lock().advance_chain(task.at, task.barrier);
                            (task.slot, chain)
                        })
                        .collect();
                    if results_tx.send(results).is_err() {
                        break;
                    }
                }
            });
            task_txs.push(task_tx);
        }
        Self {
            task_txs,
            results_rx,
        }
    }

    /// Advances every head's chain up to `barrier`; `chains[slot]`
    /// belongs to `heads[slot]`.
    fn run(
        &self,
        pools: &[Mutex<ModelPool>],
        heads: &[Head],
        barrier: Option<SimTime>,
    ) -> Vec<Vec<ChainStep>> {
        let workers = self.task_txs.len();
        let inline = if workers == 0 { heads.len() } else { 1 };
        let mut batches: Vec<Vec<RegionTask>> = (0..workers).map(|_| Vec::new()).collect();
        for (slot, head) in heads.iter().enumerate().skip(inline) {
            batches[(slot - inline) % workers].push(RegionTask {
                slot,
                pool: head.pool,
                at: head.at,
                barrier,
            });
        }
        let mut outstanding = 0usize;
        for (tx, batch) in self.task_txs.iter().zip(batches) {
            if !batch.is_empty() {
                tx.send(batch).expect("region worker alive");
                outstanding += 1;
            }
        }
        let mut chains: Vec<Vec<ChainStep>> = (0..heads.len()).map(|_| Vec::new()).collect();
        for (slot, head) in heads.iter().enumerate().take(inline) {
            chains[slot] = pools[head.pool].lock().advance_chain(head.at, barrier);
        }
        for _ in 0..outstanding {
            for (slot, chain) in self.results_rx.recv().expect("region worker alive") {
                chains[slot] = chain;
            }
        }
        chains
    }
}

impl EngineState<'_> {
    pub(super) fn on_step(&mut self, at: SimTime, seq: u64, pool: usize, epoch: u64) {
        // Gather every consecutive step event off the heap: all of them
        // sort before the earliest pending non-step event (the region
        // barrier), so each pool's chain between here and the barrier
        // depends only on that pool's own state.
        let mut heads = vec![Head {
            at,
            seq,
            pool,
            epoch,
        }];
        while let Some((at, seq, event)) = self.sim.next_if_full(|_, event| event.is_step()) {
            let Event::StepComplete(pool, epoch) = event else {
                unreachable!("predicate admits only step events")
            };
            heads.push(Head {
                at,
                seq,
                pool,
                epoch,
            });
        }
        // A failover flushed the lineage a stale head was armed for;
        // the live lineage (if any) has its own pending event.
        heads.retain(|h| h.epoch == self.pool_epochs[h.pool]);
        if heads.is_empty() {
            return;
        }
        let barrier = self.barrier.earliest();
        debug_assert!(
            barrier.is_none_or(|b| heads.iter().all(|h| h.at <= b)),
            "step heads must not outrun the barrier"
        );
        // Occupancy snapshot before any chain advances; the merge below
        // updates it in handling order, so every finisher sees the
        // `in_system` of its own step boundary.
        let mut occ: Vec<u32> = self
            .pools
            .iter()
            .map(|p| {
                let p = p.lock();
                p.active() + p.queue_len() as u32
            })
            .collect();
        let chains = self.workers.run(self.pools, &heads, barrier);
        self.replay.parallel_regions += 1;

        // Deterministic merge: replay the chains in the `(time, seq)`
        // order a one-event-per-step loop would handle them, burning
        // the sequence numbers it would assign — intermediate rearms
        // consume a reserved seq, the final rearm per pool goes back
        // into the real queue.
        let mut merge: BinaryHeap<Reverse<(SimTime, u64, usize, usize)>> = heads
            .iter()
            .enumerate()
            .map(|(slot, h)| Reverse((h.at, h.seq, slot, 0)))
            .collect();
        while let Some(Reverse((t, _, slot, idx))) = merge.pop() {
            let head = heads[slot];
            let step = &chains[slot][idx];
            debug_assert_eq!(step.at, t, "merge key tracks the chain");
            self.replay.parallel_steps += 1;
            occ[head.pool] = step.occ_after;
            let in_system: u32 = occ.iter().sum();
            for fin in &step.report.finished {
                let since = |then: SimTime| (then - fin.job.arrival).as_secs_f64();
                self.complete(
                    fin.job.id.0 as usize,
                    t.as_secs_f64(),
                    since(fin.started),
                    since(fin.first_token),
                    since(fin.completed),
                    in_system,
                );
            }
            if let Some(dt) = step.next_dt {
                let next_t = t + SimDuration::from_secs_f64(dt);
                if idx + 1 < chains[slot].len() {
                    merge.push(Reverse((next_t, self.sim.reserve_seq(), slot, idx + 1)));
                } else {
                    // The chain stopped at the barrier: rearm in the
                    // real queue, at exactly the seq this point in the
                    // handling order assigns.
                    self.sim
                        .schedule(next_t, Event::StepComplete(head.pool, head.epoch));
                }
            }
        }
    }
}
