//! Property tests: run-length quiet runs are an encoding change, not a
//! scheduling one. Two identically built pools live through the same
//! random schedule of offers and barriers; one is driven by the plain
//! `advance_step` / `step_secs` loop (one call per token step — the
//! reference), the other by [`chain`]: `advance_step`, then the quiet
//! run `advance_quiet` applies behind it, the way the engine's step
//! handler drives a pool. Expanding the chain's records (`quiet`
//! boundaries at `at + j * d`, empty report, unchanged occupancy and
//! step time) must reproduce the reference boundary for boundary —
//! `at`, `report`, `occ_after`, `next_dt.to_bits()` — and the two pools
//! must end every region between barriers with equal `IterStats`,
//! `KvStats` and `{:?}` state (free lists, block tables, arena layout,
//! lifecycle lane included).
//!
//! The generators aim at the places a closed-form run goes wrong: a KV
//! budget that never binds (free swaps, or priced ones) / tight enough
//! for pressure swaps and last-resident windowing, `kv_share` with prefixes that end mid-block (pending
//! copy-on-write), a decode quantum with a queue behind it, chunked and
//! unchunked prefill, zero- and one-token decodes, several replicas,
//! swap penalties (a non-zero `pending_penalty_secs`), and barriers that
//! land exactly on a step boundary.
//!
//! Mutations that make this test fail (each was tried):
//! - `advance_quiet` caps the run at `min remaining_decode` instead of
//!   `min remaining_decode - 1`, so a finisher lands inside a run: the
//!   next `advance_step` trips its "drained sequence kept a slot"
//!   assertion (and the `FinishedSeq` never reaches a report).
//! - `grow_kv_over` issues a whole run's grants slot-major (each slot's
//!   blocks up front) instead of step-major: the block-step ledger in
//!   `KvStats` diverges; visiting a growth step's slots in reverse order
//!   alone — same ledger, different free-list order — fails the `{:?}`
//!   state comparison.
//! - the barrier bound admits a boundary exactly on the barrier: the
//!   first region with an exact barrier expands to one boundary too many.

use ic_desim::{SimDuration, SimTime};
use ic_kvmem::{KvSwap, Watermarks};
use ic_obs::LaneBuf;
use ic_serving::{JobId, JobSpec, ModelPool, PoolConfig, SharedPrefix, StepReport};
use proptest::prelude::*;

/// One observed step boundary: `(at, report, occ_after, next_dt bits)`.
type Boundary = (SimTime, String, u32, Option<u64>);

/// The flavour whose KV budget is a few sequences' worth.
const TIGHT: usize = 2;

/// The pool flavours, by index; everything a flavour does not pin is
/// drawn from `knobs`.
fn config(flavour: usize, knobs: &[u32]) -> PoolConfig {
    let pick = |i: usize, of: &[u32]| of[knobs[i] as usize % of.len()];
    let mut c = PoolConfig {
        name: "rle".into(),
        replicas: pick(0, &[1, 1, 2, 3]),
        slots_per_replica: pick(1, &[1, 2, 3, 4]),
        congestion_beta: [0.0, 0.7][knobs[2] as usize % 2],
        prefill_chunk_tokens: pick(3, &[0, 0, 8, 64]),
        preempt_decode_quantum: pick(4, &[0, 0, 3, 64]),
        max_queue: None,
        kv_block_tokens: pick(5, &[4, 16]),
        kv_budget_blocks: pick(6, &[1024, 256, 64]),
        kv_watermarks: Watermarks::DEFAULT,
        kv_swap: KvSwap::DEFAULT,
        kv_share: false,
    };
    match flavour {
        0 => {
            // Roomy and free: the KV layer never binds and never adds
            // to a step's time.
            c.kv_budget_blocks = 1024;
            c.kv_swap = KvSwap {
                out_secs_per_block: 0.0,
                in_secs_per_block: 0.0,
                ..KvSwap::DEFAULT
            };
        }
        1 => c.kv_budget_blocks = 256,
        TIGHT => {
            // Tight: a few sequences' worth, so growth meets pressure,
            // victims swap (priced, then recompute-priced past a tiny
            // host ledger) and a lone resident windows its tail.
            c.kv_budget_blocks = pick(6, &[10, 16, 24]);
            c.kv_block_tokens = 4;
            c.slots_per_replica = c.slots_per_replica.max(2);
            c.kv_watermarks = Watermarks::new(1.0, 1.0);
            let (out_secs_per_block, in_secs_per_block) = if knobs[7].is_multiple_of(2) {
                (5e-4, 5e-4)
            } else {
                (2e-4, 8e-4)
            };
            c.kv_swap = KvSwap {
                out_secs_per_block,
                in_secs_per_block,
                host_capacity_blocks: pick(7, &[0, 0, 3]),
                ..KvSwap::DEFAULT
            };
        }
        3 => {
            c.kv_budget_blocks = pick(6, &[24, 256]);
            c.kv_share = true;
            c.slots_per_replica = c.slots_per_replica.max(2);
        }
        4 => {
            c.preempt_decode_quantum = pick(4, &[1, 3, 5]);
            c.replicas = 1;
            c.slots_per_replica = pick(1, &[1, 2]);
        }
        _ => c.prefill_chunk_tokens = pick(3, &[8, 16]),
    }
    c
}

/// Job `id` from five raw draws: short and long decodes (0 and 1 token
/// included), prompts from one token up (`prompt_cap` keeps them short
/// where decode growth, not the prompt, should fill the budget), one of
/// three shared prefixes that usually end mid-block.
fn job(id: u64, raw: &[u32], prompt_cap: u32) -> JobSpec {
    let prefill_tokens = 1 + raw[0] % prompt_cap;
    let decode_tokens = match raw[1] % 8 {
        0 => 0,
        1 => 1,
        2 => 2,
        _ => 3 + raw[1] % 70,
    };
    JobSpec {
        id: JobId(id),
        pool: 0,
        arrival: SimTime::ZERO,
        ttft_secs: 0.004 + f64::from(raw[2] % 50) * 0.003,
        decode_secs: 0.01 + f64::from(raw[3] % 200) * 0.004,
        prefill_tokens,
        decode_tokens,
        priority: (raw[4] % 3) as u8,
        share: (!raw[4].is_multiple_of(4)).then(|| SharedPrefix {
            set: u64::from(raw[4] % 3),
            tokens: (1 + raw[4] % 37).min(prefill_tokens),
        }),
    }
}

/// One boundary through `advance_step` and the quiet run
/// `advance_quiet` applied behind it.
struct Record {
    at: SimTime,
    report: StepReport,
    /// Running + queued sequences right after the boundary.
    occ_after: u32,
    next_dt: Option<f64>,
    quiet: u32,
}

/// The pool's boundaries from `from` while they fall strictly before
/// `barrier` (`None`: until the pool idles), one [`Record`] per
/// `advance_step`: a boundary exactly on the barrier must not run, as
/// the event pending there sorts ahead of it.
fn chain(pool: &mut ModelPool, from: SimTime, barrier: Option<SimTime>) -> Vec<Record> {
    let mut out = Vec::new();
    let mut at = from;
    loop {
        let report = pool.advance_step(at);
        let next_dt = pool.step_secs();
        let every = next_dt.map(SimDuration::from_secs_f64);
        let quiet = every.map_or(0, |d| pool.advance_quiet(at, d, barrier));
        out.push(Record {
            at,
            report,
            occ_after: pool.active() + pool.queue_len() as u32,
            next_dt,
            quiet,
        });
        let Some(every) = every else { break out };
        let next = at + every * (u64::from(quiet) + 1);
        if barrier.is_some_and(|b| next >= b) {
            break out;
        }
        at = next;
    }
}

/// One region of the reference pool: the plain per-token loop.
/// `exact_after = Some(k)` ignores `barrier` for `k` boundaries and then
/// *declares* the barrier exactly on the next one, returning it.
fn stepwise_region(
    pool: &mut ModelPool,
    from: SimTime,
    barrier: Option<SimTime>,
    exact_after: Option<usize>,
    out: &mut Vec<Boundary>,
) -> Option<SimTime> {
    let mut at = from;
    loop {
        let report = pool.advance_step(at);
        let next_dt = pool.step_secs();
        let occ_after = pool.active() + pool.queue_len() as u32;
        out.push((
            at,
            format!("{report:?}"),
            occ_after,
            next_dt.map(f64::to_bits),
        ));
        let Some(dt) = next_dt else {
            // Ran dry: any barrier past the last boundary is consistent.
            let after = at + SimDuration::from_micros(1);
            return barrier.map(|b| {
                if exact_after.is_some() {
                    b.max(after)
                } else {
                    b
                }
            });
        };
        let next = at + SimDuration::from_secs_f64(dt);
        match exact_after {
            Some(k) if out.len() > k => return Some(next),
            Some(_) => {}
            None if barrier.is_some_and(|b| next >= b) => return barrier,
            None => {}
        }
        at = next;
    }
}

/// Expands run-length records into one [`Boundary`] per step.
fn expand(chain: &[Record], out: &mut Vec<Boundary>) {
    let empty = format!("{:?}", StepReport::default());
    for step in chain {
        let bits = step.next_dt.map(f64::to_bits);
        out.push((step.at, format!("{:?}", step.report), step.occ_after, bits));
        let every = SimDuration::from_secs_f64(step.next_dt.unwrap_or(0.0));
        for j in 1..=u64::from(step.quiet) {
            out.push((step.at + every * j, empty.clone(), step.occ_after, bits));
        }
    }
}

/// When a busy pool's next boundary fires, given the region's last one.
fn next_boundary(last: &Boundary) -> Option<SimTime> {
    let (at, _, _, bits) = last;
    bits.map(|b| *at + SimDuration::from_secs_f64(f64::from_bits(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn chain_records_expand_to_the_stepwise_loop(
        flavour in 0usize..6,
        knobs in collection::vec(0u32..1000, 8),
        jobs in collection::vec(collection::vec(0u32..10_000, 5), 1..14),
        // Per region: (barrier kind, barrier distance ms, offers at it).
        regions in collection::vec(collection::vec(0u32..4000, 3), 1..9),
        traced in 0u32..2,
    ) {
        let cfg = config(flavour, &knobs);
        let prompt_cap = if flavour == TIGHT { 12 } else { 90 };
        let mut reference = ModelPool::new(cfg.clone());
        let mut chained = ModelPool::new(cfg);
        if traced == 1 {
            reference.set_obs(LaneBuf::new(1, 1 << 16));
            chained.set_obs(LaneBuf::new(1, 1 << 16));
        }
        let mut jobs = jobs.iter().enumerate().map(|(i, raw)| job(i as u64, raw, prompt_cap));
        let mut now = SimTime::ZERO;
        // Pending step boundary of the (shared) trajectory.
        let mut armed: Option<SimTime> = None;
        let mut offer = |n: usize, now: SimTime, armed: &mut Option<SimTime>,
                         reference: &mut ModelPool, chained: &mut ModelPool| {
            for job in jobs.by_ref().take(n) {
                let a = reference.offer(job.clone(), now);
                let b = chained.offer(job, now);
                prop_assert_eq!(a, b);
                if a == ic_serving::Offer::Started {
                    let dt = reference.step_secs().expect("started pool is busy");
                    *armed = Some(now + SimDuration::from_secs_f64(dt));
                }
            }
        };
        offer(1 + knobs[7] as usize % 4, now, &mut armed, &mut reference, &mut chained);

        let last_region = regions.len() - 1;
        for (r, region) in regions.iter().enumerate() {
            let (kind, reach_ms, offers) = (region[0] % 4, region[1], region[2] as usize % 4);
            // The last region has no barrier: the chain runs the pool dry.
            let barrier = (r != last_region)
                .then(|| now + SimDuration::from_micros(1 + u64::from(reach_ms) * 1000));
            // Kind 0: the barrier is declared exactly on a boundary the
            // reference reaches after a few steps.
            let exact_after = (kind == 0 && barrier.is_some()).then_some(reach_ms as usize % 40);
            let mut barrier = barrier;
            if let Some(from) = armed.filter(|&t| barrier.is_none_or(|b| t <= b)) {
                let mut want = Vec::new();
                barrier = stepwise_region(&mut reference, from, barrier, exact_after, &mut want);
                let mut got = Vec::new();
                expand(&chain(&mut chained, from, barrier), &mut got);
                prop_assert_eq!(&got, &want, "region {} (barrier {:?})", r, barrier);
                armed = next_boundary(want.last().expect("the first step always runs"));
                prop_assert!(
                    barrier.is_none_or(|b| armed.is_none_or(|t| t >= b)),
                    "the region stops at its barrier"
                );
                prop_assert_eq!(reference.iter_stats(), chained.iter_stats());
                prop_assert_eq!(reference.kv_stats(), chained.kv_stats());
                prop_assert_eq!(format!("{reference:?}"), format!("{chained:?}"));
            }
            let Some(b) = barrier else { break };
            now = b;
            offer(offers, now, &mut armed, &mut reference, &mut chained);
        }
        if traced == 1 {
            let a = reference.take_obs().expect("lane attached");
            let b = chained.take_obs().expect("lane attached");
            prop_assert_eq!(a.dropped(), 0, "the comparison covers every event");
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}

/// The run the issue measured — two long decodes side by side, KV on —
/// collapses to a handful of records, and a traced pool still records
/// one `StepEnd` per boundary.
#[test]
fn a_decode_only_batch_is_one_record_per_state_change() {
    let build = || {
        let mut p = ModelPool::new(PoolConfig::default());
        p.set_obs(LaneBuf::new(1, 1 << 12));
        for id in 0..2 {
            let mut j = job(id, &[15, 0, 10, 100, 0], 90);
            j.decode_tokens = 512;
            p.offer(j, SimTime::ZERO);
        }
        p
    };
    let mut pool = build();
    let from = SimTime::from_secs_f64(pool.step_secs().expect("busy"));
    let records = chain(&mut pool, from, None);
    let steps = pool.iter_stats().steps;
    let quiet: u64 = records.iter().map(|c| u64::from(c.quiet)).sum();
    assert_eq!(records.len() as u64 + quiet, steps);
    assert!(
        records.len() <= 6,
        "{} records for {steps} steps",
        records.len()
    );
    assert!(quiet * 100 >= steps * 95, "{quiet} of {steps} steps quiet");
    let lane = format!("{:?}", pool.take_obs().expect("lane attached"));
    assert_eq!(lane.matches("StepEnd").count() as u64, steps);
}
