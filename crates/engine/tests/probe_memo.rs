//! The selector's probe memo seen from the engine: a hit is the probe's
//! own bytes, so a replay with repeated queries must serialize to the
//! same report as the same replay with the memo taken out, while
//! `ReplayStats` shows that the memo did answer some of them; and an
//! index whose probes are cheaper than remembering one never consults
//! it.

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineConfig, EngineReport, EventDrivenEngine, ServingEngine};
use ic_llmsim::Generator;
use ic_workloads::{Dataset, WorkloadGenerator};

/// `n` arrivals half a second apart over a bank of `bank` examples;
/// with `repeats`, every odd request is an exact copy of an earlier one.
fn run(bank: usize, n: usize, repeats: bool, memo: bool) -> EngineReport {
    let sys_cfg = IcCacheConfig::gemma_pair();
    let large = sys_cfg.primary;
    let large_spec = sys_cfg.catalog.get(large).clone();
    let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, 417, bank);
    let examples = wg.generate_examples(bank, &large_spec, large, &Generator::new());
    let mut system = IcCacheSystem::new(sys_cfg);
    system.seed_examples(examples, 0.0);
    if !memo {
        system.disable_probe_memo();
    }
    let mut requests = wg.generate_requests(n);
    if repeats {
        for i in (1..n).step_by(2) {
            requests[i] = requests[i / 3].clone();
        }
    }
    let arrivals: Vec<f64> = (0..n).map(|i| 0.5 * i as f64).collect();
    let mut engine = EventDrivenEngine::new(system, EngineConfig::default());
    engine.serve_workload(&requests, &arrivals)
}

#[test]
fn repeated_arrivals_hit_the_memo_and_move_no_report_byte() {
    let memoized = run(3_000, 80, true, true);
    let bypassed = run(3_000, 80, true, false);
    assert_eq!(memoized.to_json(), bypassed.to_json());
    assert_eq!(
        format!("{:?}", memoized.per_request),
        format!("{:?}", bypassed.per_request)
    );
    // Every arrival reached stage 1 (no stage-0 cache); each of the 40
    // copies found its original's probe, stamped with the generation
    // the bank load left (nothing is admitted or evicted in this run).
    let replay = memoized.replay;
    assert_eq!(replay.probe_memo_lookups, 80);
    assert!(
        (30..=40).contains(&replay.probe_memo_hits),
        "{} hits",
        replay.probe_memo_hits
    );
    assert_eq!(
        (
            bypassed.replay.probe_memo_lookups,
            bypassed.replay.probe_memo_hits
        ),
        (0, 0)
    );
    // Without repeats every lookup is a miss.
    let distinct = run(3_000, 40, false, true).replay;
    assert_eq!(
        (distinct.probe_memo_lookups, distinct.probe_memo_hits),
        (40, 0)
    );
}

#[test]
fn a_bank_of_100_never_consults_the_memo() {
    let replay = run(100, 40, true, true).replay;
    assert_eq!((replay.probe_memo_lookups, replay.probe_memo_hits), (0, 0));
}
