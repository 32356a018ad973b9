//! Regenerates the `headline` experiment (abstract-level claims), which
//! replays the bursty trace through the unified `ServingEngine`; the
//! engine metrics — including the iteration-level scheduler stats — are
//! written to `BENCH_e2e.json`. Pass `--quick` for a fast run.
//!
//! The iteration-scheduler and KV-memory knobs can be overridden via
//! the environment (`IC_PREFILL_CHUNK`, `IC_PREEMPT_QUANTUM`,
//! `IC_MAX_QUEUE`, `IC_SELECTOR_BATCH`, `IC_KV_BLOCK`, `IC_KV_BUDGET`,
//! `IC_KV_WATERMARKS`, `IC_KV_HOST_BLOCKS` — see
//! `ic_bench::experiments::e2e::engine_config`, parsed by
//! `ic_bench::env`); leave them unset for the byte-deterministic output
//! the CI determinism job diffs (including its `selector` and `kv`
//! blocks). A malformed value exits 2 before any replay.

use ic_bench::Scale;
use ic_bench::experiments::e2e;
use ic_bench::write_artifact;

fn main() {
    if let Err(msg) = e2e::checked_engine_config() {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let (report, engine_report) = e2e::headline_full(scale);
    write_artifact("BENCH_e2e.json", engine_report.to_json());
    println!("{}", report.to_markdown());
    println!(
        "wrote BENCH_e2e.json (engine={}, served={}, offload {:.1}%, p50 {:.3}s, p99 {:.3}s)",
        engine_report.engine,
        engine_report.served,
        engine_report.offload_ratio() * 100.0,
        engine_report.latency.p50_e2e,
        engine_report.latency.p99_e2e,
    );
    println!(
        "iteration scheduler: {} steps, mean batch {:.2}, chunked-prefill {:.1}%, \
         {} preemptions, {} queue rejects",
        engine_report.iter.steps,
        engine_report.iter.mean_step_batch(),
        engine_report.iter.chunked_prefill_ratio() * 100.0,
        engine_report.iter.preemptions,
        engine_report.iter.queue_rejects,
    );
    println!(
        "selector: {} stage-1 lookups, one per arrival past stage 0 (same-tick cap {})",
        engine_report.selector.requests, engine_report.selector.batch_limit,
    );
    println!(
        "paged KV memory: peak occupancy {:.1}% (mean {:.1}%), \
         {} pressure preemptions, {} swap-outs / {} swap-ins, fragmentation {:.1}%",
        engine_report.kv.peak_occupancy() * 100.0,
        engine_report.kv.mean_occupancy() * 100.0,
        engine_report.kv.pressure_preemptions,
        engine_report.kv.swap_outs,
        engine_report.kv.swap_ins,
        engine_report.kv.fragmentation_ratio() * 100.0,
    );
}
