//! Regenerates the `headline` experiment (abstract-level claims), which
//! replays the bursty trace through the unified `ServingEngine`; the
//! engine metrics — including the iteration-level scheduler stats — are
//! written to `BENCH_e2e.json`. Pass `--quick` for a fast run; any
//! other argument exits 2.
//!
//! Every `IC_*` knob is listed, with its default and effect, in
//! `docs/config.md`; leave them unset for the byte-deterministic output
//! the CI determinism job diffs (including its `selector` and `kv`
//! blocks). A malformed or unknown `IC_*` variable exits 2 before any
//! replay.

use ic_bench::Scale;
use ic_bench::experiments::e2e;
use ic_bench::write_artifact;

fn main() {
    if let Err(msg) = e2e::checked_engine_config() {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg != "--quick" {
            eprintln!("error: unexpected argument {arg:?}\nusage: headline [--quick]");
            std::process::exit(2);
        }
        quick = true;
    }
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
