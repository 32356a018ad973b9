//! Regenerates the `fig12_e2e` experiment through the unified
//! `ServingEngine` and writes `BENCH_e2e.json` (p50/p99 latency, offload
//! ratio, example-cache stats, and per-iteration scheduler stats
//! from the event-driven run). Pass `--quick` for a fast run, or
//! `--fraction F` for an engine-replay-only run at an arbitrary
//! fraction of the paper-scale workload (skips the baseline-policy
//! comparisons and `BENCH_e2e.json`; writes only `BENCH_replay.json`
//! and any requested observability artifacts).
//!
//! Every run also writes `BENCH_replay.json`: the replay-performance
//! record (wall-clock seconds, simulator events per second, the
//! replay counters, the process's peak resident set, and the
//! tracing-enabled vs disabled replay walls side by side — the
//! observability overhead is measured every run, not asserted). Its
//! `peak_rss_mb`/`wall_s`/`traced_wall_s`/`events_per_sec` fields are
//! measurements and are **not** part of any determinism contract — the
//! CI determinism job diffs only `BENCH_e2e.json` and the observability
//! artifacts.
//!
//! Observability (`docs/observability.md`):
//!
//! - `--trace <path>` records the request-lifecycle event stream
//!   (as `IC_OBS_TRACE=1` does, for every engine run of the process) and
//!   writes the Chrome trace-event timeline to `<path>` —
//!   Perfetto-loadable, byte-deterministic per seed.
//! - `IC_OBS_SAMPLE=<secs>` arms the periodic telemetry sampler and
//!   writes `BENCH_telemetry.jsonl`: one JSONL line per sample plus a
//!   summary footer carrying the replay counters; byte-deterministic
//!   per seed.
//!
//! Every `IC_*` knob is listed, with its default and effect, in
//! `docs/config.md`; leave them unset for the byte-deterministic output
//! the CI determinism job diffs (including its `router` and `kv`
//! blocks). A malformed `IC_*` value, a set `IC_*` variable that is not
//! a knob (a typo, or a retired knob such as `IC_REPLAY_THREADS`), or
//! an `IC_POOL_OUTAGE` naming a pool the cluster does not have, exits 2
//! before any replay. The observability knobs
//! are observation only: `BENCH_e2e.json` is byte-identical with and
//! without them (CI-enforced). One logical router owns every request;
//! `IC_POOL_OUTAGE` flushes a pool's work back through it as retries,
//! counted in the `router` block.

use std::time::Instant;

use ic_bench::Scale;
use ic_bench::experiments::e2e;
use ic_bench::harness::SetupTiming;
use ic_bench::write_artifact;
use ic_engine::{EngineConfig, EngineReport, ServingEngine};
use ic_workloads::Dataset;

/// Peak resident set of this process so far in MiB (`VmHWM`; 0 where
/// `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The replay-performance record. Deterministic fields first, measured
/// fields last; only `BENCH_e2e.json` and the observability
/// artifacts carry determinism guarantees. `wall_s` times the
/// observability-off replay, `traced_wall_s` the identical replay with
/// the lifecycle recorder on — side by side, so the tracing-overhead
/// claim is a measurement.
fn replay_json(
    fraction: f64,
    report: &EngineReport,
    wall_s: f64,
    traced_wall_s: f64,
    setup: SetupTiming,
    peak_rss_mb: f64,
) -> String {
    let events = report.served + report.iter.steps;
    // The replay counters are `ReplayStats::to_json`'s keys, spliced in
    // without its braces, so a new counter is serialized in one place.
    let counters = report.replay.to_json();
    let counters = &counters[1..counters.len() - 1];
    format!(
        concat!(
            "{{\"fraction\":{:.6},\"served\":{},\"steps\":{},",
            "\"events\":{},{},",
            "\"index_fits\":{},\"kmeans_trained_rows\":{},\"kmeans_passes\":{},",
            "\"lane_group_scans\":{},\"lane_group_scans_full\":{},",
            "\"certified_scans\":{},\"exact_resolves\":{},",
            "\"setup_wall_s\":{:.3},\"peak_rss_mb\":{:.1},",
            "\"bank_gen_wall_s\":{:.3},\"index_build_wall_s\":{:.3},",
            "\"wall_s\":{:.3},\"traced_wall_s\":{:.3},\"events_per_sec\":{:.1}}}"
        ),
        fraction,
        report.served,
        report.iter.steps,
        events,
        counters,
        setup.index_build.fits,
        setup.index_build.trained_rows,
        setup.index_build.passes,
        setup.index_build.group_scans,
        setup.index_build.group_scans_full,
        setup.index_build.certified_scans,
        setup.index_build.exact_resolves,
        setup.setup_wall_s,
        peak_rss_mb,
        setup.bank_gen_wall_s,
        setup.index_build_wall_s,
        wall_s,
        traced_wall_s,
        events as f64 / wall_s.max(1e-9),
    )
}

fn print_engine_summary(report: &EngineReport) {
    println!(
        "engine={}, served={}, offload {:.1}%, p50 {:.3}s, p99 {:.3}s",
        report.engine,
        report.served,
        report.offload_ratio() * 100.0,
        report.latency.p50_e2e,
        report.latency.p99_e2e,
    );
    println!(
        "iteration scheduler: {} steps, mean batch {:.2}, chunked-prefill {:.1}%, \
         {} preemptions, {} queue rejects",
        report.iter.steps,
        report.iter.mean_step_batch(),
        report.iter.chunked_prefill_ratio() * 100.0,
        report.iter.preemptions,
        report.iter.queue_rejects,
    );
    println!(
        "router: {} decisions, {} failover requeues ({} retry rejects)",
        report.router.decisions.iter().sum::<u64>(),
        report.router.failover_requeues,
        report.router.retry_rejects,
    );
    // Each cell's health number: the offloads the small model served
    // with in-context examples.
    let offloads: Vec<_> = report.per_request.iter().filter(|r| r.offloaded).collect();
    let with_examples = offloads.iter().filter(|r| r.examples > 0).count();
    println!(
        "selector: {} stage-1 lookups, one per arrival past stage 0; \
         {} selections with >= 1 example ({:.1}% of {} served), {} examples selected; \
         {} of {} offloads carried >= 1 example",
        report.served - report.resp_cache.hits,
        report.cache.selection_hits,
        report.selection_hit_rate() * 100.0,
        report.served,
        report.cache.examples_used,
        with_examples,
        offloads.len(),
    );
    println!(
        "paged KV memory: peak occupancy {:.1}% (mean {:.1}%), \
         {} pressure preemptions, {} swap-outs / {} swap-ins, fragmentation {:.1}%",
        report.kv.peak_occupancy() * 100.0,
        report.kv.mean_occupancy() * 100.0,
        report.kv.pressure_preemptions,
        report.kv.swap_outs,
        report.kv.swap_ins,
        report.kv.fragmentation_ratio() * 100.0,
    );
}

fn print_replay_summary(
    report: &EngineReport,
    wall_s: f64,
    traced_wall_s: f64,
    setup: SetupTiming,
    peak_rss_mb: f64,
) {
    println!(
        "setup: {:.2}s wall (bank gen {:.2}s, index build {:.2}s) vs replay {:.2}s, \
         peak RSS {:.1} MiB",
        setup.setup_wall_s, setup.bank_gen_wall_s, setup.index_build_wall_s, wall_s, peak_rss_mb,
    );
    let b = setup.index_build;
    println!(
        "index build: {} k-means fit(s) on {} of {} rows, {} assignment passes, \
         {} of {} lane-group scans ({:.1}%), {} certified point scans, {} exact resolves",
        b.fits,
        b.trained_rows,
        b.clustered_rows,
        b.passes,
        b.group_scans,
        b.group_scans_full,
        b.group_scans as f64 / b.group_scans_full.max(1) as f64 * 100.0,
        b.certified_scans,
        b.exact_resolves,
    );
    let events = report.served + report.iter.steps;
    let r = &report.replay;
    let steps = report.iter.steps;
    println!(
        "replay: {} events in {:.2}s wall ({:.0} events/s), {} steps",
        events,
        wall_s,
        events as f64 / wall_s.max(1e-9),
        steps,
    );
    println!(
        "step chains: {} quiet runs coalesced {} of {} steps ({:.1}%)",
        r.step_runs,
        r.quiet_steps,
        steps,
        r.quiet_steps as f64 / steps.max(1) as f64 * 100.0,
    );
    println!(
        "router posteriors: {} refits for {} arm evaluations ({:.1}%)",
        r.posterior_refits,
        r.arm_evaluations,
        r.posterior_refits as f64 / r.arm_evaluations.max(1) as f64 * 100.0,
    );
    println!(
        "probe memo: {} of {} stage-1 lookups answered without a probe ({:.1}%)",
        r.probe_memo_hits,
        r.probe_memo_lookups,
        r.probe_memo_hits as f64 / r.probe_memo_lookups.max(1) as f64 * 100.0,
    );
    println!(
        "obs overhead: untraced {:.2}s vs traced {:.2}s wall ({:+.1}%)",
        wall_s,
        traced_wall_s,
        (traced_wall_s / wall_s.max(1e-9) - 1.0) * 100.0,
    );
}

/// Writes the observability artifacts a traced/sampled report carries:
/// the Chrome trace-event timeline (when `--trace <path>` asked for
/// one) and `BENCH_telemetry.jsonl` (when `IC_OBS_SAMPLE` armed the
/// sampler; its summary footer embeds the replay counters). No-op on a
/// report without an `obs` block.
fn write_obs_artifacts(report: &EngineReport, trace_path: Option<&str>, sampled: bool) {
    let Some(obs) = report.obs.as_ref() else {
        return;
    };
    if let Some(path) = trace_path {
        write_artifact(path, obs.chrome_trace_json());
        println!(
            "wrote {path} ({} events, {} dropped)",
            obs.events.len(),
            obs.dropped
        );
    }
    if sampled {
        let footer = format!("\"replay\":{}", report.replay.to_json());
        write_artifact(
            "BENCH_telemetry.jsonl",
            obs.telemetry_jsonl(Some(footer.as_str())),
        );
        println!(
            "wrote BENCH_telemetry.jsonl ({} samples)",
            obs.samples.len()
        );
    }
}

/// Times `serve_workload` over the standard MS MARCO replay parts under
/// `config`, returning the report, its wall seconds, and the measured
/// wall split of the setup that preceded it.
fn timed_replay(scale: Scale, config: &EngineConfig) -> (EngineReport, f64, SetupTiming) {
    let (mut engine, requests, arrivals, setup) =
        e2e::E2eRun::with(scale, Dataset::MsMarco, config).parts();
    let start = Instant::now();
    let report = engine.serve_workload(&requests, &arrivals);
    (report, start.elapsed().as_secs_f64(), setup)
}

/// Exits 2 with `msg` and the usage line: an argument this binary does
/// not take must not run a different experiment than the one asked for.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: fig12_e2e [--quick] [--fraction F] [--trace PATH]");
    std::process::exit(2);
}

fn main() {
    let mut config = ic_bench::env::from_env().unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    let mut quick = false;
    let mut fraction = None;
    let mut trace_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || match args.next() {
            Some(value) if !value.starts_with("--") => value,
            _ => usage_error(&format!("{arg} requires a value")),
        };
        match arg.as_str() {
            "--quick" => quick = true,
            // A malformed, non-finite or non-positive fraction must fail
            // loudly instead of silently falling through to the full
            // paper-scale run.
            "--fraction" => {
                let raw = value();
                match raw.parse::<f64>() {
                    Ok(f) if f.is_finite() && f > 0.0 => fraction = Some(f),
                    _ => usage_error(&format!(
                        "--fraction must be a finite positive number, got {raw:?}"
                    )),
                }
            }
            "--trace" => trace_path = Some(value()),
            _ => usage_error(&format!("unexpected argument {arg:?}")),
        }
    }
    // Every engine run of the process (suite run included) records the
    // event stream.
    config.trace |= trace_path.is_some();
    let sampled = config.obs_sample_s > 0.0;
    // The overhead pair: one observability-off replay and one with the
    // lifecycle recorder on (sampler as configured), same seed.
    let mut obs_off = config.clone();
    obs_off.trace = false;
    obs_off.obs_sample_s = 0.0;
    let mut obs_on = config.clone();
    obs_on.trace = true;

    if let Some(fraction) = fraction {
        // Engine-replay-only fast path: one event-driven run at an
        // arbitrary workload fraction, timed with and without tracing.
        let scale = Scale {
            fraction,
            seed: 20_250_613,
        };
        let (engine_report, wall_s, setup) = timed_replay(scale, &obs_off);
        let (traced, traced_wall_s, _) = timed_replay(scale, &obs_on);
        let peak = peak_rss_mb();
        write_artifact(
            "BENCH_replay.json",
            replay_json(fraction, &engine_report, wall_s, traced_wall_s, setup, peak),
        );
        write_obs_artifacts(&traced, trace_path.as_deref(), sampled);
        print_engine_summary(&engine_report);
        print_replay_summary(&engine_report, wall_s, traced_wall_s, setup, peak);
        println!("wrote BENCH_replay.json (fraction {fraction})");
        return;
    }

    let scale = if quick { Scale::quick() } else { Scale::full() };
    let (report, engine_report) = e2e::fig12_e2e_full(scale, &config);
    write_artifact("BENCH_e2e.json", engine_report.to_json());
    // The suite's engine run already carries the observability block
    // when tracing/sampling is on; the artifacts come from it so the
    // timed overhead pair below stays measurement-only.
    write_obs_artifacts(&engine_report, trace_path.as_deref(), sampled);
    // The replay-performance record times the engine replay alone — a
    // dedicated run, so neither the suite's baseline policies and
    // judging nor the workload-generation setup pollute the
    // events-per-second figure.
    let (timed, wall_s, setup) = timed_replay(scale, &obs_off);
    let (_, traced_wall_s, _) = timed_replay(scale, &obs_on);
    let peak = peak_rss_mb();
    write_artifact(
        "BENCH_replay.json",
        replay_json(scale.fraction, &timed, wall_s, traced_wall_s, setup, peak),
    );
    println!("{}", report.to_markdown());
    println!("wrote BENCH_e2e.json and BENCH_replay.json");
    print_engine_summary(&engine_report);
    print_replay_summary(&timed, wall_s, traced_wall_s, setup, peak);
}
