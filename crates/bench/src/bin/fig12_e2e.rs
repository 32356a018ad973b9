//! Regenerates the `fig12_e2e` experiment through the unified
//! `ServingEngine` and writes `BENCH_e2e.json` (p50/p99 latency, offload
//! ratio, cache hit + shard stats, and per-iteration scheduler stats
//! from the event-driven run). Pass `--quick` for a fast run, or
//! `--fraction F` for an engine-replay-only run at an arbitrary
//! fraction of the paper-scale workload (skips the baseline-policy
//! comparisons and `BENCH_e2e.json`; writes only `BENCH_replay.json`
//! and any requested observability artifacts).
//!
//! Every run also writes `BENCH_replay.json`: the replay-performance
//! record (wall-clock seconds, simulator events per second, the
//! step-region counters, and the tracing-enabled vs
//! disabled replay walls side by side — the observability overhead is
//! measured every run, not asserted). Its `wall_s`/`traced_wall_s`/
//! `events_per_sec` fields are measured wall time and are **not** part
//! of any determinism contract — the CI determinism job diffs only
//! `BENCH_e2e.json` and the observability artifacts.
//!
//! Observability (`docs/observability.md`):
//!
//! - `--trace <path>` records the request-lifecycle event stream
//!   (setting `IC_OBS_TRACE=1` for every engine run in the process) and
//!   writes the Chrome trace-event timeline to `<path>` —
//!   Perfetto-loadable, byte-deterministic per seed.
//! - `IC_OBS_SAMPLE=<secs>` arms the periodic telemetry sampler and
//!   writes `BENCH_telemetry.jsonl`: one JSONL line per sample plus a
//!   summary footer carrying the replay counters; byte-deterministic
//!   per seed.
//!
//! The iteration-scheduler, KV-memory and router-tier knobs
//! can be overridden via the environment (`IC_PREFILL_CHUNK`,
//! `IC_PREEMPT_QUANTUM`, `IC_MAX_QUEUE`, `IC_SELECTOR_BATCH`,
//! `IC_KV_BLOCK`, `IC_KV_BUDGET`, `IC_KV_WATERMARKS`, `IC_KV_HOST_BLOCKS`,
//! `IC_ROUTER_REPLICAS`, `IC_GOSSIP_PERIOD`, `IC_POOL_OUTAGE`,
//! `IC_RESP_CACHE`, `IC_RESP_THRESHOLD`, `IC_RESP_BYTES`,
//! `IC_RESP_TTL`, `IC_RESP_PREPOP`, `IC_RESP_WINDOW`,
//! `IC_OBS_TRACE`, `IC_OBS_SAMPLE`, `IC_OBS_RING` — see
//! `ic_bench::experiments::e2e::engine_config`, parsed by
//! `ic_bench::env`); leave them unset for the byte-deterministic output
//! the CI determinism job diffs (including its `selector`, `router`
//! and `kv` blocks). `IC_SELECTOR_BATCH` caps the same-tick run the
//! stage-0 sketch pre-observes: with `IC_RESP_CACHE` off it changes
//! only the `batch_limit` echoed in the `selector` stats block.
//! A malformed `IC_*` value, a set `IC_*` variable that is not a knob
//! (a typo, or a retired knob such as `IC_REPLAY_THREADS`), or an
//! `IC_POOL_OUTAGE` naming a pool the cluster does not have, exits 2
//! before any replay. The observability knobs
//! are observation only: `BENCH_e2e.json` is byte-identical with and
//! without them (CI-enforced). `IC_ROUTER_REPLICAS=1` (or unset)
//! likewise reproduces the pre-replication bytes except the added
//! `router` block; higher replica counts route on genuinely diverged,
//! gossiped state and are deterministic per seed rather than byte-equal
//! to the single-router run.

use std::time::Instant;

use ic_bench::Scale;
use ic_bench::experiments::e2e;
use ic_bench::harness::SetupTiming;
use ic_bench::write_artifact;
use ic_engine::{EngineReport, ServingEngine};
use ic_workloads::Dataset;

/// The replay-performance record. Deterministic fields first, measured
/// wall-clock fields last; only `BENCH_e2e.json` and the observability
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
) -> String {
    let events = report.served + report.iter.steps;
    let r = &report.replay;
    format!(
        concat!(
            "{{\"fraction\":{:.6},\"served\":{},\"steps\":{},",
            "\"events\":{},\"regions\":{},",
            "\"region_steps\":{},\"step_runs\":{},\"quiet_steps\":{},",
            "\"arm_evaluations\":{},\"posterior_refits\":{},",
            "\"share_admissions\":{},\"prefix_chunks\":{},",
            "\"probe_memo_lookups\":{},\"probe_memo_hits\":{},",
            "\"index_fits\":{},\"kmeans_passes\":{},",
            "\"lane_group_scans\":{},\"lane_group_scans_full\":{},",
            "\"setup_threads\":{},\"setup_wall_s\":{:.3},",
            "\"bank_gen_wall_s\":{:.3},\"index_build_wall_s\":{:.3},",
            "\"wall_s\":{:.3},\"traced_wall_s\":{:.3},\"events_per_sec\":{:.1}}}"
        ),
        fraction,
        report.served,
        report.iter.steps,
        events,
        r.regions,
        r.region_steps,
        r.step_runs,
        r.quiet_steps,
        r.arm_evaluations,
        r.posterior_refits,
        r.share_admissions,
        r.prefix_chunks,
        r.probe_memo_lookups,
        r.probe_memo_hits,
        setup.index_build.fits,
        setup.index_build.passes,
        setup.index_build.group_scans,
        setup.index_build.group_scans_full,
        setup.setup_threads,
        setup.setup_wall_s,
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
        "router tier: {} replica(s), decisions {:?}, {} gossip rounds / {} merges \
         (mean staleness {:.3}s), {} failover requeues ({} retry rejects)",
        report.router.replicas,
        report.router.decisions,
        report.router.gossip_rounds,
        report.router.merges,
        report.router.mean_staleness_s(),
        report.router.failover_requeues,
        report.router.retry_rejects,
    );
    println!(
        "selector: {} stage-1 lookups, one per arrival past stage 0 (same-tick cap {})",
        report.selector.requests, report.selector.batch_limit,
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
) {
    println!(
        "setup: {:.2}s wall at {} thread(s) (bank gen {:.2}s, index build {:.2}s) vs replay {:.2}s",
        setup.setup_wall_s,
        setup.setup_threads,
        setup.bank_gen_wall_s,
        setup.index_build_wall_s,
        wall_s,
    );
    let b = setup.index_build;
    println!(
        "index build: {} k-means fit(s), {} assignment passes, {} of {} lane-group scans ({:.1}%)",
        b.fits,
        b.passes,
        b.group_scans,
        b.group_scans_full,
        b.group_scans as f64 / b.group_scans_full.max(1) as f64 * 100.0,
    );
    let events = report.served + report.iter.steps;
    let r = &report.replay;
    println!(
        "replay: {} events in {:.2}s wall ({:.0} events/s), \
         {} step regions covering {} steps",
        events,
        wall_s,
        events as f64 / wall_s.max(1e-9),
        r.regions,
        r.region_steps,
    );
    println!(
        "step chains: {} quiet runs coalesced {} of {} steps ({:.1}%)",
        r.step_runs,
        r.quiet_steps,
        r.region_steps,
        r.quiet_steps as f64 / r.region_steps.max(1) as f64 * 100.0,
    );
    println!(
        "router posteriors: {} refits for {} arm evaluations ({:.1}%)",
        r.posterior_refits,
        r.arm_evaluations,
        r.posterior_refits as f64 / r.arm_evaluations.max(1) as f64 * 100.0,
    );
    println!(
        "kv sharing: {} admissions carried {} prefix chunks, {} found resident ({:.1}%)",
        r.share_admissions,
        r.prefix_chunks,
        report.kv.blocks_saved,
        report.kv.blocks_saved as f64 / r.prefix_chunks.max(1) as f64 * 100.0,
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
/// an explicit config, returning the report, its wall seconds, and the
/// measured wall split of the setup that preceded it.
fn timed_replay(scale: Scale, config: ic_engine::EngineConfig) -> (EngineReport, f64, SetupTiming) {
    let (mut engine, requests, arrivals, setup) = e2e::E2eRun::from_env(scale, Dataset::MsMarco)
        .config(config)
        .parts();
    let start = Instant::now();
    let report = engine.serve_workload(&requests, &arrivals);
    (report, start.elapsed().as_secs_f64(), setup)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if trace_path.is_some() {
        // Single-threaded this early; makes every engine_config() in
        // the process (suite run included) record the event stream.
        unsafe { std::env::set_var("IC_OBS_TRACE", "1") };
    }
    // `--fraction` is validated up front: a malformed, non-finite or
    // non-positive value must fail loudly instead of silently falling
    // through to the full paper-scale run.
    let fraction = match args.iter().position(|a| a == "--fraction") {
        Some(i) => {
            let Some(raw) = args.get(i + 1) else {
                eprintln!("error: --fraction requires a value (e.g. --fraction 0.2)");
                std::process::exit(2);
            };
            match raw.parse::<f64>() {
                Ok(f) if f.is_finite() && f > 0.0 => Some(f),
                _ => {
                    eprintln!("error: --fraction must be a finite positive number, got {raw:?}");
                    std::process::exit(2);
                }
            }
        }
        None => None,
    };

    let base = e2e::checked_engine_config().unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    let sampled = base.obs_sample_s > 0.0;
    // The overhead pair: one observability-off replay and one with the
    // lifecycle recorder on (sampler as configured), same seed.
    let obs_off = {
        let mut c = base.clone();
        c.trace = false;
        c.obs_sample_s = 0.0;
        c
    };
    let obs_on = {
        let mut c = base.clone();
        c.trace = true;
        c
    };

    if let Some(fraction) = fraction {
        // Engine-replay-only fast path: one event-driven run at an
        // arbitrary workload fraction, timed with and without tracing.
        let scale = Scale {
            fraction,
            seed: 20_250_613,
        };
        let (engine_report, wall_s, setup) = timed_replay(scale, obs_off);
        let (traced, traced_wall_s, _) = timed_replay(scale, obs_on);
        write_artifact(
            "BENCH_replay.json",
            replay_json(fraction, &engine_report, wall_s, traced_wall_s, setup),
        );
        write_obs_artifacts(&traced, trace_path.as_deref(), sampled);
        print_engine_summary(&engine_report);
        print_replay_summary(&engine_report, wall_s, traced_wall_s, setup);
        println!("wrote BENCH_replay.json (fraction {fraction})");
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let (report, engine_report) = e2e::fig12_e2e_full(scale);
    write_artifact("BENCH_e2e.json", engine_report.to_json());
    // The suite's engine run already carries the observability block
    // when tracing/sampling is on; the artifacts come from it so the
    // timed overhead pair below stays measurement-only.
    write_obs_artifacts(&engine_report, trace_path.as_deref(), sampled);
    // The replay-performance record times the engine replay alone — a
    // dedicated run, so neither the suite's baseline policies and
    // judging nor the workload-generation setup pollute the
    // events-per-second figure.
    let (timed, wall_s, setup) = timed_replay(scale, obs_off);
    let (_, traced_wall_s, _) = timed_replay(scale, obs_on);
    write_artifact(
        "BENCH_replay.json",
        replay_json(scale.fraction, &timed, wall_s, traced_wall_s, setup),
    );
    println!("{}", report.to_markdown());
    println!("wrote BENCH_e2e.json and BENCH_replay.json");
    print_engine_summary(&engine_report);
    print_replay_summary(&timed, wall_s, traced_wall_s, setup);
}
