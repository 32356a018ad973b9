//! One workload, end to end: set-up, replay, output checks and the
//! end-to-end metrics.

use std::time::Instant;

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_engine::{EngineReport, EventDrivenEngine, RequestRecord, ServingEngine};
use ic_judge::{Autorater, PairwiseEval};
use ic_llmsim::{GenSetup, Generator, ModelId, ModelSpec, Request};
use ic_stats::Percentiles;
use ic_stats::rng::rng_from_seed;

use crate::metrics::{END_TO_END, Value};
use crate::spans::{NO_REQUEST, Spans};
use crate::workload::{FIXTURE_SEED, SYSTEM_SEED, Workload};

/// Latency limits of `sim_slo_attainment`, simulated seconds.
pub const SLO_TTFT_S: f64 = 5.0;
/// See [`SLO_TTFT_S`].
pub const SLO_E2E_S: f64 = 30.0;
/// Most requests the quality judge compares (evenly strided).
const JUDGE_SAMPLE: usize = 20_000;
const SALT_REFERENCE: u64 = 24;
const SALT_JUDGE: u64 = 0xE7A1;

/// Everything a replay needs, as the set-up leaves it.
pub struct Ready {
    /// The seeded, warmed engine.
    pub engine: EventDrivenEngine,
    /// The request behind each arrival.
    pub requests: Vec<Request>,
    /// Arrival times, simulated seconds, ascending.
    pub arrivals: Vec<f64>,
}

/// The Gemma pair's `(small, large)` model specs and the large model's id,
/// as `IcCacheConfig::gemma_pair` registers them.
pub fn gemma_specs() -> (ModelSpec, ModelSpec, ModelId) {
    let config = IcCacheConfig::gemma_pair();
    (
        config.catalog.get(config.offload_models()[0]).clone(),
        config.catalog.get(config.primary).clone(),
        config.primary,
    )
}

/// Builds the engine for `workload`: bank generation and embedding,
/// `seed_examples`, warm-up, arrival and request generation. One span per
/// step under a `setup.total` span whose duration is `setup_s`. `trace`
/// turns the engine's lifecycle recording on.
pub fn setup(
    workload: Workload,
    seed: u64,
    scale: f64,
    trace: bool,
    spans: &mut Spans,
) -> (Ready, f64) {
    let (ready, ns) = spans.scope("setup.total", NO_REQUEST, 1, |spans| {
        let mut config = IcCacheConfig::gemma_pair();
        config.seed = SYSTEM_SEED;
        let (_, large_spec, large) = gemma_specs();
        let mut generator = workload.generator();
        let bank = spans.time("setup.gen_bank", NO_REQUEST, || {
            generator.generate_examples(workload.bank(), &large_spec, large, &Generator::new())
        });
        let mut system = IcCacheSystem::new(config);
        system.set_cache_capacity(workload.cache_capacity());
        spans.time("setup.seed_examples", NO_REQUEST, || {
            system.seed_examples(bank, 0.0)
        });
        spans.time("setup.warm_up", NO_REQUEST, || {
            for r in generator.generate_requests(workload.warm_up()) {
                let _ = system.serve(&r);
            }
        });
        let arrivals = spans.time("setup.gen_arrivals", NO_REQUEST, || {
            workload.arrivals(seed, scale)
        });
        let requests = spans.time("setup.gen_requests", NO_REQUEST, || {
            workload.requests(&mut generator, arrivals.len())
        });
        let mut engine_config = workload.engine_config(scale);
        engine_config.trace = trace;
        Ready {
            engine: EventDrivenEngine::new(system, engine_config),
            requests,
            arrivals,
        }
    });
    (ready, ns as f64 / 1e9)
}

/// FNV-1a 64 over bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What happened to the requests of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Requests offered to the engine.
    pub sent: u64,
    /// Requests that ran to completion (pool or stage-0).
    pub served: u64,
    /// Requests dropped by a pool queue cap.
    pub rejected: u64,
    /// Requests with no terminal outcome: neither served nor rejected.
    pub failed: u64,
    /// Simulator events: `served + iter.steps`.
    pub events: u64,
}

impl Counts {
    /// Tallies a report's per-request records.
    pub fn of(report: &EngineReport) -> Self {
        let sent = report.per_request.len() as u64;
        let rejected = report.per_request.iter().filter(|r| r.rejected).count() as u64;
        let served = report.per_request.iter().filter(|r| finished(r)).count() as u64;
        Self {
            sent,
            served,
            rejected,
            failed: sent - served - rejected,
            events: served + report.iter.steps,
        }
    }
}

fn finished(r: &RequestRecord) -> bool {
    !r.rejected && r.e2e_s > 0.0
}

/// The output checks every replay must pass; an `Err` fails the run.
pub fn check_report(report: &EngineReport, sent: usize) -> Result<(), String> {
    if report.per_request.len() != sent {
        return Err(format!(
            "{} records for {sent} requests",
            report.per_request.len()
        ));
    }
    if let Some((i, r)) = report
        .per_request
        .iter()
        .enumerate()
        .find(|(i, r)| r.index != *i)
    {
        return Err(format!("record {i} carries request index {}", r.index));
    }
    let counts = Counts::of(report);
    if counts.served + counts.rejected != counts.sent {
        return Err(format!(
            "served {} + rejected {} != sent {}",
            counts.served, counts.rejected, counts.sent
        ));
    }
    if report.kv.allocs != report.kv.frees {
        return Err(format!(
            "kv.allocs {} != kv.frees {}",
            report.kv.allocs, report.kv.frees
        ));
    }
    Ok(())
}

/// Median of `values` (`ic_stats::Percentiles`, the repo's R-7 rule); 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut p = Percentiles::new();
    p.record_all(values.iter().copied());
    p.p50().unwrap_or(0.0)
}

/// The simulated-clock metrics of one replay; bit-deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    pub ttft_p50_s: f64,
    pub ttft_p99_s: f64,
    pub e2e_p50_s: f64,
    pub e2e_p99_s: f64,
    /// Latency samples behind the percentiles (finished requests).
    pub samples: usize,
    pub slo_attainment: f64,
    pub offload_ratio: f64,
    pub quality_win_rate: f64,
    /// Requests the judge compared.
    pub judged: usize,
}

impl SimMetrics {
    /// Derives the metrics from a report. Percentiles run over finished
    /// requests; attainment and offload are shares of requests *sent*, so
    /// a rejected or unfinished request misses the limit.
    pub fn of(report: &EngineReport, requests: &[Request]) -> Self {
        let done: Vec<&RequestRecord> = report.per_request.iter().filter(|r| finished(r)).collect();
        let (mut ttft, mut e2e) = (Percentiles::new(), Percentiles::new());
        ttft.record_all(done.iter().map(|r| r.ttft_s));
        e2e.record_all(done.iter().map(|r| r.e2e_s));
        let at = |p: &mut Percentiles, q| p.quantile(q).unwrap_or(0.0);
        let sent = report.per_request.len().max(1) as f64;
        let within = done
            .iter()
            .filter(|r| r.ttft_s <= SLO_TTFT_S && r.e2e_s <= SLO_E2E_S)
            .count();
        let offloaded = done.iter().filter(|r| r.offloaded).count();
        let (quality_win_rate, judged) = judged_win_rate(report, requests);
        Self {
            ttft_p50_s: at(&mut ttft, 0.5),
            ttft_p99_s: at(&mut ttft, 0.99),
            e2e_p50_s: at(&mut e2e, 0.5),
            e2e_p99_s: at(&mut e2e, 0.99),
            samples: done.len(),
            slo_attainment: within as f64 / sent,
            offload_ratio: offloaded as f64 / sent,
            quality_win_rate,
            judged,
        }
    }

    /// The workload is out of collapse: the median request finishes within
    /// ten simulated seconds, the router still offloads, and nothing
    /// failed. (No upper limit on `offload_ratio`: at 1/20 length
    /// `bigbank_select` serves all of its 425 requests off the small
    /// model, 0.999 of them at full length.)
    pub fn out_of_collapse(&self, counts: &Counts) -> Result<(), String> {
        if self.e2e_p50_s > 10.0 {
            return Err(format!("sim_e2e_p50_s {:.3} > 10", self.e2e_p50_s));
        }
        if self.offload_ratio <= 0.0 {
            return Err("offload_ratio is 0: the router stopped offloading".into());
        }
        if counts.failed + counts.rejected > 0 {
            return Err(format!(
                "{} failed, {} rejected",
                counts.failed, counts.rejected
            ));
        }
        Ok(())
    }
}

/// `ic-judge` balanced win rate of the served responses against an
/// always-large reference, over at most [`JUDGE_SAMPLE`] evenly strided
/// finished requests (stage-0 hits included).
fn judged_win_rate(report: &EngineReport, requests: &[Request]) -> (f64, usize) {
    let (_, large_spec, _) = gemma_specs();
    let generator = Generator::new();
    let judge = Autorater::standard();
    let mut reference_rng = rng_from_seed(FIXTURE_SEED ^ SALT_REFERENCE);
    let mut judge_rng = rng_from_seed(FIXTURE_SEED ^ SALT_JUDGE);
    let stride = requests.len().div_ceil(JUDGE_SAMPLE).max(1);
    let mut eval = PairwiseEval::new();
    for (record, request) in report.per_request.iter().zip(requests).step_by(stride) {
        if !finished(record) {
            continue;
        }
        let reference = generator
            .generate(&large_spec, request, &GenSetup::bare(), &mut reference_rng)
            .quality;
        eval.record(judge.score_balanced(record.quality, reference, 8, &mut judge_rng));
    }
    (eval.win_rate(), eval.total() as usize)
}

/// Renders the result line the driver reads: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`. Only a run
/// that passed every output check gets this far, so `correct` is true;
/// `failed` counts rejected and unfinished requests.
pub fn result_line(counts: &Counts, metrics: &[Value]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        counts.sent,
        counts.failed + counts.rejected,
        body.join(", ")
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
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

/// Result of the untraced repetitions of one workload.
pub struct Untraced {
    /// `setup_s` of each repetition.
    pub setup_s: Vec<f64>,
    /// `replay_s` of each repetition.
    pub replay_s: Vec<f64>,
    /// `VmHWM` after the last repetition.
    pub peak_rss_mb: f64,
    /// Simulated-clock metrics (identical across repetitions).
    pub sim: SimMetrics,
    /// Request tallies (identical across repetitions).
    pub counts: Counts,
    /// FNV-64 of `EngineReport::to_json()` (identical across repetitions).
    pub hash: u64,
}

impl Untraced {
    /// The values behind each end-to-end metric, in [`END_TO_END`] order:
    /// one per repetition for `setup_s` and `replay_s`, one otherwise.
    pub fn end_to_end_reps(&self) -> [Vec<f64>; END_TO_END.len()] {
        [
            self.setup_s.clone(),
            self.replay_s.clone(),
            vec![self.peak_rss_mb],
            vec![self.sim.ttft_p50_s],
            vec![self.sim.ttft_p99_s],
            vec![self.sim.e2e_p50_s],
            vec![self.sim.e2e_p99_s],
            vec![self.sim.slo_attainment],
            vec![self.sim.offload_ratio],
            vec![self.sim.quality_win_rate],
        ]
    }

    /// The end-to-end metrics as reported: the median of each.
    pub fn end_to_end(&self) -> Vec<Value> {
        END_TO_END
            .iter()
            .zip(self.end_to_end_reps())
            .map(|(m, reps)| (m.name, median(&reps), m.unit))
            .collect()
    }
}

/// Repeats set-up + replay with observability off until at least
/// `min_reps` repetitions have run and `seconds` of measuring have passed.
/// Fails if any repetition fails an output check or the report hash
/// differs between repetitions. Each repetition is dropped before the
/// next starts, so `peak_rss_mb` is the footprint of one.
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    scale: f64,
    seconds: f64,
    min_reps: usize,
) -> Result<Untraced, String> {
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut replay_s = Vec::new();
    let mut first: Option<(SimMetrics, Counts, u64)> = None;
    while setup_s.len() < min_reps.max(1) || started.elapsed().as_secs_f64() < seconds {
        let (mut ready, s) = setup(workload, seed, scale, false, &mut Spans::new());
        let t = Instant::now();
        let report = ready
            .engine
            .serve_workload(&ready.requests, &ready.arrivals);
        replay_s.push(t.elapsed().as_secs_f64());
        setup_s.push(s);
        check_report(&report, ready.requests.len())?;
        let hash = fnv64(report.to_json().as_bytes());
        match &first {
            None => {
                first = Some((
                    SimMetrics::of(&report, &ready.requests),
                    Counts::of(&report),
                    hash,
                ));
            }
            Some((_, _, h)) if *h != hash => {
                return Err(format!(
                    "report hash {hash:016x} of repetition {} differs from {h:016x}",
                    setup_s.len()
                ));
            }
            Some(_) => {}
        }
    }
    let (sim, counts, hash) = first.expect("at least one repetition ran");
    Ok(Untraced {
        setup_s,
        replay_s,
        peak_rss_mb: peak_rss_mb(),
        sim,
        counts,
        hash,
    })
}
