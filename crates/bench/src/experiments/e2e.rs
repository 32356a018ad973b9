//! End-to-end serving experiments: Figs. 12, 13, 16, 18, 20 and the
//! abstract's headline claims.

use std::time::Instant;

use ic_baselines::RouteLlm;

use ic_engine::{
    EngineConfig, EngineReport, EventDrivenEngine, LatencyStats, RequestRecord, ServingEngine,
};
use ic_judge::Autorater;
use ic_llmsim::{GenOutcome, GenSetup};
use ic_serving::jobs_from_tuples;
use ic_stats::rng::rng_from_seed;
use ic_workloads::{Dataset, WorkloadGenerator, fixed_qps_arrivals, thirty_minute_trace};
use rand::RngExt;
use rand::rngs::StdRng;

use crate::harness::{
    PairSetup, Scale, SetupTiming, mixed_cluster, normalized_throughput, side_by_side,
    single_cluster,
};
use crate::report::{Report, Table, f3, pct, shape_check};

/// Per-policy result of one online replay.
struct OnlineRun {
    name: String,
    offload_ratio: f64,
    mean_latency: f64,
    p99_latency: f64,
    win_rate_vs_large: f64,
    /// Offload ratio per 5-minute bucket (time series, Fig. 12a/b).
    offload_series: Vec<f64>,
    /// Mean latency per 5-minute bucket (Fig. 12c/d).
    latency_series: Vec<f64>,
}

/// One fig12 policy's row and 5-minute bucket series from its
/// per-request records (in request order, paired with
/// `reference_large`), judged with `rng`.
fn policy_row(
    name: &str,
    records: &[RequestRecord],
    reference_large: &[f64],
    judge: &Autorater,
    rng: &mut StdRng,
) -> OnlineRun {
    // Queue-cap rejects never executed: keep them (and their paired
    // always-large reference entries) out of the judged win rate and the
    // time series, matching the latency aggregates' population.
    let (qualities, reference): (Vec<f64>, Vec<f64>) = records
        .iter()
        .zip(reference_large)
        .filter(|(r, _)| !r.rejected)
        .map(|(r, &q)| (r.quality, q))
        .unzip();
    let (_, wr) = side_by_side(judge, &qualities, &reference, rng);
    let horizon = records
        .iter()
        .map(|r| r.arrival_s)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let n_buckets = 6usize;
    let mut off_series = vec![0.0; n_buckets];
    let mut off_count = vec![0usize; n_buckets];
    let mut lat_series = vec![0.0; n_buckets];
    for r in records.iter().filter(|r| !r.rejected) {
        let b = ((r.arrival_s / horizon * n_buckets as f64) as usize).min(n_buckets - 1);
        off_count[b] += 1;
        if r.offloaded {
            off_series[b] += 1.0;
        }
        lat_series[b] += r.e2e_s;
    }
    for ((o, l), c) in off_series.iter_mut().zip(&mut lat_series).zip(&off_count) {
        *o /= (*c).max(1) as f64;
        *l /= (*c).max(1) as f64;
    }
    let latency = LatencyStats::from_records(records);
    OnlineRun {
        name: name.to_owned(),
        offload_ratio: records.iter().filter(|r| r.offloaded).count() as f64
            / records.len().max(1) as f64,
        mean_latency: latency.mean_e2e,
        p99_latency: latency.p99_e2e,
        win_rate_vs_large: wr,
        offload_series: off_series,
        latency_series: lat_series,
    }
}

/// The baselines fig12 compares IC-Cache against. None has load-adaptive
/// logic: each request's model is decided up front and a 16-GPU
/// `ClusterSim` replays the decisions.
#[derive(Clone, Copy)]
enum Baseline {
    RouteLlmPlus,
    AlwaysSmall,
    AlwaysLarge,
}

/// Replays the 30-minute trace under one baseline and measures its row.
/// Static single-model policies get the whole cluster for their model;
/// RouteLLM+ splits it (pool 0 small, pool 1 large).
fn baseline_run(
    name: &str,
    baseline: Baseline,
    dataset: Dataset,
    arrivals: &[f64],
    reference_large: &[f64],
    scale: Scale,
    judge: &Autorater,
) -> OnlineRun {
    let mut rng = rng_from_seed(scale.seed ^ 23);
    let config = ic_cache::IcCacheConfig::gemma_pair();
    let (small, large) = (config.offload_models()[0], config.primary);
    let (small_spec, large_spec) = (config.catalog.get(small), config.catalog.get(large));
    // `(offloaded, examples, outcome)` per request.
    let served: Vec<(bool, usize, GenOutcome)> = match baseline {
        Baseline::RouteLlmPlus => routellm_plus(dataset, arrivals.len(), scale, &mut rng),
        Baseline::AlwaysSmall | Baseline::AlwaysLarge => {
            let offloaded = matches!(baseline, Baseline::AlwaysSmall);
            let spec = if offloaded { small_spec } else { large_spec };
            let sim = ic_llmsim::Generator::new();
            served_requests(dataset, scale, arrivals.len())
                .iter()
                .map(|r| {
                    let out = sim.generate(spec, r, &GenSetup::bare(), &mut rng);
                    (offloaded, 0, out)
                })
                .collect()
        }
    };
    let mut cluster = match baseline {
        Baseline::RouteLlmPlus => mixed_cluster(small_spec, large_spec, 16),
        Baseline::AlwaysSmall => single_cluster(small_spec, 16),
        Baseline::AlwaysLarge => single_cluster(large_spec, 16),
    };
    let mixed = matches!(baseline, Baseline::RouteLlmPlus);
    let rows: Vec<_> = served
        .iter()
        .zip(arrivals)
        .enumerate()
        .map(|(i, ((offloaded, _, out), &at))| {
            (
                i as u64,
                usize::from(mixed && !offloaded),
                at,
                out.latency.ttft,
                out.latency.decode,
                out.input_tokens,
                out.output_tokens,
            )
        })
        .collect();
    let jobs = jobs_from_tuples(&rows);
    // A request counts as a queue-cap reject until its job completes.
    let mut records: Vec<RequestRecord> = jobs
        .iter()
        .zip(&served)
        .map(|(job, &(offloaded, examples, ref out))| RequestRecord {
            index: job.id.0 as usize,
            model: if offloaded { small.0 } else { large.0 },
            offloaded,
            quality: out.quality,
            solicited: false,
            examples,
            arrival_s: job.arrival.as_secs_f64(),
            queue_s: 0.0,
            ttft_s: 0.0,
            e2e_s: 0.0,
            rejected: true,
        })
        .collect();
    for done in cluster.run(jobs) {
        let record = &mut records[done.id.0 as usize];
        record.queue_s = done.queue_wait_secs();
        record.ttft_s = done.ttft_secs();
        record.e2e_s = done.e2e_secs();
        record.rejected = false;
    }
    policy_row(name, &records, reference_large, judge, &mut rng)
}

/// RouteLLM+'s `(offloaded, examples, outcome)` for the `n` requests a
/// [`warmed_pair`] serves: RouteLLM decides; offloaded requests still
/// benefit from the example cache (the "+"), but routing ignores load.
fn routellm_plus(
    dataset: Dataset,
    n: usize,
    scale: Scale,
    rng: &mut StdRng,
) -> Vec<(bool, usize, GenOutcome)> {
    let (mut setup, _) = warmed_pair(dataset, scale);
    let requests = setup.generator.generate_requests(n);
    // RouteLLM needs offline training on preference data.
    let mut routellm = RouteLlm::new(setup.small, setup.large, 0.5);
    let train = setup.generator.generate_requests(scale.count(5_000, 300));
    let mut train_rng = rng_from_seed(scale.seed ^ 22);
    let labels: Vec<bool> = train
        .iter()
        .map(|r| {
            let qs = setup
                .sim
                .generate(&setup.small_spec, r, &GenSetup::bare(), &mut train_rng)
                .quality;
            let ql = setup
                .sim
                .generate(&setup.large_spec, r, &GenSetup::bare(), &mut train_rng)
                .quality;
            qs >= ql - 0.25
        })
        .collect();
    let data: Vec<(&ic_llmsim::Request, bool)> = train.iter().zip(labels.iter().copied()).collect();
    routellm.train(&data, 20, 0.1);

    let mut served = Vec::with_capacity(requests.len());
    for r in &requests {
        if routellm.route(r) == setup.small {
            let sel = setup.system.with_selection(r);
            let refs = sel.resolve(setup.system.manager().cache());
            let examples = refs.len();
            let out = setup
                .sim
                .generate(&setup.small_spec, r, &GenSetup::with_examples(refs), rng);
            served.push((true, examples, out));
        } else {
            let out = setup
                .sim
                .generate(&setup.large_spec, r, &GenSetup::bare(), rng);
            served.push((false, 0, out));
        }
    }
    served
}

/// One replay of the 30-minute trace through the unified
/// [`EventDrivenEngine`] (IC-Cache policy, one example cache,
/// iteration-level batching) — the `BENCH_e2e.json` payload of
/// `fig12_e2e`. Deterministic: the same scale and configuration yield a
/// byte-identical [`EngineReport::to_json`].
#[derive(Debug, Clone)]
pub struct E2eRun {
    scale: Scale,
    dataset: Dataset,
    config: EngineConfig,
}

/// An [`E2eRun`]'s report with the host time it took: the measured
/// split of the setup ([`SetupTiming`]) and the replay's wall seconds
/// (`serve_workload` alone). Both are measurements, outside every
/// determinism contract.
#[derive(Debug)]
pub struct TimedReplay {
    /// The engine report.
    pub report: EngineReport,
    /// The setup before the replay.
    pub setup: SetupTiming,
    /// Wall seconds of the replay.
    pub wall_s: f64,
}

impl E2eRun {
    /// The knob-free run: [`EngineConfig::default`]. Reads nothing from
    /// the environment.
    pub fn new(scale: Scale, dataset: Dataset) -> Self {
        Self::with(scale, dataset, &EngineConfig::default())
    }

    /// The run under the engine configuration `config`.
    pub fn with(scale: Scale, dataset: Dataset, config: &EngineConfig) -> Self {
        Self {
            scale,
            dataset,
            config: config.clone(),
        }
    }

    /// The pre-replay pieces: the seeded engine, the request stream,
    /// the arrival trace, and the measured wall-clock split of the
    /// setup just performed ([`SetupTiming`]).
    pub fn parts(
        self,
    ) -> (
        EventDrivenEngine,
        Vec<ic_llmsim::Request>,
        Vec<f64>,
        SetupTiming,
    ) {
        let t0 = Instant::now();
        let arrivals = trace_arrivals(self.scale);
        let (mut setup, mut timing) = warmed_pair(self.dataset, self.scale);
        let requests = setup.generator.generate_requests(arrivals.len());
        let engine = EventDrivenEngine::new(setup.system, self.config);
        timing.setup_wall_s = t0.elapsed().as_secs_f64();
        (engine, requests, arrivals, timing)
    }

    /// Sets up and replays, returning the raw engine report.
    pub fn run(self) -> EngineReport {
        self.timed().report
    }

    /// Sets up and replays, timing the replay apart from the setup — at
    /// paper-scale fractions the setup embeds and indexes tens of
    /// thousands of examples and would otherwise dominate any
    /// wall-clock figure.
    pub fn timed(self) -> TimedReplay {
        let (mut engine, requests, arrivals, setup) = self.parts();
        let start = Instant::now();
        let report = engine.serve_workload(&requests, &arrivals);
        TimedReplay {
            report,
            setup,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// The 30-minute bursty arrival trace every fig12 policy replays.
fn trace_arrivals(scale: Scale) -> Vec<f64> {
    let rps_scale = (scale.fraction * 50.0).clamp(0.4, 1.0);
    thirty_minute_trace(rps_scale, scale.seed ^ 25)
}

/// `(example-bank size, generator seed, warm-up draws)` of the Gemma
/// pair every fig12 replay of a dataset runs on.
fn pair_shape(scale: Scale) -> (usize, u64, usize) {
    (
        scale.count(200_000, 2_000),
        scale.seed ^ 21,
        scale.count(5_000, 300),
    )
}

/// The Gemma pair a fig12 replay of `dataset` runs on, its example bank
/// seeded and warmed up, and the measured split of that setup. The
/// requests it serves next are [`served_requests`].
fn warmed_pair(dataset: Dataset, scale: Scale) -> (PairSetup, SetupTiming) {
    let config = ic_cache::IcCacheConfig::gemma_pair();
    let (bank, seed, warm_up) = pair_shape(scale);
    let (mut setup, timing) = PairSetup::with_config_timed(config, dataset, bank, seed);
    setup.warm_up(warm_up);
    (setup, timing)
}

/// The `n` requests a [`warmed_pair`] of `dataset` serves, drawn without
/// its example bank: requests and examples come from separate streams of
/// the pair's generator, so a generator seeded like it and past the
/// warm-up draws yields the same requests.
fn served_requests(dataset: Dataset, scale: Scale, n: usize) -> Vec<ic_llmsim::Request> {
    let (bank, seed, warm_up) = pair_shape(scale);
    let mut generator = WorkloadGenerator::sized(dataset, seed, bank);
    generator.generate_requests(warm_up);
    generator.generate_requests(n)
}

/// The always-large answers' quality on the `n` requests every fig12
/// policy serves on `dataset` — the reference each is judged against.
fn large_reference(dataset: Dataset, n: usize, scale: Scale) -> Vec<f64> {
    let config = ic_cache::IcCacheConfig::gemma_pair();
    let large = config.catalog.get(config.primary);
    let sim = ic_llmsim::Generator::new();
    let mut rng = rng_from_seed(scale.seed ^ 24);
    served_requests(dataset, scale, n)
        .iter()
        .map(|r| sim.generate(large, r, &GenSetup::bare(), &mut rng).quality)
        .collect()
}

/// Fig. 12: online offload ratio, latency and quality under the
/// 30-minute bursty trace, at the knob-free defaults.
pub fn fig12_e2e(scale: Scale) -> Report {
    fig12_e2e_full(scale, &EngineConfig::default()).0
}

/// [`fig12_e2e`] with `config` applied to the IC-Cache run, plus that
/// run on MS MARCO, timed — its report is the `BENCH_e2e.json` payload —
/// so the binary does not re-run the trace.
pub fn fig12_e2e_full(scale: Scale, config: &EngineConfig) -> (Report, TimedReplay) {
    let mut report = Report::new(
        "fig12_e2e",
        "Online offloading, latency and quality under a bursty trace",
        "Fig. 12",
    );
    let mut replay: Option<TimedReplay> = None;
    let judge = Autorater::standard();
    for dataset in [Dataset::MsMarco, Dataset::NaturalQuestions] {
        let arrivals = trace_arrivals(scale);
        let reference = large_reference(dataset, arrivals.len(), scale);
        // IC-Cache runs through the unified event-driven engine:
        // admission, selection, routing, iteration-level batching and
        // completion feedback all happen inside the simulation clock.
        // `config` acts on this run alone, so treat knob runs as
        // IC-Cache scheduler sweeps, not controlled policy comparisons.
        let ic = E2eRun::with(scale, dataset, config).timed();
        let baseline = |name, baseline| {
            baseline_run(
                name, baseline, dataset, &arrivals, &reference, scale, &judge,
            )
        };
        let runs = [
            policy_row(
                "IC-Cache",
                &ic.report.per_request,
                &reference,
                &judge,
                &mut rng_from_seed(scale.seed ^ 23),
            ),
            baseline("RouteLLM+", Baseline::RouteLlmPlus),
            baseline("Always-Small", Baseline::AlwaysSmall),
            baseline("Always-Large", Baseline::AlwaysLarge),
        ];
        replay.get_or_insert(ic);
        let ds_name = Dataset::ALL
            .iter()
            .find(|d| **d == dataset)
            .map(|d| d.spec().name)
            .unwrap_or("?");
        let mut t = Table::new(
            &format!("{ds_name}: online policies over the 30-min trace"),
            &[
                "policy",
                "offload ratio",
                "mean latency (s)",
                "P99 latency (s)",
                "win rate vs large",
            ],
        );
        for r in &runs {
            t.row(vec![
                r.name.clone(),
                pct(r.offload_ratio),
                f3(r.mean_latency),
                f3(r.p99_latency),
                pct(r.win_rate_vs_large),
            ]);
        }
        report.table(t);
        let ic = &runs[0];
        let large = &runs[3];
        report.finding(format!(
            "{ds_name}: IC-Cache offloads {} of traffic, cuts mean latency {}s -> {}s vs \
             always-large, at {} win rate (paper: comparable quality at far lower latency)",
            pct(ic.offload_ratio),
            f3(large.mean_latency),
            f3(ic.mean_latency),
            pct(ic.win_rate_vs_large)
        ));
        let mut ts = Table::new(
            &format!("{ds_name}: 5-min bucket series (IC-Cache vs Always-Large)"),
            &[
                "bucket",
                "IC offload ratio",
                "IC mean latency (s)",
                "Large mean latency (s)",
            ],
        );
        for b in 0..ic.offload_series.len() {
            ts.row(vec![
                format!("{}-{} min", b * 5, b * 5 + 5),
                pct(ic.offload_series[b]),
                f3(ic.latency_series[b]),
                f3(large.latency_series[b]),
            ]);
        }
        report.table(ts);
    }
    (
        report,
        replay.expect("the loop replays MS MARCO under IC-Cache"),
    )
}

/// Sweeps an IC-Cache-style policy over offload aggressiveness and
/// returns `(normalized_throughput, win_rate)` points.
fn quality_throughput_sweep(
    dataset: Dataset,
    scale: Scale,
    variant: SweepVariant,
) -> Vec<(f64, f64)> {
    let judge = Autorater::standard();
    let n_eval = scale.count(4_000, 200);
    let mut points = Vec::new();
    let sweep: Vec<f64> = match variant {
        SweepVariant::IcCache => vec![0.0, 0.05, 0.15, 0.4, 0.8, 1.5],
        SweepVariant::RouteLlm => vec![0.9, 0.7, 0.5, 0.3, 0.1],
        SweepVariant::NoRouter | SweepVariant::NoRouterNoStage2 => {
            vec![0.0, 0.25, 0.5, 0.75, 1.0]
        }
    };
    for knob in sweep {
        let mut setup = PairSetup::gemma(dataset, scale.count(150_000, 1_500), scale.seed ^ 26);
        let mut rng = rng_from_seed(scale.seed ^ 27);
        // Configure the variant.
        let mut routellm = RouteLlm::new(setup.small, setup.large, knob);
        match variant {
            SweepVariant::IcCache => {
                let mut cfg = setup.system.config().router.clone();
                cfg.base_cost_weight = knob;
                setup.system.set_router_config(cfg);
                setup.warm_up(scale.count(4_000, 300));
            }
            SweepVariant::RouteLlm => {
                let train = setup.generator.generate_requests(scale.count(4_000, 300));
                let labels: Vec<bool> = train
                    .iter()
                    .map(|r| {
                        let qs = setup
                            .sim
                            .generate(&setup.small_spec, r, &GenSetup::bare(), &mut rng)
                            .quality;
                        let ql = setup
                            .sim
                            .generate(&setup.large_spec, r, &GenSetup::bare(), &mut rng)
                            .quality;
                        qs >= ql - 0.25
                    })
                    .collect();
                let data: Vec<(&ic_llmsim::Request, bool)> =
                    train.iter().zip(labels.iter().copied()).collect();
                routellm.train(&data, 20, 0.1);
            }
            SweepVariant::NoRouter | SweepVariant::NoRouterNoStage2 => {
                setup.warm_up(scale.count(2_000, 200));
            }
        }
        let requests = setup.generator.generate_requests(n_eval);
        let mut qualities = Vec::new();
        let mut reference = Vec::new();
        let mut offloads = 0usize;
        let mut small_gpu = 0.0;
        let mut large_gpu = 0.0;
        let mut gpu_n = 0usize;
        for r in &requests {
            reference.push(
                setup
                    .sim
                    .generate(&setup.large_spec, r, &GenSetup::bare(), &mut rng)
                    .quality,
            );
            let (offloaded, outcome) = match variant {
                SweepVariant::IcCache => {
                    let out = setup.system.serve(r);
                    (out.offloaded, out.outcome)
                }
                SweepVariant::RouteLlm => {
                    // Plain RouteLLM serves offloaded requests bare.
                    if routellm.route(r) == setup.small {
                        (
                            true,
                            setup
                                .sim
                                .generate(&setup.small_spec, r, &GenSetup::bare(), &mut rng),
                        )
                    } else {
                        (
                            false,
                            setup
                                .sim
                                .generate(&setup.large_spec, r, &GenSetup::bare(), &mut rng),
                        )
                    }
                }
                SweepVariant::NoRouter | SweepVariant::NoRouterNoStage2 => {
                    // Random offload at fraction `knob`.
                    if rng.random::<f64>() < knob {
                        let refs = if matches!(variant, SweepVariant::NoRouter) {
                            let sel = setup.system.with_selection(r);
                            sel.resolve(setup.system.manager().cache())
                        } else {
                            // Stage-1 only.
                            let ids = setup.system.stage1_ids(r, 5);
                            ids.iter()
                                .filter_map(|id| {
                                    ic_llmsim::ExampleStore::get_example(
                                        setup.system.manager().cache(),
                                        *id,
                                    )
                                })
                                .collect()
                        };
                        (
                            true,
                            setup.sim.generate(
                                &setup.small_spec,
                                r,
                                &GenSetup::with_examples(refs),
                                &mut rng,
                            ),
                        )
                    } else {
                        (
                            false,
                            setup
                                .sim
                                .generate(&setup.large_spec, r, &GenSetup::bare(), &mut rng),
                        )
                    }
                }
            };
            if offloaded {
                offloads += 1;
                small_gpu += outcome.latency.total() * f64::from(setup.small_spec.gpus_per_replica);
            } else {
                large_gpu += outcome.latency.total() * f64::from(setup.large_spec.gpus_per_replica);
            }
            gpu_n += 1;
            qualities.push(outcome.quality);
        }
        let p = offloads as f64 / requests.len() as f64;
        // Per-request GPU-second averages (falling back to spec-derived
        // estimates when a side saw no traffic).
        let small_avg = if offloads > 0 {
            small_gpu / offloads as f64
        } else {
            2.6 * f64::from(setup.small_spec.gpus_per_replica)
        };
        let large_avg = if gpu_n > offloads {
            large_gpu / (gpu_n - offloads) as f64
        } else {
            8.9 * f64::from(setup.large_spec.gpus_per_replica)
        };
        let nt = normalized_throughput(p, small_avg, large_avg);
        let (_, wr) = side_by_side(&judge, &qualities, &reference, &mut rng);
        points.push((nt, wr));
    }
    points
}

#[derive(Clone, Copy, PartialEq)]
enum SweepVariant {
    IcCache,
    RouteLlm,
    NoRouter,
    NoRouterNoStage2,
}

/// Fig. 13: quality-throughput Pareto curves, IC-Cache vs RouteLLM.
pub fn fig13_tradeoff_curves(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig13_tradeoff_curves",
        "IC-Cache enables better quality-efficiency trade-offs than RouteLLM",
        "Fig. 13",
    );
    for dataset in [
        Dataset::Alpaca,
        Dataset::OpenOrca,
        Dataset::MsMarco,
        Dataset::NaturalQuestions,
    ] {
        let name = dataset.spec().name;
        let ic = quality_throughput_sweep(dataset, scale, SweepVariant::IcCache);
        let rl = quality_throughput_sweep(dataset, scale, SweepVariant::RouteLlm);
        let mut t = Table::new(
            &format!("{name}: win rate vs normalized throughput"),
            &["system", "norm. throughput", "win rate vs large"],
        );
        for &(nt, wr) in &ic {
            t.row(vec!["IC-Cache".into(), f3(nt), pct(wr)]);
        }
        for &(nt, wr) in &rl {
            t.row(vec!["RouteLLM".into(), f3(nt), pct(wr)]);
        }
        report.table(t);
        // Dominance check at matched throughput: compare best win rate at
        // >= 2x throughput.
        let best_at = |pts: &[(f64, f64)], min_nt: f64| {
            pts.iter()
                .filter(|(nt, _)| *nt >= min_nt)
                .map(|&(_, wr)| wr)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let ic_best = best_at(&ic, 2.0);
        let rl_best = best_at(&rl, 2.0);
        report.finding(format!(
            "{name}: at >=2x normalized throughput, IC-Cache reaches {} win rate vs \
             RouteLLM's {} (paper: IC-Cache dominates at every throughput target)",
            if ic_best.is_finite() {
                pct(ic_best)
            } else {
                "n/a".into()
            },
            if rl_best.is_finite() {
                pct(rl_best)
            } else {
                "n/a".into()
            },
        ));
    }
    report
}

/// Fig. 16: component ablation.
pub fn fig16_ablation(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig16_ablation",
        "Component ablation: router and two-stage retrieval both matter",
        "Fig. 16",
    );
    for dataset in [Dataset::MsMarco, Dataset::Alpaca] {
        let name = dataset.spec().name;
        let full = quality_throughput_sweep(dataset, scale, SweepVariant::IcCache);
        let no_router = quality_throughput_sweep(dataset, scale, SweepVariant::NoRouter);
        let no_both = quality_throughput_sweep(dataset, scale, SweepVariant::NoRouterNoStage2);
        let mut t = Table::new(
            &format!("{name}: ablation curves (win rate vs normalized throughput)"),
            &["variant", "norm. throughput", "win rate"],
        );
        for (label, pts) in [
            ("IC-Cache", &full),
            ("w/o Router", &no_router),
            ("w/o Router & stage-2", &no_both),
        ] {
            for &(nt, wr) in pts {
                t.row(vec![label.into(), f3(nt), pct(wr)]);
            }
        }
        report.table(t);
        let area = |pts: &[(f64, f64)]| -> f64 {
            pts.iter().map(|&(_, wr)| wr).sum::<f64>() / pts.len().max(1) as f64
        };
        report.finding(format!(
            "{name}: mean win rate across the sweep — full {}, w/o router {}, \
             w/o router & stage-2 {} (paper: each component contributes)",
            pct(area(&full)),
            pct(area(&no_router)),
            pct(area(&no_both))
        ));
    }
    report
}

/// Fig. 18: execution-lifecycle breakdown and GPU cost per QPS.
pub fn fig18_breakdown(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig18_breakdown",
        "IC-Cache adds negligible overhead while cutting serving cost",
        "Fig. 18",
    );
    let mut setup = PairSetup::gemma(
        Dataset::Alpaca,
        scale.count(150_000, 2_000),
        scale.seed ^ 28,
    );
    setup.warm_up(scale.count(2_000, 200));
    let requests = setup.generator.generate_requests(scale.count(1_000, 120));
    let mut rng = rng_from_seed(scale.seed ^ 29);

    // Measure actual wall-clock of the selection + routing stages.
    let mut select_us = 0.0f64;
    let mut serve_sums = [0.0f64; 3]; // [2b, 2b+IC, 27b] zero-load e2e.
    let mut gpu_secs = [0.0f64; 3];
    for r in &requests {
        let t0 = std::time::Instant::now();
        let sel = setup.system.with_selection(r);
        select_us += t0.elapsed().as_secs_f64() * 1e6;
        let refs = sel.resolve(setup.system.manager().cache());
        let bare = setup
            .sim
            .generate(&setup.small_spec, r, &GenSetup::bare(), &mut rng);
        let ic = setup.sim.generate(
            &setup.small_spec,
            r,
            &GenSetup::with_examples(refs),
            &mut rng,
        );
        let large = setup
            .sim
            .generate(&setup.large_spec, r, &GenSetup::bare(), &mut rng);
        serve_sums[0] += bare.latency.total();
        serve_sums[1] += ic.latency.total();
        serve_sums[2] += large.latency.total();
        gpu_secs[0] += bare.latency.total() * f64::from(setup.small_spec.gpus_per_replica);
        gpu_secs[1] += ic.latency.total() * f64::from(setup.small_spec.gpus_per_replica);
        gpu_secs[2] += large.latency.total() * f64::from(setup.large_spec.gpus_per_replica);
    }
    let n = requests.len() as f64;
    let select_overhead_s = select_us / n / 1e6;
    let mut t = Table::new(
        "Zero-load request latency (paper: 2.66s / 2.57s / 8.94s) and relative \
         GPU-per-QPS (paper: 1.00 / 1.18 / 7.17)",
        &[
            "config",
            "zero-load latency (s)",
            "retrieval+routing overhead (s)",
            "GPU/QPS (norm.)",
        ],
    );
    let base_gpu = gpu_secs[0] / n;
    for (i, label) in ["gemma-2-2b", "gemma-2-2b + IC-Cache", "gemma-2-27b"]
        .iter()
        .enumerate()
    {
        t.row(vec![
            (*label).into(),
            f3(serve_sums[i] / n),
            if i == 1 {
                format!("{select_overhead_s:.6}")
            } else {
                "0".into()
            },
            f3((gpu_secs[i] / n) / base_gpu),
        ]);
    }
    report.table(t);
    report.finding(format!(
        "retrieval + routing overhead is {:.0} microseconds per request ({}% of the \
         small model's latency) — the paper's <1% overhead claim",
        select_us / n,
        f3(select_overhead_s / (serve_sums[0] / n) * 100.0)
    ));
    report.finding(format!(
        "latency reduction of small+IC vs large: {} (paper: 71%); note our GPU/QPS \
         ratio for the 27B model is steeper than the paper's 7.17x because the \
         simulator charges full GPU-seconds without large-batch economies",
        pct(1.0 - (serve_sums[1] / n) / (serve_sums[2] / n))
    ));
    report
}

/// Fig. 20: request completion time under light/medium/heavy load.
pub fn fig20_loads(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig20_loads",
        "IC-Cache keeps completion times low across serving loads",
        "Fig. 20",
    );
    let mut t = Table::new(
        "Alpaca request completion times; 16-GPU cluster (paper: 2b+IC P50 within \
         11-35% of 2b alone; 75-83% below 27b)",
        &["load (QPS)", "system", "P50 (s)", "P99 (s)"],
    );
    let duration = 600.0 * scale.fraction.clamp(0.25, 1.0) * 4.0;
    for qps in [1.0, 2.0, 4.0] {
        let arrivals = fixed_qps_arrivals(qps, duration, scale.seed ^ 30);
        for system_kind in ["gemma-2-2b", "gemma-2-2b + IC-Cache", "gemma-2-27b"] {
            let mut setup =
                PairSetup::gemma(Dataset::Alpaca, scale.count(30_000, 800), scale.seed ^ 31);
            if system_kind.contains("IC-Cache") {
                setup.warm_up(scale.count(2_000, 200));
            }
            let requests = setup.generator.generate_requests(arrivals.len());
            let mut rng = rng_from_seed(scale.seed ^ 32);
            let mut rows = Vec::new();
            for (i, (r, &at)) in requests.iter().zip(&arrivals).enumerate() {
                let (pool, out) = match system_kind {
                    "gemma-2-2b" => (
                        0usize,
                        setup
                            .sim
                            .generate(&setup.small_spec, r, &GenSetup::bare(), &mut rng),
                    ),
                    "gemma-2-27b" => (
                        0,
                        setup
                            .sim
                            .generate(&setup.large_spec, r, &GenSetup::bare(), &mut rng),
                    ),
                    _ => {
                        setup.system.observe_load(qps);
                        let o = setup.system.serve(r);
                        (if o.offloaded { 0 } else { 1 }, o.outcome)
                    }
                };
                rows.push((
                    i as u64,
                    pool,
                    at,
                    out.latency.ttft,
                    out.latency.decode,
                    out.input_tokens,
                    out.output_tokens,
                ));
            }
            let mut cluster = match system_kind {
                "gemma-2-2b" => single_cluster(&setup.small_spec, 16),
                "gemma-2-27b" => single_cluster(&setup.large_spec, 16),
                _ => mixed_cluster(&setup.small_spec, &setup.large_spec, 16),
            };
            let latency = LatencyStats::from_samples(
                cluster
                    .run(jobs_from_tuples(&rows))
                    .iter()
                    .map(|r| (r.e2e_secs(), r.ttft_secs(), r.queue_wait_secs())),
            );
            t.row(vec![
                format!("{qps}"),
                system_kind.into(),
                f3(latency.p50_e2e),
                f3(latency.p99_e2e),
            ]);
        }
    }
    for line in fig20_findings(&t.rows) {
        report.finding(line);
    }
    report.table(t);
    report
}

/// fig20's findings, read off its rows `[load, system, P50, P99]` in
/// triples per load (2b, 2b+IC, 27b): the loads where 2b+IC's P50 is more
/// than the paper's 35 % above 2b's, and those where it is less than the
/// paper's 75 % below 27b's.
fn fig20_findings(rows: &[Vec<String>]) -> Vec<String> {
    let p50 = |row: &Vec<String>| -> f64 { row[2].parse().expect("a P50 cell") };
    let (mut far_from_small, mut near_large) = (Vec::new(), Vec::new());
    for t in rows.chunks(3) {
        let (small, ic, large) = (p50(&t[0]), p50(&t[1]), p50(&t[2]));
        if ic > 1.35 * small {
            far_from_small.push(format!("{} QPS ({:.2}x 2b)", t[0][0], ic / small));
        }
        if ic > 0.25 * large {
            near_large.push(format!(
                "{} QPS ({} below 27b)",
                t[0][0],
                pct(1.0 - ic / large)
            ));
        }
    }
    let loads = rows.len() / 3;
    vec![
        shape_check(
            "2b+IC P50 within 11-35% of 2b alone",
            loads,
            &far_from_small,
        ),
        shape_check("2b+IC P50 75-83% below 27b", loads, &near_large),
    ]
}

/// The abstract's headline claims: 1.4-5.9x throughput, 28-71% latency
/// reduction, no quality loss.
pub fn headline(scale: Scale) -> Report {
    let mut report = Report::new(
        "headline",
        "Headline claims: throughput, latency, quality",
        "Abstract / §6 summary",
    );
    let mut t = Table::new(
        "Throughput gain at quality parity, per dataset",
        &[
            "dataset",
            "max norm. throughput with win rate >= 48%",
            "win rate there",
        ],
    );
    let mut gains = Vec::new();
    for dataset in [Dataset::MsMarco, Dataset::Alpaca, Dataset::NaturalQuestions] {
        let pts = quality_throughput_sweep(dataset, scale, SweepVariant::IcCache);
        let best = pts
            .iter()
            .filter(|&&(_, wr)| wr >= 0.48)
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .copied();
        if let Some((nt, wr)) = best {
            gains.push(nt);
            t.row(vec![dataset.spec().name.into(), f3(nt), pct(wr)]);
        } else {
            t.row(vec![dataset.spec().name.into(), "n/a".into(), "n/a".into()]);
        }
    }
    report.table(t);
    if !gains.is_empty() {
        let lo = gains.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        report.finding(format!(
            "paper: 1.4-5.9x throughput without hurting quality; measured quality-neutral \
             throughput gains span {}x-{}x",
            f3(lo),
            f3(hi)
        ));
    }
    // Latency reduction from the zero-load comparison.
    let mut setup = PairSetup::gemma(Dataset::Alpaca, scale.count(30_000, 500), scale.seed ^ 33);
    setup.warm_up(scale.count(1_500, 150));
    let mut rng = rng_from_seed(scale.seed ^ 34);
    let requests = setup.generator.generate_requests(scale.count(1_000, 100));
    let mut ic_lat = 0.0;
    let mut large_lat = 0.0;
    for r in &requests {
        let sel = setup.system.with_selection(r);
        let refs = sel.resolve(setup.system.manager().cache());
        ic_lat += setup
            .sim
            .generate(
                &setup.small_spec,
                r,
                &GenSetup::with_examples(refs),
                &mut rng,
            )
            .latency
            .total();
        large_lat += setup
            .sim
            .generate(&setup.large_spec, r, &GenSetup::bare(), &mut rng)
            .latency
            .total();
    }
    report.finding(format!(
        "paper: 28-71% latency reduction; measured small+IC vs large zero-load \
         reduction = {}",
        pct(1.0 - ic_lat / large_lat)
    ));
    // The unified engine's view of the same bursty trace (Fig. 12
    // conditions): example cache + continuous batching + closed-loop
    // load feedback.
    let er = E2eRun::new(scale, Dataset::MsMarco).run();
    report.finding(format!(
        "unified engine on the 30-min trace: offload {}, p50 {}s, p99 {}s, \
         selection hit rate {}, {} cached examples",
        pct(er.offload_ratio()),
        f3(er.latency.p50_e2e),
        f3(er.latency.p99_e2e),
        pct(er.selection_hit_rate()),
        er.cache.examples
    ));
    report.finding(format!(
        "iteration-level scheduler: {} token steps at mean batch {}, \
         chunked-prefill ratio {}, {} preemptions, {} queue rejects",
        er.iter.steps,
        f3(er.iter.mean_step_batch()),
        pct(er.iter.chunked_prefill_ratio()),
        er.iter.preemptions,
        er.iter.queue_rejects
    ));
    report.finding(format!(
        "paged KV memory: peak block occupancy {} (mean {}), {} pressure \
         preemptions, {} swap-outs / {} swap-ins, fragmentation {}",
        pct(er.kv.peak_occupancy()),
        pct(er.kv.mean_occupancy()),
        er.kv.pressure_preemptions,
        er.kv.swap_outs,
        er.kv.swap_ins,
        pct(er.kv.fragmentation_ratio())
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_e2e_run_is_byte_identical() {
        let a = E2eRun::new(Scale::quick(), Dataset::MsMarco).run();
        assert!(a.served > 0);
        assert!(
            a.offload_ratio() > 0.0,
            "IC-Cache should offload some traffic"
        );
        assert!(a.latency.p99_e2e >= a.latency.p50_e2e);
        // The iteration-level scheduler's per-step stats ride along in
        // the deterministic payload.
        assert!(a.iter.steps > 0);
        assert!(a.iter.mean_step_batch() >= 1.0);
        assert!(a.iter.chunked_prefill_ratio() > 0.0);
        assert!(a.to_json().contains("\"iter\":{"));
        // The paged-KV accounting rides in the same payload.
        assert!(a.to_json().contains("\"kv\":{"));
        assert!(a.kv.total_blocks > 0);
        assert_eq!(a.kv.allocs, a.kv.frees, "blocks conserved over the trace");
        let b = E2eRun::new(Scale::quick(), Dataset::MsMarco).run();
        assert_eq!(a.to_json(), b.to_json(), "same seed must be byte-identical");
    }

    /// fig12 judges every policy against always-large answers to the
    /// requests the policies serve (the reference once came from a
    /// 10-example generator without the warm-up, so it judged other
    /// requests).
    #[test]
    fn the_reference_requests_are_the_served_requests() {
        let scale = Scale::quick();
        let (_, served, _, _) = E2eRun::new(scale, Dataset::MsMarco).parts();
        let reference = served_requests(Dataset::MsMarco, scale, served.len());
        let rendered = |r: &ic_llmsim::Request| format!("{r:?}");
        assert!(
            served
                .iter()
                .map(rendered)
                .eq(reference.iter().map(rendered))
        );
    }

    /// A `pct` cell (`"64.8%"`) as a share.
    fn share(cell: &str) -> f64 {
        let pct: f64 = cell
            .trim_end_matches('%')
            .parse()
            .expect("a percentage cell");
        pct / 100.0
    }

    #[test]
    fn fig13_ic_dominates_routellm_at_high_throughput() {
        // Per dataset, the best judged win rate at >= 2x normalized
        // throughput: IC-Cache's must beat RouteLLM's (quick scale:
        // 64.8-72.8 % against 14.8-30.0 %).
        let r = fig13_tradeoff_curves(Scale::quick());
        assert_eq!(r.tables.len(), 4);
        for t in &r.tables {
            let best = |system: &str| {
                t.rows
                    .iter()
                    .filter(|row| row[0] == system)
                    .filter(|row| row[1].parse::<f64>().expect("a throughput cell") >= 2.0)
                    .map(|row| share(&row[2]))
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            let (ic, rl) = (best("IC-Cache"), best("RouteLLM"));
            assert!(ic.is_finite(), "{}: IC-Cache never reaches 2x", t.caption);
            assert!(ic > rl, "{}: IC-Cache {ic} vs RouteLLM {rl}", t.caption);
        }
    }

    #[test]
    fn fig20_large_is_slowest() {
        let r = fig20_loads(Scale::quick());
        // At every load row-triple, 27b P50 >= 2b P50.
        let rows = &r.tables[0].rows;
        for chunk in rows.chunks(3) {
            let p50_small: f64 = chunk[0][2].parse().unwrap();
            let p50_large: f64 = chunk[2][2].parse().unwrap();
            assert!(
                p50_large > p50_small,
                "27b should be slower: {p50_small} vs {p50_large}"
            );
        }
    }

    /// Each load the findings name as failing a paper band is one whose
    /// row triple fails it, and no other.
    #[test]
    fn fig20_findings_match_the_table() {
        let r = fig20_loads(Scale::quick());
        for triple in r.tables[0].rows.chunks(3) {
            let p50 = |k: usize| -> f64 { triple[k][2].parse().unwrap() };
            let cell = format!("{} QPS (", triple[0][0]);
            let fails = [p50(1) > 1.35 * p50(0), p50(1) > 0.25 * p50(2)];
            for (finding, failed) in r.findings.iter().zip(fails) {
                assert_eq!(finding.contains(&cell), failed, "{triple:?}: {finding}");
            }
        }
    }

    /// Fig. 16's predicate at quick scale, per dataset, on the mean win
    /// rate across each variant's sweep: the full system beats each
    /// ablation by at least 3 points, and dropping stage 2 as well does
    /// not help. (Quick scale reads MS MARCO 60.5 / 55.6 / 55.5 % and
    /// Alpaca 64.9 / 53.3 / 53.2 %: stage 2 adds 0.1 point here, which
    /// is not asserted.)
    #[test]
    fn fig16_full_system_beats_each_ablation() {
        let r = fig16_ablation(Scale::quick());
        assert_eq!(r.tables.len(), 2);
        for t in &r.tables {
            let mean = |variant: &str| {
                let rates: Vec<f64> = (t.rows.iter())
                    .filter(|row| row[0] == variant)
                    .map(|row| share(&row[2]))
                    .collect();
                assert!(!rates.is_empty(), "{}: no {variant}", t.caption);
                rates.iter().sum::<f64>() / rates.len() as f64
            };
            let full = mean("IC-Cache");
            let (no_router, no_both) = (mean("w/o Router"), mean("w/o Router & stage-2"));
            let at = &t.caption;
            assert!(full >= no_router + 0.03, "{at}: {full} vs {no_router}");
            assert!(full >= no_both + 0.03, "{at}: {full} vs {no_both}");
            assert!(no_both <= no_router, "{at}: {no_both} vs {no_router}");
        }
    }

    #[test]
    fn headline_produces_throughput_band() {
        // Every dataset's quality-neutral throughput gain is at least the
        // paper's 1.4x (quick scale: 18.2-30.9x, far above its 5.9x
        // ceiling, which is not asserted: docs/paper-claims.md), and
        // the zero-load latency reduction lies in the paper's 28-71 %
        // (quick scale: 41.0 %).
        let r = headline(Scale::quick());
        let gains = &r.tables[0];
        assert_eq!(gains.rows.len(), 3);
        for row in &gains.rows {
            let gain: f64 = row[1]
                .parse()
                .unwrap_or_else(|_| panic!("{}: no gain", row[0]));
            assert!(gain >= 1.4, "{}: throughput gain {gain}", row[0]);
        }
        let latency = r
            .findings
            .iter()
            .find_map(|f| f.split_once("zero-load reduction = "))
            .map(|(_, cell)| share(cell))
            .expect("a zero-load latency finding");
        assert!(
            (0.28..=0.71).contains(&latency),
            "latency reduction {latency}"
        );
    }
}
