//! The four benchmark workloads: bank size, arrival process, request mix
//! and engine configuration.
//!
//! `--seed` drives the open-loop arrival schedule. The content — example
//! bank, warm-up stream, request pool, repeat pattern and the system's own
//! RNG — is a fixture generated from [`FIXTURE_SEED`]: the stack's learned
//! routing state is bistable in the content seed (see `README.md`,
//! "Recorded exclusions"), so a content-varying seed would measure which
//! basin a run fell into instead of the code under test. Every generator
//! is a pure function of its arguments; the program under test only ever
//! sees the generated bank, requests and arrival times.

use std::collections::VecDeque;

use ic_engine::{EngineConfig, PoolOutage};
use ic_llmsim::Request;
use ic_stats::dist::{Exponential, Zipf};
use ic_stats::rng::rng_from_seed;
use ic_workloads::{Dataset, WorkloadGenerator, fixed_qps_arrivals};
use rand::RngExt;

/// Seed of the content fixture (the repo's conventional experiment seed).
pub const FIXTURE_SEED: u64 = 20_250_613;

/// Seed of the system's own stochastic choices (`IcCacheConfig::seed`).
/// Which of the router's two basins a fixture settles in depends on it;
/// this value offloads on all four workloads (scan in `README.md`).
pub const SYSTEM_SEED: u64 = 8;

/// Seed salts, one per generator, so no two streams share state. The
/// bank and arrival salts match `ic-bench`'s end-to-end harness.
const SALT_BANK: u64 = 21;
const SALT_ARRIVALS: u64 = 25;
const SALT_REPEATS: u64 = 27;

/// Share of `trending_dups` arrivals that repeat a recent request.
pub const REPEAT_SHARE: f64 = 0.5;
/// How many most-recent distinct requests a repeat is drawn from.
pub const REPEAT_WINDOW: usize = 512;
/// Zipf exponent of the repeat rank (rank 0 = the most recent request).
pub const REPEAT_ZIPF: f64 = 1.1;

/// Rate envelope of the `trending_dups` trace (`ic_workloads::TraceConfig`
/// draws its spike schedule from the same seed as its arrivals, so the
/// request count and the tail would swing with `--seed`): a slow swell plus one
/// exponentially decaying spike every [`SPIKE_EVERY_S`], peak multipliers
/// cycling through [`SPIKE_PEAKS`]. The envelope is part of the workload's
/// shape; only the Poisson draws under it depend on `--seed`.
const TREND_BASE_RPS: f64 = 0.3;
const TREND_SWELL: f64 = 0.3;
const SPIKE_EVERY_S: f64 = 600.0;
const SPIKE_DECAY_S: f64 = 60.0;
const SPIKE_PEAKS: [f64; 6] = [8.0, 3.0, 5.0, 2.0, 6.0, 4.0];

/// One benchmark workload. See `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Near-empty cache at trough load: the engine loop dominates.
    ColdstartLowload,
    /// Large example bank: selection and index build dominate.
    BigbankSelect,
    /// Spiky trace with repeated requests through the stage-0 cache.
    TrendingDups,
    /// Capped cache with admissions, evictions and a pool outage.
    ChurnWrites,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdstartLowload,
        Workload::BigbankSelect,
        Workload::TrendingDups,
        Workload::ChurnWrites,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdstartLowload => "coldstart_lowload",
            Workload::BigbankSelect => "bigbank_select",
            Workload::TrendingDups => "trending_dups",
            Workload::ChurnWrites => "churn_writes",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Examples seeded into the cache before the replay.
    pub fn bank(self) -> usize {
        match self {
            Workload::ColdstartLowload => 100,
            Workload::BigbankSelect => 20_000,
            Workload::TrendingDups | Workload::ChurnWrites => 10_000,
        }
    }

    /// Byte cap on the example cache (`None` = unbounded).
    pub fn cache_capacity(self) -> Option<usize> {
        match self {
            Workload::ChurnWrites => Some(3_000_000),
            _ => None,
        }
    }

    /// Simulated length of the arrival process in seconds at `scale = 1`.
    pub fn duration_s(self) -> f64 {
        match self {
            Workload::ColdstartLowload => 300_000.0,
            Workload::BigbankSelect => 40_000.0,
            Workload::TrendingDups => 30_000.0,
            Workload::ChurnWrites => 50_000.0,
        }
    }

    /// Warm-up serves before the replay (the paper's systems are
    /// long-running; the replay measures steady state). The two workloads
    /// with time-triggered events (TTL expiry, maintenance, an outage)
    /// warm up for longer: those events make the order of the system's
    /// RNG draws depend on arrival timing, and only a settled router
    /// keeps every arrival seed in the same basin.
    pub fn warm_up(self) -> usize {
        match self {
            Workload::ColdstartLowload | Workload::BigbankSelect => (self.bank() / 40).max(300),
            Workload::TrendingDups | Workload::ChurnWrites => 3_000,
        }
    }

    /// The fixture's bank/request generator (MS MARCO, topic space sized
    /// for the bank).
    pub fn generator(self) -> WorkloadGenerator {
        WorkloadGenerator::sized(Dataset::MsMarco, FIXTURE_SEED ^ SALT_BANK, self.bank())
    }

    /// Open-loop arrival times on the simulated clock, ascending: the one
    /// input `--seed` drives. `scale` shortens the process (1.0 =
    /// benchmark length).
    pub fn arrivals(self, seed: u64, scale: f64) -> Vec<f64> {
        let duration = self.duration_s() * scale;
        let seed = seed ^ SALT_ARRIVALS;
        match self {
            Workload::ColdstartLowload | Workload::BigbankSelect => {
                fixed_qps_arrivals(0.2, duration, seed)
            }
            Workload::ChurnWrites => fixed_qps_arrivals(0.3, duration, seed),
            Workload::TrendingDups => spiky_arrivals(duration, seed),
        }
    }

    /// The `n` requests behind the arrivals, drawn after the generator
    /// has produced the bank and the warm-up requests.
    pub fn requests(self, generator: &mut WorkloadGenerator, n: usize) -> Vec<Request> {
        match self {
            Workload::TrendingDups => repeating_requests(generator, n, FIXTURE_SEED ^ SALT_REPEATS),
            _ => generator.generate_requests(n),
        }
    }

    /// The engine configuration, built explicitly from the defaults: no
    /// environment reads, one replay thread, one router replica.
    pub fn engine_config(self, scale: f64) -> EngineConfig {
        let mut config = EngineConfig {
            replay_threads: 1,
            router_replicas: 1,
            ..EngineConfig::default()
        };
        match self {
            Workload::ColdstartLowload | Workload::BigbankSelect => {}
            Workload::TrendingDups => {
                config.resp_cache = true;
                config.kv_share = true;
                config.selector_batch = 8;
            }
            Workload::ChurnWrites => {
                config.admit_served_pairs = true;
                config.maintenance_period_s = 1_200.0;
                config.rebalance_period_s = 600.0;
                config.pool_outages = vec![PoolOutage {
                    pool: 0,
                    at_s: self.duration_s() * scale / 2.0,
                    duration_s: 1_200.0,
                }];
            }
        }
        config
    }
}

/// Instantaneous rate of the `trending_dups` envelope at time `t`.
fn spiky_rate(t: f64, duration: f64) -> f64 {
    let base = TREND_BASE_RPS;
    let swell = 1.0
        + TREND_SWELL * (std::f64::consts::TAU * t / duration - std::f64::consts::FRAC_PI_2).sin();
    let mut rate = base * swell;
    // Spike k starts at (k + 0.5) * SPIKE_EVERY_S; only spikes that have
    // not decayed below 1e-3 (7 decay constants) still contribute.
    let mut k = (t / SPIKE_EVERY_S - 0.5).floor();
    while k >= 0.0 {
        let age = t - (k + 0.5) * SPIKE_EVERY_S;
        if age > 7.0 * SPIKE_DECAY_S {
            break;
        }
        let peak = SPIKE_PEAKS[k as usize % SPIKE_PEAKS.len()];
        rate += base * (peak - 1.0) * (-age / SPIKE_DECAY_S).exp();
        k -= 1.0;
    }
    rate
}

/// Non-homogeneous Poisson arrivals under [`spiky_rate`], by thinning.
fn spiky_arrivals(duration: f64, seed: u64) -> Vec<f64> {
    let base = TREND_BASE_RPS;
    let mut rng = rng_from_seed(seed);
    let peak = SPIKE_PEAKS.iter().copied().fold(0.0, f64::max);
    // Swell crest plus the tallest spike plus the tail of its predecessor.
    let lambda_max = base * (1.0 + TREND_SWELL + peak);
    let gap = Exponential::new(lambda_max).expect("positive rate");
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += gap.sample(&mut rng);
        if t >= duration {
            break;
        }
        let rate = spiky_rate(t, duration);
        debug_assert!(rate <= lambda_max, "thinning bound too low at t={t}");
        if rng.random::<f64>() < rate / lambda_max {
            arrivals.push(t);
        }
    }
    arrivals
}

/// `n` requests of which each is, with probability [`REPEAT_SHARE`], an
/// exact repeat of one of the [`REPEAT_WINDOW`] most recent distinct
/// requests, the rank drawn Zipf([`REPEAT_ZIPF`]) from the newest.
fn repeating_requests(generator: &mut WorkloadGenerator, n: usize, seed: u64) -> Vec<Request> {
    let mut rng = rng_from_seed(seed);
    // The first request has nothing to repeat.
    let repeat: Vec<bool> = (0..n)
        .map(|i| i > 0 && rng.random::<f64>() < REPEAT_SHARE)
        .collect();
    let distinct = repeat.iter().filter(|&&r| !r).count();
    let mut fresh = generator.generate_requests(distinct).into_iter();
    let zipf = Zipf::new(REPEAT_WINDOW, REPEAT_ZIPF).expect("valid zipf params");
    let mut recent: VecDeque<usize> = VecDeque::with_capacity(REPEAT_WINDOW);
    let mut out: Vec<Request> = Vec::with_capacity(n);
    for (i, &is_repeat) in repeat.iter().enumerate() {
        if is_repeat {
            let rank = zipf.sample(&mut rng) % recent.len();
            let source = recent[recent.len() - 1 - rank];
            out.push(out[source].clone());
        } else {
            out.push(fresh.next().expect("one fresh request per non-repeat"));
            if recent.len() == REPEAT_WINDOW {
                recent.pop_front();
            }
            recent.push_back(i);
        }
    }
    out
}
