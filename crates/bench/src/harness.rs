//! Shared experiment machinery.

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_judge::{Autorater, PairwiseEval};
use ic_llmsim::{Generator, ModelId, ModelSpec};
use ic_serving::{ClusterSim, JobSpec, PoolConfig};
use ic_stats::rng::rng_from_seed;
use ic_workloads::{Dataset, WorkloadGenerator};
use rand::rngs::StdRng;

/// Experiment scale: fraction of the Table 1 workload sizes to draw and a
/// root seed. `quick()` keeps CI fast; `full()` is used for the recorded
/// EXPERIMENTS.md numbers.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Fraction of paper-scale request/example counts.
    pub fraction: f64,
    /// Root seed.
    pub seed: u64,
}

impl Scale {
    /// Small (seconds per experiment) — used by tests.
    pub fn quick() -> Self {
        Self {
            fraction: 0.004,
            seed: 20_250_613,
        }
    }

    /// The recorded scale: large enough for stable statistics, small
    /// enough that the full suite finishes in minutes.
    pub fn full() -> Self {
        Self {
            fraction: 0.02,
            seed: 20_250_613,
        }
    }

    /// Scales a paper-sized count, with a floor.
    pub fn count(&self, paper_size: usize, floor: usize) -> usize {
        ((paper_size as f64 * self.fraction) as usize).max(floor)
    }
}

/// A ready-to-run small/large pair on one dataset: seeded system, the
/// workload generator, and the pair's specs.
pub struct PairSetup {
    /// The assembled IC-Cache system with a seeded example bank.
    pub system: IcCacheSystem,
    /// The workload generator (pull requests from here).
    pub generator: WorkloadGenerator,
    /// Small (offload) model.
    pub small: ModelId,
    /// Large (primary) model.
    pub large: ModelId,
    /// Small model spec.
    pub small_spec: ModelSpec,
    /// Large model spec.
    pub large_spec: ModelSpec,
    /// A generation simulator for baseline (non-system) generations.
    pub sim: Generator,
    /// RNG for baseline generations and judging.
    pub rng: StdRng,
    /// The judge.
    pub judge: Autorater,
}

impl PairSetup {
    /// Builds a Gemma-pair setup on `dataset` with `n_examples` seeded
    /// examples. Honors `IC_SETUP_THREADS` for the deterministic setup
    /// pipeline (bit-identical at any value; see `env::setup_threads`).
    pub fn gemma(dataset: Dataset, n_examples: usize, seed: u64) -> Self {
        let mut config = IcCacheConfig::gemma_pair();
        config.selector.ivf.setup_threads =
            crate::env::setup_threads().expect(crate::env::KNOBS_CHECKED);
        Self::with_config(config, dataset, n_examples, seed)
    }

    /// Builds a setup from any two-model config.
    pub fn with_config(
        config: IcCacheConfig,
        dataset: Dataset,
        n_examples: usize,
        seed: u64,
    ) -> Self {
        Self::with_config_timed(config, dataset, n_examples, seed).0
    }

    /// [`PairSetup::with_config`] plus the wall-clock split of its
    /// deterministic setup pipeline (for `BENCH_replay.json`; measured
    /// time, never part of a determinism contract).
    pub fn with_config_timed(
        config: IcCacheConfig,
        dataset: Dataset,
        n_examples: usize,
        seed: u64,
    ) -> (Self, SetupTiming) {
        let small = config.offload_models()[0];
        let large = config.primary;
        let small_spec = config.catalog.get(small).clone();
        let large_spec = config.catalog.get(large).clone();
        let setup_threads = config.selector.ivf.setup_threads.max(1);
        let sim = Generator::new();
        let mut generator = WorkloadGenerator::sized(dataset, seed, n_examples);
        let t0 = std::time::Instant::now();
        let examples = generator.generate_examples(n_examples, &large_spec, large, &sim);
        let bank_gen_wall_s = t0.elapsed().as_secs_f64();
        let mut system = IcCacheSystem::new(config);
        let t1 = std::time::Instant::now();
        system.seed_examples(examples, 0.0);
        let index_build_wall_s = t1.elapsed().as_secs_f64();
        let index_build = system.selector().index().build_stats();
        let setup = Self {
            system,
            generator,
            small,
            large,
            small_spec,
            large_spec,
            sim,
            rng: rng_from_seed(seed ^ EVAL_SEED_SALT),
            judge: Autorater::standard(),
        };
        let timing = SetupTiming {
            setup_wall_s: 0.0,
            bank_gen_wall_s,
            index_build_wall_s,
            index_build,
            setup_threads,
        };
        (setup, timing)
    }

    /// Warm-up: serve `n` requests so the proxy, bandit and threshold
    /// controller have converged before measurement (the paper's systems
    /// are long-running; experiments measure steady state).
    pub fn warm_up(&mut self, n: usize) {
        for r in self.generator.generate_requests(n) {
            let _ = self.system.serve(&r);
        }
    }
}

/// Wall-clock split of the deterministic replay setup (measured time,
/// recorded in `BENCH_replay.json` beside `wall_s`; **not** part of any
/// determinism contract — `BENCH_e2e.json` is byte-identical at any
/// `IC_SETUP_THREADS`). `bank_gen_wall_s` covers generating the example
/// bank (`WorkloadGenerator::generate_examples`: text synthesis, latent
/// sampling, embedding), `index_build_wall_s` covers seeding it into the
/// selector (k-means fits, filling the IVF posting lists), and
/// `setup_wall_s` the whole pre-replay setup including warm-up and
/// request generation. `index_build` is the exception: deterministic
/// counts of the training work `index_build_wall_s` paid for.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    /// Whole setup wall (bank gen + index + warm-up + request gen).
    pub setup_wall_s: f64,
    /// Example-bank generation wall (`generate_examples`).
    pub bank_gen_wall_s: f64,
    /// Selector index build wall (`seed_examples`).
    pub index_build_wall_s: f64,
    /// K-means fits, assignment passes and lane-group scans behind
    /// `index_build_wall_s` (the same at any `IC_SETUP_THREADS`).
    pub index_build: ic_vecindex::BuildStats,
    /// Worker threads the setup pipeline ran with.
    pub setup_threads: usize,
}

/// Salt for evaluation RNGs (kept separate from workload seeds).
const EVAL_SEED_SALT: u64 = 0xE7A1;

/// Judged side-by-side comparison of two per-request quality vectors
/// (A vs B), using the paper's 16-comparison balanced protocol. Returns
/// `(average_score, win_rate)` from A's perspective.
pub fn side_by_side(
    judge: &Autorater,
    quality_a: &[f64],
    quality_b: &[f64],
    rng: &mut StdRng,
) -> (f64, f64) {
    assert_eq!(quality_a.len(), quality_b.len(), "paired inputs required");
    let mut eval = PairwiseEval::new();
    for (&qa, &qb) in quality_a.iter().zip(quality_b) {
        eval.record(judge.score_balanced(qa, qb, 8, rng));
    }
    (eval.average_score(), eval.win_rate())
}

/// Normalized serving throughput of a policy that offloads fraction `p`
/// of requests to the small model, relative to always-large (Fig. 13's
/// x-axis): the reciprocal of relative GPU-time per request.
pub fn normalized_throughput(p_offload: f64, small_gpu_secs: f64, large_gpu_secs: f64) -> f64 {
    let rel = (1.0 - p_offload) + p_offload * (small_gpu_secs / large_gpu_secs);
    1.0 / rel.max(1e-9)
}

/// Builds a two-pool cluster (pool 0 = small, pool 1 = large) over
/// `total_gpus`, split as in the evaluation: the large model keeps one
/// replica's worth of GPUs, the rest go to the small pool.
pub fn mixed_cluster(
    small_spec: &ModelSpec,
    large_spec: &ModelSpec,
    total_gpus: u32,
) -> ClusterSim {
    let large_gpus = large_spec.gpus_per_replica.min(total_gpus);
    let small_gpus = (total_gpus - large_gpus).max(1);
    ClusterSim::new(vec![
        PoolConfig::for_gpus(&small_spec.name, small_gpus, small_spec.gpus_per_replica, 8),
        PoolConfig::for_gpus(&large_spec.name, large_gpus, large_spec.gpus_per_replica, 8),
    ])
}

/// Builds a single-pool cluster giving every GPU to one model.
pub fn single_cluster(spec: &ModelSpec, total_gpus: u32) -> ClusterSim {
    ClusterSim::new(vec![PoolConfig::for_gpus(
        &spec.name,
        total_gpus,
        spec.gpus_per_replica,
        8,
    )])
}

/// Turns `(id, pool, arrival, ttft, decode, prefill_tokens,
/// decode_tokens)` decisions into cluster jobs for the iteration-level
/// scheduler.
pub fn to_jobs(rows: &[(u64, usize, f64, f64, f64, u32, u32)]) -> Vec<JobSpec> {
    ic_serving::jobs_from_tuples(rows)
}

/// Instantaneous offered load (requests/second) estimated from the last
/// `window` arrivals before index `i`.
pub fn recent_rps(arrivals: &[f64], i: usize, window: usize) -> f64 {
    if i == 0 {
        return 0.0;
    }
    let lo = i.saturating_sub(window);
    let dt = arrivals[i] - arrivals[lo];
    if dt <= 0.0 {
        return 0.0;
    }
    (i - lo) as f64 / dt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_counts_scale() {
        let s = Scale::quick();
        assert!(s.count(100_000, 10) >= 10);
        assert!(Scale::full().count(100_000, 10) > s.count(100_000, 10));
    }

    #[test]
    fn normalized_throughput_matches_hand_math() {
        // Offloading nothing = 1x; everything to a 10x-cheaper model = 10x.
        assert!((normalized_throughput(0.0, 7.0, 70.0) - 1.0).abs() < 1e-9);
        assert!((normalized_throughput(1.0, 7.0, 70.0) - 10.0).abs() < 1e-9);
        let half = normalized_throughput(0.5, 7.0, 70.0);
        assert!(half > 1.5 && half < 2.0);
    }

    #[test]
    fn side_by_side_detects_clear_winner() {
        let judge = Autorater::standard();
        let mut rng = rng_from_seed(1);
        let a = vec![0.9; 40];
        let b = vec![0.4; 40];
        let (score, wr) = side_by_side(&judge, &a, &b, &mut rng);
        assert!(score > 1.0);
        assert!(wr > 0.9);
    }

    #[test]
    fn recent_rps_estimates_rate() {
        let arrivals: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect(); // 2 rps.
        let rps = recent_rps(&arrivals, 50, 20);
        assert!((rps - 2.0).abs() < 0.2);
        assert_eq!(recent_rps(&arrivals, 0, 10), 0.0);
    }

    #[test]
    fn pair_setup_builds_and_serves() {
        let mut setup = PairSetup::gemma(Dataset::MsMarco, 100, 9);
        setup.warm_up(20);
        assert_eq!(setup.system.served(), 20);
    }
}
