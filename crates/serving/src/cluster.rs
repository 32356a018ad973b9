//! The cluster simulator: pools + the discrete-event iteration loop.

use ic_desim::{SimDuration, Simulator};
use ic_kvmem::KvStats;

use crate::job::{JobResult, JobSpec};
use crate::pool::{IterStats, ModelPool, Offer, PoolConfig};

/// Index of a pool within a cluster.
pub type PoolId = usize;

/// Internal simulator events.
#[derive(Debug)]
enum Event {
    /// A job arrives at its pool.
    Arrival(JobSpec),
    /// The in-flight iteration of `pool` ends (token-step boundary).
    StepComplete(PoolId),
}

/// A cluster of model pools replaying a job trace at iteration (token
/// step) granularity: each busy pool has exactly one `StepComplete`
/// event in flight, and jobs join and leave its running batch only at
/// those boundaries.
///
/// # Examples
///
/// ```
/// use ic_desim::SimTime;
/// use ic_serving::{ClusterSim, JobId, JobSpec, PoolConfig};
///
/// let mut cluster = ClusterSim::new(vec![PoolConfig::for_gpus("m", 4, 1, 4)]);
/// let jobs = vec![JobSpec {
///     id: JobId(0),
///     pool: 0,
///     arrival: SimTime::ZERO,
///     ttft_secs: 0.1,
///     decode_secs: 1.0,
///     prefill_tokens: 120,
///     decode_tokens: 100,
///     priority: 0,
///     share: None,
/// }];
/// let results = cluster.run(jobs);
/// assert_eq!(results.len(), 1);
/// assert!(results[0].e2e_secs() >= 1.1);
/// ```
#[derive(Debug)]
pub struct ClusterSim {
    pools: Vec<ModelPool>,
}

impl ClusterSim {
    /// Creates a cluster with one pool per config.
    pub fn new(configs: Vec<PoolConfig>) -> Self {
        Self {
            pools: configs.into_iter().map(ModelPool::new).collect(),
        }
    }

    /// Read access to a pool.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range pool id.
    pub fn pool(&self, id: PoolId) -> &ModelPool {
        &self.pools[id]
    }

    /// Per-iteration scheduler counters summed across pools.
    pub fn iter_stats(&self) -> IterStats {
        let mut total = IterStats::default();
        for p in &self.pools {
            total.merge(&p.iter_stats());
        }
        total
    }

    /// KV-memory counters merged across pools.
    pub fn kv_stats(&self) -> KvStats {
        let mut total = KvStats::default();
        for p in &self.pools {
            total.merge(&p.kv_stats());
        }
        total
    }

    /// Jobs rejected by pool queue caps so far.
    pub fn rejected(&self) -> u64 {
        self.pools.iter().map(ModelPool::rejected).sum()
    }

    /// Replays the given jobs to completion and returns per-job results
    /// sorted by completion time. Jobs rejected by a pool's queue cap
    /// produce no result (see [`ClusterSim::rejected`]). Deterministic
    /// for a given input.
    ///
    /// # Panics
    ///
    /// Panics if a job references an unknown pool.
    pub fn run(&mut self, jobs: Vec<JobSpec>) -> Vec<JobResult> {
        let mut sim: Simulator<Event> = Simulator::new();
        for job in jobs {
            assert!(job.pool < self.pools.len(), "unknown pool {}", job.pool);
            sim.schedule(job.arrival, Event::Arrival(job));
        }
        let mut results = Vec::new();
        let pools = &mut self.pools;
        sim.run(|sim, event| match event {
            Event::Arrival(job) => {
                let pool = job.pool;
                if pools[pool].offer(job, sim.now()) == Offer::Started {
                    let dt = pools[pool].step_secs().expect("started pool is busy");
                    sim.schedule_in(SimDuration::from_secs_f64(dt), Event::StepComplete(pool));
                }
                // Queued jobs are admitted at a later step boundary.
            }
            Event::StepComplete(pool) => {
                let step = pools[pool].advance_step(sim.now());
                for fin in step.finished {
                    results.push(JobResult {
                        id: fin.job.id,
                        pool,
                        arrival: fin.job.arrival,
                        started: fin.started,
                        first_token: fin.first_token,
                        completed: fin.completed,
                    });
                }
                if let Some(dt) = pools[pool].step_secs() {
                    sim.schedule_in(SimDuration::from_secs_f64(dt), Event::StepComplete(pool));
                }
            }
        });
        results
    }
}

/// Convenience: builds `JobSpec`s from `(id, pool, arrival_secs, ttft,
/// decode, prefill_tokens, decode_tokens)` tuples.
pub fn jobs_from_tuples(rows: &[(u64, usize, f64, f64, f64, u32, u32)]) -> Vec<JobSpec> {
    rows.iter()
        .map(|&(id, pool, at, ttft, decode, ptoks, dtoks)| JobSpec {
            id: crate::job::JobId(id),
            pool,
            arrival: ic_desim::SimTime::from_secs_f64(at),
            ttft_secs: ttft,
            decode_secs: decode,
            prefill_tokens: ptoks,
            decode_tokens: dtoks,
            priority: 0,
            share: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use ic_desim::SimTime;
    use ic_kvmem::KvSwap;

    /// Swaps that cost nothing; with the default budget, which these
    /// tests' jobs never bind, the slot machine alone sets every time.
    const FREE_SWAPS: KvSwap = KvSwap {
        out_secs_per_block: 0.0,
        in_secs_per_block: 0.0,
        ..KvSwap::DEFAULT
    };

    fn one_slot_pool() -> Vec<PoolConfig> {
        vec![PoolConfig {
            name: "p".into(),
            replicas: 1,
            slots_per_replica: 1,
            congestion_beta: 0.0,
            prefill_chunk_tokens: 0,
            preempt_decode_quantum: 0,
            max_queue: None,
            kv_swap: FREE_SWAPS,
            ..PoolConfig::default()
        }]
    }

    #[test]
    fn single_job_completes_at_service_time() {
        let mut cluster = ClusterSim::new(one_slot_pool());
        let results = cluster.run(jobs_from_tuples(&[(0, 0, 1.0, 0.2, 0.8, 100, 40)]));
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert!((r.queue_wait_secs() - 0.0).abs() < 1e-6);
        // TTFT = prefill end + the first decode token (0.8s / 40 tokens).
        assert!((r.ttft_secs() - 0.22).abs() < 1e-4);
        assert!((r.e2e_secs() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn contended_jobs_queue_fifo() {
        let mut cluster = ClusterSim::new(one_slot_pool());
        let results = cluster.run(jobs_from_tuples(&[
            (0, 0, 0.0, 0.0, 1.0, 1, 10),
            (1, 0, 0.0, 0.0, 1.0, 1, 10),
            (2, 0, 0.0, 0.0, 1.0, 1, 10),
        ]));
        let by_id = |id: u64| results.iter().find(|r| r.id == JobId(id)).unwrap();
        assert!((by_id(0).e2e_secs() - 1.0).abs() < 1e-4);
        assert!((by_id(1).e2e_secs() - 2.0).abs() < 1e-4);
        assert!((by_id(2).e2e_secs() - 3.0).abs() < 1e-4);
        // Queue wait is visible in TTFT, the user-facing metric: job 2
        // starts at 2.0 and emits its first token one decode step later.
        assert!((by_id(2).ttft_secs() - 2.1).abs() < 1e-4);
    }

    #[test]
    fn latency_explodes_past_saturation() {
        // Offered load 2x capacity: mean latency must blow up relative to
        // a lightly-loaded run — the Fig. 12(c)/(d) mechanism.
        let build_jobs = |rate: f64| -> Vec<JobSpec> {
            (0..200)
                .map(|i| JobSpec {
                    id: JobId(i),
                    pool: 0,
                    arrival: SimTime::from_secs_f64(i as f64 / rate),
                    ttft_secs: 0.05,
                    decode_secs: 1.0,
                    prefill_tokens: 50,
                    decode_tokens: 100,
                    priority: 0,
                    share: None,
                })
                .collect()
        };
        let cfg = vec![PoolConfig {
            name: "p".into(),
            replicas: 1,
            slots_per_replica: 4,
            congestion_beta: 0.0,
            prefill_chunk_tokens: 0,
            preempt_decode_quantum: 0,
            max_queue: None,
            kv_swap: FREE_SWAPS,
            ..PoolConfig::default()
        }];
        // Capacity = 4 concurrent 1s jobs = 4 jobs/s.
        let light: f64 = {
            let mut c = ClusterSim::new(cfg.clone());
            let rs = c.run(build_jobs(2.0));
            rs.iter().map(|r| r.e2e_secs()).sum::<f64>() / rs.len() as f64
        };
        let heavy: f64 = {
            let mut c = ClusterSim::new(cfg);
            let rs = c.run(build_jobs(8.0));
            rs.iter().map(|r| r.e2e_secs()).sum::<f64>() / rs.len() as f64
        };
        assert!(
            heavy > 4.0 * light,
            "saturation should blow up latency: {light} vs {heavy}"
        );
    }

    #[test]
    fn more_replicas_raise_throughput() {
        let jobs: Vec<JobSpec> = (0..100)
            .map(|i| JobSpec {
                id: JobId(i),
                pool: 0,
                arrival: SimTime::from_secs_f64(i as f64 * 0.1),
                ttft_secs: 0.0,
                decode_secs: 1.0,
                prefill_tokens: 1,
                decode_tokens: 50,
                priority: 0,
                share: None,
            })
            .collect();
        let makespan = |replicas: u32| -> f64 {
            let mut c = ClusterSim::new(vec![PoolConfig {
                name: "p".into(),
                replicas,
                slots_per_replica: 1,
                congestion_beta: 0.0,
                prefill_chunk_tokens: 0,
                preempt_decode_quantum: 0,
                max_queue: None,
                kv_swap: FREE_SWAPS,
                ..PoolConfig::default()
            }]);
            let rs = c.run(jobs.clone());
            rs.iter()
                .map(|r| r.completed.as_secs_f64())
                .fold(0.0, f64::max)
        };
        assert!(makespan(8) < makespan(2) / 2.0);
    }

    #[test]
    fn contention_beta_stretches_decode() {
        let jobs: Vec<JobSpec> = (0..8)
            .map(|i| JobSpec {
                id: JobId(i),
                pool: 0,
                arrival: SimTime::ZERO,
                ttft_secs: 0.0,
                decode_secs: 1.0,
                prefill_tokens: 1,
                decode_tokens: 50,
                priority: 0,
                share: None,
            })
            .collect();
        let mean_e2e = |beta: f64| -> f64 {
            let mut c = ClusterSim::new(vec![PoolConfig {
                name: "p".into(),
                replicas: 1,
                slots_per_replica: 8,
                congestion_beta: beta,
                prefill_chunk_tokens: 0,
                preempt_decode_quantum: 0,
                max_queue: None,
                kv_swap: FREE_SWAPS,
                ..PoolConfig::default()
            }]);
            let rs = c.run(jobs.clone());
            rs.iter().map(|r| r.e2e_secs()).sum::<f64>() / rs.len() as f64
        };
        assert!(mean_e2e(1.0) > mean_e2e(0.0) * 1.3);
    }

    #[test]
    fn pools_are_independent() {
        let mk = |name: &str| PoolConfig {
            name: name.into(),
            replicas: 1,
            slots_per_replica: 1,
            congestion_beta: 0.0,
            prefill_chunk_tokens: 0,
            preempt_decode_quantum: 0,
            max_queue: None,
            kv_swap: FREE_SWAPS,
            ..PoolConfig::default()
        };
        let mut cluster = ClusterSim::new(vec![mk("a"), mk("b")]);
        // Saturate pool 0; pool 1 job must be unaffected.
        let results = cluster.run(jobs_from_tuples(&[
            (0, 0, 0.0, 0.0, 5.0, 1, 100),
            (1, 0, 0.0, 0.0, 5.0, 1, 100),
            (2, 1, 0.0, 0.1, 0.4, 50, 20),
        ]));
        let r2 = results.iter().find(|r| r.id == JobId(2)).unwrap();
        assert!((r2.e2e_secs() - 0.5).abs() < 1e-4);
    }

    #[test]
    fn queue_cap_drops_overflow_jobs() {
        let mut cfg = one_slot_pool();
        cfg[0].max_queue = Some(1);
        let mut cluster = ClusterSim::new(cfg);
        let results = cluster.run(jobs_from_tuples(&[
            (0, 0, 0.0, 0.0, 1.0, 1, 10),
            (1, 0, 0.0, 0.0, 1.0, 1, 10),
            (2, 0, 0.0, 0.0, 1.0, 1, 10),
        ]));
        assert_eq!(results.len(), 2, "third job rejected by the cap");
        assert_eq!(cluster.rejected(), 1);
        assert_eq!(cluster.iter_stats().queue_rejects, 1);
    }

    #[test]
    fn iteration_stats_accumulate() {
        let mut cluster = ClusterSim::new(one_slot_pool());
        let _ = cluster.run(jobs_from_tuples(&[(0, 0, 0.0, 0.1, 1.0, 100, 10)]));
        let stats = cluster.iter_stats();
        assert_eq!(stats.chunk_steps, 1, "unchunked prefill is one step");
        assert_eq!(stats.decode_steps, 10);
        assert!((stats.mean_step_batch() - 1.0).abs() < 1e-12);
        assert!(stats.chunked_prefill_ratio() > 0.0);
    }

    #[test]
    fn kv_stats_aggregate_across_pools() {
        // A tight KV budget forces pressure preemption inside the
        // cluster replay while the slot count never binds.
        let tight = PoolConfig {
            name: "tight".into(),
            replicas: 1,
            slots_per_replica: 8,
            congestion_beta: 0.0,
            prefill_chunk_tokens: 0,
            preempt_decode_quantum: 0,
            max_queue: None,
            kv_block_tokens: 8,
            kv_budget_blocks: 8,
            ..PoolConfig::default()
        };
        let mut cluster = ClusterSim::new(vec![tight]);
        let results = cluster.run(jobs_from_tuples(&[
            (0, 0, 0.0, 0.1, 1.0, 16, 40),
            (1, 0, 0.0, 0.1, 1.0, 16, 40),
        ]));
        assert_eq!(results.len(), 2);
        let kv = cluster.kv_stats();
        assert!(kv.pressure_preemptions > 0, "pressure must fire: {kv:?}");
        assert_eq!(kv.allocs, kv.frees, "blocks conserved across the replay");
        assert!(kv.peak_blocks <= kv.total_blocks);
        assert!(kv.mean_occupancy() > 0.0);
    }

    #[test]
    fn deterministic_replay() {
        let jobs = jobs_from_tuples(&[
            (0, 0, 0.0, 0.1, 1.0, 100, 120),
            (1, 0, 0.3, 0.1, 0.5, 80, 60),
            (2, 0, 0.6, 0.1, 0.2, 60, 30),
        ]);
        let run = || {
            let mut c = ClusterSim::new(one_slot_pool());
            c.run(jobs.clone())
                .iter()
                .map(|r| (r.id, r.completed))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
