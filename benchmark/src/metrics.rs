//! The benchmark's metric tables: the one place names, units, directions
//! and regression bounds are defined. `BENCHMARK.json` repeats them and a
//! test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock an end-to-end metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock or memory of this process: noisy, one value per
    /// repetition, compared by median within the bound.
    Host,
    /// Simulated clock: bit-deterministic per seed, so at the same seed
    /// any difference at all is a behaviour change.
    Sim,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub clock: Clock,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: Clock,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        clock,
    }
}

/// Every end-to-end metric, reported on every workload. The driver judges
/// a metric by its spread over ten runs at ten different seeds, so each
/// bound covers three times the widest spread measured at the baseline
/// (host noise on the shared box, seed-to-seed variation of the
/// simulated-clock metrics) or the 25 % cap, whichever is smaller.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Clock::Host),
    e2e("replay_s", "s", Better::Lower, 0.25, Clock::Host),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10, Clock::Host),
    e2e("sim_ttft_p50_s", "s", Better::Lower, 0.20, Clock::Sim),
    e2e("sim_ttft_p99_s", "s", Better::Lower, 0.15, Clock::Sim),
    e2e("sim_e2e_p50_s", "s", Better::Lower, 0.15, Clock::Sim),
    e2e("sim_e2e_p99_s", "s", Better::Lower, 0.25, Clock::Sim),
    e2e(
        "sim_slo_attainment",
        "share",
        Better::Higher,
        0.02,
        Clock::Sim,
    ),
    e2e("offload_ratio", "share", Better::Higher, 0.02, Clock::Sim),
    e2e(
        "quality_win_rate",
        "share",
        Better::Higher,
        0.03,
        Clock::Sim,
    ),
];

/// One per-layer metric: `(name, unit, direction)`. No bounds; reported by
/// the traced run only.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// Every per-layer metric, in reporting order. The name's prefix is the
/// crate the timed call or the count belongs to.
pub const PER_LAYER: [PerLayer; 79] = [
    ("workloads.gen_requests_s", "s", L),
    ("workloads.gen_bank_s", "s", L),
    ("embed.embed_us_p50", "us", L),
    ("embed.slab_bulk_s", "s", L),
    ("vecindex.build_s", "s", L),
    ("vecindex.kmeans_fit_s", "s", L),
    ("vecindex.clusters", "count", L),
    ("vecindex.expected_comparisons", "count", L),
    ("vecindex.search_us_p50", "us", L),
    ("vecindex.search_us_p99", "us", L),
    ("vecindex.search_batch8_us_per_query", "us", L),
    ("vecindex.insert_us_p50", "us", L),
    ("vecindex.remove_us_p50", "us", L),
    ("selector.stage1_us_p50", "us", L),
    ("selector.stage1_us_p99", "us", L),
    ("selector.stage2_us_p50", "us", L),
    ("selector.stage2_us_p99", "us", L),
    ("selector.select_us_p50", "us", L),
    ("selector.select_us_p99", "us", L),
    ("selector.index_example_us_p50", "us", L),
    ("selector.hit_rate", "share", H),
    ("selector.examples_per_request", "count", H),
    ("selector.est_share", "share", L),
    ("respcache.lookup_hit_us_p50", "us", L),
    ("respcache.lookup_miss_us_p50", "us", L),
    ("respcache.observe_admit_us_p50", "us", L),
    ("respcache.hit_ratio", "share", H),
    ("respcache.admissions", "count", H),
    ("respcache.stale_evictions", "count", L),
    ("respcache.est_share", "share", L),
    ("router.route_us_p50", "us", L),
    ("router.route_us_p99", "us", L),
    ("router.feedback_us_p50", "us", L),
    ("router.decisions", "count", H),
    ("router.failover_requeues", "count", L),
    ("router.est_share", "share", L),
    ("core.serve_us_p50", "us", L),
    ("core.serve_us_p99", "us", L),
    ("core.warm_up_s", "s", L),
    ("core.update_cache_us_p50", "us", L),
    ("core.est_share", "share", L),
    ("llmsim.generate_us_p50", "us", L),
    ("llmsim.est_share", "share", L),
    ("manager.admit_us_p50", "us", L),
    ("manager.enforce_capacity_ms_p50", "ms", L),
    ("manager.rebalance_ms_p50", "ms", L),
    ("manager.replay_ms_p50", "ms", L),
    ("manager.admitted", "count", H),
    ("manager.evicted", "count", L),
    ("manager.est_share", "share", L),
    ("serving.offer_us_p50", "us", L),
    ("serving.step_us_p50", "us", L),
    ("serving.step_us_p99", "us", L),
    ("serving.steps", "count", L),
    ("serving.mean_step_batch", "count", H),
    ("serving.preemptions", "count", L),
    ("serving.queue_wait_mean_s", "s", L),
    ("serving.queue_rejects", "count", L),
    ("serving.est_share", "share", L),
    ("kvmem.alloc_free_ns_per_block", "ns", L),
    ("kvmem.share_ns_per_block", "ns", L),
    ("kvmem.peak_occupancy", "share", L),
    ("kvmem.dedup_ratio", "share", H),
    ("kvmem.swap_outs", "count", L),
    ("kvmem.pressure_preemptions", "count", L),
    ("kvmem.fragmentation", "share", L),
    ("desim.schedule_pop_ns_per_event", "ns", L),
    ("desim.events", "count", L),
    ("desim.est_share", "share", L),
    ("obs.lane_push_ns", "ns", L),
    ("obs.traced_replay_ratio", "ratio", L),
    ("obs.events_recorded", "count", H),
    ("obs.events_dropped", "count", L),
    ("engine.replay_us_per_event", "us", L),
    ("engine.events_per_s", "1/s", H),
    ("engine.unattributed_share", "share", L),
    ("engine.setup_s", "s", L),
    ("engine.replay_s", "s", L),
    ("engine.traced_replay_s", "s", L),
];

/// A measured value with its unit, as the result line prints it.
pub type Value = (&'static str, f64, &'static str);
