//! §8 dynamics: query-distribution drift and model updates, exercised
//! end-to-end.

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_llmsim::Generator;
use ic_stats::rng::rng_from_seed;
use ic_workloads::{Dataset, DriftingWorkload, WorkloadGenerator};

fn drifting_system() -> (IcCacheSystem, DriftingWorkload) {
    let config = IcCacheConfig::gemma_pair();
    let large = config.primary;
    let large_spec = config.catalog.get(large).clone();
    let mut wg = WorkloadGenerator::sized(Dataset::MsMarco, 2001, 3_000);
    let examples = wg.generate_examples(3_000, &large_spec, large, &Generator::new());
    let mut system = IcCacheSystem::new(config);
    system.seed_examples(examples, 0.0);
    (system, DriftingWorkload::new(wg, 1.0))
}

#[test]
fn system_keeps_serving_through_topic_drift() {
    // The example bank was built at drift progress 0; the request stream
    // rotates away from it. The system must degrade gracefully (never
    // crash, never produce out-of-range quality) and keep updating the
    // cache with fresh topics so late-phase requests find fresh examples.
    let (mut system, mut drift) = drifting_system();
    let mut rng = rng_from_seed(2002);
    let mut phase_quality = [0.0f64; 3];
    let mut phase_counts = [0usize; 3];
    for step in 0..600 {
        let t = step as f64 / 600.0;
        let r = drift.generate_at(t, &mut rng);
        let out = system.serve(&r);
        assert!((0.0..=1.0).contains(&out.outcome.quality));
        // Fresh pairs enter the cache, as the Example Manager's §8 answer
        // to drift prescribes.
        system.update_cache(&r, &out.outcome, out.model, t * 3600.0);
        let phase = (t * 3.0) as usize;
        phase_quality[phase.min(2)] += out.outcome.quality;
        phase_counts[phase.min(2)] += 1;
    }
    for (q, c) in phase_quality.iter().zip(&phase_counts) {
        let mean = q / *c as f64;
        assert!(
            mean > 0.45,
            "quality collapsed during drift: phase mean {mean}"
        );
    }
    assert!(
        system.cached_examples() > 3_000,
        "cache should absorb fresh-topic pairs"
    );
}

#[test]
fn model_upgrade_is_probed_by_the_router() {
    // §8 "Handling Model Updates": register a new model mid-run; the
    // bandit's exploration must route some traffic to it without any
    // offline retraining.
    let config = IcCacheConfig::gemma_pair();
    let catalog = config.catalog.clone();
    let small = config.offload_models()[0];
    let large = config.primary;
    let mut router = ic_router::RequestRouter::new(
        vec![small, large],
        &catalog,
        64,
        ic_router::RouterConfig::default(),
    );
    let mut wg = WorkloadGenerator::sized(Dataset::Alpaca, 2004, 500);
    let mut rng = rng_from_seed(2005);
    for r in wg.generate_requests(200) {
        let d = router.route(&r, &[], &mut rng);
        router.record_reward(d.chosen, &r, &[], 0.6);
    }
    // Upgrade: a new mid-size model joins the fleet.
    let newcomer = catalog.by_name("gemini-1.5-flash").expect("exists");
    router.add_model(newcomer, &catalog);
    let mut newcomer_picks = 0usize;
    for r in wg.generate_requests(300) {
        let d = router.route(&r, &[], &mut rng);
        if d.chosen == newcomer {
            newcomer_picks += 1;
            router.record_reward(d.chosen, &r, &[], 0.9);
        } else {
            router.record_reward(d.chosen, &r, &[], 0.6);
        }
    }
    assert!(
        newcomer_picks > 30,
        "exploration should probe the upgraded model: {newcomer_picks}/300"
    );
}
