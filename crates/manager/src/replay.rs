//! Cost-aware example replay (§4.3).
//!
//! Generation is stochastic, so re-querying the same request and keeping
//! the best response refines an example ("this variance can be harnessed
//! through example replay"). Replaying everything is wasteful: the
//! planner ranks examples by their accumulated potential gain `G(e)` and
//! stops at the point where the expected saving no longer covers the
//! generation cost. Examples that have already been replayed five times
//! are skipped (§5's outlier filter).

use ic_embed::Embedding;
use ic_llmsim::{Example, GenSetup, Generator, ModelSpec, Request, RequestId};
use rand::Rng;

use crate::cache::ExampleCache;
use ic_llmsim::ExampleId;

/// Best-of-n rounds per replayed example.
pub const REPLAY_ROUNDS: u32 = 4;

/// Maximum lifetime replay iterations per example (§5 uses 5).
pub const MAX_REPLAYS: u32 = 5;

/// One-time replay cost in `G(e)` units: the cut-off — examples whose
/// potential gain falls below this are not replayed.
pub const REPLAY_COST: f64 = 0.15;

/// Maximum examples replayed per planning round (off-peak budget).
pub const REPLAY_BATCH_LIMIT: usize = 64;

/// Ranks cache entries by replay potential and applies the cut-off.
///
/// Returns ids in descending `G(e)` order.
pub fn plan_replay(cache: &ExampleCache) -> Vec<ExampleId> {
    let mut ranked: Vec<(ExampleId, f64)> = cache
        .iter()
        .filter(|(_, e)| e.example.replay_count < MAX_REPLAYS)
        .map(|(&id, e)| (id, e.replay_gain.value()))
        .filter(|&(_, g)| g >= REPLAY_COST)
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite gains")
            .then(a.0.cmp(&b.0))
    });
    ranked.truncate(REPLAY_BATCH_LIMIT);
    ranked.into_iter().map(|(id, _)| id).collect()
}

/// Reconstructs the historical request an example was answering. Its
/// embedding stays empty: a cached example carries none (the selector's
/// index keeps the vector), and generation does not read it.
fn reconstruct_request(example: &Example) -> Request {
    Request {
        id: RequestId(u64::MAX),
        topic: example.topic,
        latent: example.latent.clone(),
        embedding: Embedding::default(),
        difficulty: example.origin_difficulty,
        complexity_signal: example.origin_difficulty,
        skills: example.skills,
        task: example.task,
        input_tokens: example.request_tokens,
        target_output_tokens: example.response_tokens.max(8),
        text: example.request_text.clone(),
    }
}

/// Replays one example best-of-n on its source model, keeping the best
/// response. Returns the quality improvement (0.0 if no round beat the
/// stored response).
pub fn replay_example(
    example: &mut Example,
    source_spec: &ModelSpec,
    generator: &Generator,
    rounds: u32,
    rng: &mut impl Rng,
) -> f64 {
    let request = reconstruct_request(example);
    let mut best = example.quality;
    let mut best_tokens = example.response_tokens;
    for _ in 0..rounds.max(1) {
        let out = generator.generate(source_spec, &request, &GenSetup::bare(), rng);
        if out.quality > best {
            best = out.quality;
            best_tokens = out.output_tokens;
        }
    }
    let improvement = best - example.quality;
    example.quality = best;
    example.response_tokens = best_tokens;
    example.replay_count += 1;
    improvement
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::{ModelId, ModelSpec};
    use ic_stats::rng::rng_from_seed;
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn cache_with(n: usize) -> (ExampleCache, Vec<ExampleId>) {
        let mut wg = WorkloadGenerator::new(Dataset::OpenOrca, 51);
        let exs = wg.generate_examples(n, &ModelSpec::gemma_2_27b(), ModelId(0), &Generator::new());
        let ids: Vec<ExampleId> = exs.iter().map(|e| e.id).collect();
        let mut cache = ExampleCache::new();
        for e in exs {
            cache.insert(e, 0.0);
        }
        (cache, ids)
    }

    #[test]
    fn replay_never_degrades_quality() {
        let (mut cache, ids) = cache_with(20);
        let generator = Generator::new();
        let spec = ModelSpec::gemma_2_27b();
        let mut rng = rng_from_seed(52);
        for id in &ids {
            let entry = cache.entry_mut(*id).unwrap();
            let before = entry.example.quality;
            let gain = replay_example(&mut entry.example, &spec, &generator, 4, &mut rng);
            assert!(gain >= 0.0);
            assert!(entry.example.quality >= before);
            assert_eq!(entry.example.replay_count, 1);
        }
    }

    #[test]
    fn best_of_n_improves_on_average_fig11() {
        let (mut cache, ids) = cache_with(60);
        let generator = Generator::new();
        let spec = ModelSpec::gemma_2_27b();
        let mut rng = rng_from_seed(53);
        let mut total_gain = 0.0;
        for id in &ids {
            let entry = cache.entry_mut(*id).unwrap();
            total_gain += replay_example(&mut entry.example, &spec, &generator, 5, &mut rng);
        }
        let mean_gain = total_gain / ids.len() as f64;
        assert!(
            mean_gain > 0.02,
            "best-of-5 should lift average quality: {mean_gain}"
        );
    }

    #[test]
    fn more_rounds_help_more() {
        let generator = Generator::new();
        let spec = ModelSpec::gemma_2_27b();
        let run = |rounds: u32, seed: u64| -> f64 {
            let (mut cache, ids) = cache_with(50);
            let mut rng = rng_from_seed(seed);
            ids.iter()
                .map(|id| {
                    let e = cache.entry_mut(*id).unwrap();
                    replay_example(&mut e.example, &spec, &generator, rounds, &mut rng)
                })
                .sum::<f64>()
                / ids.len() as f64
        };
        let one = run(1, 54);
        let eight = run(8, 54);
        assert!(eight > one, "more rounds must help: {one} vs {eight}");
    }

    #[test]
    fn planner_ranks_by_gain_and_cuts_off() {
        let (mut cache, ids) = cache_with(10);
        // Give three examples distinct G(e) profiles.
        cache.record_usage_feedback(ids[0], 0.1, 1.0); // G = 0.9: replay.
        cache.record_usage_feedback(ids[1], 0.5, 0.8); // G = 0.4: replay.
        cache.record_usage_feedback(ids[2], 0.95, 0.2); // G = 0.01: skip.
        let plan = plan_replay(&cache);
        assert_eq!(plan, vec![ids[0], ids[1]]);
    }

    #[test]
    fn planner_respects_max_replays() {
        let (mut cache, ids) = cache_with(3);
        cache.record_usage_feedback(ids[0], 0.1, 1.0);
        cache.entry_mut(ids[0]).unwrap().example.replay_count = MAX_REPLAYS;
        let plan = plan_replay(&cache);
        assert!(
            !plan.contains(&ids[0]),
            "over-replayed example must be skipped"
        );
    }

    #[test]
    fn planner_respects_batch_limit() {
        let (mut cache, ids) = cache_with(REPLAY_BATCH_LIMIT + 6);
        for id in &ids {
            cache.record_usage_feedback(*id, 0.2, 0.9);
        }
        assert_eq!(plan_replay(&cache).len(), REPLAY_BATCH_LIMIT);
    }

    #[test]
    fn fresh_cache_plans_nothing() {
        let (cache, _) = cache_with(10);
        // No feedback yet: all G(e) are 0 < cut-off.
        assert!(plan_replay(&cache).is_empty());
    }
}
