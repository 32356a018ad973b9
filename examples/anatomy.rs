//! Anatomy of one IC-Cache request (Appendix A.3, Fig. 26).
//!
//! Traces a single request through the full pipeline — retrieval, routing,
//! prompt assembly, generation — and prints each step, mirroring the
//! paper's qualitative example where retrieved Viking-exploration examples
//! let Gemma-2-2B answer a question it fumbles bare.
//!
//! Run with: `cargo run --release --example anatomy`

use ic_cache::{IcCacheConfig, IcCacheSystem, render_prompt};
use ic_llmsim::{ExampleStore, GenSetup, Generator};
use ic_stats::rng::rng_from_seed;
use ic_workloads::{Dataset, WorkloadGenerator};

fn main() {
    let config = IcCacheConfig::gemma_pair();
    let small_spec = config.catalog.get(config.offload_models()[0]).clone();
    let large = config.primary;
    let large_spec = config.catalog.get(large).clone();
    let sim = Generator::new();

    let mut workload = WorkloadGenerator::sized(Dataset::NaturalQuestions, 26, 3_000);
    let examples = workload.generate_examples(3_000, &large_spec, large, &sim);
    let mut system = IcCacheSystem::new(config);
    system.seed_examples(examples, 0.0);
    // Let the proxy and router settle.
    for r in workload.generate_requests(400) {
        let _ = system.serve(&r);
    }

    // One fresh user query.
    let request = workload.generate_requests(1).pop().expect("one request");
    println!(
        "=== USER QUERY (topic {}, difficulty {:.2}) ===",
        request.topic, request.difficulty
    );
    println!("{}\n", request.text);

    // Bare small-model answer.
    let mut rng = rng_from_seed(27);
    let bare = sim.generate(&small_spec, &request, &GenSetup::bare(), &mut rng);
    println!(
        "=== {} BARE === latent quality {:.3}",
        small_spec.name, bare.quality
    );

    // Large-model answer.
    let big = sim.generate(&large_spec, &request, &GenSetup::bare(), &mut rng);
    println!(
        "=== {} === latent quality {:.3}\n",
        large_spec.name, big.quality
    );

    // The full IC-Cache path.
    let selection = system.with_selection(&request);
    println!(
        "=== RETRIEVAL === stage-1 candidates: {}, selected: {} (threshold {:.2})",
        selection.stage1_count,
        selection.ids.len(),
        selection.threshold_used
    );
    for (id, util) in selection.ids.iter().zip(&selection.predicted_utility) {
        let e = system.manager().cache().get_example(*id).expect("selected");
        println!(
            "  example {:>10}  topic {:>5}  predicted utility {:.3}  \"{}...\"",
            id.0,
            e.topic,
            util,
            &e.request_text.to_string()[..e.request_text.len().min(40)]
        );
    }
    let outcome = system.serve(&request);
    println!(
        "\n=== ROUTING === chose {} ({})",
        if outcome.offloaded {
            &small_spec.name
        } else {
            &large_spec.name
        },
        if outcome.offloaded {
            "offloaded"
        } else {
            "primary"
        },
    );
    println!(
        "=== GENERATION === latent quality {:.3} (bare small: {:.3}, large: {:.3})",
        outcome.outcome.quality, bare.quality, big.quality
    );
    println!(
        "prompt tokens {} / output tokens {} / zero-load latency {:.2}s",
        outcome.outcome.input_tokens,
        outcome.outcome.output_tokens,
        outcome.outcome.latency.total()
    );

    // Show the actual prompt the offload path would send (Fig. 24).
    let refs = outcome.selection.resolve(system.manager().cache());
    let prompt = render_prompt(&request, &refs);
    let preview: String = prompt.chars().take(600).collect();
    println!("\n=== PROMPT (first 600 chars) ===\n{preview}…");
}
