//! `Generator::generate` shares one latent cosine per kept example
//! between effectiveness and the distraction count, and reduces the
//! request's norm once per call. The public per-example definitions —
//! `icl::example_effectiveness` and `icl::distraction_count`, each with
//! its own `Embedding::cosine` — are the oracle: a copy of the
//! generation arithmetic built on them must give the same `icl_boost`,
//! `distraction` and `quality` bits, the same token counts, and leave
//! the RNG in the same state.
//!
//! Example sets mix same-topic, unrelated-topic (below the relevance
//! floor: distractions) and zero-norm latents, under context windows
//! roomy and tight (trailing examples dropped before any cosine).

use ic_embed::{Embedding, TopicSpace, TopicSpaceConfig};
use ic_llmsim::generate::{
    LENGTH_NOISE, QUALITY_NOISE, TEMPLATE_BASE_TOKENS, TEMPLATE_IC_EXTRA_TOKENS,
};
use ic_llmsim::icl::{
    DECODE_SHORTENING, DISTRACTION_PENALTY, aggregate_boost, distraction_count,
    example_effectiveness,
};
use ic_llmsim::{
    Example, ExampleId, GenSetup, Generator, ModelId, ModelSpec, Request, RequestId, TaskKind,
    signal_noise,
};
use ic_stats::clamp01;
use ic_stats::dist::Normal;
use ic_stats::rng::rng_from_seed;
use rand::{Rng, RngExt};

/// `(icl_boost, distraction, quality, input_tokens, output_tokens,
/// examples_dropped)` from the per-example public functions.
fn oracle(
    generator: &Generator,
    spec: &ModelSpec,
    request: &Request,
    examples: &[&Example],
    rng: &mut impl Rng,
) -> (f64, f64, f64, u32, u32, u32) {
    let base = clamp01(generator.base_quality(spec, request));
    let template = if examples.is_empty() {
        TEMPLATE_BASE_TOKENS
    } else {
        TEMPLATE_BASE_TOKENS + TEMPLATE_IC_EXTRA_TOKENS
    };
    let fixed = request.input_tokens + template;
    let budget = spec.context_window.saturating_sub(fixed);
    let mut kept: Vec<&Example> = Vec::new();
    let mut used = 0u32;
    for e in examples {
        if used + e.prompt_tokens() > budget {
            break;
        }
        used += e.prompt_tokens();
        kept.push(e);
    }
    let effectiveness: Vec<f64> = kept
        .iter()
        .map(|e| example_effectiveness(e, request))
        .collect();
    let icl_boost = aggregate_boost(&effectiveness);
    let distraction = distraction_count(&kept, request) as f64 * DISTRACTION_PENALTY;
    let after_icl = base + (1.0 - base) * icl_boost;
    // No RAG documents: the RAG step multiplies the remaining headroom
    // by 0.0.
    let after_rag = after_icl + (1.0 - after_icl) * 0.0;
    let noise = Normal::new(0.0, QUALITY_NOISE)
        .expect("valid params")
        .sample(rng);
    let quality = clamp01(after_rag - distraction + noise);
    let shortening = if kept.is_empty() {
        1.0
    } else {
        DECODE_SHORTENING
    };
    let length_mult = Normal::new(1.0, LENGTH_NOISE)
        .expect("valid params")
        .sample(rng)
        .clamp(0.3, 2.0);
    let output_tokens = ((f64::from(request.target_output_tokens) * shortening * length_mult)
        .round() as u32)
        .max(1);
    (
        icl_boost,
        distraction,
        quality,
        fixed + used,
        output_tokens,
        (examples.len() - kept.len()) as u32,
    )
}

fn example(id: u64, topic: usize, latent: Embedding, quality: f64, tokens: u32) -> Example {
    let id = ExampleId(id);
    Example {
        id,
        topic,
        embedding: latent.clone(),
        latent,
        skills: TaskKind::QuestionAnswering.default_skill_mix(),
        task: TaskKind::QuestionAnswering,
        origin_difficulty: 0.6,
        request_text: "q".into(),
        response_text: "a".into(),
        request_tokens: tokens / 3,
        response_tokens: tokens - tokens / 3,
        quality,
        source_model: ModelId(0),
        replay_count: 0,
        signal_noise: signal_noise(id),
    }
}

#[test]
fn generate_matches_the_per_example_definitions() {
    let space = TopicSpace::generate(77, TopicSpaceConfig::default());
    let generator = Generator::new();
    let mut draw = rng_from_seed(41);
    let (mut distracted, mut dropped, mut boosted, mut zero_norm) = (0, 0, 0, 0);
    for case in 0..600u64 {
        let topic = draw.random_range(0..200usize);
        let latent = space.sample_member(topic, &mut draw);
        let request = Request {
            id: RequestId(case),
            topic,
            embedding: latent.clone(),
            latent,
            difficulty: draw.random::<f64>(),
            complexity_signal: 0.5,
            skills: TaskKind::QuestionAnswering.default_skill_mix(),
            task: TaskKind::QuestionAnswering,
            input_tokens: draw.random_range(10..400u32),
            target_output_tokens: draw.random_range(8..300u32),
            text: Default::default(),
        };
        let n = draw.random_range(0..9usize);
        let examples: Vec<Example> = (0..n)
            .map(|k| {
                let (t, latent) = match draw.random_range(0..5u32) {
                    // Unrelated topic: below the relevance floor.
                    0 | 1 => {
                        let t = (topic + 31 + k) % 256;
                        (t, space.sample_member(t, &mut draw))
                    }
                    2 => {
                        zero_norm += 1;
                        (topic, Embedding::zeros(request.latent.dim()))
                    }
                    _ => (topic, space.sample_member(topic, &mut draw)),
                };
                let tokens = draw.random_range(30..260u32);
                example(
                    case * 16 + k as u64,
                    t,
                    latent,
                    draw.random::<f64>(),
                    tokens,
                )
            })
            .collect();
        let refs: Vec<&Example> = examples.iter().collect();
        let mut spec = ModelSpec::qwen_25_3b();
        if case % 3 == 0 {
            // Tight window: only a prefix of the examples fits.
            spec.context_window = request.input_tokens + 180 + draw.random_range(0..500u32);
        }

        let seed = draw.random::<u64>();
        let (mut rng_new, mut rng_old) = (rng_from_seed(seed), rng_from_seed(seed));
        let got = generator.generate(
            &spec,
            &request,
            &GenSetup::with_examples(refs.clone()),
            &mut rng_new,
        );
        let want = oracle(&generator, &spec, &request, &refs, &mut rng_old);
        assert_eq!(got.icl_boost.to_bits(), want.0.to_bits(), "case {case}");
        assert_eq!(got.distraction.to_bits(), want.1.to_bits(), "case {case}");
        assert_eq!(got.quality.to_bits(), want.2.to_bits(), "case {case}");
        assert_eq!(
            (got.input_tokens, got.output_tokens, got.examples_dropped),
            (want.3, want.4, want.5),
            "case {case}"
        );
        assert_eq!(
            rng_new.random::<u64>(),
            rng_old.random::<u64>(),
            "case {case}"
        );
        distracted += u32::from(got.distraction > 0.0);
        dropped += u32::from(got.examples_dropped > 0);
        boosted += u32::from(got.icl_boost > 0.0);
    }
    // The generator above reaches every branch it is meant to.
    assert!(distracted > 50 && dropped > 50 && boosted > 50 && zero_norm > 50);
}
