//! The generation simulator: one call = one LLM inference.

use ic_embed::cosine_from_dot;
use ic_stats::dist::Normal;
use ic_stats::{clamp01, sigmoid};
use rand::Rng;

use crate::icl::{IclParams, RagDoc, aggregate_boost, effectiveness_at, rag_utility};
use crate::latency::{LatencyBreakdown, zero_load_latency};
use crate::model::ModelSpec;
use crate::request::{Example, Request};
use crate::skill::Skill;

/// Prompt-template overhead without examples (Fig. 23: system prompt plus
/// instruction framing), in tokens.
pub const TEMPLATE_BASE_TOKENS: u32 = 60;

/// Additional template overhead when examples are prepended (Fig. 24: the
/// relevance/quality/helpfulness guidance and the repeated instruction).
pub const TEMPLATE_IC_EXTRA_TOKENS: u32 = 120;

/// Everything that augments a bare request for one generation call.
#[derive(Debug, Clone, Default)]
pub struct GenSetup<'a> {
    /// In-context examples, in prompt order.
    pub examples: Vec<&'a Example>,
    /// Retrieved documents (RAG baseline / hybrid).
    pub rag_docs: Vec<RagDoc>,
    /// Additive shift on base quality, used by the SFT baseline to model
    /// fine-tuned weights (in-domain boost / out-of-domain regression).
    pub base_quality_shift: f64,
}

impl<'a> GenSetup<'a> {
    /// A bare request: no augmentation.
    pub fn bare() -> Self {
        Self::default()
    }

    /// Augmentation with in-context examples only.
    pub fn with_examples(examples: Vec<&'a Example>) -> Self {
        Self {
            examples,
            ..Self::default()
        }
    }

    /// Augmentation with RAG documents only.
    pub fn with_rag(rag_docs: Vec<RagDoc>) -> Self {
        Self {
            rag_docs,
            ..Self::default()
        }
    }
}

/// The latent outcome of one simulated generation.
#[derive(Debug, Clone)]
pub struct GenOutcome {
    /// Final latent response quality in `[0, 1]`. Serving components must
    /// observe this only through judge scores or user feedback.
    pub quality: f64,
    /// Quality before augmentation and noise.
    pub base_quality: f64,
    /// Headroom fraction closed by in-context examples.
    pub icl_boost: f64,
    /// Headroom fraction (knowledge-weighted) closed by RAG documents.
    pub rag_boost: f64,
    /// Quality lost to irrelevant prepended examples.
    pub distraction: f64,
    /// Total prompt length fed to the model, in tokens.
    pub input_tokens: u32,
    /// Tokens decoded.
    pub output_tokens: u32,
    /// Number of trailing examples dropped to fit the context window.
    pub examples_dropped: u32,
    /// Prompt tokens occupied by the injected example set: the IC
    /// template plus every kept example. Zero when no examples were
    /// kept. This is the shareable prefix length for KV reuse — the
    /// region of the prompt that is byte-identical across requests
    /// handed the same examples in the same order.
    pub example_tokens: u32,
    /// Zero-load latency of this generation.
    pub latency: LatencyBreakdown,
}

/// The generation simulator. One instance is shared across models; all
/// model-specific behaviour flows through [`ModelSpec`].
#[derive(Debug, Clone)]
pub struct Generator {
    /// Latent ICL mechanics.
    pub icl: IclParams,
    /// Standard deviation of per-generation quality noise (the variance
    /// that best-of-n replay harvests, §4.3).
    pub quality_noise: f64,
    /// Temperature of the capability-vs-difficulty sigmoid.
    pub difficulty_scale: f64,
    /// Standard deviation of the multiplicative output-length noise.
    pub length_noise: f64,
}

impl Default for Generator {
    fn default() -> Self {
        Self {
            icl: IclParams::default(),
            quality_noise: 0.08,
            difficulty_scale: 0.13,
            length_noise: 0.15,
        }
    }
}

impl Generator {
    /// Creates the default-calibrated generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latent base quality of `spec` on `request`: a logistic curve over
    /// (effective capability − difficulty).
    pub fn base_quality(&self, spec: &ModelSpec, request: &Request) -> f64 {
        let cap = request.skills.weighted_score(&spec.capability);
        sigmoid((cap - request.difficulty) / self.difficulty_scale)
    }

    /// Simulates one generation.
    ///
    /// Deterministic given (`spec`, `request`, `setup`, RNG state); all
    /// stochasticity flows through `rng`.
    pub fn generate(
        &self,
        spec: &ModelSpec,
        request: &Request,
        setup: &GenSetup<'_>,
        rng: &mut impl Rng,
    ) -> GenOutcome {
        let base = clamp01(self.base_quality(spec, request) + setup.base_quality_shift);

        // Fit the prompt into the context window, dropping trailing
        // examples first (they are ordered most-useful-first upstream).
        let rag_tokens: u32 = setup.rag_docs.iter().map(|d| d.tokens).sum();
        let template = if setup.examples.is_empty() {
            TEMPLATE_BASE_TOKENS
        } else {
            TEMPLATE_BASE_TOKENS + TEMPLATE_IC_EXTRA_TOKENS
        };
        let fixed = request.input_tokens + rag_tokens + template;
        let budget = spec.context_window.saturating_sub(fixed);
        let mut used = 0u32;
        let mut kept_len = 0;
        for e in &setup.examples {
            if used + e.prompt_tokens() <= budget {
                used += e.prompt_tokens();
                kept_len += 1;
            } else {
                break;
            }
        }
        let kept: &[&Example] = &setup.examples[..kept_len];
        let examples_dropped = (setup.examples.len() - kept.len()) as u32;

        // Latent augmentation mechanics: one latent cosine per kept
        // example (the request's norm reduced once) decides both its
        // effectiveness and whether it distracts — the values of
        // `icl::example_effectiveness` and `icl::distraction_count`.
        let request_norm = request.latent.norm();
        let mut distractions = 0usize;
        let effectiveness: Vec<f64> = kept
            .iter()
            .map(|e| {
                let rel =
                    cosine_from_dot(e.latent.dot(&request.latent), e.latent.norm(), request_norm);
                distractions += usize::from(rel < self.icl.relevance_floor);
                effectiveness_at(rel, e, request, &self.icl)
            })
            .collect();
        let icl_boost = aggregate_boost(&effectiveness, &self.icl);
        let distraction = distractions as f64 * self.icl.distraction_penalty;
        let knowledge_share = request.skills.weight(Skill::Knowledge);
        let rag_boost = rag_utility(&setup.rag_docs, &self.icl) * knowledge_share;

        let headroom = 1.0 - base;
        // ICL and RAG close overlapping headroom: apply sequentially so
        // their combination also has diminishing returns (Table 2's
        // IC+RAG > IC > RAG ordering emerges from the shares).
        let after_icl = base + headroom * icl_boost;
        let after_rag = after_icl + (1.0 - after_icl) * rag_boost;
        let noise = Normal::new(0.0, self.quality_noise)
            .expect("valid params")
            .sample(rng);
        let quality = clamp01(after_rag - distraction + noise);

        // Output length: examples guide slightly shorter decodes (§6.3).
        let shortening = if kept.is_empty() {
            1.0
        } else {
            self.icl.decode_shortening
        };
        let length_mult = Normal::new(1.0, self.length_noise)
            .expect("valid params")
            .sample(rng)
            .clamp(0.3, 2.0);
        let output_tokens = ((f64::from(request.target_output_tokens) * shortening * length_mult)
            .round() as u32)
            .max(1);

        let input_tokens = fixed + used;
        GenOutcome {
            quality,
            base_quality: base,
            icl_boost,
            rag_boost,
            distraction,
            input_tokens,
            output_tokens,
            examples_dropped,
            example_tokens: if kept.is_empty() { 0 } else { template + used },
            latency: zero_load_latency(spec, input_tokens, output_tokens),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Catalog, ModelId, ModelSpec};
    use crate::request::{ExampleId, RequestId, TaskKind};
    use crate::skill::SkillMix;
    use ic_embed::{TopicSpace, TopicSpaceConfig};
    use ic_stats::RunningStats;
    use ic_stats::rng::rng_from_seed;

    fn space() -> TopicSpace {
        TopicSpace::generate(77, TopicSpaceConfig::default())
    }

    fn request(space: &TopicSpace, topic: usize, difficulty: f64, rng: &mut impl Rng) -> Request {
        let latent = space.sample_member(topic, rng);
        Request {
            id: RequestId(0),
            topic,
            embedding: latent.clone(),
            latent,
            difficulty,
            complexity_signal: difficulty,
            skills: TaskKind::QuestionAnswering.default_skill_mix(),
            task: TaskKind::QuestionAnswering,
            input_tokens: 120,
            target_output_tokens: 150,
            text: String::new(),
            sensitive: false,
        }
    }

    fn example(space: &TopicSpace, topic: usize, quality: f64, rng: &mut impl Rng) -> Example {
        let latent = space.sample_member(topic, rng);
        Example {
            id: ExampleId(0),
            topic,
            embedding: latent.clone(),
            latent,
            skills: TaskKind::QuestionAnswering.default_skill_mix(),
            task: TaskKind::QuestionAnswering,
            origin_difficulty: 0.6,
            request_text: "q".into(),
            response_text: "a".into(),
            request_tokens: 40,
            response_tokens: 90,
            quality,
            source_model: ModelId(0),
            replay_count: 0,
            signal_noise: crate::signal_noise(ExampleId(0)),
        }
    }

    fn mean_quality(
        generator: &Generator,
        spec: &ModelSpec,
        req: &Request,
        setup: &GenSetup<'_>,
        n: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = rng_from_seed(seed);
        let mut s = RunningStats::new();
        for _ in 0..n {
            s.push(generator.generate(spec, req, setup, &mut rng).quality);
        }
        s.mean()
    }

    #[test]
    fn larger_model_wins_bare() {
        let sp = space();
        let mut rng = rng_from_seed(1);
        let generator = Generator::new();
        let req = request(&sp, 0, 0.62, &mut rng);
        let small = mean_quality(
            &generator,
            &ModelSpec::gemma_2_2b(),
            &req,
            &GenSetup::bare(),
            200,
            2,
        );
        let large = mean_quality(
            &generator,
            &ModelSpec::gemma_2_27b(),
            &req,
            &GenSetup::bare(),
            200,
            3,
        );
        assert!(large > small + 0.1, "large {large} vs small {small}");
    }

    #[test]
    fn relevant_examples_lift_small_model_fig4a() {
        let sp = space();
        let mut rng = rng_from_seed(4);
        let generator = Generator::new();
        let req = request(&sp, 3, 0.68, &mut rng);
        let exs: Vec<Example> = (0..5).map(|_| example(&sp, 3, 0.9, &mut rng)).collect();
        let refs: Vec<&Example> = exs.iter().collect();
        let spec = ModelSpec::qwen_25_3b();
        let bare = mean_quality(&generator, &spec, &req, &GenSetup::bare(), 300, 5);
        let with_ic = mean_quality(
            &generator,
            &spec,
            &req,
            &GenSetup::with_examples(refs),
            300,
            6,
        );
        assert!(
            with_ic > bare + 0.08,
            "IC must lift quality: {bare} -> {with_ic}"
        );
    }

    #[test]
    fn random_examples_hurt_fig4a() {
        let sp = space();
        let mut rng = rng_from_seed(7);
        let generator = Generator::new();
        let req = request(&sp, 3, 0.68, &mut rng);
        // Examples from unrelated topics = the paper's "random examples".
        let exs: Vec<Example> = (0..5)
            .map(|i| example(&sp, (3 + 31 + i) % 256, 0.9, &mut rng))
            .collect();
        let refs: Vec<&Example> = exs.iter().collect();
        let spec = ModelSpec::qwen_25_3b();
        let bare = mean_quality(&generator, &spec, &req, &GenSetup::bare(), 300, 8);
        let with_random = mean_quality(
            &generator,
            &spec,
            &req,
            &GenSetup::with_examples(refs),
            300,
            9,
        );
        assert!(
            with_random < bare - 0.03,
            "random examples must hurt: {bare} -> {with_random}"
        );
    }

    #[test]
    fn augmented_small_can_beat_large() {
        // §6.2: "small LLMs to match or even outperform larger models"
        // when handed high-utility examples on hard-but-coverable
        // requests.
        let sp = space();
        let mut rng = rng_from_seed(10);
        let generator = Generator::new();
        let req = request(&sp, 5, 0.72, &mut rng);
        let exs: Vec<Example> = (0..5).map(|_| example(&sp, 5, 0.95, &mut rng)).collect();
        let refs: Vec<&Example> = exs.iter().collect();
        let small_aug = mean_quality(
            &generator,
            &ModelSpec::gemma_2_2b(),
            &req,
            &GenSetup::with_examples(refs),
            400,
            11,
        );
        let large_bare = mean_quality(
            &generator,
            &ModelSpec::gemma_2_27b(),
            &req,
            &GenSetup::bare(),
            400,
            12,
        );
        assert!(
            small_aug > large_bare - 0.05,
            "augmented small {small_aug} should approach/beat large {large_bare}"
        );
    }

    #[test]
    fn examples_lengthen_prefill_not_decode_rate() {
        let sp = space();
        let mut rng = rng_from_seed(13);
        let generator = Generator::new();
        let req = request(&sp, 2, 0.5, &mut rng);
        let exs: Vec<Example> = (0..5).map(|_| example(&sp, 2, 0.9, &mut rng)).collect();
        let refs: Vec<&Example> = exs.iter().collect();
        let spec = ModelSpec::qwen_25_3b();
        let bare = generator.generate(&spec, &req, &GenSetup::bare(), &mut rng);
        let aug = generator.generate(&spec, &req, &GenSetup::with_examples(refs), &mut rng);
        assert!(aug.input_tokens > bare.input_tokens + 500);
        assert!(aug.latency.ttft > bare.latency.ttft);
        // Decode time per token unchanged; total decode may even shrink.
        let bare_tbt = bare.latency.decode / f64::from(bare.output_tokens);
        let aug_tbt = aug.latency.decode / f64::from(aug.output_tokens);
        assert!((bare_tbt - aug_tbt).abs() < 1e-9);
    }

    #[test]
    fn generation_is_stochastic_for_replay() {
        let sp = space();
        let mut rng = rng_from_seed(14);
        let generator = Generator::new();
        let req = request(&sp, 1, 0.6, &mut rng);
        let spec = ModelSpec::gemma_2_27b();
        let mut qualities = RunningStats::new();
        for _ in 0..100 {
            qualities.push(
                generator
                    .generate(&spec, &req, &GenSetup::bare(), &mut rng)
                    .quality,
            );
        }
        assert!(
            qualities.std_dev() > 0.03,
            "variance too low for best-of-n to matter: {}",
            qualities.std_dev()
        );
    }

    #[test]
    fn rag_boosts_knowledge_heavy_requests_more() {
        let sp = space();
        let mut rng = rng_from_seed(15);
        let generator = Generator::new();
        let mut qa_req = request(&sp, 4, 0.68, &mut rng);
        qa_req.skills = SkillMix::new([0.8, 0.1, 0.05, 0.05]);
        let mut math_req = request(&sp, 4, 0.68, &mut rng);
        math_req.skills = SkillMix::new([0.05, 0.8, 0.05, 0.1]);
        let docs = vec![
            RagDoc {
                relevance: 0.9,
                quality: 0.9,
                tokens: 200,
            };
            5
        ];
        let spec = ModelSpec::gemma_2_2b();
        let qa_bare = mean_quality(&generator, &spec, &qa_req, &GenSetup::bare(), 300, 16);
        let qa_rag = mean_quality(
            &generator,
            &spec,
            &qa_req,
            &GenSetup::with_rag(docs.clone()),
            300,
            17,
        );
        let math_bare = mean_quality(&generator, &spec, &math_req, &GenSetup::bare(), 300, 18);
        let math_rag = mean_quality(
            &generator,
            &spec,
            &math_req,
            &GenSetup::with_rag(docs),
            300,
            19,
        );
        let qa_gain = qa_rag - qa_bare;
        let math_gain = math_rag - math_bare;
        assert!(qa_gain > 0.02, "RAG should help QA: {qa_gain}");
        assert!(
            qa_gain > 2.0 * math_gain.max(0.0),
            "RAG gain should concentrate on knowledge: qa {qa_gain} math {math_gain}"
        );
    }

    #[test]
    fn sft_shift_moves_base_quality() {
        let sp = space();
        let mut rng = rng_from_seed(20);
        let generator = Generator::new();
        let req = request(&sp, 6, 0.65, &mut rng);
        let spec = ModelSpec::gemma_2_2b();
        let plain = mean_quality(&generator, &spec, &req, &GenSetup::bare(), 300, 21);
        let tuned = mean_quality(
            &generator,
            &spec,
            &req,
            &GenSetup {
                base_quality_shift: 0.1,
                ..GenSetup::bare()
            },
            300,
            22,
        );
        assert!(tuned > plain + 0.05);
    }

    #[test]
    fn context_window_drops_trailing_examples() {
        let sp = space();
        let mut rng = rng_from_seed(23);
        let generator = Generator::new();
        let req = request(&sp, 2, 0.5, &mut rng);
        let mut spec = ModelSpec::qwen_25_3b();
        spec.context_window = 600; // Tiny window: fits ~2 examples.
        let exs: Vec<Example> = (0..6).map(|_| example(&sp, 2, 0.9, &mut rng)).collect();
        let refs: Vec<&Example> = exs.iter().collect();
        let out = generator.generate(&spec, &req, &GenSetup::with_examples(refs), &mut rng);
        assert!(
            out.examples_dropped >= 3,
            "dropped {}",
            out.examples_dropped
        );
        assert!(out.input_tokens <= 600);
    }

    #[test]
    fn catalog_models_all_generate() {
        let sp = space();
        let mut rng = rng_from_seed(24);
        let generator = Generator::new();
        let req = request(&sp, 0, 0.55, &mut rng);
        let catalog = Catalog::standard();
        for id in catalog.ids() {
            let out = generator.generate(catalog.get(id), &req, &GenSetup::bare(), &mut rng);
            assert!((0.0..=1.0).contains(&out.quality));
            assert!(out.output_tokens >= 1);
            assert!(out.latency.total() > 0.0);
        }
    }
}
