//! Request and example-bank generation.
//!
//! Mirrors the paper's preprocessing (Appendix A.4): the example bank is
//! initialized with responses generated by the chosen *large* model of the
//! experiment's family, and the online request set is drawn from the same
//! topic distribution (in-distribution, with optional drift for the
//! dynamics experiments).

use ic_embed::{Embedder, TextSynthesizer, TopicSpace, TopicSpaceConfig};
use ic_llmsim::{
    Example, ExampleId, GenSetup, Generator, ModelId, ModelSpec, Request, RequestId, signal_noise,
};
use ic_stats::dist::{Beta, LogNormal, Zipf};
use ic_stats::rng::SeedStream;
use rand::rngs::StdRng;

use crate::dataset::{Dataset, DatasetSpec};

/// Deterministic generator for one dataset.
///
/// # Examples
///
/// ```
/// use ic_llmsim::{Generator, ModelSpec, ModelId};
/// use ic_workloads::{Dataset, WorkloadGenerator};
///
/// let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 42);
/// let requests = wg.generate_requests(100);
/// assert_eq!(requests.len(), 100);
/// let examples = wg.generate_examples(
///     200,
///     &ModelSpec::gemma_2_27b(),
///     ModelId(0),
///     &Generator::new(),
/// );
/// assert_eq!(examples.len(), 200);
/// ```
#[derive(Debug)]
pub struct WorkloadGenerator {
    spec: DatasetSpec,
    space: TopicSpace,
    embedder: Embedder,
    synth: TextSynthesizer,
    zipf: Zipf,
    difficulty: Beta,
    input_len: LogNormal,
    output_len: LogNormal,
    rng_requests: StdRng,
    rng_examples: StdRng,
    next_request_id: u64,
    next_example_id: u64,
}

impl WorkloadGenerator {
    /// Creates a generator for `dataset`, sizing the topic space for the
    /// dataset's full Table 1 example count (so scaled-down draws keep the
    /// full similarity structure).
    pub fn new(dataset: Dataset, seed: u64) -> Self {
        let spec = dataset.spec();
        Self::with_spec(spec, seed)
    }

    /// Creates a generator whose topic space is sized for a pool of
    /// `pool_size` examples instead of the full Table 1 count. Downscaled
    /// experiments use this so the *examples-per-topic density* — the
    /// statistic similarity prevalence depends on — matches the paper's
    /// at any scale.
    pub fn sized(dataset: Dataset, seed: u64, pool_size: usize) -> Self {
        let mut spec = dataset.spec();
        let full = spec.example_size;
        spec.example_size = pool_size.min(full).max(1);
        // Request count scales with the same fraction.
        spec.request_size =
            ((spec.request_size as f64 * spec.example_size as f64 / full as f64) as usize).max(1);
        Self::with_spec(spec, seed)
    }

    /// Creates a generator from an explicit spec (tests use small specs).
    pub fn with_spec(spec: DatasetSpec, seed: u64) -> Self {
        let mut seeds = SeedStream::new(seed).fork(spec.name);
        let num_topics = spec.topics_for(spec.example_size.min(200_000));
        let space = TopicSpace::generate(
            seeds.next_seed(),
            TopicSpaceConfig {
                num_topics,
                ..TopicSpaceConfig::default()
            },
        );
        // Beta parameterized by mean and concentration.
        let m = spec.difficulty_mean.clamp(0.05, 0.95);
        let c = spec.difficulty_concentration.max(2.0);
        let difficulty = Beta::new(m * c, (1.0 - m) * c).expect("valid beta params");
        let zipf = Zipf::new(num_topics, spec.topic_zipf).expect("valid zipf params");
        let input_len = LogNormal::from_median(spec.input_tokens_median, spec.input_tokens_sigma)
            .expect("valid lognormal");
        let output_len =
            LogNormal::from_median(spec.output_tokens_median, spec.output_tokens_sigma)
                .expect("valid lognormal");
        Self {
            embedder: Embedder::standard(),
            synth: TextSynthesizer::new(spec.sensitive_rate),
            space,
            zipf,
            difficulty,
            input_len,
            output_len,
            rng_requests: seeds.next_rng(),
            rng_examples: seeds.next_rng(),
            next_request_id: 0,
            next_example_id: 0,
            spec,
        }
    }

    /// The dataset spec in use.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The topic space (shared with evaluation code that needs ground
    /// truth).
    pub fn space(&self) -> &TopicSpace {
        &self.space
    }

    fn sample_request_inner(&mut self, topic: usize) -> Request {
        let rng = &mut self.rng_requests;
        let latent = self.space.sample_member(topic, rng);
        let embedding = self.embedder.embed(&latent, rng);
        let difficulty = self.difficulty.sample(rng).clamp(0.02, 0.98);
        let complexity_signal = (difficulty
            + ic_stats::dist::Normal::new(0.0, 0.15)
                .expect("valid")
                .sample(rng))
        .clamp(0.0, 1.0);
        let input_tokens = (self.input_len.sample(rng).round() as u32).clamp(4, 4_000);
        let output_tokens = (self.output_len.sample(rng).round() as u32).clamp(8, 4_000);
        let text = self.synth.synthesize(topic, input_tokens, rng);
        let id = RequestId(self.next_request_id);
        self.next_request_id += 1;
        Request {
            id,
            topic,
            latent,
            embedding,
            difficulty,
            complexity_signal,
            skills: self.spec.task.default_skill_mix(),
            task: self.spec.task,
            input_tokens,
            target_output_tokens: output_tokens,
            text,
        }
    }

    /// Draws `n` online requests following the topic popularity law.
    pub fn generate_requests(&mut self, n: usize) -> Vec<Request> {
        (0..n)
            .map(|_| {
                let topic = self.zipf.sample(&mut self.rng_requests);
                self.sample_request_inner(topic)
            })
            .collect()
    }

    /// Draws one request pinned to a specific topic (tests, drift studies).
    pub fn generate_request_for_topic(&mut self, topic: usize) -> Request {
        self.sample_request_inner(topic % self.space.num_topics())
    }

    /// Builds the example bank: `n` historical requests answered by the
    /// given large model (Appendix A.4's example-pool initialization).
    pub fn generate_examples(
        &mut self,
        n: usize,
        source_spec: &ModelSpec,
        source_id: ModelId,
        generator: &Generator,
    ) -> Vec<Example> {
        (0..n)
            .map(|_| {
                let topic = self.zipf.sample(&mut self.rng_examples);
                // Historical request: same distribution as online traffic.
                let latent = self.space.sample_member(topic, &mut self.rng_examples);
                let embedding = self.embedder.embed(&latent, &mut self.rng_examples);
                let difficulty = self
                    .difficulty
                    .sample(&mut self.rng_examples)
                    .clamp(0.02, 0.98);
                let req_tokens =
                    (self.input_len.sample(&mut self.rng_examples).round() as u32).clamp(4, 4_000);
                let out_tokens =
                    (self.output_len.sample(&mut self.rng_examples).round() as u32).clamp(8, 4_000);
                let req_text = self
                    .synth
                    .synthesize(topic, req_tokens, &mut self.rng_examples);
                let hist_request = Request {
                    id: RequestId(u64::MAX), // Historical; never served online.
                    topic,
                    latent,
                    embedding,
                    difficulty,
                    complexity_signal: difficulty,
                    skills: self.spec.task.default_skill_mix(),
                    task: self.spec.task,
                    input_tokens: req_tokens,
                    target_output_tokens: out_tokens,
                    text: req_text,
                };
                let outcome = generator.generate(
                    source_spec,
                    &hist_request,
                    &GenSetup::bare(),
                    &mut self.rng_examples,
                );
                let resp_text =
                    self.synth
                        .synthesize(topic, outcome.output_tokens, &mut self.rng_examples);
                let id = ExampleId(self.next_example_id);
                self.next_example_id += 1;
                Example {
                    id,
                    topic,
                    latent: hist_request.latent,
                    embedding: hist_request.embedding,
                    skills: hist_request.skills,
                    task: hist_request.task,
                    origin_difficulty: difficulty,
                    request_text: hist_request.text,
                    response_text: resp_text,
                    request_tokens: req_tokens,
                    response_tokens: outcome.output_tokens,
                    quality: outcome.quality,
                    source_model: source_id,
                    replay_count: 0,
                    signal_noise: signal_noise(id),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_stats::Cdf;

    fn small_gen(dataset: Dataset) -> WorkloadGenerator {
        WorkloadGenerator::new(dataset, 1234)
    }

    #[test]
    fn request_generation_is_deterministic() {
        let mut a = small_gen(Dataset::MsMarco);
        let mut b = small_gen(Dataset::MsMarco);
        let ra = a.generate_requests(20);
        let rb = b.generate_requests(20);
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.topic, y.topic);
            assert_eq!(x.text, y.text);
            assert_eq!(x.input_tokens, y.input_tokens);
        }
    }

    #[test]
    fn request_ids_are_unique_and_sequential() {
        let mut g = small_gen(Dataset::Alpaca);
        let rs = g.generate_requests(50);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.id, RequestId(i as u64));
        }
    }

    #[test]
    fn fig3a_similarity_prevalence() {
        // ≥70% of requests must have a neighbour with observed cosine
        // > 0.8 (the paper's strong-overlap threshold, §2.3).
        let mut g = small_gen(Dataset::LmsysChat);
        let rs = g.generate_requests(1500);
        let mut top1 = Vec::new();
        for (i, r) in rs.iter().enumerate() {
            let best = rs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, o)| r.embedding.cosine(&o.embedding))
                .fold(f64::NEG_INFINITY, f64::max);
            top1.push(best);
        }
        let cdf = Cdf::from_samples(top1);
        let above = cdf.fraction_above(0.8);
        assert!(
            above > 0.70,
            "only {:.1}% of requests have a >0.8 neighbour",
            above * 100.0
        );
    }

    #[test]
    fn random_pairs_sit_near_half_similarity() {
        let mut g = small_gen(Dataset::MsMarco);
        let rs = g.generate_requests(400);
        let mut sum = 0.0;
        let mut n = 0.0;
        for i in (0..rs.len()).step_by(7) {
            let j = (i + 193) % rs.len();
            if rs[i].topic != rs[j].topic {
                sum += rs[i].embedding.cosine(&rs[j].embedding);
                n += 1.0;
            }
        }
        let mean = sum / n;
        assert!((mean - 0.5).abs() < 0.12, "random-pair mean {mean}");
    }

    #[test]
    fn difficulty_tracks_dataset_spec() {
        let mut math = small_gen(Dataset::Math500);
        let mut wmt = small_gen(Dataset::Wmt16);
        let dm: f64 = math
            .generate_requests(400)
            .iter()
            .map(|r| r.difficulty)
            .sum::<f64>()
            / 400.0;
        let dw: f64 = wmt
            .generate_requests(400)
            .iter()
            .map(|r| r.difficulty)
            .sum::<f64>()
            / 400.0;
        assert!(dm > dw + 0.1, "math {dm} vs wmt {dw}");
        assert!((dm - 0.78).abs() < 0.06);
    }

    #[test]
    fn examples_carry_large_model_quality() {
        let mut g = small_gen(Dataset::NaturalQuestions);
        let generator = Generator::new();
        let large = ModelSpec::gemma_2_27b();
        let small = ModelSpec::gemma_2_2b();
        let ex_large = g.generate_examples(300, &large, ModelId(0), &generator);
        let ex_small = g.generate_examples(300, &small, ModelId(1), &generator);
        let q_large: f64 = ex_large.iter().map(|e| e.quality).sum::<f64>() / 300.0;
        let q_small: f64 = ex_small.iter().map(|e| e.quality).sum::<f64>() / 300.0;
        assert!(
            q_large > q_small + 0.1,
            "large-model examples should be better: {q_large} vs {q_small}"
        );
        assert!(ex_large.iter().all(|e| e.source_model == ModelId(0)));
    }

    #[test]
    fn example_ids_are_unique_across_batches() {
        let mut g = small_gen(Dataset::Nl2Bash);
        let generator = Generator::new();
        let spec = ModelSpec::qwen_25_32b();
        let a = g.generate_examples(10, &spec, ModelId(0), &generator);
        let b = g.generate_examples(10, &spec, ModelId(0), &generator);
        let mut ids: Vec<u64> = a.iter().chain(&b).map(|e| e.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
    }

    #[test]
    fn sensitive_rate_flows_through() {
        let mut g = small_gen(Dataset::LmsysChat); // 4% sensitive.
        let rs = g.generate_requests(2000);
        let rate = rs.iter().filter(|r| r.text.contains_sensitive()).count() as f64 / 2000.0;
        assert!((rate - 0.04).abs() < 0.02, "rate {rate}");
        let mut clean = small_gen(Dataset::Wmt16); // 0%.
        assert!(
            clean
                .generate_requests(300)
                .iter()
                .all(|r| !r.text.contains_sensitive())
        );
    }

    #[test]
    fn topic_popularity_is_long_tailed() {
        // Fig. 10 precondition: example access frequency inherits a
        // long-tail from topic popularity.
        let mut g = small_gen(Dataset::MsMarco);
        let rs = g.generate_requests(3000);
        let mut counts = std::collections::HashMap::new();
        for r in &rs {
            *counts.entry(r.topic).or_insert(0usize) += 1;
        }
        let mut sorted: Vec<usize> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = sorted.iter().take(sorted.len() / 10).sum();
        let total: usize = sorted.iter().sum();
        assert!(
            head as f64 / total as f64 > 0.35,
            "top-10% topics should dominate: {head}/{total}"
        );
    }
}
