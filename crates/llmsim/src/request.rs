//! Requests, examples, and their identifiers.

use ic_embed::{Embedding, Plaintext};
use ic_stats::dist::Normal;
use ic_stats::rng::rng_from_seed;

use crate::model::ModelId;
use crate::skill::SkillMix;

/// Unique id of a user request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Unique id of a cached example.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExampleId(pub u64);

/// The task family of a request, mirroring Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Free-form conversation (Alpaca, LMSys-Chat, OpenOrca).
    Conversation,
    /// Question answering (MS MARCO, Natural Questions).
    QuestionAnswering,
    /// Machine translation (WMT-16).
    Translation,
    /// Code generation (NL2Bash).
    CodeGeneration,
    /// Long-context math reasoning (Math500-Level5).
    MathReasoning,
}

impl TaskKind {
    /// All task kinds.
    pub const ALL: [TaskKind; 5] = [
        TaskKind::Conversation,
        TaskKind::QuestionAnswering,
        TaskKind::Translation,
        TaskKind::CodeGeneration,
        TaskKind::MathReasoning,
    ];

    /// The typical skill mix of the task, used by the workload generators.
    pub fn default_skill_mix(self) -> SkillMix {
        match self {
            // [Knowledge, Reasoning, Generation, Format]
            TaskKind::Conversation => SkillMix::new([0.25, 0.20, 0.40, 0.15]),
            TaskKind::QuestionAnswering => SkillMix::new([0.55, 0.15, 0.20, 0.10]),
            TaskKind::Translation => SkillMix::new([0.15, 0.10, 0.45, 0.30]),
            TaskKind::CodeGeneration => SkillMix::new([0.20, 0.35, 0.15, 0.30]),
            TaskKind::MathReasoning => SkillMix::new([0.10, 0.60, 0.10, 0.20]),
        }
    }
}

/// One user request.
///
/// `latent` is the ground-truth semantic vector the request was generated
/// from; `embedding` is the noisy observable view produced by the embedding
/// model. IC-Cache components must only use `embedding` (and the other
/// observable fields); `latent` exists for ground-truth evaluation.
#[derive(Debug, Clone)]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Ground-truth topic index within the workload's topic space.
    pub topic: usize,
    /// Ground-truth latent semantic vector (evaluation only).
    pub latent: Embedding,
    /// Observable embedding (what the system retrieves/routes on).
    pub embedding: Embedding,
    /// Intrinsic difficulty in `[0, 1]` (latent; evaluation only).
    pub difficulty: f64,
    /// Observable complexity estimate: what a text classifier can read off
    /// the prompt (difficulty seen through noise). Routers may use this;
    /// they must not read `difficulty`.
    pub complexity_signal: f64,
    /// Skill requirements.
    pub skills: SkillMix,
    /// Task family.
    pub task: TaskKind,
    /// Prompt length in tokens (before any prepended examples).
    pub input_tokens: u32,
    /// Target response length in tokens.
    pub target_output_tokens: u32,
    /// Plaintext of the prompt.
    pub text: Plaintext,
}

/// A cached request–response pair usable as an in-context example.
#[derive(Debug, Clone)]
pub struct Example {
    /// Unique id.
    pub id: ExampleId,
    /// Ground-truth topic of the original request.
    pub topic: usize,
    /// Ground-truth latent vector of the original request.
    pub latent: Embedding,
    /// Observable embedding (index key).
    pub embedding: Embedding,
    /// Skill mix of the original request.
    pub skills: SkillMix,
    /// Task family of the original request.
    pub task: TaskKind,
    /// Difficulty of the original request (kept so the Example Manager can
    /// re-generate the response during cost-aware replay, §4.3).
    pub origin_difficulty: f64,
    /// Plaintext of the original request.
    pub request_text: Plaintext,
    /// Plaintext of the stored response.
    pub response_text: Plaintext,
    /// Token length of the original request.
    pub request_tokens: u32,
    /// Token length of the stored response.
    pub response_tokens: u32,
    /// Latent quality of the stored response in `[0, 1]` (evaluation and
    /// generation simulation only — the serving system observes it solely
    /// through feedback).
    pub quality: f64,
    /// Which model produced the stored response.
    pub source_model: ModelId,
    /// How many times the Example Manager has replayed this example.
    pub replay_count: u32,
    /// [`signal_noise`] of `id`, drawn once when the example is built:
    /// the selector's textual quality signal reads it per candidate per
    /// request, and the draw costs an RNG seeding. Whoever sets `id`
    /// sets this with it.
    pub signal_noise: f64,
}

/// The noise through which a small text encoder sees the quality of
/// example `id`'s stored response (std 0.08: fluency and structure are
/// readable, correctness is not). A pure function of the id, so every
/// read of the same "text" agrees.
pub fn signal_noise(id: ExampleId) -> f64 {
    let mut rng = rng_from_seed(id.0 ^ 0x51_6E_A1);
    Normal::new(0.0, 0.08).expect("valid").sample(&mut rng)
}

impl Example {
    /// Total prompt footprint of prepending this example, in tokens.
    pub fn prompt_tokens(&self) -> u32 {
        self.request_tokens + self.response_tokens
    }

    /// Plaintext size in bytes — the eviction knapsack weight (§4.3).
    /// The bytes of the rendered request and response, which
    /// [`Plaintext::len`] knows without rendering either.
    pub fn byte_len(&self) -> usize {
        self.request_text.len() + self.response_text.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skill_mixes_reflect_task_character() {
        use crate::skill::Skill;
        let qa = TaskKind::QuestionAnswering.default_skill_mix();
        let math = TaskKind::MathReasoning.default_skill_mix();
        assert!(qa.weight(Skill::Knowledge) > math.weight(Skill::Knowledge));
        assert!(math.weight(Skill::Reasoning) > qa.weight(Skill::Reasoning));
    }

    #[test]
    fn example_token_and_byte_accounting() {
        let e = Example {
            id: ExampleId(1),
            topic: 0,
            latent: Embedding::zeros(2),
            embedding: Embedding::zeros(2),
            skills: SkillMix::uniform(),
            task: TaskKind::Conversation,
            origin_difficulty: 0.5,
            request_text: "ab cd".into(),
            response_text: "efg".into(),
            request_tokens: 2,
            response_tokens: 1,
            quality: 0.8,
            source_model: ModelId(0),
            replay_count: 0,
            signal_noise: signal_noise(ExampleId(1)),
        };
        assert_eq!(e.prompt_tokens(), 3);
        assert_eq!(e.byte_len(), 8);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(RequestId(1) < RequestId(2));
        assert!(ExampleId(5) > ExampleId(3));
    }
}
