//! Ground-truth in-context-learning and RAG augmentation models.
//!
//! The paper's key observation (§2.3, Fig. 4) is that *well-selected*
//! examples from a stronger model raise a small model's quality, while
//! random examples hurt. This module defines the latent mechanics:
//!
//! - Per-example **effectiveness** in `[0, 1]`: relevance (latent cosine
//!   above a floor) × stored-response quality × skill match.
//! - **Utility** — the paper's "helpfulness" (§4.1) — is effectiveness
//!   scaled by the target model's headroom on the request, which is why
//!   utility is model-dependent and similarity alone is a weak proxy
//!   (Fig. 7).
//! - Examples below the relevance floor **distract**: each one subtracts a
//!   small quality penalty (Fig. 4a's "Random Ex." bar).
//! - Boosts from several examples combine with **diminishing returns**
//!   (§4.1 "including too many yields diminishing quality improvements").
//! - RAG documents boost mostly the *knowledge* component, not the
//!   compositional reasoning captured in exemplar responses (§2.3,
//!   Table 2).

use crate::request::{Example, Request};

/// Parameters of the latent ICL model.
#[derive(Debug, Clone)]
pub struct IclParams {
    /// Latent cosine below which an example is a distraction.
    pub relevance_floor: f64,
    /// Fraction of quality headroom that a perfect example set closes.
    pub boost_efficiency: f64,
    /// Quality penalty per below-floor (irrelevant) example.
    pub distraction_penalty: f64,
    /// Examples beyond this count contribute nothing (context dilution).
    pub max_effective: usize,
    /// Multiplier on decode length when at least one example is present
    /// (§6.3: "shorter average decoding lengths guided by examples").
    pub decode_shortening: f64,
    /// Fraction of knowledge-skill headroom closable by perfect RAG docs.
    pub rag_efficiency: f64,
}

impl Default for IclParams {
    fn default() -> Self {
        Self {
            relevance_floor: 0.62,
            boost_efficiency: 0.72,
            distraction_penalty: 0.025,
            max_effective: 8,
            decode_shortening: 0.92,
            rag_efficiency: 0.65,
        }
    }
}

/// A retrieved external document for the RAG baseline (Table 2).
#[derive(Debug, Clone, Copy)]
pub struct RagDoc {
    /// Latent relevance of the document to the request, in `[0, 1]`.
    pub relevance: f64,
    /// Factual quality of the document, in `[0, 1]`.
    pub quality: f64,
    /// Prompt footprint in tokens.
    pub tokens: u32,
}

/// Model-free effectiveness of one example for one request, in `[0, 1]`.
///
/// Returns 0.0 for below-floor examples — callers count those separately
/// as distractions via [`distraction_count`].
pub fn example_effectiveness(example: &Example, request: &Request, params: &IclParams) -> f64 {
    effectiveness_at(
        example.latent.cosine(&request.latent),
        example,
        request,
        params,
    )
}

/// [`example_effectiveness`] given the example/request latent cosine
/// `rel` — the generator computes that once per kept example and reads
/// both the effectiveness and the distraction verdict off it.
pub(crate) fn effectiveness_at(
    rel: f64,
    example: &Example,
    request: &Request,
    params: &IclParams,
) -> f64 {
    if rel < params.relevance_floor {
        return 0.0;
    }
    let rel_n = (rel - params.relevance_floor) / (1.0 - params.relevance_floor);
    let skill = example.skills.similarity(&request.skills);
    // Skill mismatch halves, never zeroes: even off-task exemplars carry
    // format and style signal.
    rel_n * example.quality.clamp(0.0, 1.0) * (0.5 + 0.5 * skill)
}

/// Ground-truth utility ("helpfulness", §4.1) of an example for a request
/// served by a model with the given base quality: effectiveness scaled by
/// the model's headroom. This is the quantity the selector's proxy model
/// is trained to predict.
pub fn example_utility(
    example: &Example,
    request: &Request,
    base_quality: f64,
    params: &IclParams,
) -> f64 {
    example_effectiveness(example, request, params) * (1.0 - base_quality.clamp(0.0, 1.0))
}

/// Number of below-floor examples in a set (each costs
/// [`IclParams::distraction_penalty`] of quality).
pub fn distraction_count(examples: &[&Example], request: &Request, params: &IclParams) -> usize {
    examples
        .iter()
        .filter(|e| e.latent.cosine(&request.latent) < params.relevance_floor)
        .count()
}

/// Combines per-example effectiveness values with diminishing returns:
/// `1 - prod(1 - u_i)` over the first `max_effective` examples, scaled by
/// `boost_efficiency`. The result is the fraction of headroom closed.
pub fn aggregate_boost(effectiveness: &[f64], params: &IclParams) -> f64 {
    let mut miss = 1.0;
    for &u in effectiveness.iter().take(params.max_effective) {
        miss *= 1.0 - u.clamp(0.0, 1.0);
    }
    params.boost_efficiency * (1.0 - miss)
}

/// Fraction of *knowledge* headroom closed by a set of RAG documents.
///
/// Unlike exemplars, documents supply piecemeal factual lookups: the boost
/// applies only to the request's knowledge-skill share (handled by the
/// generator), and saturates the same way.
pub fn rag_utility(docs: &[RagDoc], params: &IclParams) -> f64 {
    let mut miss = 1.0;
    for d in docs.iter().take(params.max_effective) {
        let u = (d.relevance * d.quality).clamp(0.0, 1.0);
        miss *= 1.0 - u;
    }
    params.rag_efficiency * (1.0 - miss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelId;
    use crate::request::{ExampleId, RequestId, TaskKind};
    use crate::skill::SkillMix;
    use ic_embed::Embedding;

    fn req_with_latent(latent: Embedding) -> Request {
        Request {
            id: RequestId(1),
            topic: 0,
            embedding: latent.clone(),
            latent,
            difficulty: 0.6,
            complexity_signal: 0.6,
            skills: TaskKind::QuestionAnswering.default_skill_mix(),
            task: TaskKind::QuestionAnswering,
            input_tokens: 30,
            target_output_tokens: 100,
            text: String::new(),
            sensitive: false,
        }
    }

    fn ex_with(latent: Embedding, quality: f64, skills: SkillMix) -> Example {
        Example {
            id: ExampleId(1),
            topic: 0,
            embedding: latent.clone(),
            latent,
            skills,
            task: TaskKind::QuestionAnswering,
            origin_difficulty: 0.6,
            request_text: String::new(),
            response_text: String::new(),
            request_tokens: 30,
            response_tokens: 100,
            quality,
            source_model: ModelId(0),
            replay_count: 0,
            signal_noise: crate::signal_noise(ExampleId(1)),
        }
    }

    fn unit(v: Vec<f32>) -> Embedding {
        Embedding::from_vec(v).normalized()
    }

    #[test]
    fn identical_high_quality_example_is_effective() {
        let p = IclParams::default();
        let r = req_with_latent(unit(vec![1.0, 0.0, 0.0]));
        let e = ex_with(unit(vec![1.0, 0.0, 0.0]), 0.95, r.skills);
        let eff = example_effectiveness(&e, &r, &p);
        assert!(eff > 0.85, "eff {eff}");
    }

    #[test]
    fn below_floor_example_has_zero_effectiveness() {
        let p = IclParams::default();
        let r = req_with_latent(unit(vec![1.0, 0.0, 0.0]));
        let e = ex_with(unit(vec![0.0, 1.0, 0.0]), 0.95, r.skills);
        assert_eq!(example_effectiveness(&e, &r, &p), 0.0);
        assert_eq!(distraction_count(&[&e], &r, &p), 1);
    }

    #[test]
    fn effectiveness_scales_with_example_quality() {
        let p = IclParams::default();
        let r = req_with_latent(unit(vec![1.0, 0.0, 0.0]));
        let good = ex_with(unit(vec![1.0, 0.05, 0.0]), 0.9, r.skills);
        let bad = ex_with(unit(vec![1.0, 0.05, 0.0]), 0.3, r.skills);
        assert!(example_effectiveness(&good, &r, &p) > 2.0 * example_effectiveness(&bad, &r, &p));
    }

    #[test]
    fn utility_shrinks_with_model_headroom() {
        // A capable model (base quality 0.9) gains less from the same
        // example than a weak one (base quality 0.4) — the paper's
        // "skills the smaller model already handles well contribute
        // little" (§4.1).
        let p = IclParams::default();
        let r = req_with_latent(unit(vec![1.0, 0.0, 0.0]));
        let e = ex_with(unit(vec![1.0, 0.0, 0.0]), 0.9, r.skills);
        let u_weak = example_utility(&e, &r, 0.4, &p);
        let u_strong = example_utility(&e, &r, 0.9, &p);
        assert!(u_weak > 3.0 * u_strong);
    }

    #[test]
    fn skill_mismatch_reduces_but_does_not_zero() {
        let p = IclParams::default();
        let r = req_with_latent(unit(vec![1.0, 0.0, 0.0]));
        let matched = ex_with(unit(vec![1.0, 0.0, 0.0]), 0.9, r.skills);
        let mismatched = ex_with(
            unit(vec![1.0, 0.0, 0.0]),
            0.9,
            SkillMix::new([0.0, 0.0, 0.0, 1.0]),
        );
        let em = example_effectiveness(&matched, &r, &p);
        let eu = example_effectiveness(&mismatched, &r, &p);
        assert!(eu < em);
        assert!(eu > 0.3 * em);
    }

    #[test]
    fn boost_has_diminishing_returns() {
        let p = IclParams::default();
        let one = aggregate_boost(&[0.5], &p);
        let two = aggregate_boost(&[0.5, 0.5], &p);
        let three = aggregate_boost(&[0.5, 0.5, 0.5], &p);
        assert!(two > one);
        assert!(three > two);
        assert!(two - one > three - two, "marginal gain must shrink");
        assert!(three <= p.boost_efficiency);
    }

    #[test]
    fn boost_caps_at_max_effective() {
        let p = IclParams {
            max_effective: 2,
            ..IclParams::default()
        };
        let a = aggregate_boost(&[0.5, 0.5], &p);
        let b = aggregate_boost(&[0.5, 0.5, 0.9, 0.9], &p);
        assert_eq!(a, b);
    }

    #[test]
    fn rag_utility_saturates_and_respects_efficiency() {
        let p = IclParams::default();
        let perfect = RagDoc {
            relevance: 1.0,
            quality: 1.0,
            tokens: 200,
        };
        let u = rag_utility(&[perfect; 10], &p);
        assert!((u - p.rag_efficiency).abs() < 1e-9);
        assert_eq!(rag_utility(&[], &p), 0.0);
    }
}
