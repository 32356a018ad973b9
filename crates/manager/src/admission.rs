//! Privacy admission control (§4.3, "How Does IC-Cache Respect Privacy?").
//!
//! Before an example enters the cache, the admission policy (i) decides
//! whether caching is allowed at all, and (ii) sanitizes sensitive spans —
//! the paper's client-side spaCy scrubbing. Applications choose between
//! rejecting sensitive traffic outright and scrubbing it.

use ic_llmsim::Example;

/// What happened to a candidate example at admission.
#[derive(Debug, Clone)]
pub enum Admission {
    /// Cache this (possibly scrubbed) example.
    Admit(Box<Example>),
    /// Do not cache; the reason is a stable diagnostic string.
    Reject(&'static str),
}

impl Admission {
    /// Whether the example was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admit(_))
    }
}

/// The admission policy.
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    /// Scrub sensitive spans instead of storing them verbatim.
    pub scrub_pii: bool,
    /// Reject examples containing sensitive spans outright (overrides
    /// scrubbing).
    pub reject_sensitive: bool,
    /// Reject examples whose stored response is too short to be a useful
    /// demonstration.
    pub min_response_tokens: u32,
    /// Caching disabled entirely (the `update_cache` opt-out in Fig. 6).
    pub caching_enabled: bool,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            scrub_pii: true,
            reject_sensitive: false,
            min_response_tokens: 4,
            caching_enabled: true,
        }
    }
}

impl AdmissionPolicy {
    /// The strict variant: any sensitive content is rejected.
    pub fn strict() -> Self {
        Self {
            reject_sensitive: true,
            ..Self::default()
        }
    }

    /// Evaluates one candidate example.
    pub fn evaluate(&self, mut example: Example) -> Admission {
        if !self.caching_enabled {
            return Admission::Reject("caching disabled");
        }
        if example.response_tokens < self.min_response_tokens {
            return Admission::Reject("response too short");
        }
        if example.request_text.contains_sensitive() || example.response_text.contains_sensitive() {
            if self.reject_sensitive {
                return Admission::Reject("sensitive content");
            }
            if self.scrub_pii {
                example.request_text = example.request_text.scrubbed();
                example.response_text = example.response_text.scrubbed();
            }
        }
        Admission::Admit(Box::new(example))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_embed::text::{contains_sensitive, scrub_sensitive};
    use ic_llmsim::{Generator, ModelId, ModelSpec};
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn examples(n: usize) -> Vec<Example> {
        // LMSys has a 4% sensitive rate; crank the count so some show up.
        WorkloadGenerator::new(Dataset::LmsysChat, 61).generate_examples(
            n,
            &ModelSpec::gemini_15_pro(),
            ModelId(0),
            &Generator::new(),
        )
    }

    /// The string scan admission ran on the rendered texts.
    fn renders_sensitive(e: &Example) -> bool {
        contains_sensitive(&e.request_text.to_string())
            || contains_sensitive(&e.response_text.to_string())
    }

    #[test]
    fn clean_examples_are_admitted_unchanged() {
        let policy = AdmissionPolicy::default();
        for e in examples(50) {
            if !renders_sensitive(&e) {
                let text = e.request_text.clone();
                match policy.evaluate(e) {
                    Admission::Admit(out) => assert_eq!(out.request_text, text),
                    Admission::Reject(r) => panic!("clean example rejected: {r}"),
                }
            }
        }
    }

    #[test]
    fn scrubbing_removes_sensitive_spans_on_admission() {
        let policy = AdmissionPolicy::default();
        let mut seen_sensitive = false;
        for e in examples(400) {
            let was_sensitive = renders_sensitive(&e);
            let (request, response) = (e.request_text.to_string(), e.response_text.to_string());
            if let Admission::Admit(out) = policy.evaluate(e) {
                assert!(!renders_sensitive(&out));
                if was_sensitive {
                    seen_sensitive = true;
                    // The bytes the string scrubber made of the rendering.
                    assert_eq!(out.request_text.to_string(), scrub_sensitive(&request));
                    assert_eq!(out.response_text.to_string(), scrub_sensitive(&response));
                    assert!((request + &response).len() > out.byte_len());
                }
            }
        }
        assert!(seen_sensitive, "fixture produced no sensitive examples");
    }

    #[test]
    fn strict_policy_rejects_sensitive() {
        let policy = AdmissionPolicy::strict();
        let mut rejected = 0;
        for e in examples(400) {
            let was_sensitive = renders_sensitive(&e);
            let out = policy.evaluate(e);
            if was_sensitive {
                assert!(!out.is_admitted());
                rejected += 1;
            } else {
                assert!(out.is_admitted());
            }
        }
        assert!(rejected > 0, "fixture produced no sensitive examples");
    }

    #[test]
    fn disabled_caching_rejects_everything() {
        let policy = AdmissionPolicy {
            caching_enabled: false,
            ..AdmissionPolicy::default()
        };
        let e = examples(1).pop().unwrap();
        assert!(!policy.evaluate(e).is_admitted());
    }

    #[test]
    fn short_responses_are_rejected() {
        let policy = AdmissionPolicy {
            min_response_tokens: 1_000_000,
            ..AdmissionPolicy::default()
        };
        let e = examples(1).pop().unwrap();
        match policy.evaluate(e) {
            Admission::Reject(r) => assert_eq!(r, "response too short"),
            Admission::Admit(_) => panic!("should reject"),
        }
    }
}
