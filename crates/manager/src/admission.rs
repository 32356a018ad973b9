//! Privacy admission control (§4.3, "How Does IC-Cache Respect Privacy?").
//!
//! Before an example enters the cache, admission (i) rejects a response
//! too short to demonstrate anything, and (ii) sanitizes sensitive spans —
//! the paper's client-side spaCy scrubbing. One policy: every deployment
//! scrubs.

use ic_llmsim::Example;

/// Examples whose stored response is shorter than this (in tokens) are
/// rejected: too short to be a useful demonstration.
pub const MIN_RESPONSE_TOKENS: u32 = 4;

/// Evaluates one candidate example: `None` for a too-short response,
/// else the example with its sensitive spans scrubbed.
pub fn evaluate(mut example: Example) -> Option<Example> {
    if example.response_tokens < MIN_RESPONSE_TOKENS {
        return None;
    }
    if example.request_text.contains_sensitive() || example.response_text.contains_sensitive() {
        example.request_text = example.request_text.scrubbed();
        example.response_text = example.response_text.scrubbed();
    }
    Some(example)
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
        for e in examples(50) {
            if !renders_sensitive(&e) {
                let text = e.request_text.clone();
                let out = evaluate(e).expect("clean example admitted");
                assert_eq!(out.request_text, text);
            }
        }
    }

    #[test]
    fn scrubbing_removes_sensitive_spans_on_admission() {
        let mut seen_sensitive = false;
        for e in examples(400) {
            let was_sensitive = renders_sensitive(&e);
            let (request, response) = (e.request_text.to_string(), e.response_text.to_string());
            if let Some(out) = evaluate(e) {
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
    fn short_responses_are_rejected() {
        let mut e = examples(1).pop().unwrap();
        e.response_tokens = MIN_RESPONSE_TOKENS;
        assert!(evaluate(e.clone()).is_some());
        e.response_tokens = MIN_RESPONSE_TOKENS - 1;
        assert!(evaluate(e).is_none());
    }
}
