//! Prompt assembly (Appendix A.1, Figures 23–25).
//!
//! The exact templates from the paper: the bare system prompt (Fig. 23),
//! the in-context variant with the relevance/quality/helpfulness guidance
//! and the repeated instruction (Fig. 24), and the autorater's
//! side-by-side evaluation prompt (Fig. 25).

use std::fmt::Write as _;

use ic_llmsim::{Example, Request};

/// System preamble shared by both generation templates (Fig. 23/24).
const PREAMBLE: &str = "[System]\n\
You are a helpful AI Assistant that follows users' instructions carefully. \
Write a response that appropriately completes the request. Provide necessary \
details or explanations if that helps to exceed the user's expectations.";

/// Example-usage guidance of the in-context template (Fig. 24).
const IC_GUIDANCE: &str = "Below are examples of detailed instructions and responses. When a user gives \
you an instruction, consider the following:\n\
**Relevance: Do the examples directly relate to the user's specific task or \
question? If not, focus on completing the user's request without relying on the \
examples.\n\
**Quality: Do the examples demonstrate excellent explanations, detail, and \
clarity? If so, you may follow their format and style to improve your own \
response.\n\
**Helpfulness: Do the examples provide helpful information that is relevant to \
the user's instruction? If so, you may use the information in the examples to \
help you complete the user's instruction.";

/// Closing reminder of the in-context template (Fig. 24).
const IC_REMINDER: &str = "Below is an instruction that describes a task. Write a response that \
appropriately completes the request. Provide necessary details or explanations \
if that helps to exceed the user's expectation. Remember: Your primary goal is \
to understand the user's instruction and complete the task with informative \
detail. The examples are resources to guide you, not strict templates to \
follow. However, you can refer to and follow the examples if the user's \
instruction is very similar to the examples.";

/// Renders the full generation prompt for a request, with or without
/// in-context examples.
pub fn render_prompt(request: &Request, examples: &[&Example]) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(PREAMBLE);
    let _ = write!(
        out,
        "\n\nBelow is an instruction that describes a task:\n{}",
        request.text
    );
    if examples.is_empty() {
        return out;
    }
    out.push_str("\n\n");
    out.push_str(IC_GUIDANCE);
    out.push_str("\n\n");
    for (i, e) in examples.iter().enumerate() {
        let _ = write!(
            out,
            "[Example {}]\nInstruction: {}\nResponse: {}\n\n",
            i + 1,
            e.request_text,
            e.response_text
        );
    }
    out.push_str(IC_REMINDER);
    let _ = write!(
        out,
        "\n\nBelow is an instruction that describes a task again:\n{}",
        request.text
    );
    out
}

/// Renders the autorater's side-by-side evaluation prompt (Fig. 25).
pub fn autorater_prompt(question: &str, response_a: &str, response_b: &str) -> String {
    format!(
        "[System]\n\
Please act as an impartial judge and evaluate the overall quality of the \
responses provided by two AI assistants to the user question displayed below. \
You should choose the assistant that follows the user's instructions and \
answers the user's question better. Your evaluation should consider factors \
such as instruction following, factuality, helpfulness, depth, creativity, and \
level of necessary details of their responses. Avoid any position biases and \
ensure that the order in which the responses were presented does not influence \
your decision. Do not allow the length of the responses to influence your \
evaluation. Do not favor certain names of the assistants. Be as objective as \
possible.\n\n\
You should format as follows:\n\
[Rationale]: Placeholder for the short rationale of the score. (less than 200 \
words)\n\
[Score]: Placeholder for the score. This should be -3, -2, -1, 0, 1, 2, or 3.\n\n\
[Question]: {question}\n\
[Assistant A]: {response_a}\n\
[Assistant B]: {response_b}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::{Generator, ModelId, ModelSpec};
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn fixture() -> (Request, Vec<Example>) {
        let mut wg = WorkloadGenerator::new(Dataset::Alpaca, 141);
        let exs = wg.generate_examples(3, &ModelSpec::gemma_2_27b(), ModelId(0), &Generator::new());
        let r = wg.generate_requests(1).pop().unwrap();
        (r, exs)
    }

    #[test]
    fn bare_prompt_has_no_example_guidance() {
        let (r, _) = fixture();
        let p = render_prompt(&r, &[]);
        assert!(p.contains("[System]"));
        assert!(p.contains(&r.text.to_string()));
        assert!(!p.contains("**Relevance"));
        assert!(!p.contains("[Example"));
    }

    #[test]
    fn ic_prompt_contains_guidance_examples_and_repeats_instruction() {
        let (r, exs) = fixture();
        let refs: Vec<&Example> = exs.iter().collect();
        let p = render_prompt(&r, &refs);
        assert!(p.contains("**Relevance"));
        assert!(p.contains("**Quality"));
        assert!(p.contains("**Helpfulness"));
        assert!(p.contains("[Example 1]"));
        assert!(p.contains("[Example 3]"));
        for e in &exs {
            assert!(p.contains(&e.request_text.to_string()));
            assert!(p.contains(&e.response_text.to_string()));
        }
        // The instruction appears twice (Fig. 24 repeats it at the end).
        assert_eq!(p.matches(&r.text.to_string()).count(), 2);
    }

    #[test]
    fn ic_prompt_is_longer_than_bare() {
        let (r, exs) = fixture();
        let refs: Vec<&Example> = exs.iter().collect();
        assert!(render_prompt(&r, &refs).len() > render_prompt(&r, &[]).len() + 200);
    }

    #[test]
    fn autorater_prompt_embeds_both_responses() {
        let p = autorater_prompt("why is the sky blue", "answer one", "answer two");
        assert!(p.contains("impartial judge"));
        assert!(p.contains("answer one"));
        assert!(p.contains("answer two"));
        assert!(p.contains("-3, -2, -1, 0, 1, 2, or 3"));
    }
}
