//! Synthetic plaintext with token and byte accounting.
//!
//! The Example Manager stores examples in plaintext and uses plaintext
//! length as the knapsack weight (§4.3), the admission path scrubs
//! personally-identifiable information before caching (§4.3 "How Does
//! IC-Cache Respect Privacy?"), and the serving simulator needs input/output
//! token counts. This module synthesizes text that carries all three
//! signals: topic-specific vocabulary, realistic length distributions
//! (supplied by callers), and optional injected sensitive spans that the
//! scrubber must find.

use std::cell::RefCell;

use rand::{Rng, RngExt};

/// Marker prefix for injected sensitive spans, e.g. emails and phone
/// numbers. Kept textual so plaintext-size accounting stays realistic.
const SENSITIVE_MARKERS: [&str; 3] = ["email:", "phone:", "ssn:"];

/// A piece of synthetic text plus its accounting metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticText {
    /// Rendered plaintext.
    pub text: String,
    /// Number of whitespace-delimited tokens (the simulator's token unit).
    pub tokens: u32,
    /// Whether a sensitive span was injected.
    pub sensitive: bool,
}

impl SyntheticText {
    /// Plaintext size in bytes — the knapsack weight unit.
    pub fn byte_len(&self) -> usize {
        self.text.len()
    }
}

/// Generates topic-flavoured synthetic text.
///
/// # Examples
///
/// ```
/// use ic_embed::TextSynthesizer;
/// use ic_stats::rng::rng_from_seed;
///
/// let synth = TextSynthesizer::new(0.0);
/// let mut rng = rng_from_seed(5);
/// let t = synth.synthesize(3, 12, &mut rng);
/// assert_eq!(t.tokens, 12);
/// assert!(!t.sensitive);
/// ```
#[derive(Debug, Clone)]
pub struct TextSynthesizer {
    /// Probability that a generated text contains one sensitive span.
    sensitive_rate: f64,
}

thread_local! {
    /// The buffer one text's words are written into, reused across
    /// calls so that the only allocation outliving
    /// [`TextSynthesizer::synthesize`] is its exact-size result. A fresh
    /// scratch per call, freed after the copy, leaves a scratch-sized
    /// hole in front of every long-lived text (+3.5 MiB peak RSS on a
    /// 20 000-example bank).
    static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Function words shared across topics, mimicking natural-language filler.
const FUNCTION_WORDS: [&str; 12] = [
    "the", "a", "of", "to", "and", "in", "how", "what", "for", "is", "on", "with",
];

impl TextSynthesizer {
    /// Creates a synthesizer that injects sensitive spans at the given rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside `[0, 1]`.
    pub fn new(sensitive_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sensitive_rate),
            "sensitive_rate must be a probability"
        );
        Self { sensitive_rate }
    }

    /// Synthesizes `tokens` whitespace-delimited tokens about `topic`.
    ///
    /// The words go straight into one scratch buffer (draw order: every
    /// word, then the sensitive flag, marker, position and user number,
    /// the span spliced over word `pos`), and the result is an
    /// exact-size copy of it: a bank holds tens of thousands of these
    /// for the whole run, so none may keep growth slack.
    pub fn synthesize(&self, topic: usize, tokens: u32, rng: &mut impl Rng) -> SyntheticText {
        SCRATCH.with_borrow_mut(|buf| self.synthesize_into(buf, topic, tokens, rng))
    }

    fn synthesize_into(
        &self,
        buf: &mut String,
        topic: usize,
        tokens: u32,
        rng: &mut impl Rng,
    ) -> SyntheticText {
        let tokens = tokens.max(1);
        // Topic-specific pseudo-words share a stem: stable vocabulary
        // per topic.
        let stem = format!("t{topic}w");
        buf.clear();
        for k in 0..tokens {
            if k > 0 {
                buf.push(' ');
            }
            if rng.random::<f64>() < 0.35 {
                buf.push_str(FUNCTION_WORDS[rng.random_range(0..FUNCTION_WORDS.len())]);
            } else {
                buf.push_str(&stem);
                push_decimal(buf, rng.random_range(0..48u32));
            }
        }
        let sensitive = rng.random::<f64>() < self.sensitive_rate;
        if sensitive {
            let marker = SENSITIVE_MARKERS[rng.random_range(0..SENSITIVE_MARKERS.len())];
            let pos = rng.random_range(0..tokens as usize);
            let mut span = String::with_capacity(32);
            span.push_str(marker);
            span.push_str("user");
            push_decimal(&mut span, rng.random_range(0..10_000u32));
            span.push_str("@example.com");
            // Word `pos` starts after the `pos`-th space and runs to the
            // next one (or the end).
            let start = match pos {
                0 => 0,
                _ => {
                    buf.match_indices(' ')
                        .nth(pos - 1)
                        .expect("word pos exists")
                        .0
                        + 1
                }
            };
            let end = buf[start..].find(' ').map_or(buf.len(), |i| start + i);
            buf.replace_range(start..end, &span);
        }
        SyntheticText {
            text: buf.as_str().to_owned(),
            tokens,
            sensitive,
        }
    }
}

/// Appends `n` in decimal — `write!(buf, "{n}")` without the formatter.
fn push_decimal(buf: &mut String, n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    buf.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Returns true if the text contains an injected sensitive span.
pub fn contains_sensitive(text: &str) -> bool {
    SENSITIVE_MARKERS.iter().any(|m| text.contains(m))
}

/// Removes sensitive spans, replacing each with `[REDACTED]`.
///
/// This models the paper's client-side spaCy-based sanitization: the
/// scrubbed text is what the Example Manager is allowed to cache.
pub fn scrub_sensitive(text: &str) -> String {
    text.split_whitespace()
        .map(|w| {
            if SENSITIVE_MARKERS.iter().any(|m| w.starts_with(m)) {
                "[REDACTED]"
            } else {
                w
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_stats::rng::rng_from_seed;

    /// `synthesize` as it was: one `String` per word, joined.
    fn synthesize_per_word(
        sensitive_rate: f64,
        topic: usize,
        tokens: u32,
        rng: &mut impl Rng,
    ) -> (SyntheticText, Option<usize>) {
        let tokens = tokens.max(1);
        let mut words: Vec<String> = Vec::with_capacity(tokens as usize);
        for _ in 0..tokens {
            if rng.random::<f64>() < 0.35 {
                words.push(FUNCTION_WORDS[rng.random_range(0..FUNCTION_WORDS.len())].to_owned());
            } else {
                let w = rng.random_range(0..48u32);
                words.push(format!("t{topic}w{w}"));
            }
        }
        let sensitive = rng.random::<f64>() < sensitive_rate;
        let mut span_at = None;
        if sensitive {
            let marker = SENSITIVE_MARKERS[rng.random_range(0..SENSITIVE_MARKERS.len())];
            let pos = rng.random_range(0..words.len());
            words[pos] = format!("{marker}user{}@example.com", rng.random_range(0..10_000u32));
            span_at = Some(pos);
        }
        let text = SyntheticText {
            text: words.join(" "),
            tokens,
            sensitive,
        };
        (text, span_at)
    }

    #[test]
    fn one_buffer_synthesis_matches_the_per_word_reference() {
        let (mut first_word_spans, mut last_word_spans) = (0, 0);
        for (r, rate) in [0.0, 0.3, 1.0].into_iter().enumerate() {
            let synth = TextSynthesizer::new(rate);
            for topic in [0usize, 7, 123, 4_096] {
                for tokens in 1..=400u32 {
                    let seed = (r as u64) << 40 | (topic as u64) << 16 | u64::from(tokens);
                    let (mut rng_new, mut rng_old) = (rng_from_seed(seed), rng_from_seed(seed));
                    let got = synth.synthesize(topic, tokens, &mut rng_new);
                    let (want, span_at) = synthesize_per_word(rate, topic, tokens, &mut rng_old);
                    assert_eq!(got, want, "rate {rate} topic {topic} tokens {tokens}");
                    assert_eq!(rng_new.next_u64(), rng_old.next_u64());
                    assert_eq!(got.text.capacity(), got.text.len(), "exact-size copy");
                    // Multi-word texts only: on one word, first is last.
                    if tokens > 1 {
                        first_word_spans += u32::from(span_at == Some(0));
                        last_word_spans += u32::from(span_at == Some(tokens as usize - 1));
                    }
                }
            }
        }
        assert!(first_word_spans > 0 && last_word_spans > 0);
    }

    #[test]
    fn token_count_matches_request() {
        let synth = TextSynthesizer::new(0.0);
        let mut rng = rng_from_seed(1);
        for n in [1u32, 5, 64, 300] {
            let t = synth.synthesize(0, n, &mut rng);
            assert_eq!(t.tokens, n);
            assert_eq!(t.text.split_whitespace().count(), n as usize);
        }
    }

    #[test]
    fn zero_tokens_clamps_to_one() {
        let synth = TextSynthesizer::new(0.0);
        let mut rng = rng_from_seed(2);
        let t = synth.synthesize(0, 0, &mut rng);
        assert_eq!(t.tokens, 1);
    }

    #[test]
    fn topics_have_distinct_vocabulary() {
        let synth = TextSynthesizer::new(0.0);
        let mut rng = rng_from_seed(3);
        let a = synth.synthesize(1, 200, &mut rng);
        let b = synth.synthesize(2, 200, &mut rng);
        assert!(a.text.contains("t1w"));
        assert!(!a.text.contains("t2w"));
        assert!(b.text.contains("t2w"));
    }

    #[test]
    fn sensitive_injection_and_detection() {
        let synth = TextSynthesizer::new(1.0);
        let mut rng = rng_from_seed(4);
        let t = synth.synthesize(0, 20, &mut rng);
        assert!(t.sensitive);
        assert!(contains_sensitive(&t.text));
    }

    #[test]
    fn scrubbing_removes_all_sensitive_spans() {
        let synth = TextSynthesizer::new(1.0);
        let mut rng = rng_from_seed(5);
        for _ in 0..50 {
            let t = synth.synthesize(0, 15, &mut rng);
            let clean = scrub_sensitive(&t.text);
            assert!(!contains_sensitive(&clean), "leak in {clean}");
            assert!(clean.contains("[REDACTED]"));
        }
    }

    #[test]
    fn scrubbing_clean_text_is_identity() {
        let synth = TextSynthesizer::new(0.0);
        let mut rng = rng_from_seed(6);
        let t = synth.synthesize(7, 30, &mut rng);
        assert_eq!(scrub_sensitive(&t.text), t.text);
    }

    #[test]
    fn sensitive_rate_is_respected() {
        let synth = TextSynthesizer::new(0.25);
        let mut rng = rng_from_seed(7);
        let hits = (0..4000)
            .filter(|_| synth.synthesize(0, 10, &mut rng).sensitive)
            .count();
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn byte_len_reflects_rendered_text() {
        let synth = TextSynthesizer::new(0.0);
        let mut rng = rng_from_seed(8);
        let t = synth.synthesize(0, 10, &mut rng);
        assert_eq!(t.byte_len(), t.text.len());
        assert!(t.byte_len() > 10);
    }
}
