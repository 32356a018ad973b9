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
//!
//! A synthesized text is kept as a [`Plaintext`]: its topic, one code byte
//! per word and at most one sensitive (or redacted) span. It renders, on
//! demand, exactly the words it stands for, and knows its rendered length
//! without rendering — a bank holds tens of thousands of these for the
//! whole run, at a byte a word instead of the words themselves.

use std::fmt::{self, Write as _};

use rand::{Rng, RngExt};

/// Marker prefix for injected sensitive spans, e.g. emails and phone
/// numbers. Kept textual so plaintext-size accounting stays realistic.
const SENSITIVE_MARKERS: [&str; 3] = ["email:", "phone:", "ssn:"];

/// What a scrubbed sensitive span renders as.
const REDACTED: &str = "[REDACTED]";

/// Function words shared across topics, mimicking natural-language filler.
const FUNCTION_WORDS: [&str; 12] = [
    "the", "a", "of", "to", "and", "in", "how", "what", "for", "is", "on", "with",
];

/// Topic stems per topic: word `t{topic}w{n}` for `n` in `0..STEMS`.
const STEMS: u32 = 48;

/// Decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// A text as the cache stores it: a synthesized text in compact form, or
/// any other text verbatim. [`Display`](fmt::Display) renders it;
/// [`len`](Plaintext::len) is the rendered length in bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext(Repr);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// Word `k` is `FUNCTION_WORDS[codes[k]]` for a code below 12 and
    /// `t{topic}w{codes[k] - 12}` above, except that `span` replaces
    /// its word; words are joined by single spaces. `len` is the
    /// rendered length.
    Coded {
        codes: Box<[u8]>,
        topic: u32,
        len: u32,
        span: Option<Span>,
    },
    Verbatim(Box<str>),
}

/// The one injected span of a synthesized text, in place of word `word`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Span {
    /// `{SENSITIVE_MARKERS[marker]}user{user}@example.com`.
    Sensitive { word: u32, marker: u8, user: u16 },
    /// The same span after scrubbing: `[REDACTED]`.
    Redacted { word: u32 },
}

impl Span {
    fn word(self) -> usize {
        match self {
            Span::Sensitive { word, .. } | Span::Redacted { word } => word as usize,
        }
    }

    fn len(self) -> usize {
        match self {
            Span::Sensitive { marker, user, .. } => {
                SENSITIVE_MARKERS[usize::from(marker)].len()
                    + "user".len()
                    + digits(u64::from(user))
                    + "@example.com".len()
            }
            Span::Redacted { .. } => REDACTED.len(),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Span::Sensitive { marker, user, .. } => write!(
                f,
                "{}user{user}@example.com",
                SENSITIVE_MARKERS[usize::from(marker)]
            ),
            Span::Redacted { .. } => f.write_str(REDACTED),
        }
    }
}

/// Rendered length of word `code` of a text about a topic with
/// `topic_digits` decimal digits.
fn word_len(code: u8, topic_digits: usize) -> usize {
    match FUNCTION_WORDS.get(usize::from(code)) {
        Some(w) => w.len(),
        None => "tw".len() + topic_digits + digits(u64::from(code) - FUNCTION_WORDS.len() as u64),
    }
}

impl Plaintext {
    /// Rendered length in bytes, without rendering.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Coded { len, .. } => *len as usize,
            Repr::Verbatim(s) => s.len(),
        }
    }

    /// Whether the rendering is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`contains_sensitive`] of the rendering, without rendering.
    pub fn contains_sensitive(&self) -> bool {
        match &self.0 {
            Repr::Coded { span, .. } => matches!(span, Some(Span::Sensitive { .. })),
            Repr::Verbatim(s) => contains_sensitive(s),
        }
    }

    /// The text [`scrub_sensitive`] makes of the rendering: a synthesized
    /// text's span turns into `[REDACTED]` without rendering anything.
    pub fn scrubbed(&self) -> Plaintext {
        match &self.0 {
            Repr::Coded {
                codes,
                topic,
                len,
                span,
            } => {
                let (span, len) = match *span {
                    Some(s @ Span::Sensitive { word, .. }) => {
                        let redacted = Span::Redacted { word };
                        let len = *len as usize - s.len() + redacted.len();
                        (Some(redacted), len as u32)
                    }
                    other => (other, *len),
                };
                Plaintext(Repr::Coded {
                    codes: codes.clone(),
                    topic: *topic,
                    len,
                    span,
                })
            }
            Repr::Verbatim(s) => scrub_sensitive(s).into(),
        }
    }
}

impl Default for Plaintext {
    fn default() -> Self {
        Self(Repr::Verbatim(Box::default()))
    }
}

impl From<String> for Plaintext {
    fn from(text: String) -> Self {
        Self(Repr::Verbatim(text.into_boxed_str()))
    }
}

impl From<&str> for Plaintext {
    fn from(text: &str) -> Self {
        Self(Repr::Verbatim(text.into()))
    }
}

impl fmt::Display for Plaintext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (codes, topic, span) = match &self.0 {
            Repr::Coded {
                codes, topic, span, ..
            } => (codes, *topic, *span),
            Repr::Verbatim(s) => return f.write_str(s),
        };
        for (k, &code) in codes.iter().enumerate() {
            if k > 0 {
                f.write_char(' ')?;
            }
            match (span, FUNCTION_WORDS.get(usize::from(code))) {
                (Some(s), _) if s.word() == k => write!(f, "{s}")?,
                (_, Some(w)) => f.write_str(w)?,
                (_, None) => write!(f, "t{topic}w{}", usize::from(code) - FUNCTION_WORDS.len())?,
            }
        }
        Ok(())
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
/// let rendered = t.to_string();
/// assert_eq!(rendered.split(' ').count(), 12);
/// assert_eq!(t.len(), rendered.len());
/// assert!(!t.contains_sensitive());
/// ```
#[derive(Debug, Clone)]
pub struct TextSynthesizer {
    /// Probability that a generated text contains one sensitive span.
    sensitive_rate: f64,
}

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

    /// Synthesizes `tokens` (at least one) space-separated words about
    /// `topic`. Draw order: every word, then the sensitive flag, and for
    /// a sensitive text its marker, the word it replaces and the user
    /// number.
    pub fn synthesize(&self, topic: usize, tokens: u32, rng: &mut impl Rng) -> Plaintext {
        let tokens = tokens.max(1);
        let topic_digits = digits(topic as u64);
        let mut codes = Vec::with_capacity(tokens as usize);
        // The spaces between words.
        let mut len = tokens as usize - 1;
        for _ in 0..tokens {
            let code = if rng.random::<f64>() < 0.35 {
                rng.random_range(0..FUNCTION_WORDS.len()) as u8
            } else {
                (FUNCTION_WORDS.len() as u32 + rng.random_range(0..STEMS)) as u8
            };
            len += word_len(code, topic_digits);
            codes.push(code);
        }
        let span = (rng.random::<f64>() < self.sensitive_rate).then(|| {
            let marker = rng.random_range(0..SENSITIVE_MARKERS.len()) as u8;
            let word = rng.random_range(0..tokens as usize) as u32;
            let user = rng.random_range(0..10_000u32) as u16;
            Span::Sensitive { word, marker, user }
        });
        if let Some(s) = span {
            len = len - word_len(codes[s.word()], topic_digits) + s.len();
        }
        Plaintext(Repr::Coded {
            codes: codes.into_boxed_slice(),
            topic: u32::try_from(topic).expect("topic index fits in u32"),
            len: u32::try_from(len).expect("text length fits in u32"),
            span,
        })
    }
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
                REDACTED
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

    /// `synthesize` as a `String`: one per word, joined. Returns the text,
    /// whether it is sensitive and which word the span replaced.
    fn synthesize_per_word(
        sensitive_rate: f64,
        topic: usize,
        tokens: u32,
        rng: &mut impl Rng,
    ) -> (String, bool, Option<usize>) {
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
        (words.join(" "), sensitive, span_at)
    }

    /// Fails if a stem is counted as one digit for `n >= 10`, if
    /// `scrubbed()` keeps the span's old length, if the rendering ignores
    /// the span, or if the span's word is drawn before its marker.
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
                    let (want, sensitive, span_at) =
                        synthesize_per_word(rate, topic, tokens, &mut rng_old);
                    let at = format!("rate {rate} topic {topic} tokens {tokens}");
                    let rendered = got.to_string();
                    assert_eq!(rendered, want, "{at}");
                    assert_eq!(got.len(), rendered.len(), "{at}");
                    assert_eq!(got.contains_sensitive(), sensitive, "{at}");
                    assert_eq!(
                        got.contains_sensitive(),
                        contains_sensitive(&rendered),
                        "{at}"
                    );
                    let scrubbed = got.scrubbed();
                    let want_scrubbed = scrub_sensitive(&rendered);
                    assert_eq!(scrubbed.to_string(), want_scrubbed, "{at}");
                    assert_eq!(scrubbed.len(), want_scrubbed.len(), "{at}");
                    assert_eq!(
                        scrubbed.contains_sensitive(),
                        contains_sensitive(&want_scrubbed),
                        "{at}"
                    );
                    assert_eq!(rng_new.next_u64(), rng_old.next_u64(), "{at}");
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
            assert_eq!(t.to_string().split_whitespace().count(), n as usize);
        }
    }

    #[test]
    fn zero_tokens_clamps_to_one() {
        let synth = TextSynthesizer::new(0.0);
        let mut rng = rng_from_seed(2);
        let t = synth.synthesize(0, 0, &mut rng);
        assert_eq!(t.to_string().split_whitespace().count(), 1);
    }

    #[test]
    fn topics_have_distinct_vocabulary() {
        let synth = TextSynthesizer::new(0.0);
        let mut rng = rng_from_seed(3);
        let a = synth.synthesize(1, 200, &mut rng).to_string();
        let b = synth.synthesize(2, 200, &mut rng).to_string();
        assert!(a.contains("t1w"));
        assert!(!a.contains("t2w"));
        assert!(b.contains("t2w"));
    }

    #[test]
    fn sensitive_injection_and_detection() {
        let synth = TextSynthesizer::new(1.0);
        let mut rng = rng_from_seed(4);
        let t = synth.synthesize(0, 20, &mut rng);
        assert!(t.contains_sensitive());
        assert!(contains_sensitive(&t.to_string()));
    }

    #[test]
    fn scrubbing_removes_all_sensitive_spans() {
        let synth = TextSynthesizer::new(1.0);
        let mut rng = rng_from_seed(5);
        for _ in 0..50 {
            let t = synth.synthesize(0, 15, &mut rng);
            let clean = t.scrubbed().to_string();
            assert!(!contains_sensitive(&clean), "leak in {clean}");
            assert!(clean.contains(REDACTED));
            assert_eq!(scrub_sensitive(&t.to_string()), clean);
        }
    }

    #[test]
    fn scrubbing_clean_text_is_identity() {
        let synth = TextSynthesizer::new(0.0);
        let mut rng = rng_from_seed(6);
        let t = synth.synthesize(7, 30, &mut rng);
        assert_eq!(t.scrubbed(), t);
        assert_eq!(scrub_sensitive(&t.to_string()), t.to_string());
        let verbatim = Plaintext::from("ask  phone:x\tnow");
        assert!(verbatim.contains_sensitive());
        assert_eq!(verbatim.scrubbed(), Plaintext::from("ask [REDACTED] now"));
    }

    #[test]
    fn sensitive_rate_is_respected() {
        let synth = TextSynthesizer::new(0.25);
        let mut rng = rng_from_seed(7);
        let hits = (0..4000)
            .filter(|_| synth.synthesize(0, 10, &mut rng).contains_sensitive())
            .count();
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn byte_len_reflects_rendered_text() {
        let synth = TextSynthesizer::new(0.0);
        let mut rng = rng_from_seed(8);
        let t = synth.synthesize(0, 10, &mut rng);
        assert_eq!(t.len(), t.to_string().len());
        assert!(t.len() > 10);
        let verbatim = Plaintext::from("ab cd");
        assert_eq!(
            (verbatim.len(), verbatim.to_string().as_str()),
            (5, "ab cd")
        );
        assert!(Plaintext::default().is_empty());
    }
}
