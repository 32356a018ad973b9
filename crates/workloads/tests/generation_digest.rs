//! Request and bank generation pinned to bytes.
//!
//! An FNV-64 digest over everything `generate_requests(2 000)` and
//! `generate_examples(500)` produce for MS MARCO (ids, topics, the `f32`
//! bits of every latent and embedding, every drawn float's bits, both
//! texts, token counts), pinned to the value the generator had before the
//! Box–Muller kernel (`ic_embed`'s `boxmuller` module) replaced the
//! per-component libm loop in `Embedding::gaussian`. Every Gaussian
//! component of the topic space, the latents and the embeddings goes
//! through that kernel, and the draws after each vector (difficulty,
//! lengths, text) see the RNG it leaves behind, so a wrong bit or a
//! moved draw anywhere changes the digest.
//!
//! Mutations of the kernel that fail this test (each was run): emitting
//! the lower end of the certified interval without the libm fallback,
//! and cutting the cosine polynomial off at `r⁸`. A third, comparing the
//! interval's two `f32` ends with `==` instead of `to_bits`, only shows
//! at σ = 0, which this stream never draws; the kernel's own oracle
//! tests catch it.

use ic_embed::Plaintext;
use ic_llmsim::{Generator, ModelId, ModelSpec};
use ic_workloads::{Dataset, WorkloadGenerator};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn components(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// The rendered text, whose length `len()` must know unrendered.
    fn text(&mut self, t: &Plaintext) {
        let s = t.to_string();
        assert_eq!(t.len(), s.len(), "{s}");
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

#[test]
fn ms_marco_requests_and_bank_keep_their_bytes() {
    let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 7);
    let mut h = Fnv::new();
    for r in wg.generate_requests(2_000) {
        h.u64(r.id.0);
        h.u64(r.topic as u64);
        h.components(r.latent.as_slice());
        h.components(r.embedding.as_slice());
        h.f64(r.difficulty);
        h.f64(r.complexity_signal);
        h.u64(u64::from(r.input_tokens));
        h.u64(u64::from(r.target_output_tokens));
        h.text(&r.text);
        h.u64(u64::from(r.text.contains_sensitive()));
    }
    let examples = wg.generate_examples(
        500,
        &ModelSpec::gemma_2_27b(),
        ModelId(0),
        &Generator::new(),
    );
    for e in examples {
        h.u64(e.id.0);
        h.u64(e.topic as u64);
        h.components(e.latent.as_slice());
        h.components(e.embedding.as_slice());
        h.f64(e.origin_difficulty);
        h.text(&e.request_text);
        h.text(&e.response_text);
        h.u64(u64::from(e.request_tokens));
        h.u64(u64::from(e.response_tokens));
        h.f64(e.quality);
        h.u64(e.source_model.0 as u64);
        h.f64(e.signal_noise);
    }
    // The parent's value (per-component libm Box–Muller).
    assert_eq!(h.0, 0x5c77_3a03_330d_ed23, "generation digest {:016x}", h.0);
}
