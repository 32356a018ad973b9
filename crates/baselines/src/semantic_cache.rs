//! Naive semantic caching (GPTCache [Bang 2023] / Databricks style).
//!
//! "Caches past requests and returns cached responses based on embedding
//! similarity" (§6.1). The hit decision uses *observed* similarity; the
//! true usefulness of the reused response depends on the *latent* match,
//! which is why relaxing the threshold to raise hit rates collapses
//! response quality (Fig. 3b) — any contextual mismatch risks an
//! off-topic reply.

use ic_llmsim::{Example, ExampleId, Request};
use ic_vecindex::{FlatIndex, VectorIndex};
use std::collections::HashMap;

/// Semantic-cache configuration.
#[derive(Debug, Clone)]
pub struct SemanticCacheConfig {
    /// Observed-similarity threshold for a hit (1.0 = exact match only).
    pub similarity_threshold: f64,
}

impl Default for SemanticCacheConfig {
    fn default() -> Self {
        Self {
            similarity_threshold: 0.9,
        }
    }
}

/// A cache hit.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The matched cached entry.
    pub entry: ExampleId,
    /// Observed cosine similarity that triggered the hit.
    pub similarity: f64,
}

/// The semantic response cache.
///
/// # Examples
///
/// ```
/// use ic_baselines::{SemanticCache, SemanticCacheConfig};
///
/// let cache = SemanticCache::new(SemanticCacheConfig::default());
/// assert_eq!(cache.len(), 0);
/// ```
#[derive(Debug)]
pub struct SemanticCache {
    config: SemanticCacheConfig,
    index: FlatIndex,
    entries: HashMap<ExampleId, Example>,
    hits: u64,
    misses: u64,
}

impl SemanticCache {
    /// Creates an empty cache.
    pub fn new(config: SemanticCacheConfig) -> Self {
        Self {
            config,
            index: FlatIndex::new(),
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate over all lookups (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Changes the similarity threshold (the hit-rate knob of Fig. 3b).
    pub fn set_threshold(&mut self, t: f64) {
        self.config.similarity_threshold = t;
    }

    /// Inserts a past request–response pair. The index owns its one
    /// copy of the vector: the stored entry keeps a zero-length
    /// embedding.
    pub fn insert(&mut self, mut example: Example) {
        let embedding = std::mem::take(&mut example.embedding);
        self.index.insert(example.id.0, embedding);
        self.entries.insert(example.id, example);
    }

    /// Looks up the most similar cached entry; a hit requires observed
    /// similarity at or above the threshold.
    pub fn lookup(&mut self, request: &Request) -> Option<CacheHit> {
        let best = self.index.search(&request.embedding, 1).into_iter().next();
        match best {
            Some(hit) if hit.similarity >= self.config.similarity_threshold => {
                self.hits += 1;
                Some(CacheHit {
                    entry: ExampleId(hit.id),
                    similarity: hit.similarity,
                })
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// The cached entry payload.
    pub fn entry(&self, id: ExampleId) -> Option<&Example> {
        self.entries.get(&id)
    }

    /// Ground-truth effective quality of serving `request` with the cached
    /// response `entry`: the stored response's quality discounted by the
    /// latent mismatch. Evaluation-only (the production system cannot see
    /// this — that is precisely the failure mode).
    pub fn effective_quality(entry: &Example, request: &Request) -> f64 {
        let rel = entry.latent.cosine(&request.latent);
        // Below ~0.6 the reused answer is effectively off-topic; above
        // ~0.97 it is as good as a fresh answer to the same question.
        let match_factor = ((rel - 0.6) / (0.97 - 0.6)).clamp(0.0, 1.0);
        entry.quality * match_factor.powf(1.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_llmsim::{Generator, ModelId, ModelSpec};
    use ic_workloads::{Dataset, WorkloadGenerator};

    fn filled_cache(n: usize, threshold: f64) -> (SemanticCache, WorkloadGenerator) {
        let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 111);
        let exs = wg.generate_examples(n, &ModelSpec::gemma_2_27b(), ModelId(0), &Generator::new());
        let mut cache = SemanticCache::new(SemanticCacheConfig {
            similarity_threshold: threshold,
        });
        for e in exs {
            cache.insert(e);
        }
        (cache, wg)
    }

    #[test]
    fn strict_threshold_rarely_hits() {
        let (mut cache, mut wg) = filled_cache(2000, 0.995);
        let mut hits = 0;
        for r in wg.generate_requests(300) {
            if cache.lookup(&r).is_some() {
                hits += 1;
            }
        }
        assert!(
            (hits as f64) < 0.05 * 300.0,
            "exact-match rates are low (§2.3): {hits}/300"
        );
    }

    #[test]
    fn loose_threshold_hits_often_fig3b() {
        let (mut cache, mut wg) = filled_cache(2000, 0.75);
        let mut hits = 0;
        for r in wg.generate_requests(300) {
            if cache.lookup(&r).is_some() {
                hits += 1;
            }
        }
        assert!(
            hits as f64 > 0.5 * 300.0,
            "loose threshold should hit most similar requests: {hits}/300"
        );
    }

    #[test]
    fn effective_quality_collapses_with_mismatch() {
        let (mut cache, mut wg) = filled_cache(3000, 0.0); // Hit everything.
        let mut same_topic = Vec::new();
        let mut off_topic = Vec::new();
        for r in wg.generate_requests(400) {
            let hit = cache.lookup(&r).expect("threshold 0 always hits");
            let entry = cache.entry(hit.entry).unwrap().clone();
            let q = SemanticCache::effective_quality(&entry, &r);
            if entry.topic == r.topic {
                same_topic.push(q);
            } else {
                off_topic.push(q);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(!same_topic.is_empty() && !off_topic.is_empty());
        assert!(
            mean(&same_topic) > mean(&off_topic) + 0.2,
            "mismatched reuse must be much worse: {} vs {}",
            mean(&same_topic),
            mean(&off_topic)
        );
    }

    /// The index is the one copy of each vector: entries keep a
    /// zero-length embedding, and every lookup returns the hit (id and
    /// similarity bits) of a flat index over the inserted vectors.
    #[test]
    fn entries_keep_no_vector_and_lookups_match_the_inserted_vectors() {
        let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 111);
        let exs = wg.generate_examples(
            500,
            &ModelSpec::gemma_2_27b(),
            ModelId(0),
            &Generator::new(),
        );
        let mut reference = FlatIndex::new();
        let mut cache = SemanticCache::new(SemanticCacheConfig {
            similarity_threshold: 0.8,
        });
        for e in &exs {
            reference.insert(e.id.0, e.embedding.clone());
            cache.insert(e.clone());
        }
        for e in &exs {
            assert_eq!(cache.entry(e.id).expect("inserted").embedding.dim(), 0);
        }
        let mut hits = 0;
        for r in wg.generate_requests(200) {
            let want = reference
                .search(&r.embedding, 1)
                .into_iter()
                .next()
                .filter(|h| h.similarity >= 0.8)
                .map(|h| (h.id, h.similarity.to_bits()));
            let got = cache
                .lookup(&r)
                .map(|h| (h.entry.0, h.similarity.to_bits()));
            assert_eq!(got, want);
            hits += usize::from(got.is_some());
        }
        assert!(hits > 0, "the threshold admits some hits");
    }

    #[test]
    fn hit_rate_bookkeeping() {
        let (mut cache, mut wg) = filled_cache(500, 0.8);
        for r in wg.generate_requests(100) {
            let _ = cache.lookup(&r);
        }
        let (h, m) = cache.stats();
        assert_eq!(h + m, 100);
        assert!((cache.hit_rate() - h as f64 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cache_always_misses() {
        let mut cache = SemanticCache::new(SemanticCacheConfig::default());
        let mut wg = WorkloadGenerator::new(Dataset::Alpaca, 112);
        for r in wg.generate_requests(5) {
            assert!(cache.lookup(&r).is_none());
        }
        assert_eq!(cache.hit_rate(), 0.0);
    }
}
