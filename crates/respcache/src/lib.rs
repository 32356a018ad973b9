//! Stage-0 predictive response cache (the tier *in front of* the
//! selector).
//!
//! IC-Cache's serving cost is dominated by work that can be skipped
//! outright: on skewed real traffic a large fraction of arrivals are
//! near-duplicates of recently served queries (trending questions,
//! client retries, template prompts). Following InstCache-style
//! predictive response caching and embedding-similarity prompt caching,
//! this crate holds whole served responses keyed by the query
//! *embedding* and answers a lookup with an approximate-nearest-neighbor
//! probe over an [`IvfIndex`] of its own (the same index substrate
//! stage 1 uses). A hit above the calibrated
//! accept threshold returns the cached response and lets the engine skip
//! selection, routing, and the entire prefill/decode path.
//!
//! Three policies keep the cache honest and deterministic:
//!
//! - **Calibrated acceptance**: a lookup hits only when the nearest
//!   neighbor's cosine similarity reaches `threshold` (default `0.98` —
//!   near-duplicate territory, see `docs/response-cache.md` for the
//!   calibration argument).
//! - **Byte-budgeted LRU with staleness**: entries are charged an
//!   approximate footprint (`64 + 4·dim + 4·response_tokens` bytes);
//!   exceeding `budget_bytes` evicts in least-recently-touched order
//!   (recency tracked by a monotone touch counter, so eviction order is
//!   deterministic). Entries older than `ttl_s` are stale: a lookup that
//!   lands on one evicts it lazily and retries, so an invalidated
//!   trending answer can never be served past its TTL.
//! - **Predictive pre-population**: a windowed frequency sketch counts
//!   lookups per exact-duplicate key; only queries seen at least
//!   `prepop_min` times inside the current `window_s` window are
//!   *admitted* on a miss. One-off queries never pollute the store, and
//!   a same-tick stampede of N identical arrivals — each observed in the
//!   sketch as it is looked up — misses until the sketch counts
//!   `prepop_min` of them, pays exactly one insertion and serves the
//!   other members from it.
//!
//! Every counter the engine surfaces ([`RespCacheStats`]) is a plain
//! integer accumulated in arrival order, so the `resp_cache` block of
//! `BENCH_e2e.json` is byte-deterministic.

use std::collections::BTreeMap;

use ic_embed::Embedding;
use ic_vecindex::{IvfConfig, IvfIndex, VectorIndex};

/// Tuning knobs of the stage-0 tier. Defaults match the engine's
/// `IC_RESP_*` environment knobs.
#[derive(Debug, Clone)]
pub struct RespCacheConfig {
    /// Minimum cosine similarity for a lookup to hit.
    pub threshold: f64,
    /// Byte budget of the store; exceeding it evicts LRU entries.
    pub budget_bytes: usize,
    /// Entry time-to-live in seconds; older entries are stale and are
    /// evicted lazily on lookup.
    pub ttl_s: f64,
    /// Duplicate sightings (within the window) required before a missed
    /// query is admitted into the store.
    pub prepop_min: u64,
    /// Width of the trending-query frequency window, seconds.
    pub window_s: f64,
}

impl Default for RespCacheConfig {
    fn default() -> Self {
        RespCacheConfig {
            threshold: 0.98,
            budget_bytes: 4 << 20,
            ttl_s: 300.0,
            prepop_min: 2,
            window_s: 60.0,
        }
    }
}

/// A whole served response, as the engine needs it to complete a request
/// without touching a model pool.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResponse {
    /// Catalog id of the model that originally served it.
    pub model: usize,
    /// Whether the original serving was offloaded off the primary.
    pub offloaded: bool,
    /// Latent response quality of the original serving.
    pub quality: f64,
    /// In-context examples the original serving used.
    pub examples: usize,
    /// Tokens of the cached response (drives the byte footprint).
    pub response_tokens: u32,
}

/// Run-scoped counters of the stage-0 tier, all deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RespCacheStats {
    /// Lookups issued (one per non-retry arrival while the tier is on).
    pub lookups: u64,
    /// Lookups answered from the store.
    pub hits: u64,
    /// Entries admitted (all admissions are sketch-gated, i.e.
    /// predictive pre-populations of trending queries).
    pub prepopulations: u64,
    /// Entries evicted because a lookup found them past their TTL.
    pub stale_evictions: u64,
    /// Approximate bytes currently held by the store.
    pub bytes: u64,
}

impl RespCacheStats {
    /// Fraction of lookups served from the store.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// `splitmix64` — the repo's standard cheap avalanche for deterministic
/// hashing.
fn split_mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic identity of a query embedding: a `splitmix64` fold over
/// the element bit patterns. Exact duplicates (same workload request
/// replayed, a stampede of identical arrivals) collapse onto one key;
/// near-duplicates get distinct keys and meet only through the ANN
/// probe.
pub fn embedding_key(embedding: &Embedding) -> u64 {
    let mut h = 0x5E5B_0CAC_4E00_u64;
    for v in embedding.as_slice() {
        h = split_mix64(h ^ u64::from(v.to_bits()));
    }
    h
}

/// One stored response plus its bookkeeping.
#[derive(Debug, Clone)]
struct Entry {
    response: CachedResponse,
    /// When the entry was (re-)inserted; staleness is measured from here.
    inserted_at: f64,
    /// Monotone recency stamp (see `ResponseCache::touch_seq`).
    touched: u64,
    /// Approximate footprint charged against the byte budget.
    bytes: u64,
}

/// Windowed exact-duplicate frequency sketch: counts sightings per key
/// inside the current `window_s` window and forgets everything when the
/// window rolls over. Coarse by design — the goal is to separate
/// trending queries from one-offs, not to rank them.
#[derive(Debug, Default)]
struct FreqSketch {
    window_start: f64,
    counts: BTreeMap<u64, u64>,
}

impl FreqSketch {
    /// Records a sighting of `key` at `now` and returns its in-window
    /// count (including this sighting).
    fn observe(&mut self, key: u64, now: f64, window_s: f64) -> u64 {
        if now - self.window_start > window_s {
            self.counts.clear();
            self.window_start = now;
        }
        let c = self.counts.entry(key).or_insert(0);
        *c += 1;
        *c
    }

    /// In-window count of `key` without recording a sighting.
    fn count(&self, key: u64) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }
}

/// The stage-0 response cache. See the crate docs for the policy
/// overview; all state is owned (the `IvfIndex` holds its own rows) and
/// every operation is deterministic.
#[derive(Debug)]
pub struct ResponseCache {
    config: RespCacheConfig,
    index: IvfIndex,
    entries: BTreeMap<u64, Entry>,
    /// Recency order: `(touched, key)` — the first map entry is the LRU
    /// victim. Kept in lockstep with `entries[key].touched`.
    lru: BTreeMap<(u64, u64), u64>,
    touch_seq: u64,
    sketch: FreqSketch,
    stats: RespCacheStats,
}

impl ResponseCache {
    /// An empty cache with the given policy knobs.
    pub fn new(config: RespCacheConfig) -> Self {
        ResponseCache {
            config,
            index: IvfIndex::new(IvfConfig::default()),
            entries: BTreeMap::new(),
            lru: BTreeMap::new(),
            touch_seq: 0,
            sketch: FreqSketch::default(),
            stats: RespCacheStats::default(),
        }
    }

    /// The active policy knobs.
    pub fn config(&self) -> &RespCacheConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> RespCacheStats {
        self.stats
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a sighting of the query in the trending sketch *without*
    /// performing a lookup, and returns the query's count in the
    /// window. The engine calls this once per arrival, right before its
    /// [`ResponseCache::lookup`], so a stampede of N identical arrivals
    /// misses until the sketch counts `prepop_min` of them; that miss
    /// is admitted and the remaining members hit it — one insertion per
    /// stampede.
    pub fn observe(&mut self, embedding: &Embedding, now: f64) -> u64 {
        self.sketch
            .observe(embedding_key(embedding), now, self.config.window_s)
    }

    /// The stage-0 probe: nearest stored response by cosine similarity,
    /// accepted at `threshold`. Stale entries the probe lands on are
    /// evicted lazily and the probe retries, so a hit is always fresh.
    /// Counts one lookup (and at most one hit).
    pub fn lookup(&mut self, embedding: &Embedding, now: f64) -> Option<CachedResponse> {
        self.stats.lookups += 1;
        loop {
            let hit = self.index.search(embedding, 1).into_iter().next()?;
            if hit.similarity < self.config.threshold {
                return None;
            }
            if now - self.entries[&hit.id].inserted_at > self.config.ttl_s {
                self.evict(hit.id);
                self.stats.stale_evictions += 1;
                continue;
            }
            self.touch(hit.id);
            self.stats.hits += 1;
            return Some(self.entries[&hit.id].response.clone());
        }
    }

    /// Offers a freshly served response for admission. Admission is
    /// gated by the trending sketch: the query must have been observed
    /// at least `prepop_min` times in the current window (the predictive
    /// pre-population policy — see the crate docs). Re-offering a key
    /// already stored refreshes its timestamp instead of duplicating it.
    /// Returns whether the response was admitted (or refreshed).
    pub fn admit(&mut self, embedding: &Embedding, response: CachedResponse, now: f64) -> bool {
        let key = embedding_key(embedding);
        if self.sketch.count(key) < self.config.prepop_min {
            return false;
        }
        let bytes = entry_bytes(embedding.dim(), response.response_tokens);
        if bytes > self.config.budget_bytes as u64 {
            return false;
        }
        if self.entries.contains_key(&key) {
            // Refresh: new response, new TTL epoch, bumped recency.
            let old = self.entries.get_mut(&key).expect("checked above");
            self.stats.bytes = self.stats.bytes - old.bytes + bytes;
            old.response = response;
            old.inserted_at = now;
            old.bytes = bytes;
            self.touch(key);
        } else {
            self.touch_seq += 1;
            self.entries.insert(
                key,
                Entry {
                    response,
                    inserted_at: now,
                    touched: self.touch_seq,
                    bytes,
                },
            );
            self.lru.insert((self.touch_seq, key), key);
            self.index.insert(key, embedding.clone());
            self.stats.bytes += bytes;
        }
        self.stats.prepopulations += 1;
        while self.stats.bytes > self.config.budget_bytes as u64 {
            let (&slot, &victim) = self.lru.iter().next().expect("bytes > 0 implies entries");
            debug_assert_eq!(slot.1, victim);
            self.evict(victim);
        }
        true
    }

    /// Bumps `key` to most-recently-used.
    fn touch(&mut self, key: u64) {
        let entry = self.entries.get_mut(&key).expect("touch of absent key");
        self.lru.remove(&(entry.touched, key));
        self.touch_seq += 1;
        entry.touched = self.touch_seq;
        self.lru.insert((self.touch_seq, key), key);
    }

    /// Drops `key` from the store, the recency order, and the index.
    fn evict(&mut self, key: u64) {
        let entry = self.entries.remove(&key).expect("evict of absent key");
        self.lru.remove(&(entry.touched, key));
        self.index.remove(key);
        self.stats.bytes -= entry.bytes;
    }
}

/// Approximate footprint of one entry: fixed bookkeeping plus the `f32`
/// key embedding plus ~4 bytes per cached response token.
fn entry_bytes(dim: usize, response_tokens: u32) -> u64 {
    64 + 4 * dim as u64 + 4 * u64::from(response_tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn resp(tokens: u32) -> CachedResponse {
        CachedResponse {
            model: 1,
            offloaded: true,
            quality: 0.9,
            examples: 4,
            response_tokens: tokens,
        }
    }

    fn unit(dim: usize, hot: usize) -> Embedding {
        let mut v = vec![0.0f32; dim];
        v[hot] = 1.0;
        Embedding::from_vec(v)
    }

    fn trending_cache(config: RespCacheConfig) -> ResponseCache {
        ResponseCache::new(config)
    }

    /// Observes `e` enough times for admission to pass at the default
    /// `prepop_min = 2`.
    fn make_trending(cache: &mut ResponseCache, e: &Embedding, now: f64) {
        for _ in 0..cache.config().prepop_min {
            cache.observe(e, now);
        }
    }

    #[test]
    fn exact_duplicate_hits_and_counts() {
        let mut c = trending_cache(RespCacheConfig::default());
        let q = unit(8, 0);
        make_trending(&mut c, &q, 0.0);
        assert!(c.lookup(&q, 0.0).is_none(), "empty store misses");
        assert!(c.admit(&q, resp(100), 0.0));
        let hit = c.lookup(&q, 1.0).expect("exact duplicate must hit");
        assert_eq!(hit, resp(100));
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.prepopulations), (2, 1, 1));
        assert!(s.hit_ratio() > 0.49 && s.hit_ratio() < 0.51);
    }

    #[test]
    fn threshold_gates_near_duplicates() {
        let mut c = trending_cache(RespCacheConfig {
            threshold: 0.95,
            ..RespCacheConfig::default()
        });
        let q = Embedding::from_vec(vec![1.0, 0.0]).normalized();
        make_trending(&mut c, &q, 0.0);
        assert!(c.admit(&q, resp(10), 0.0));
        // cos = 0.6 — well below threshold.
        let far = Embedding::from_vec(vec![0.6, 0.8]);
        assert!(c.lookup(&far, 0.0).is_none());
        // cos ≈ 0.995 — above threshold.
        let near = Embedding::from_vec(vec![0.995, 0.0998]).normalized();
        assert!(c.lookup(&near, 0.0).is_some());
    }

    #[test]
    fn one_off_queries_are_never_admitted() {
        let mut c = trending_cache(RespCacheConfig::default());
        let q = unit(4, 1);
        c.observe(&q, 0.0); // Seen once; prepop_min is 2.
        assert!(!c.admit(&q, resp(10), 0.0));
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().prepopulations, 0);
    }

    #[test]
    fn window_rollover_forgets_trends() {
        let mut c = trending_cache(RespCacheConfig {
            window_s: 10.0,
            ..RespCacheConfig::default()
        });
        let q = unit(4, 0);
        c.observe(&q, 0.0);
        // Past the window: the earlier sighting is forgotten.
        assert_eq!(c.observe(&q, 20.0), 1);
        assert!(!c.admit(&q, resp(10), 20.0));
    }

    #[test]
    fn stale_entries_are_evicted_on_lookup() {
        let mut c = trending_cache(RespCacheConfig {
            ttl_s: 5.0,
            ..RespCacheConfig::default()
        });
        let q = unit(4, 2);
        make_trending(&mut c, &q, 0.0);
        assert!(c.admit(&q, resp(10), 0.0));
        assert!(c.lookup(&q, 4.9).is_some(), "fresh within TTL");
        assert!(c.lookup(&q, 10.0).is_none(), "stale past TTL");
        let s = c.stats();
        assert_eq!(s.stale_evictions, 1);
        assert_eq!(c.len(), 0);
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn refresh_resets_ttl_and_replaces_response() {
        let mut c = trending_cache(RespCacheConfig {
            ttl_s: 5.0,
            ..RespCacheConfig::default()
        });
        let q = unit(4, 0);
        make_trending(&mut c, &q, 0.0);
        assert!(c.admit(&q, resp(10), 0.0));
        make_trending(&mut c, &q, 4.0);
        assert!(c.admit(&q, resp(20), 4.0));
        assert_eq!(c.len(), 1, "refresh must not duplicate");
        // Alive at t=8 only because the refresh restarted the TTL.
        assert_eq!(c.lookup(&q, 8.0), Some(resp(20)));
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        // Each entry: 64 + 16 + 400 = 480 bytes; budget fits two.
        let mut c = trending_cache(RespCacheConfig {
            budget_bytes: 1000,
            ..RespCacheConfig::default()
        });
        let (a, b, d) = (unit(4, 0), unit(4, 1), unit(4, 2));
        for q in [&a, &b, &d] {
            make_trending(&mut c, q, 0.0);
        }
        assert!(c.admit(&a, resp(100), 0.0));
        assert!(c.admit(&b, resp(100), 0.0));
        // Touch `a` so `b` is the LRU victim.
        assert!(c.lookup(&a, 0.0).is_some());
        assert!(c.admit(&d, resp(100), 0.0));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&a, 0.0).is_some(), "recently touched survives");
        assert!(c.lookup(&d, 0.0).is_some(), "newest survives");
        assert!(c.lookup(&b, 0.0).is_none(), "LRU victim evicted");
        assert_eq!(c.stats().bytes, 960);
    }

    #[test]
    fn oversized_response_is_rejected_outright() {
        let mut c = trending_cache(RespCacheConfig {
            budget_bytes: 100,
            ..RespCacheConfig::default()
        });
        let q = unit(4, 0);
        make_trending(&mut c, &q, 0.0);
        assert!(!c.admit(&q, resp(1000), 0.0));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn stampede_batch_pays_one_insertion() {
        // N identical same-tick arrivals, each observed as it is looked
        // up (the engine's sequence): the members miss until the sketch
        // counts `prepop_min = 2` of them, the second miss is admitted
        // and the other N−2 hit the single entry.
        let n = 8;
        let mut c = trending_cache(RespCacheConfig::default());
        let q = unit(8, 3);
        let mut hits = 0;
        for k in 0..n {
            c.observe(&q, 0.0);
            match c.lookup(&q, 0.0) {
                Some(_) => hits += 1,
                None => assert_eq!(c.admit(&q, resp(50), 0.0), k == 1),
            }
        }
        assert_eq!(hits, n - 2);
        assert_eq!(c.stats().prepopulations, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn embedding_key_is_stable_and_collision_resistant() {
        let a = unit(16, 0);
        let b = unit(16, 1);
        assert_eq!(embedding_key(&a), embedding_key(&a.clone()));
        assert_ne!(embedding_key(&a), embedding_key(&b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Replaying any operation sequence yields identical stats and
        /// store size — the cache is a deterministic state machine.
        /// (Each op is packed into one integer: kind, hot lane, tokens.)
        #[test]
        fn operations_are_deterministic(
            ops in proptest::collection::vec(0u64..3_600, 1..60),
        ) {
            let run = || {
                let mut c = ResponseCache::new(RespCacheConfig {
                    budget_bytes: 4096,
                    ttl_s: 8.0,
                    ..RespCacheConfig::default()
                });
                let mut now = 0.0;
                for &packed in &ops {
                    let (op, hot, tokens) =
                        (packed % 3, (packed / 3 % 6) as usize, (packed / 18) as u32);
                    now += 0.5;
                    let q = unit(8, hot);
                    match op {
                        0 => {
                            c.observe(&q, now);
                        }
                        1 => {
                            c.lookup(&q, now);
                        }
                        _ => {
                            c.admit(&q, resp(tokens), now);
                        }
                    }
                }
                (c.stats(), c.len())
            };
            prop_assert_eq!(run(), run());
        }

        /// The byte counter never exceeds the budget after an admission
        /// settles, and always equals the sum over live entries. (Each
        /// item packs the hot lane and a 1..300 token count.)
        #[test]
        fn byte_accounting_is_exact(
            packed_hots in proptest::collection::vec(0u64..1_495, 1..40),
        ) {
            let mut c = ResponseCache::new(RespCacheConfig {
                budget_bytes: 2048,
                ..RespCacheConfig::default()
            });
            for (i, &packed) in packed_hots.iter().enumerate() {
                let (hot, tokens) = ((packed % 5) as usize, 1 + (packed / 5) as u32);
                let now = i as f64;
                let q = unit(8, hot);
                make_trending(&mut c, &q, now);
                c.admit(&q, resp(tokens), now);
                prop_assert!(c.stats().bytes <= 2048);
                let live: u64 = c.entries.values().map(|e| e.bytes).sum();
                prop_assert_eq!(c.stats().bytes, live);
                prop_assert_eq!(c.entries.len(), c.lru.len());
                prop_assert_eq!(c.entries.len(), c.index.len());
            }
        }
    }
}
