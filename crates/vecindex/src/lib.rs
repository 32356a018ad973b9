//! Vector similarity index substrate for IC-Cache example retrieval.
//!
//! Stage 1 of the Example Selector retrieves relevance candidates with a
//! dense similarity search (the paper uses GPU FAISS, §5). To keep
//! per-request cost sub-linear, cached examples are clustered offline with
//! K-means into `K = sqrt(N)` groups — the paper derives this by minimizing
//! `K + N/K` comparisons per query (§4.1) — and queries probe only the
//! nearest clusters.
//!
//! This crate provides:
//! - [`FlatIndex`] — exact brute-force search, one scalar
//!   [`Embedding::cosine`] per stored vector: the ground truth the IVF
//!   index is tested against,
//! - [`kmeans()`](kmeans::kmeans) — Lloyd's algorithm with k-means++ seeding,
//! - [`IvfIndex`] — the inverted-file index with the `sqrt(N)` rule,
//!   incremental inserts, lazy retraining, and configurable probe width.
//!
//! # One scan
//!
//! Everything hot in this crate — the k-means assignment step, ranking
//! centroids for a probe, and scoring a posting list — is the same loop
//! over the same layout: rows stored in groups of eight, component-major,
//! so one pass over the query advances eight independent `f64`
//! accumulators — in 256-bit registers where the host has AVX2 (the
//! crate-private `kernel` module). It reorders *which pair's* add
//! comes next, never the adds within a pair, so every
//! distance and similarity is bit-identical to the scalar reductions in
//! `ic-embed` and every result list is byte-identical to what
//! [`FlatIndex`]-style scoring of the same candidates returns. Each IVF
//! posting list owns its members' rows in that layout; there is no
//! second copy.
//!
//! The k-means fit has a second scan for the comparisons whose outcome
//! is not close (the crate-private `certified` module): an `f32` estimate
//! of every centroid distance with a derived error bound, which names
//! the exact scan's nearest centroid or hands the few it cannot separate
//! to exact distances — the same winner either way, for about half the
//! arithmetic.
//!
//! What follows a scan keeps a few of many — the 32 best of the ≈900
//! rows a probe scores, the 4 nearest of 128 centroids — and neither
//! sorts what it drops. The hit list maps each similarity to an integer
//! key of the same order, finds the `k`-th key with a selection over
//! the plain integers, keeps the hits at or above it and sorts only
//! those with the `(similarity desc, id asc)` comparator, which is what
//! a full stable sort followed by `truncate(k)` returns;
//! [`KMeansModel::assign_top_n`] keeps its `n` best in a sorted
//! `n`-slot buffer as the distances arrive.
//!
//! [`VectorIndex::search_batch`] answers a whole batch of queries with
//! results byte-identical to per-query [`VectorIndex::search`] — it *is*
//! per-query `search`; the single-query scan is already faster per query
//! than a query-blocked pass was — and stays as the batch entry point
//! icbench times (`vecindex.search_batch8_us_per_query`).
//!
//! # Examples
//!
//! ```
//! use ic_embed::Embedding;
//! use ic_vecindex::{FlatIndex, VectorIndex};
//!
//! let mut idx = FlatIndex::new();
//! idx.insert(1, Embedding::from_vec(vec![1.0, 0.0]));
//! idx.insert(2, Embedding::from_vec(vec![0.0, 1.0]));
//! let hits = idx.search(&Embedding::from_vec(vec![0.9, 0.1]), 1);
//! assert_eq!(hits[0].id, 1);
//! ```

pub(crate) mod certified;
pub mod flat;
pub mod ivf;
pub(crate) mod kernel;
pub mod kmeans;

pub use flat::FlatIndex;
pub use ivf::{BuildStats, IndexView, IvfConfig, IvfIndex, ProbeScratch, ProbeStamp, StoredRow};
pub use kmeans::{KMeansFit, KMeansModel, kmeans, kmeans_best_of, kmeans_fit_rows};

use ic_embed::Embedding;

/// Identifier of an indexed item (an example id in IC-Cache).
pub type ItemId = u64;

/// One search result: item id plus cosine similarity to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matched item.
    pub id: ItemId,
    /// Cosine similarity in `[-1, 1]`.
    pub similarity: f64,
}

/// Common interface over the index implementations.
pub trait VectorIndex {
    /// Inserts (or replaces) an item.
    fn insert(&mut self, id: ItemId, embedding: Embedding);

    /// Removes an item; returns whether it was present.
    fn remove(&mut self, id: ItemId) -> bool;

    /// Returns up to `k` most-similar items, sorted by descending
    /// similarity (ties broken by ascending id for determinism).
    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit>;

    /// Multi-query probe: `out[i]` is exactly `self.search(queries[i],
    /// k)` — same hits, same scores, same order.
    fn search_batch(&self, queries: &[&Embedding], k: usize) -> Vec<Vec<SearchHit>> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }

    /// Number of indexed items.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The `k` best hits — descending similarity, then ascending id —
/// in that order: exactly a stable `sort_by` on that order followed by
/// `truncate(k)`, without sorting what the truncation drops (see "One
/// scan" in the crate docs). Shared by the index implementations.
pub(crate) fn finalize_hits(mut hits: Vec<SearchHit>, k: usize) -> Vec<SearchHit> {
    finalize_in_place(&mut hits, k, &mut Vec::new());
    hits
}

/// [`finalize_hits`] in place, the rank keys in `keys` (cleared first):
/// allocates nothing once `keys` holds one key a hit.
pub(crate) fn finalize_in_place(hits: &mut Vec<SearchHit>, k: usize, keys: &mut Vec<u64>) {
    if k == 0 {
        hits.clear();
        return;
    }
    if k < hits.len() {
        keys.clear();
        keys.extend(hits.iter().map(|h| rank_key(h.similarity)));
        let cut = *keys.select_nth_unstable(k - 1).1;
        hits.retain(|h| rank_key(h.similarity) <= cut);
    }
    hits.sort_by(hit_order);
    hits.truncate(k);
}

/// The order of every hit list: descending similarity, ties (`0.0` and
/// `-0.0` among them) by ascending id.
pub(crate) fn hit_order(a: &SearchHit, b: &SearchHit) -> std::cmp::Ordering {
    b.similarity
        .partial_cmp(&a.similarity)
        .expect("similarities are finite")
        .then(a.id.cmp(&b.id))
}

/// `similarity` as an integer that sorts the other way round: a smaller
/// key is a larger similarity, and two similarities get the same key
/// exactly when `partial_cmp` calls them equal (`+ 0.0` turns `-0.0`
/// into `0.0`, the one pair of finite values with different bits that
/// compare equal).
#[inline]
fn rank_key(similarity: f64) -> u64 {
    debug_assert!(similarity.is_finite(), "similarities are finite");
    let bits = (similarity + 0.0).to_bits();
    // Non-negative values count down from the top of the lower half;
    // negative ones already ascend with their magnitude in the upper.
    if bits >> 63 == 0 {
        (u64::MAX >> 1) - bits
    } else {
        bits
    }
}

/// The paper's cluster-count rule: `K = sqrt(N)`, minimizing the per-query
/// comparison count `K + N/K` (§4.1). Always at least 1.
pub fn sqrt_cluster_count(n: usize) -> usize {
    ((n as f64).sqrt().round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sqrt_rule_matches_paper_argument() {
        // K + N/K is minimized at K = sqrt(N); check a few sizes.
        for n in [4usize, 100, 10_000, 123_456] {
            let k = sqrt_cluster_count(n);
            let cost = |k: usize| k as f64 + n as f64 / k as f64;
            // Neighboring K values must not be cheaper by more than
            // rounding slack.
            assert!(cost(k) <= cost((k + 1).max(1)) + 1.0);
            assert!(cost(k) <= cost(k.saturating_sub(1).max(1)) + 1.0);
        }
    }

    #[test]
    fn sqrt_rule_handles_small_pools() {
        assert_eq!(sqrt_cluster_count(0), 1);
        assert_eq!(sqrt_cluster_count(1), 1);
        assert_eq!(sqrt_cluster_count(2), 1);
        assert_eq!(sqrt_cluster_count(4), 2);
    }

    #[test]
    fn finalize_orders_and_truncates() {
        let hits = vec![
            SearchHit {
                id: 3,
                similarity: 0.5,
            },
            SearchHit {
                id: 1,
                similarity: 0.9,
            },
            SearchHit {
                id: 2,
                similarity: 0.9,
            },
        ];
        let out = finalize_hits(hits, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, 1); // Tie broken by id.
        assert_eq!(out[1].id, 2);
    }

    #[test]
    fn finalize_matches_the_full_sort_under_ties() {
        // Few distinct similarities (`0.0` and `-0.0` among them, which
        // compare equal), so ties straddle the cut at every `k`.
        let sims = [0.5, -0.0, 0.0, 0.25, 0.5, 1.0, -1.0, 0.0, 0.25];
        let hits: Vec<SearchHit> = (0..200u64)
            .map(|i| SearchHit {
                id: (i * 7919) % 200,
                similarity: sims[(i % 9) as usize],
            })
            .collect();
        let mut sorted = hits.clone();
        sorted.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap()
                .then(a.id.cmp(&b.id))
        });
        for k in [0usize, 1, 2, 31, 32, 33, 199, 200, 201, 1000] {
            let got = finalize_hits(hits.clone(), k);
            let want = &sorted[..k.min(sorted.len())];
            assert_eq!(got.len(), want.len(), "k={k}");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.id, w.id, "k={k}");
                assert_eq!(g.similarity.to_bits(), w.similarity.to_bits(), "k={k}");
            }
        }
        assert!(finalize_hits(Vec::new(), 5).is_empty());
    }

    proptest! {
        /// Select-k against the full sort: seven similarities (`0.0` and
        /// `-0.0` equal but not bit-equal, `±1.0` at the ends), one of
        /// them `heavy` so that more than `k` hits sit on the cut key,
        /// ids from a small range so that they repeat. A stable sort is
        /// the reference, so hits the order cannot tell apart keep their
        /// input order. Mutations that bite: `rank_key` without `+ 0.0`
        /// (cuts between `0.0` and `-0.0`), `<` for `<=` in the `retain`
        /// (drops the ties the cut falls among).
        #[test]
        fn finalize_is_the_stable_sort_truncated(
            picks in collection::vec(0usize..12, 0..140),
            ids in collection::vec(0u64..60, 140),
            heavy in 0usize..7,
        ) {
            let sims = [1.0, 0.5, 0.0, -0.0, -0.5, -1.0, 0.25];
            let hits: Vec<SearchHit> = (picks.iter().zip(&ids))
                .map(|(&p, &id)| SearchHit {
                    id,
                    similarity: sims[if p < 7 { p } else { heavy }],
                })
                .collect();
            let mut sorted = hits.clone();
            sorted.sort_by(|a, b| {
                b.similarity
                    .partial_cmp(&a.similarity)
                    .unwrap()
                    .then(a.id.cmp(&b.id))
            });
            let bits = |hits: &[SearchHit]| -> Vec<(ItemId, u64)> {
                hits.iter().map(|h| (h.id, h.similarity.to_bits())).collect()
            };
            let n = hits.len();
            for k in [0, 1, 2, 31, 32, 33, n.saturating_sub(1), n, n + 1] {
                let got = finalize_hits(hits.clone(), k);
                prop_assert_eq!(bits(&got), bits(&sorted[..k.min(n)]), "k={} n={}", k, n);
            }
        }
    }
}
