//! Exact brute-force index.

use ic_embed::Embedding;
use ic_stats::IdMap;

use crate::{ItemId, SearchHit, VectorIndex, finalize_hits};

/// An exact index that scans every stored vector per query.
///
/// O(N) per search, but exact, and deliberately the plain scalar
/// [`Embedding::cosine`] per item: it is the correctness oracle the lane
/// scan of [`crate::IvfIndex`] is tested against.
#[derive(Debug, Default)]
pub struct FlatIndex {
    items: Vec<(ItemId, Embedding)>,
    by_id: IdMap<ItemId, usize>,
}

impl FlatIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty index with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            items: Vec::with_capacity(n),
            by_id: IdMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Iterates over stored `(id, embedding)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &Embedding)> {
        self.items.iter().map(|(id, e)| (*id, e))
    }

    /// Returns the stored embedding for `id`, if present.
    pub fn get(&self, id: ItemId) -> Option<&Embedding> {
        self.by_id.get(&id).map(|&i| &self.items[i].1)
    }
}

impl VectorIndex for FlatIndex {
    fn insert(&mut self, id: ItemId, embedding: Embedding) {
        match self.by_id.get(&id) {
            Some(&i) => self.items[i].1 = embedding,
            None => {
                self.by_id.insert(id, self.items.len());
                self.items.push((id, embedding));
            }
        }
    }

    fn remove(&mut self, id: ItemId) -> bool {
        let Some(pos) = self.by_id.remove(&id) else {
            return false;
        };
        // Swap-remove and patch the displaced item's position.
        self.items.swap_remove(pos);
        if pos < self.items.len() {
            let moved = self.items[pos].0;
            self.by_id.insert(moved, pos);
        }
        true
    }

    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit> {
        if k == 0 {
            return Vec::new();
        }
        let hits = self
            .items
            .iter()
            .map(|(id, e)| SearchHit {
                id: *id,
                similarity: query.cosine(e),
            })
            .collect();
        finalize_hits(hits, k)
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_stats::rng::rng_from_seed;

    fn unit(v: Vec<f32>) -> Embedding {
        Embedding::from_vec(v).normalized()
    }

    #[test]
    fn finds_nearest_neighbours_in_order() {
        let mut idx = FlatIndex::new();
        idx.insert(1, unit(vec![1.0, 0.0]));
        idx.insert(2, unit(vec![0.7, 0.7]));
        idx.insert(3, unit(vec![0.0, 1.0]));
        let hits = idx.search(&unit(vec![1.0, 0.1]), 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(hits[0].similarity > hits[1].similarity);
    }

    #[test]
    fn k_limits_results() {
        let mut idx = FlatIndex::new();
        for i in 0..10 {
            idx.insert(i, unit(vec![i as f32 + 1.0, 1.0]));
        }
        assert_eq!(idx.search(&unit(vec![1.0, 0.0]), 3).len(), 3);
        assert_eq!(idx.search(&unit(vec![1.0, 0.0]), 0).len(), 0);
        assert_eq!(idx.search(&unit(vec![1.0, 0.0]), 100).len(), 10);
    }

    #[test]
    fn insert_replaces_existing_id() {
        let mut idx = FlatIndex::new();
        idx.insert(1, unit(vec![1.0, 0.0]));
        idx.insert(1, unit(vec![0.0, 1.0]));
        assert_eq!(idx.len(), 1);
        let hits = idx.search(&unit(vec![0.0, 1.0]), 1);
        assert!(hits[0].similarity > 0.99);
    }

    #[test]
    fn remove_works_and_reports() {
        let mut idx = FlatIndex::new();
        idx.insert(1, unit(vec![1.0, 0.0]));
        idx.insert(2, unit(vec![0.0, 1.0]));
        assert!(idx.remove(1));
        assert!(!idx.remove(1));
        assert_eq!(idx.len(), 1);
        let hits = idx.search(&unit(vec![1.0, 0.0]), 2);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 2);
    }

    #[test]
    fn remove_middle_keeps_positions_consistent() {
        let mut idx = FlatIndex::new();
        for i in 0..5 {
            idx.insert(i, unit(vec![(i + 1) as f32, 1.0]));
        }
        idx.remove(2);
        // Every remaining id must still be retrievable.
        for i in [0u64, 1, 3, 4] {
            assert!(idx.get(i).is_some(), "lost id {i}");
        }
        assert!(idx.get(2).is_none());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new();
        assert!(idx.is_empty());
        assert!(idx.search(&unit(vec![1.0, 0.0]), 5).is_empty());
    }

    #[test]
    fn search_batch_matches_sequential_bitwise() {
        let mut idx = FlatIndex::new();
        let mut rng = rng_from_seed(9);
        for i in 0..300 {
            idx.insert(i, Embedding::gaussian(16, 1.0, &mut rng));
        }
        let queries: Vec<Embedding> = (0..23)
            .map(|_| Embedding::gaussian(16, 1.0, &mut rng))
            .collect();
        let qrefs: Vec<&Embedding> = queries.iter().collect();
        let batch = idx.search_batch(&qrefs, 7);
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch) {
            let want = idx.search(q, 7);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id);
                assert_eq!(g.similarity.to_bits(), w.similarity.to_bits());
            }
        }
        // Degenerate shapes stay well-formed.
        assert!(idx.search_batch(&[], 7).is_empty());
        assert_eq!(idx.search_batch(&qrefs, 0), vec![Vec::new(); 23]);
        assert_eq!(FlatIndex::new().search_batch(&qrefs, 5).len(), 23);
    }

    #[test]
    fn search_is_deterministic() {
        let mut idx = FlatIndex::new();
        let mut rng = rng_from_seed(3);
        for i in 0..200 {
            idx.insert(i, Embedding::gaussian(8, 1.0, &mut rng).normalized());
        }
        let q = Embedding::gaussian(8, 1.0, &mut rng).normalized();
        let a = idx.search(&q, 10);
        let b = idx.search(&q, 10);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
        }
    }
}
