//! Property tests: the bulk build paths — the slab's `insert_bulk` and
//! the IVF index's `insert_bulk` — leave exactly the state one-by-one
//! inserts leave, bit for bit, under ties and across the IVF index's
//! brute-force boundary and lazy retrain cascade.

use ic_embed::{Embedding, EmbeddingSlab};
use ic_vecindex::{IvfConfig, IvfIndex, VectorIndex};
use proptest::prelude::*;

/// Components from a tiny discrete set so duplicate rows (assignment
/// ties) and zero vectors occur routinely — the cases where a subtly
/// different tie-break or summation order would show up first.
fn embedding(raw: &[i32]) -> Embedding {
    Embedding::from_vec(raw.iter().map(|&v| v as f32 * 0.25).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bulk slab building: same slots, same row bytes, same norm bits
    /// as one-by-one inserts.
    #[test]
    fn slab_bulk_insert_matches_sequential(
        rows in proptest::collection::vec(proptest::collection::vec(-2i32..3, 5), 1..80),
    ) {
        let embs: Vec<Embedding> = rows.iter().map(|r| embedding(r)).collect();
        let slices: Vec<&[f32]> = embs.iter().map(|e| e.as_slice()).collect();
        let mut seq = EmbeddingSlab::new();
        let seq_slots: Vec<u32> = slices.iter().map(|r| seq.insert(r)).collect();
        let mut bulk = EmbeddingSlab::new();
        let bulk_slots = bulk.insert_bulk(&slices, 1);
        prop_assert_eq!(seq_slots, bulk_slots);
        for (i, _) in slices.iter().enumerate() {
            let slot = i as u32;
            prop_assert_eq!(bulk.row(slot), seq.row(slot));
            prop_assert_eq!(bulk.norm(slot).to_bits(), seq.norm(slot).to_bits());
        }
    }

    /// IVF bulk build: search results (ids, similarity bits, order) and
    /// structure statistics identical to the per-item build, across the
    /// brute-force boundary and the lazy retrain cascade.
    #[test]
    fn ivf_bulk_build_matches_sequential(
        rows in proptest::collection::vec(proptest::collection::vec(-2i32..3, 5), 1..200),
        queries in proptest::collection::vec(proptest::collection::vec(-2i32..3, 5), 1..8),
        brute_below in 1usize..40,
    ) {
        let items: Vec<(u64, Embedding)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u64, embedding(r)))
            .collect();
        let config = IvfConfig {
            brute_force_below: brute_below,
            ..IvfConfig::default()
        };
        let mut seq = IvfIndex::new(config.clone());
        for (id, e) in &items {
            seq.insert(*id, e.clone());
        }
        let mut bulk = IvfIndex::new(config);
        bulk.insert_bulk(items);
        prop_assert_eq!(seq.len(), bulk.len());
        prop_assert_eq!(seq.num_clusters(), bulk.num_clusters());
        prop_assert_eq!(seq.is_brute_force(), bulk.is_brute_force());
        for raw in &queries {
            let q = embedding(raw);
            let a = seq.search(&q, 10);
            let b = bulk.search(&q, 10);
            prop_assert_eq!(a.len(), b.len());
            for (ha, hb) in a.iter().zip(&b) {
                prop_assert_eq!(ha.id, hb.id);
                prop_assert_eq!(ha.similarity.to_bits(), hb.similarity.to_bits());
            }
        }
    }
}
