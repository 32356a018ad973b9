//! Property tests: the IVF index's lane scan is a schedule change, not a
//! numeric one. Random insert / remove / re-insert / retrain schedules
//! run against a naive `Vec<(ItemId, Embedding)>` store scored with the
//! scalar [`Embedding::cosine`]; every hit `search` returns must carry
//! the oracle's similarity for that id, bit for bit, and — whenever the
//! index scans everything — the hit list must *be* the oracle's top `k`.
//!
//! The generators aim at the places a transposed kernel goes wrong:
//! dims that are not a multiple of the lane width, posting lists of
//! 0/1/7/8/9/17 members, padding lanes (which must never surface as
//! hits — a stale or zero lane would score as an unknown id or a
//! duplicate), zero-norm rows, and rows whose products with the query
//! are all `-0.0` (`Iterator::sum` starts from `-0.0`, so must the lane
//! accumulators).

use std::collections::HashMap;

use ic_embed::Embedding;
use ic_vecindex::{ItemId, IvfConfig, IvfIndex, SearchHit, VectorIndex, kmeans};
use proptest::prelude::*;

/// Components from a tiny signed set, so zero vectors, duplicate rows
/// (exact ties) and sign-only differences occur routinely.
fn embedding(raw: &[i32], dim: usize) -> Embedding {
    Embedding::from_vec(raw.iter().take(dim).map(|&v| v as f32 * 0.5).collect())
}

/// The scalar oracle: every stored item scored with `Embedding::cosine`,
/// fully sorted by `(similarity desc, id asc)`.
fn oracle(store: &[(ItemId, Embedding)], q: &Embedding) -> Vec<SearchHit> {
    let mut hits: Vec<SearchHit> = store
        .iter()
        .map(|(id, e)| SearchHit {
            id: *id,
            similarity: q.cosine(e),
        })
        .collect();
    hits.sort_by(|a, b| {
        b.similarity
            .partial_cmp(&a.similarity)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });
    hits
}

/// `hits` is a correctly ordered list of distinct stored ids, each with
/// the oracle's similarity bits; exactly the oracle's prefix when the
/// index scanned everything.
fn check(idx: &IvfIndex, store: &[(ItemId, Embedding)], q: &Embedding, k: usize, context: &str) {
    let want = oracle(store, q);
    let bits: HashMap<ItemId, u64> = want
        .iter()
        .map(|h| (h.id, h.similarity.to_bits()))
        .collect();
    let got = idx.search(q, k);
    assert!(got.len() <= k.min(store.len()), "{context}: too many hits");
    let mut seen = std::collections::HashSet::new();
    for hit in &got {
        let expect = bits
            .get(&hit.id)
            .unwrap_or_else(|| panic!("{context}: hit for unknown id {}", hit.id));
        assert_eq!(
            hit.similarity.to_bits(),
            *expect,
            "{context}: similarity bits for id {}",
            hit.id
        );
        assert!(seen.insert(hit.id), "{context}: id {} twice", hit.id);
    }
    for w in got.windows(2) {
        let ordered = w[0].similarity > w[1].similarity
            || (w[0].similarity == w[1].similarity && w[0].id < w[1].id);
        assert!(ordered, "{context}: hits out of order");
    }
    if idx.is_brute_force() {
        assert_eq!(got.len(), k.min(store.len()), "{context}: hit count");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id, "{context}: exact order");
        }
    }
}

/// Dims on both sides of the lane width, none but 64 a multiple of it.
const DIMS: [usize; 5] = [1, 7, 9, 64, 70];
/// Pool sizes that leave every partial-group shape in a posting list.
const LENS: [usize; 6] = [0, 1, 7, 8, 9, 17];

/// A row with a non-zero norm whose products with [`negative_query`]
/// are all `-0.0` (`1 * -0.0`, then `0 * -1` per remaining component).
fn negative_zero_row(dim: usize) -> Embedding {
    let mut row = vec![0.0f32; dim];
    row[0] = 1.0;
    Embedding::from_vec(row)
}

fn negative_query(dim: usize) -> Embedding {
    let mut q = vec![-1.0f32; dim];
    q[0] = -0.0;
    Embedding::from_vec(q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random insert / remove / re-insert / retrain schedules over a
    /// small id space (so overwrites, and removals that displace a
    /// list's last member, are common), checked every few operations on
    /// both sides of the brute-force boundary.
    #[test]
    fn search_matches_the_scalar_oracle_under_churn(
        dim in (0usize..5).prop_map(|i| DIMS[i]),
        kinds in proptest::collection::vec(0u32..10, 1..120),
        ids in proptest::collection::vec(0u64..48, 120),
        rows in proptest::collection::vec(proptest::collection::vec(-2i32..3, 70), 120),
        queries in proptest::collection::vec(proptest::collection::vec(-2i32..3, 70), 1..4),
        k in 1usize..40,
        nprobe in 1usize..4,
        brute_below in (0usize..4).prop_map(|i| [0usize, 4, 16, 64][i]),
    ) {
        let mut idx = IvfIndex::new(IvfConfig {
            nprobe,
            brute_force_below: brute_below,
            train_iters: 4,
            ..IvfConfig::default()
        });
        let mut store: Vec<(ItemId, Embedding)> = Vec::new();
        let qs: Vec<Embedding> = queries.iter().map(|raw| embedding(raw, dim)).collect();
        for (step, &kind) in kinds.iter().enumerate() {
            let id = ids[step];
            match kind {
                // 6 in 10: insert, or overwrite a live id.
                0..=5 => {
                    let e = embedding(&rows[step], dim);
                    store.retain(|(i, _)| *i != id);
                    store.push((id, e.clone()));
                    idx.insert(id, e);
                }
                6..=8 => {
                    let before = store.len();
                    store.retain(|(i, _)| *i != id);
                    prop_assert_eq!(idx.remove(id), store.len() < before);
                }
                _ => idx.retrain(),
            }
            prop_assert_eq!(idx.len(), store.len());
            if step % 5 == 0 || step + 1 == kinds.len() {
                for q in &qs {
                    check(&idx, &store, q, k, &format!("dim={dim} step={step}"));
                }
            }
        }
    }

    /// Pools of exactly 0/1/7/8/9/17 rows — one posting list while
    /// untrained, a few short ones after `retrain` — with a zero-norm
    /// row and an all-`-0.0`-products row always among them.
    #[test]
    fn list_lengths_around_the_lane_width(
        dim in (0usize..5).prop_map(|i| DIMS[i]),
        n in (0usize..6).prop_map(|i| LENS[i]),
        rows in proptest::collection::vec(proptest::collection::vec(-2i32..3, 70), 17),
        trained in 0u32..2,
    ) {
        let mut idx = IvfIndex::new(IvfConfig::default());
        let mut store: Vec<(ItemId, Embedding)> = Vec::new();
        for (i, raw) in rows.iter().take(n).enumerate() {
            let e = match i {
                0 => Embedding::zeros(dim),
                1 => negative_zero_row(dim),
                _ => embedding(raw, dim),
            };
            store.push((i as ItemId, e.clone()));
            idx.insert(i as ItemId, e);
        }
        if trained == 1 {
            idx.retrain();
        }
        // Below `brute_force_below` every list is probed, trained or
        // not, so `check` demands the oracle's exact top 32.
        prop_assert!(idx.is_brute_force());
        prop_assert_eq!(idx.num_clusters() > 0, trained == 1 && n > 0);
        let ones = Embedding::from_vec(vec![1.0; dim]);
        for q in [&negative_query(dim), &ones, &Embedding::zeros(dim)] {
            check(&idx, &store, q, 32, &format!("dim={dim} n={n} trained={trained}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The probe ranks centroids over the `f64` query it already holds
    /// (`assign_top_n_widened`) instead of widening the `f32` row a
    /// second time: same distances, same order as the scalar
    /// `Embedding::sq_dist` chain sorted by `(distance, index)` — tiny
    /// component sets make equidistant centroids routine — and as
    /// `assign_top_n` on the row itself.
    #[test]
    fn centroid_rank_over_the_widened_query_matches_the_scalar_chain(
        dim in (0usize..5).prop_map(|i| DIMS[i]),
        rows in proptest::collection::vec(proptest::collection::vec(-2i32..3, 70), 1..40),
        k in 1usize..20,
        query in proptest::collection::vec(-2i32..3, 70),
        n in 0usize..24,
    ) {
        let data: Vec<Embedding> = rows.iter().map(|raw| embedding(raw, dim)).collect();
        let model = kmeans(&data, k, 4, 17).expect("non-empty data trains");
        let q = embedding(&query, dim);
        let q64: Vec<f64> = q.as_slice().iter().map(|&x| f64::from(x)).collect();
        let mut want: Vec<usize> = (0..model.k()).collect();
        want.sort_by(|&a, &b| {
            let (da, db) = (model.centroids()[a].sq_dist(&q), model.centroids()[b].sq_dist(&q));
            da.partial_cmp(&db).unwrap()
        });
        want.truncate(n);
        let got = model.assign_top_n_widened(&q64, n);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got, model.assign_top_n(&q, n));
    }
}

/// `dot_slices` over products that are all `-0.0` returns `-0.0` (the
/// `sum` identity), which the division and the clamp carry into the
/// similarity; a lane accumulator started from `+0.0` would differ in
/// the sign bit.
#[test]
fn all_negative_zero_products_keep_the_scalar_sign_bit() {
    for dim in [2usize, 7, 8, 9, 64] {
        let (row, q) = (negative_zero_row(dim), negative_query(dim));
        let mut idx = IvfIndex::new(IvfConfig::default());
        idx.insert(7, row.clone());
        let hits = idx.search(&q, 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].similarity.to_bits(),
            q.cosine(&row).to_bits(),
            "dim={dim}"
        );
        assert!(hits[0].similarity.is_sign_negative(), "dim={dim}");
    }
}
