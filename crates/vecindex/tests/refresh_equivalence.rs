//! Differential tests: a probe taken through a view at one generation and
//! brought up to a later one with `IvfIndex::refresh` is, bit for bit,
//! what `search` returns at the later generation, under random insert /
//! overwrite / remove / retrain schedules; a probe whose epoch has moved
//! is refused; and a view keeps answering for its own generation while
//! the live index is written (no write waits for it, or panics).
//!
//! The rows come from the generator `lane_scan_equivalence.rs` uses
//! (`common`): duplicate rows and exact ties, zero norms, dims around the
//! lane width. Mutations that fail these tests: dropping the list filter
//! in `refresh` (rows of lists the probe never scanned are merged),
//! dropping its epoch check (a probe from before a removal is merged),
//! dropping the new epoch on a brute-force flip in `IvfIndex::place`,
//! and dropping the id tie-break from `finalize_in_place` (tied hits
//! come out in scan order, which differs between a search and a merge).

mod common;

use common::{DIMS, LENS, embedding, negative_zero_row};
use ic_embed::Embedding;
use ic_vecindex::{
    IndexView, ItemId, IvfConfig, IvfIndex, ProbeScratch, ProbeStamp, SearchHit, VectorIndex,
};
use proptest::prelude::*;

fn bits(hits: &[SearchHit]) -> Vec<(ItemId, u64)> {
    hits.iter()
        .map(|h| (h.id, h.similarity.to_bits()))
        .collect()
}

/// Queries probed through one view: the view, and per query the stamp
/// and the hits, which are also what `search` returned then.
struct Probe {
    view: IndexView,
    hits: Vec<(ProbeStamp, Vec<SearchHit>)>,
}

impl Probe {
    /// Probes every query through a fresh view of `idx`, and checks the
    /// view's hits and stamps against the live index.
    fn take(idx: &IvfIndex, queries: &[Embedding], k: usize) -> Probe {
        let view = idx.view();
        let mut scratch = ProbeScratch::default();
        let hits = (queries.iter())
            .map(|q| {
                let mut out = Vec::new();
                let stamp = view.search_into(q, k, &mut scratch, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&idx.search(q, k)),
                    "a fresh view is the index"
                );
                assert_eq!(stamp.generation(), idx.generation());
                assert_eq!(stamp.epoch(), idx.epoch());
                (stamp, out)
            })
            .collect();
        assert_eq!(view.generation(), idx.generation());
        assert_eq!(view.epoch(), idx.epoch());
        Probe { view, hits }
    }

    /// Refreshes every query's hits against `idx`: bit for bit the live
    /// `search` in the probe's epoch, refused in any other; and the view
    /// still answers what it answered when it was taken.
    fn check(&self, idx: &IvfIndex, queries: &[Embedding], k: usize) {
        for (q, (stamp, hits)) in queries.iter().zip(&self.hits) {
            let mut refreshed = hits.clone();
            let fresh = idx.refresh(q, k, stamp, &mut refreshed);
            assert_eq!(
                fresh,
                stamp.epoch() == idx.epoch(),
                "refused iff the epoch moved"
            );
            if fresh {
                assert_eq!(
                    bits(&refreshed),
                    bits(&idx.search(q, k)),
                    "refreshed = search"
                );
            } else {
                assert_eq!(
                    bits(&refreshed),
                    bits(hits),
                    "a refused refresh leaves the hits"
                );
            }
            let mut again = Vec::new();
            (self.view).search_into(q, k, &mut ProbeScratch::default(), &mut again);
            assert_eq!(bits(&again), bits(hits), "the view's own generation");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random schedules — mostly fresh inserts (so epochs last and
    /// refreshes merge), with overwrites, removals and retrains — on
    /// both sides of the brute-force boundary. A probe is taken through
    /// a view every few steps, and every probe still alive is refreshed
    /// and checked after every write.
    #[test]
    fn a_refreshed_probe_is_the_search_at_the_later_generation(
        dim in (0usize..5).prop_map(|i| DIMS[i]),
        kinds in proptest::collection::vec(0u32..20, 1..160),
        picks in proptest::collection::vec(0usize..1_000, 160),
        rows in proptest::collection::vec(proptest::collection::vec(-2i32..3, 70), 160),
        queries in proptest::collection::vec(proptest::collection::vec(-2i32..3, 70), 1..4),
        k in 1usize..40,
        nprobe in 1usize..4,
        brute_below in (0usize..4).prop_map(|i| [0usize, 4, 16, 64][i]),
        every in 1usize..8,
    ) {
        let mut idx = IvfIndex::new(IvfConfig {
            nprobe,
            brute_force_below: brute_below,
            train_iters: 4,
            ..IvfConfig::default()
        });
        let qs: Vec<Embedding> = queries.iter().map(|raw| embedding(raw, dim)).collect();
        let mut live: Vec<ItemId> = Vec::new();
        let mut next_id: ItemId = 0;
        // The probe of the empty index: brute force over no list at all,
        // so every list created later counts as scanned.
        let mut probes = vec![Probe::take(&idx, &qs, k)];
        for (step, &kind) in kinds.iter().enumerate() {
            let (epoch, fits, brute) = (idx.epoch(), idx.build_stats().fits, idx.is_brute_force());
            let pick = (!live.is_empty()).then(|| picks[step] % live.len());
            let e = embedding(&rows[step], dim);
            let must_move = match (kind, pick) {
                // An overwrite of a live id.
                (14..=15, Some(p)) => {
                    idx.insert(live[p], e);
                    true
                }
                (16..=17, Some(p)) => {
                    prop_assert!(idx.remove(live.swap_remove(p)));
                    true
                }
                (18, _) => {
                    idx.retrain();
                    true
                }
                (19, _) => {
                    prop_assert!(!idx.remove(next_id), "absent");
                    false
                }
                _ => {
                    idx.insert(next_id, e);
                    live.push(next_id);
                    next_id += 1;
                    // A retrain the insert crossed, or a flip.
                    idx.build_stats().fits != fits || idx.is_brute_force() != brute
                }
            };
            prop_assert_eq!(idx.epoch() != epoch, must_move, "step {} kind {}", step, kind);
            prop_assert_eq!(idx.len(), live.len());
            for probe in &probes {
                probe.check(&idx, &qs, k);
            }
            if step % every == 0 {
                probes.push(Probe::take(&idx, &qs, k));
                if probes.len() > 4 {
                    probes.remove(0);
                }
            }
        }
    }

    /// Pools of exactly 0/1/7/8/9/17 rows, trained or not, a zero-norm
    /// row among them; then a burst of fresh inserts refreshed into a
    /// probe taken before it.
    #[test]
    fn a_burst_of_inserts_refreshes_into_an_earlier_probe(
        dim in (0usize..5).prop_map(|i| DIMS[i]),
        n in (0usize..6).prop_map(|i| LENS[i]),
        rows in proptest::collection::vec(proptest::collection::vec(-2i32..3, 70), 60),
        query in proptest::collection::vec(-2i32..3, 70),
        trained in 0u32..2,
        burst in 1usize..40,
        k in 1usize..40,
    ) {
        // Under 64 rows throughout: brute force, no retrain due.
        let mut idx = IvfIndex::new(IvfConfig {
            train_iters: 4,
            ..IvfConfig::default()
        });
        for (i, raw) in rows.iter().take(n).enumerate() {
            let e = if i == 0 { Embedding::zeros(dim) } else { embedding(raw, dim) };
            idx.insert(i as ItemId, e);
        }
        if trained == 1 {
            idx.retrain();
        }
        let qs = [embedding(&query, dim)];
        let probe = Probe::take(&idx, &qs, k);
        let epoch = idx.epoch();
        for (i, raw) in rows.iter().skip(n).take(burst).enumerate() {
            let e = if i == 0 { negative_zero_row(dim) } else { embedding(raw, dim) };
            idx.insert(1_000 + i as ItemId, e);
            probe.check(&idx, &qs, k);
        }
        prop_assert_eq!(idx.epoch(), epoch, "fresh inserts under the boundary");
    }
}

/// An index trained at 64 rows and brought back under 64 by removals
/// is brute force; the insert that takes it to 64 again flips it, and
/// the flip starts an epoch. A probe stamped while brute force counted
/// every list as scanned, so merging the new row into it would return
/// hits from lists a search at the new generation no longer scans.
#[test]
fn the_brute_force_flip_starts_an_epoch() {
    let mut idx = IvfIndex::new(IvfConfig {
        nprobe: 1,
        ..IvfConfig::default()
    });
    let row = |i: usize| {
        let raw: Vec<i32> = (0..16).map(|j| ((i * 7 + j * 3) % 5) as i32 - 2).collect();
        embedding(&raw, 16)
    };
    for i in 0..70 {
        idx.insert(i as ItemId, row(i));
    }
    assert!(!idx.is_brute_force() && idx.num_clusters() > 1);
    for i in 0..7 {
        assert!(idx.remove(i as ItemId));
    }
    assert!(idx.is_brute_force(), "63 rows, under the boundary");
    let q = row(3);
    let probe = Probe::take(&idx, std::slice::from_ref(&q), 63);
    let (epoch, fits) = (idx.epoch(), idx.build_stats().fits);
    idx.insert(100, row(100));
    assert_eq!(idx.build_stats().fits, fits, "no retrain: the flip alone");
    assert!(!idx.is_brute_force());
    assert_ne!(idx.epoch(), epoch, "the flip starts an epoch");
    let (stamp, mut hits) = probe.hits[0].clone();
    assert!(!idx.refresh(&q, 63, &stamp, &mut hits), "refused");
    // What a merge would have returned is not the search.
    assert!(
        idx.search(&q, 63).len() < 63,
        "the search scans one list of several"
    );
}
