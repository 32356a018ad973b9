//! Naive-oracle differential test for the bounded Lloyd passes.
//!
//! `kmeans_fit_rows` prunes its assignment passes with distance bounds
//! and seeds with a lane scan of the transposed points; the contract is
//! that none of it shows. The oracle here is the algorithm stated plainly — k-means++
//! on scalar `sq_dist_slices`, then Lloyd with a full scalar scan per
//! point per pass and a strict `<` in index order — and the fit must
//! agree with it on every centroid bit, every assignment and the
//! inertia bits, at every thread count.
//!
//! The adversarial cases are the ones a sloppy bound gets wrong: exact
//! ties (identical points, points duplicating a centroid, lattice points
//! equidistant from two centroids — the lower index must win), zero
//! vectors, and clusters that go empty. That the skip margin is what
//! keeps them right is shown next to the margin itself
//! (`kmeans.rs::tests::a_bound_one_ulp_short_loses_the_tie`).

use ic_embed::{Embedding, TopicSpace, TopicSpaceConfig, sq_dist_slices};
use ic_stats::rng::rng_from_seed;
use ic_vecindex::kmeans_fit_rows;
use proptest::prelude::*;
use rand::RngExt;

/// What the oracle and the fit are compared on.
#[derive(Debug, PartialEq)]
struct Fit {
    centroids: Vec<Vec<u32>>,
    assignment: Vec<usize>,
    inertia: u64,
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// Index and squared distance of the first nearest centroid.
fn nearest(centroids: &[Vec<f32>], row: &[f32]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (j, c) in centroids.iter().enumerate() {
        let d = sq_dist_slices(c, row);
        if d < best.1 {
            best = (j, d);
        }
    }
    best
}

/// Lloyd's algorithm with k-means++ seeding, nothing clever.
fn oracle(rows: &[&[f32]], k: usize, max_iters: usize, seed: u64) -> Fit {
    let (n, dim, k) = (rows.len(), rows[0].len(), k.min(rows.len()));
    let mut rng = rng_from_seed(seed);
    let mut centroids: Vec<Vec<f32>> = vec![rows[rng.random_range(0..n)].to_vec()];
    while centroids.len() < k {
        let d2: Vec<f64> = rows.iter().map(|r| nearest(&centroids, r).1).collect();
        let total: f64 = d2.iter().sum();
        let next = if total <= f64::EPSILON {
            rng.random_range(0..n)
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut idx = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    idx = i;
                    break;
                }
                target -= w;
            }
            idx
        };
        centroids.push(rows[next].to_vec());
    }
    let mut assignment = vec![usize::MAX; n];
    for _ in 0..max_iters {
        let new: Vec<usize> = rows.iter().map(|r| nearest(&centroids, r).0).collect();
        let changed = new != assignment;
        assignment = new;
        if !changed {
            break;
        }
        let mut sums = vec![vec![0.0f32; dim]; k];
        let mut counts = vec![0usize; k];
        for (row, &a) in rows.iter().zip(&assignment) {
            for (acc, &x) in sums[a].iter_mut().zip(*row) {
                *acc += x;
            }
            counts[a] += 1;
        }
        for ((c, sum), &count) in centroids.iter_mut().zip(&sums).zip(&counts) {
            if count > 0 {
                let inv = 1.0 / count as f64;
                for (x, &s) in c.iter_mut().zip(sum) {
                    *x = (f64::from(s) * inv) as f32;
                }
            }
        }
    }
    let last: Vec<(usize, f64)> = rows.iter().map(|r| nearest(&centroids, r)).collect();
    Fit {
        centroids: centroids.iter().map(|c| bits(c)).collect(),
        assignment: last.iter().map(|&(a, _)| a).collect(),
        inertia: last.iter().map(|&(_, d)| d).sum::<f64>().to_bits(),
    }
}

fn fitted(rows: &[&[f32]], k: usize, max_iters: usize, seed: u64, threads: usize) -> Fit {
    let fit = kmeans_fit_rows(rows, k, max_iters, seed, threads).expect("non-empty data");
    assert!(fit.group_scans <= fit.group_scans_full);
    Fit {
        centroids: fit
            .model
            .centroids()
            .iter()
            .map(|c| bits(c.as_slice()))
            .collect(),
        assignment: fit.assignment,
        inertia: fit.inertia.to_bits(),
    }
}

/// The fit agrees with the oracle at one thread and at `threads`.
fn assert_matches_oracle(
    data: &[Embedding],
    k: usize,
    max_iters: usize,
    seed: u64,
    threads: usize,
) {
    let rows: Vec<&[f32]> = data.iter().map(Embedding::as_slice).collect();
    let want = oracle(&rows, k, max_iters, seed);
    for t in [1, threads] {
        let got = fitted(&rows, k, max_iters, seed, t);
        assert_eq!(
            got,
            want,
            "n={} dim={} k={k} iters={max_iters} seed={seed} threads={t}",
            rows.len(),
            rows[0].len(),
        );
    }
}

/// Topic-clustered (`clustered`) or unstructured Gaussian points.
fn bank(n: usize, dim: usize, clustered: bool, seed: u64) -> Vec<Embedding> {
    let mut rng = rng_from_seed(seed);
    if !clustered {
        return (0..n)
            .map(|_| Embedding::gaussian(dim, 1.0, &mut rng))
            .collect();
    }
    let topics = n.isqrt().clamp(1, 40);
    let space = TopicSpace::generate(
        seed ^ 0x70,
        TopicSpaceConfig {
            dim,
            num_topics: topics,
            ..TopicSpaceConfig::default()
        },
    );
    (0..n)
        .map(|i| space.sample_member(i % topics, &mut rng))
        .collect()
}

const DIMS: [usize; 5] = [1, 7, 9, 64, 70];
const SIZES: [usize; 7] = [1, 7, 8, 9, 65, 500, 3_000];
const ITERS: [usize; 4] = [0, 1, 2, 15];
/// Cluster counts for the larger banks: around the lane width, one and
/// two groups past the 16-bucket table (129, 300), so buckets get shared.
const LARGE_K: [usize; 7] = [1, 7, 8, 9, 33, 129, 300];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounded_fit_matches_the_plain_oracle(
        dim in 0usize..DIMS.len(),
        size in 0usize..SIZES.len(),
        k_pick in 0usize..1_000,
        iters in 0usize..ITERS.len(),
        clustered in 0usize..2,
        seed in 0u64..1_000,
        threads in 1usize..9,
    ) {
        let n = SIZES[size];
        // Small banks take every k from 1 to past n; the large ones a
        // spread that keeps the oracle's n * k * dim * passes affordable.
        let k = if n <= 65 { 1 + k_pick % (n + 3) } else { LARGE_K[k_pick % LARGE_K.len()] };
        let data = bank(n, DIMS[dim], clustered == 1, seed);
        assert_matches_oracle(&data, k, ITERS[iters], seed, threads);
    }

    /// Small integer coordinates: every distance is exact, so points
    /// equidistant from two centroids, duplicates of a centroid and zero
    /// vectors are routine, and with k near n clusters go empty.
    #[test]
    fn lattice_ties_go_to_the_lower_index(
        raw in proptest::collection::vec(proptest::collection::vec(-2i32..3, 2), 1..120),
        k in 1usize..40,
        iters in 0usize..ITERS.len(),
        seed in 0u64..1_000,
        threads in 1usize..9,
    ) {
        let data: Vec<Embedding> = raw
            .iter()
            .map(|r| Embedding::from_vec(r.iter().map(|&v| v as f32).collect()))
            .collect();
        assert_matches_oracle(&data, k, ITERS[iters], seed, threads);
    }
}

#[test]
fn more_clusters_than_points_on_a_large_bank() {
    let data = bank(500, 9, true, 3);
    assert_matches_oracle(&data, 503, 2, 3, 4);
}

#[test]
fn identical_points_and_zero_vectors() {
    for dim in [1usize, 9] {
        let same = vec![Embedding::from_vec(vec![1.5; dim]); 70];
        let zeros = vec![Embedding::from_vec(vec![0.0; dim]); 70];
        for k in [1usize, 3, 9, 20] {
            assert_matches_oracle(&same, k, 15, 5, 3);
            assert_matches_oracle(&zeros, k, 15, 5, 3);
        }
    }
}

#[test]
fn a_line_of_points_equidistant_between_centroids() {
    // 1-D integers 0..n with every value repeated: centroids settle on
    // halves and integers, so many points sit exactly midway between two
    // of them — in different lane groups once k passes 8.
    for n in [40usize, 200] {
        let data: Vec<Embedding> = (0..n)
            .map(|i| Embedding::from_vec(vec![(i / 2) as f32]))
            .collect();
        for k in [2usize, 9, 17, 40] {
            for seed in 0..6 {
                assert_matches_oracle(&data, k, 15, seed, 2);
            }
        }
    }
}

#[test]
fn pruning_actually_prunes_on_clustered_data() {
    let data = bank(3_000, 64, true, 9);
    let rows: Vec<&[f32]> = data.iter().map(Embedding::as_slice).collect();
    let fit = kmeans_fit_rows(&rows, 54, 15, 9, 1).unwrap();
    assert!(fit.passes >= 2);
    assert!(
        fit.group_scans * 2 < fit.group_scans_full,
        "{} of {} lane-group scans",
        fit.group_scans,
        fit.group_scans_full
    );
}
