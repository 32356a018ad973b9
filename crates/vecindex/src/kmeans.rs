//! Lloyd's K-means with k-means++ seeding.
//!
//! Used by [`crate::IvfIndex`] to cluster cached examples offline (§4.1 of
//! the paper: "we can cluster cached examples offline into K groups using
//! K-Means").
//!
//! # The lane kernel, and why it is byte-for-byte the scalar loop
//!
//! The Lloyd assignment step — nearest centroid per point — dominates the
//! fit. The hot path packs the centroid table into the crate's one
//! lane-transposed table (`LaneBlocks`, see the `kernel` module docs):
//! one pass over a point's components advances eight independent
//! distance accumulators instead of one serial `f64` add chain. Each
//! per-pair distance is bit-identical to [`Embedding::sq_dist`], and the
//! argmin scans centroids in index order with the same strict `<` update,
//! so ties break to the same first index.
//!
//! A fitted [`KMeansModel`] keeps the table of its final centroids — the
//! one the fit's last assignment pass ran over, so it is built once — and
//! every query on the model ([`KMeansModel::assign`], [`KMeansModel::assign_top_n`],
//! [`KMeansModel::assign_batch_rows`], [`KMeansModel::inertia`]) reads it.
//!
//! # Parallelism (`threads`), and why it is bit-identical too
//!
//! The `*_threaded` entry points split *pure per-point* work — nearest
//! centroid, `d2` min-updates in the k-means++ init — over disjoint
//! contiguous point chunks ([`ic_embed::par::chunk_ranges`]). Each
//! point's result is a pure function of that point and the (frozen)
//! centroid table, so the parallel pass writes the very bytes the
//! sequential pass would. Everything order-sensitive stays sequential on
//! the calling thread: RNG draws, the `f32` centroid-update
//! accumulation, the inertia sum (accumulated in point-index order from
//! the per-point distances), and the best-of-seeds min scan (seed
//! order). `kmeans_best_of_threaded` additionally runs whole fits —
//! independent by construction — one seed per worker.

use ic_embed::{Embedding, par::chunk_ranges, sq_dist_slices};
use ic_stats::rng::rng_from_seed;
use rand::{Rng, RngExt};

use crate::keep_top;
use crate::kernel::{LaneBlocks, widen};

/// A fitted K-means model.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    centroids: Vec<Embedding>,
    /// `centroids`, lane-transposed for the distance scans.
    lanes: LaneBlocks<f64>,
}

impl KMeansModel {
    /// The cluster centroids.
    pub fn centroids(&self) -> &[Embedding] {
        &self.centroids
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Index of the centroid nearest to `v` (squared Euclidean distance).
    ///
    /// # Panics
    ///
    /// Panics if the model has no centroids (cannot happen for models
    /// produced by [`kmeans`]).
    pub fn assign(&self, v: &Embedding) -> usize {
        assert!(!self.centroids.is_empty(), "model has no centroids");
        self.lanes.nearest(&widen(v.as_slice())).0
    }

    /// [`Self::assign`] for a whole batch of component rows, over
    /// `threads` disjoint contiguous row chunks. `out[i]` is exactly
    /// `self.assign(&rows[i])` at any thread count.
    pub fn assign_batch_rows(&self, rows: &[&[f32]], threads: usize) -> Vec<usize> {
        if rows.is_empty() {
            return Vec::new();
        }
        assert!(!self.centroids.is_empty(), "model has no centroids");
        let mut assignment = vec![usize::MAX; rows.len()];
        assign_pass(&self.lanes, rows, &mut assignment, &mut [], threads);
        assignment
    }

    /// Indices of the `n` nearest centroids, closest first (equidistant
    /// centroids in index order).
    pub fn assign_top_n(&self, v: &Embedding, n: usize) -> Vec<usize> {
        let mut dists = Vec::with_capacity(self.k());
        self.lanes
            .sq_dists(&widen(v.as_slice()), |i, d| dists.push((d, i)));
        keep_top(&mut dists, n, |a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.1.cmp(&b.1))
        });
        dists.into_iter().map(|(_, i)| i).collect()
    }

    /// Total within-cluster squared distance of a dataset under this model.
    pub fn inertia(&self, data: &[Embedding]) -> f64 {
        data.iter()
            .map(|v| self.lanes.nearest(&widen(v.as_slice())).1)
            .sum()
    }
}

/// One assignment pass: nearest centroid per row through the lane
/// kernel, parallel over `threads` disjoint contiguous row chunks.
/// Writes each row's cluster into `assignment` (and, when `dists` is
/// non-empty, its distance into `dists`); returns whether any
/// assignment changed. Each row's result is a pure function of the row
/// and the frozen `lanes` table, so the output is identical at every
/// thread count; the `changed` flag is an order-insensitive OR.
fn assign_pass(
    lanes: &LaneBlocks<f64>,
    rows: &[&[f32]],
    assignment: &mut [usize],
    dists: &mut [f64],
    threads: usize,
) -> bool {
    fn run_chunk(
        lanes: &LaneBlocks<f64>,
        rows: &[&[f32]],
        assignment: &mut [usize],
        dists: &mut [f64],
    ) -> bool {
        let mut v64 = vec![0.0f64; lanes.dim()];
        let mut changed = false;
        for (i, row) in rows.iter().enumerate() {
            for (d, &x) in v64.iter_mut().zip(*row) {
                *d = f64::from(x);
            }
            let (a, d) = lanes.nearest(&v64);
            if a != assignment[i] {
                assignment[i] = a;
                changed = true;
            }
            if let Some(slot) = dists.get_mut(i) {
                *slot = d;
            }
        }
        changed
    }

    let ranges = chunk_ranges(rows.len(), threads);
    if ranges.len() <= 1 {
        return run_chunk(lanes, rows, assignment, dists);
    }
    std::thread::scope(|s| {
        let mut a_rest = assignment;
        let mut d_rest = dists;
        let mut handles = Vec::with_capacity(ranges.len());
        for range in &ranges {
            let (a_chunk, a_tail) = a_rest.split_at_mut(range.len());
            a_rest = a_tail;
            let (d_chunk, d_tail) = d_rest.split_at_mut(range.len().min(d_rest.len()));
            d_rest = d_tail;
            let rows = &rows[range.start..range.end];
            handles.push(s.spawn(move || run_chunk(lanes, rows, a_chunk, d_chunk)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("assignment worker panicked"))
            .fold(false, |acc, c| acc | c)
    })
}

/// Recomputes `d2[i] = min(d2[i], dist(rows[i], centroid))` (or just the
/// distance when `init`) over `threads` disjoint contiguous row chunks —
/// the k-means++ distance-table maintenance. Pure per row, so
/// bit-identical at any thread count.
fn d2_pass(rows: &[&[f32]], centroid: &[f32], d2: &mut [f64], init: bool, threads: usize) {
    fn run_chunk(rows: &[&[f32]], centroid: &[f32], d2: &mut [f64], init: bool) {
        for (slot, row) in d2.iter_mut().zip(rows) {
            let d = sq_dist_slices(row, centroid);
            *slot = if init { d } else { slot.min(d) };
        }
    }

    let ranges = chunk_ranges(rows.len(), threads);
    if ranges.len() <= 1 {
        run_chunk(rows, centroid, d2, init);
        return;
    }
    std::thread::scope(|s| {
        let mut rest = d2;
        for range in &ranges {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let rows = &rows[range.start..range.end];
            s.spawn(move || run_chunk(rows, centroid, chunk, init));
        }
    });
}

/// A K-means fit together with the by-products the IVF build wants:
/// the final per-point cluster assignment (computed under the *final*
/// centroids — exactly `model.assign` per point) and the fit's inertia
/// (exactly `model.inertia(data)`), both falling out of the last
/// assignment pass instead of costing an extra full scan each.
#[derive(Debug, Clone)]
pub struct KMeansFit {
    /// The fitted model.
    pub model: KMeansModel,
    /// `assignment[i]` == `model.assign(&data[i])`, bit for bit.
    pub assignment: Vec<usize>,
    /// `model.inertia(data)`, bit for bit (point-index-order sum).
    pub inertia: f64,
}

/// Fits K-means to `data` with k-means++ initialization.
///
/// `k` is clamped to `data.len()`; an empty dataset yields an empty model
/// is not allowed — returns `None` instead. Runs at most `max_iters` Lloyd
/// iterations, stopping early when assignments stabilize.
pub fn kmeans(data: &[Embedding], k: usize, max_iters: usize, seed: u64) -> Option<KMeansModel> {
    kmeans_threaded(data, k, max_iters, seed, 1)
}

/// [`kmeans`] with the pure per-point passes split over `threads`
/// worker threads. The fitted model is bit-identical to `threads = 1`
/// (see the module docs); `threads <= 1` runs inline.
pub fn kmeans_threaded(
    data: &[Embedding],
    k: usize,
    max_iters: usize,
    seed: u64,
    threads: usize,
) -> Option<KMeansModel> {
    let rows: Vec<&[f32]> = data.iter().map(|e| e.as_slice()).collect();
    kmeans_fit_rows(&rows, k, max_iters, seed, threads).map(|fit| fit.model)
}

/// The full fit over component rows (the slab-resident form — no
/// per-point `Embedding` materialization). This is the engine behind
/// every `kmeans*` entry point and the IVF retrain path.
pub fn kmeans_fit_rows(
    rows: &[&[f32]],
    k: usize,
    max_iters: usize,
    seed: u64,
    threads: usize,
) -> Option<KMeansFit> {
    if rows.is_empty() || k == 0 {
        return None;
    }
    let dim = rows[0].len();
    let k = k.min(rows.len());
    let mut rng = rng_from_seed(seed);
    let mut centroids = init_plus_plus(rows, k, &mut rng, threads);
    let mut assignment = vec![usize::MAX; rows.len()];
    let mut dists = vec![0.0f64; rows.len()];
    // Update-step accumulators, hoisted out of the loop (they used to be
    // reallocated per iteration) and flattened to one `k x dim` buffer.
    let mut sums = vec![0.0f32; k * dim];
    let mut counts = vec![0usize; k];
    // Whether `assignment`/`dists` reflect the *current* centroids (true
    // right after an assignment pass, false once the update step moves
    // them).
    let mut current = false;

    let mut lanes = LaneBlocks::from_rows(dim, centroids.iter().map(Embedding::as_slice));
    for _ in 0..max_iters {
        // Assignment step (parallel, pure per point).
        let changed = assign_pass(&lanes, rows, &mut assignment, &mut dists, threads);
        current = true;
        if !changed {
            break;
        }
        // Update step — sequential in point-index order: the `f32` sum
        // accumulation is order-sensitive, and this order is the
        // contract (`add_scaled(v, 1.0)` per point, exactly as before).
        sums.fill(0.0);
        counts.fill(0);
        for (row, &a) in rows.iter().zip(&assignment) {
            for (acc, &x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(*row) {
                *acc += x;
            }
            counts[a] += 1;
        }
        for (ci, c) in centroids.iter_mut().enumerate() {
            if counts[ci] > 0 {
                let inv = 1.0 / counts[ci] as f64;
                for (x, &s) in c
                    .as_mut_slice()
                    .iter_mut()
                    .zip(&sums[ci * dim..(ci + 1) * dim])
                {
                    *x = (f64::from(s) * inv) as f32;
                }
            }
            // Empty clusters keep their previous centroid; k-means++ makes
            // this rare and harmless.
        }
        lanes = LaneBlocks::from_rows(dim, centroids.iter().map(Embedding::as_slice));
        current = false;
    }
    if !current {
        // `max_iters` exhausted after an update: one more pass so the
        // returned assignment/inertia describe the final centroids.
        assign_pass(&lanes, rows, &mut assignment, &mut dists, threads);
    }
    let inertia = dists.iter().sum();
    Some(KMeansFit {
        model: KMeansModel { centroids, lanes },
        assignment,
        inertia,
    })
}

/// Best-of-`n_init` k-means: runs [`kmeans`] from `n_init` different
/// seeds and keeps the model with the lowest inertia — the standard
/// defence against an unlucky k-means++ draw merging true clusters.
pub fn kmeans_best_of(
    data: &[Embedding],
    k: usize,
    max_iters: usize,
    seed: u64,
    n_init: usize,
) -> Option<KMeansModel> {
    kmeans_best_of_threaded(data, k, max_iters, seed, n_init, 1)
}

/// [`kmeans_best_of`] with the independent seeds fitted one per worker
/// thread (each fit sequential inside). The winner is picked by a
/// sequential strict-`<` scan in seed order — the same first-minimum
/// rule as the sequential `min_by` — over per-fit inertias that are
/// bit-identical to the sequential runs', so the chosen model is too.
pub fn kmeans_best_of_threaded(
    data: &[Embedding],
    k: usize,
    max_iters: usize,
    seed: u64,
    n_init: usize,
    threads: usize,
) -> Option<KMeansModel> {
    let rows: Vec<&[f32]> = data.iter().map(|e| e.as_slice()).collect();
    let n_init = n_init.max(1) as u64;
    let fits: Vec<Option<KMeansFit>> = if threads > 1 && n_init > 1 {
        std::thread::scope(|s| {
            let rows = &rows;
            let handles: Vec<_> = (0..n_init)
                .map(|i| {
                    s.spawn(move || kmeans_fit_rows(rows, k, max_iters, seed.wrapping_add(i), 1))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("kmeans seed worker panicked"))
                .collect()
        })
    } else {
        (0..n_init)
            .map(|i| kmeans_fit_rows(&rows, k, max_iters, seed.wrapping_add(i), threads))
            .collect()
    };
    let mut best: Option<KMeansFit> = None;
    for fit in fits.into_iter().flatten() {
        let better = best.as_ref().is_none_or(|b| fit.inertia < b.inertia);
        if better {
            best = Some(fit);
        }
    }
    best.map(|fit| fit.model)
}

/// k-means++ seeding: first center uniform, subsequent centers sampled
/// proportionally to squared distance from the nearest chosen center.
/// The RNG draws and the weighted scan stay sequential; only the pure
/// per-point distance-table updates fan out over `threads`.
fn init_plus_plus(rows: &[&[f32]], k: usize, rng: &mut impl Rng, threads: usize) -> Vec<Embedding> {
    let mut centroids: Vec<Embedding> = Vec::with_capacity(k);
    centroids.push(Embedding::from_vec(
        rows[rng.random_range(0..rows.len())].to_vec(),
    ));
    let mut d2 = vec![0.0f64; rows.len()];
    d2_pass(rows, centroids[0].as_slice(), &mut d2, true, threads);
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with chosen centers; pick uniformly.
            rng.random_range(0..rows.len())
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut idx = rows.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    idx = i;
                    break;
                }
                target -= w;
            }
            idx
        };
        centroids.push(Embedding::from_vec(rows[next].to_vec()));
        let newest = centroids.last().expect("just pushed").clone();
        d2_pass(rows, newest.as_slice(), &mut d2, false, threads);
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_embed::{TopicSpace, TopicSpaceConfig};

    fn clustered_data(topics: usize, per_topic: usize) -> (Vec<Embedding>, Vec<usize>) {
        let space = TopicSpace::generate(
            5,
            TopicSpaceConfig {
                num_topics: topics,
                ..TopicSpaceConfig::default()
            },
        );
        let mut rng = rng_from_seed(6);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for t in 0..topics {
            for _ in 0..per_topic {
                data.push(space.sample_member(t, &mut rng));
                labels.push(t);
            }
        }
        (data, labels)
    }

    #[test]
    fn recovers_well_separated_clusters() {
        let (data, labels) = clustered_data(4, 50);
        let model = kmeans_best_of(&data, 4, 50, 7, 3).unwrap();
        // Same-topic points should overwhelmingly share an assigned cluster.
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..data.len() {
            for j in (i + 1)..data.len() {
                if labels[i] == labels[j] {
                    total += 1;
                    if model.assign(&data[i]) == model.assign(&data[j]) {
                        agree += 1;
                    }
                }
            }
        }
        let purity = agree as f64 / total as f64;
        assert!(purity > 0.9, "cluster purity too low: {purity}");
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (data, _) = clustered_data(8, 30);
        let m2 = kmeans(&data, 2, 30, 1).unwrap();
        let m8 = kmeans(&data, 8, 30, 1).unwrap();
        assert!(m8.inertia(&data) < m2.inertia(&data));
    }

    #[test]
    fn k_clamped_to_data_len() {
        let (data, _) = clustered_data(1, 3);
        let model = kmeans(&data, 10, 10, 2).unwrap();
        assert_eq!(model.k(), 3);
    }

    #[test]
    fn empty_inputs_yield_none() {
        assert!(kmeans(&[], 3, 10, 0).is_none());
        let (data, _) = clustered_data(1, 2);
        assert!(kmeans(&data, 0, 10, 0).is_none());
    }

    #[test]
    fn assign_top_n_is_sorted_by_distance() {
        let (data, _) = clustered_data(5, 20);
        let model = kmeans(&data, 5, 30, 3).unwrap();
        let q = &data[0];
        let top = model.assign_top_n(q, 5);
        assert_eq!(top.len(), 5);
        assert_eq!(top[0], model.assign(q));
        let d: Vec<f64> = top
            .iter()
            .map(|&i| model.centroids()[i].sq_dist(q))
            .collect();
        for w in d.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn identical_points_do_not_crash() {
        let data = vec![Embedding::from_vec(vec![1.0, 2.0]); 10];
        let model = kmeans(&data, 3, 10, 4).unwrap();
        assert_eq!(model.assign(&data[0]), model.assign(&data[9]));
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let (data, _) = clustered_data(4, 25);
        let a = kmeans(&data, 4, 25, 9).unwrap();
        let b = kmeans(&data, 4, 25, 9).unwrap();
        for (ca, cb) in a.centroids().iter().zip(b.centroids()) {
            assert_eq!(ca.as_slice(), cb.as_slice());
        }
    }

    #[test]
    fn model_queries_match_the_scalar_chain_bitwise() {
        // Awkward k values around the lane width: padding lanes and the
        // final partial group must never affect the argmin or the
        // probe order. The oracle is the scalar `sq_dist` loop.
        let (data, _) = clustered_data(8, 40);
        for k in [1usize, 7, 8, 9, 15, 17] {
            let model = kmeans(&data, k, 10, 11).unwrap();
            let mut inertia = Vec::new();
            for v in &data {
                let mut dists: Vec<(usize, f64)> = model
                    .centroids()
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (i, c.sq_dist(v)))
                    .collect();
                dists.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                let order: Vec<usize> = dists.iter().map(|&(i, _)| i).collect();
                assert_eq!(model.assign(v), order[0], "k={k}");
                for n in [0usize, 1, 4, k, k + 3] {
                    let want = &order[..n.min(k)];
                    assert_eq!(model.assign_top_n(v, n), want, "k={k} n={n}");
                }
                inertia.push(dists[0].1);
            }
            let want: f64 = inertia.iter().sum();
            assert_eq!(model.inertia(&data).to_bits(), want.to_bits(), "k={k}");
        }
    }

    #[test]
    fn threaded_fit_is_bit_identical_to_sequential() {
        let (data, _) = clustered_data(6, 40);
        let seq = kmeans(&data, 6, 25, 13).unwrap();
        // Thread counts beyond the point count degrade to per-point
        // chunks and must still produce the same fit.
        for threads in [2usize, 3, 4, 1000] {
            let par = kmeans_threaded(&data, 6, 25, 13, threads).unwrap();
            for (cs, cp) in seq.centroids().iter().zip(par.centroids()) {
                assert_eq!(cs.as_slice(), cp.as_slice(), "threads={threads}");
            }
        }
    }

    #[test]
    fn threaded_best_of_is_bit_identical_to_sequential() {
        let (data, _) = clustered_data(4, 30);
        let seq = kmeans_best_of(&data, 4, 20, 7, 3).unwrap();
        let par = kmeans_best_of_threaded(&data, 4, 20, 7, 3, 4).unwrap();
        for (cs, cp) in seq.centroids().iter().zip(par.centroids()) {
            assert_eq!(cs.as_slice(), cp.as_slice());
        }
    }

    #[test]
    fn fit_rows_assignment_and_inertia_match_model_queries() {
        let (data, _) = clustered_data(5, 30);
        let rows: Vec<&[f32]> = data.iter().map(|e| e.as_slice()).collect();
        // max_iters=2 exhausts before convergence, forcing the extra
        // final assignment pass; 50 converges and reuses the last one.
        for iters in [2usize, 50] {
            let fit = kmeans_fit_rows(&rows, 5, iters, 3, 1).unwrap();
            for (v, &a) in data.iter().zip(&fit.assignment) {
                assert_eq!(a, fit.model.assign(v), "iters={iters}");
            }
            assert_eq!(
                fit.inertia.to_bits(),
                fit.model.inertia(&data).to_bits(),
                "iters={iters}"
            );
        }
    }

    #[test]
    fn assign_batch_rows_matches_per_point_assign() {
        let (data, _) = clustered_data(6, 30);
        let model = kmeans(&data, 6, 20, 5).unwrap();
        let rows: Vec<&[f32]> = data.iter().map(|e| e.as_slice()).collect();
        for threads in [1usize, 3, 500] {
            let batch = model.assign_batch_rows(&rows, threads);
            for (v, &a) in data.iter().zip(&batch) {
                assert_eq!(a, model.assign(v), "threads={threads}");
            }
        }
        assert!(model.assign_batch_rows(&[], 4).is_empty());
    }
}
