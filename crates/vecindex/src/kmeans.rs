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
//! argmin is the `(distance, index)` minimum — what a strict `<` scan in
//! index order returns — so ties break to the same first index.
//! k-means++ seeding is the same scan the other way round: the points
//! are transposed once and each new centre is one pass over them.
//!
//! A fitted [`KMeansModel`] keeps the table of its final centroids — the
//! one the fit's last assignment pass ran over, so it is built once — and
//! every query on the model ([`KMeansModel::assign`], [`KMeansModel::assign_top_n`],
//! [`KMeansModel::assign_batch_rows`], [`KMeansModel::inertia`]) reads it.
//!
//! # Bounded passes: scanning only the centroids that could win
//!
//! From the second pass on few points change cluster, so most of a full
//! scan recomputes distances whose outcome is already decided. The fit
//! keeps, per point, an upper bound `u` on the distance to its own
//! centroid and one lower bound `l_b` per *bucket* of centroids — a lane
//! group of eight, or a few adjacent groups once there are more than 16
//! groups — on the distance to every other centroid of the bucket
//! (Yinyang k-means' group bounds, with the groups the lane kernel
//! already scans). After an update step moves centroid `j` by `m_j`, the
//! triangle inequality keeps them valid as `u + m_a` and
//! `l_b - max(m_j : j in b)`. A pass then, per point:
//!
//! 1. ages the bounds; if every `l_b` still exceeds `u`, no other
//!    centroid can be as near as the current one and nothing is scanned;
//! 2. otherwise scans the point's home bucket, which yields the exact
//!    distance to its centroid (tightening `u`) and to its bucket mates;
//! 3. scans each further bucket only if `l_b` does not exceed the best
//!    distance found so far, and refreshes the bounds of what it scanned.
//!
//! **Why a skipped bucket cannot change the argmin.** Candidates are
//! compared on the same bit-identical lane sums as a full scan, in
//! `(distance, index)` order, so the scan order is immaterial and the
//! only question is whether a skipped centroid could have been that
//! minimum. A bucket is skipped only when `l_b > u * (1 + margin)`.
//! In exact arithmetic `l_b <= d(x, c_j)` for every `j` in the bucket and
//! `u >= d(x, c_best)`, so `d(x, c_j) > d(x, c_best)` strictly: `j` loses
//! even the tie-break. In `f64` each quantity carries rounding: a
//! squared distance is a sum of `dim` non-negative terms (relative error
//! at most about `dim * 2^-53`), square roots and the aging additions add
//! `2^-53` each per pass, and a subtraction's error is relative to its
//! *result*. Two things absorb all of it: every recorded movement is
//! rounded **up** by the margin (so a bound that has shrunk a lot has
//! shrunk by more than its accumulated error), and the comparison itself
//! demands the margin (so a bound that has shrunk little is within a
//! relative `(dim + passes) * 2^-53` of exact — about `1e-14` at dim 64 —
//! against a margin of `1e-9`). The margin is sound while
//! `dim + max_iters` stays below a few million; it costs nothing
//! measurable in pruning. With the margin at zero and a bound one ulp on
//! the wrong side, a point exactly midway between two centroids stays
//! with the higher index — the unit test next to the constant shows it,
//! and `tests/bounded_fit_equivalence.rs` checks the whole fit against a
//! plain full-scan Lloyd on such data.
//!
//! The bounds table (at most 16 `f64` per point) lives only inside the
//! fit: it is freed when the per-chunk state is flattened into the
//! returned assignment, before the caller allocates anything from it.
//! [`KMeansFit`] reports the passes run and the lane-group scans done
//! out of those full scans would have done — deterministic counts.
//!
//! # Parallelism (`threads`), and why it is bit-identical too
//!
//! The `*_threaded` entry points split *pure per-point* work — the
//! bounded assignment pass with its per-point bounds, `d2` min-updates
//! in the k-means++ init — over disjoint contiguous point chunks
//! ([`ic_embed::par::chunk_ranges`]). Each point's result is a pure
//! function of that point, its own bounds and the (frozen) centroid
//! table and movements, so the parallel pass writes the very bytes the
//! sequential pass would. Everything order-sensitive stays sequential on
//! the calling thread: RNG draws, the `f32` centroid-update
//! accumulation, the inertia sum (one exact distance per point, in
//! point-index order), and the best-of-seeds min scan (seed order).
//! `kmeans_best_of_threaded` additionally runs whole fits — independent
//! by construction — one seed per worker.

use std::ops::Range;

use ic_embed::{Embedding, par::chunk_ranges, sq_dist_slices};
use ic_stats::rng::rng_from_seed;
use rand::{Rng, RngExt};

use crate::kernel::{LANES, LaneBlocks, widen};

/// Relative slack on every bound comparison and on every recorded
/// centroid movement; the rounding it has to cover is about
/// `(dim + passes) * 2^-53` (see "Bounded passes" in the module docs).
const SKIP_MARGIN: f64 = 1e-9;

/// Lower bounds kept per point: one per lane group up to this many,
/// beyond that adjacent groups share one — at most 128 bytes a point.
const MAX_BUCKETS: usize = 16;

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
    /// `self.assign(&rows[i])` at any thread count: each row's result is
    /// a pure function of the row and the centroid table.
    pub fn assign_batch_rows(&self, rows: &[&[f32]], threads: usize) -> Vec<usize> {
        fn run_chunk(lanes: &LaneBlocks<f64>, rows: &[&[f32]], out: &mut [usize]) {
            let mut v64 = vec![0.0f64; lanes.dim()];
            for (slot, row) in out.iter_mut().zip(rows) {
                for (d, &x) in v64.iter_mut().zip(*row) {
                    *d = f64::from(x);
                }
                *slot = lanes.nearest(&v64).0;
            }
        }

        assert!(
            rows.is_empty() || !self.centroids.is_empty(),
            "model has no centroids"
        );
        let mut assignment = vec![usize::MAX; rows.len()];
        let ranges = chunk_ranges(rows.len(), threads);
        if ranges.len() <= 1 {
            run_chunk(&self.lanes, rows, &mut assignment);
            return assignment;
        }
        std::thread::scope(|s| {
            let mut rest = assignment.as_mut_slice();
            for range in ranges {
                let (chunk, tail) = rest.split_at_mut(range.len());
                rest = tail;
                let (lanes, rows) = (&self.lanes, &rows[range]);
                s.spawn(move || run_chunk(lanes, rows, chunk));
            }
        });
        assignment
    }

    /// Indices of the `n` nearest centroids, closest first (equidistant
    /// centroids in index order).
    pub fn assign_top_n(&self, v: &Embedding, n: usize) -> Vec<usize> {
        self.assign_top_n_widened(&widen(v.as_slice()), n)
    }

    /// [`Self::assign_top_n`] over components the caller has already
    /// widened to `f64` (`f64::from` per component — exact, so the
    /// distances and the order are those of the `f32` row): the IVF
    /// probe widens its query once, for the centroid rank and the list
    /// scans alike.
    pub fn assign_top_n_widened(&self, v64: &[f64], n: usize) -> Vec<usize> {
        // The `n` best so far, sorted. Centroids arrive in index order,
        // so placing a newcomer after every distance that is not larger
        // keeps equidistant ones in index order — the `(distance, index)`
        // order a full sort would give.
        let mut top: Vec<(f64, usize)> = Vec::with_capacity(n.min(self.k()));
        if n > 0 {
            self.lanes.sq_dists(v64, |i, d| {
                debug_assert!(d.is_finite(), "finite distances");
                if top.len() == n {
                    if d >= top[n - 1].0 {
                        return;
                    }
                    top.pop();
                }
                let at = top.partition_point(|&(kept, _)| kept <= d);
                top.insert(at, (d, i));
            });
        }
        top.into_iter().map(|(_, i)| i).collect()
    }

    /// Total within-cluster squared distance of a dataset under this model.
    pub fn inertia(&self, data: &[Embedding]) -> f64 {
        data.iter()
            .map(|v| self.lanes.nearest(&widen(v.as_slice())).1)
            .sum()
    }
}

/// `d2[i] = min(d2[i], dist(point_i, centre))` — the k-means++
/// distance-table maintenance — as one lane scan of the transposed
/// points, over `threads` disjoint contiguous runs of lane groups. Pure
/// per point, so bit-identical at any thread count.
fn d2_pass(points: &LaneBlocks<f32>, centre: &[f32], d2: &mut [f64], threads: usize) {
    let centre = widen(centre);
    let run = |groups: Range<usize>, d2: &mut [f64]| {
        let first = groups.start * LANES;
        points.sq_dists_in(groups, &centre, |i, d| d2[i - first] = d2[i - first].min(d));
    };
    let ranges = chunk_ranges(points.groups(), threads);
    if ranges.len() <= 1 {
        run(0..points.groups(), d2);
        return;
    }
    std::thread::scope(|s| {
        let (mut rest, run) = (d2, &run);
        for groups in ranges {
            let rows = (groups.end * LANES).min(points.len()) - groups.start * LANES;
            let (chunk, tail) = rest.split_at_mut(rows);
            rest = tail;
            s.spawn(move || run(groups, chunk));
        }
    });
}

/// One contiguous chunk of the points being fitted, with the state the
/// bounded passes carry for each of them from pass to pass. Chunks are
/// the unit of parallelism: a pass hands each to one worker.
struct Chunk<'a> {
    rows: &'a [&'a [f32]],
    /// Nearest centroid as of the last pass (`usize::MAX` before the first).
    assignment: Vec<usize>,
    /// Per point, an upper bound on the distance to its centroid.
    upper: Vec<f64>,
    /// Per point and bucket, a lower bound on the distance to every
    /// *other* centroid of the bucket (`buckets` entries per point).
    lower: Vec<f64>,
}

/// The frozen inputs of one bounded assignment pass (see the module docs).
struct Pass<'a> {
    lanes: &'a LaneBlocks<f64>,
    /// Lane groups per bucket.
    span: usize,
    /// How far the last update step moved each centroid, rounded up by
    /// the margin; empty on the first pass.
    drift: &'a [f64],
    /// The largest `drift` in each bucket.
    bucket_drift: &'a [f64],
    /// `1 + margin`: the factor a lower bound must beat an upper bound
    /// by, and the one `drift` was rounded up by.
    slack: f64,
}

impl Pass<'_> {
    /// Runs the pass over every chunk, one worker per chunk; returns
    /// whether any assignment changed and how many lane groups were
    /// scanned. Each point's outcome is a pure function of its own state
    /// and the frozen inputs, so the chunking never shows.
    fn run(&self, chunks: &mut [Chunk]) -> (bool, u64) {
        if let [chunk] = chunks {
            return self.run_chunk(chunk);
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter_mut()
                .map(|chunk| s.spawn(move || self.run_chunk(chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("assignment worker panicked"))
                .fold((false, 0), |acc, (c, n)| (acc.0 | c, acc.1 + n))
        })
    }

    fn run_chunk(&self, chunk: &mut Chunk) -> (bool, u64) {
        let (lanes, buckets) = (self.lanes, self.bucket_drift.len());
        let width = self.span * LANES;
        let mut v64 = vec![0.0f64; lanes.dim()];
        let (mut changed, mut scans) = (false, 0u64);
        for (i, row) in chunk.rows.iter().enumerate() {
            let lower = &mut chunk.lower[i * buckets..(i + 1) * buckets];
            let a = chunk.assignment[i];
            // Age the bounds by the centroids' movement; if every other
            // centroid is still provably farther, the point stays put.
            // (No movement on record means the first pass: scan it all.)
            let mut home = 0;
            if let Some(&moved) = self.drift.get(a) {
                chunk.upper[i] += moved;
                for (l, &m) in lower.iter_mut().zip(self.bucket_drift) {
                    *l -= m;
                }
                let reach = chunk.upper[i] * self.slack;
                if lower.iter().all(|&l| l > reach) {
                    continue;
                }
                home = a / width;
            }
            for (d, &x) in v64.iter_mut().zip(*row) {
                *d = f64::from(x);
            }
            // The home bucket first — its exact distances tighten the
            // upper bound — then every bucket that bound cannot exclude.
            // `best` is the `(distance, index)` minimum so far, `reach`
            // its distance with the margin on (infinite until the home
            // bucket is in), and `runner_up` the second-smallest
            // distance in its bucket.
            let (mut best, mut runner_up, mut reach) =
                ((f64::INFINITY, 0), f64::INFINITY, f64::INFINITY);
            for b in std::iter::once(home).chain((0..buckets).filter(|&b| b != home)) {
                if lower[b] > reach {
                    continue;
                }
                let groups = b * self.span..((b + 1) * self.span).min(lanes.groups());
                scans += groups.len() as u64;
                let (mut m1, mut m2, mut arg) = (f64::INFINITY, f64::INFINITY, 0);
                lanes.sq_dists_in(groups, &v64, |j, d| {
                    if d < m1 {
                        (m1, m2, arg) = (d, m1, j);
                    } else if d < m2 {
                        m2 = d;
                    }
                });
                lower[b] = m1.sqrt();
                if m1 < best.0 || (m1 == best.0 && arg < best.1) {
                    (best, runner_up, reach) = ((m1, arg), m2, lower[b] * self.slack);
                }
            }
            lower[best.1 / width] = runner_up.sqrt();
            chunk.upper[i] = best.0.sqrt();
            if best.1 != a {
                chunk.assignment[i] = best.1;
                changed = true;
            }
        }
        (changed, scans)
    }
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
    /// Assignment passes run (Lloyd iterations, plus the closing pass
    /// when `max_iters` ran out right after an update step).
    pub passes: u64,
    /// Lane groups (eight centroids each) those passes scanned ...
    pub group_scans: u64,
    /// ... out of the `passes * points * groups` that full scans would
    /// have — a deterministic count, the same at every thread count.
    pub group_scans_full: u64,
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
    fit_rows(rows, k, max_iters, seed, threads, SKIP_MARGIN)
}

/// [`kmeans_fit_rows`] with the skip margin as a parameter, so a unit
/// test can show that the margin is what keeps ties exact.
fn fit_rows(
    rows: &[&[f32]],
    k: usize,
    max_iters: usize,
    seed: u64,
    threads: usize,
    margin: f64,
) -> Option<KMeansFit> {
    if rows.is_empty() || k == 0 {
        return None;
    }
    let dim = rows[0].len();
    let k = k.min(rows.len());
    let mut rng = rng_from_seed(seed);
    let mut centroids = init_plus_plus(rows, k, &mut rng, threads);
    let mut lanes = LaneBlocks::from_rows(dim, centroids.iter().map(Embedding::as_slice));
    let span = lanes.groups().div_ceil(MAX_BUCKETS);
    let buckets = lanes.groups().div_ceil(span);
    let mut chunks: Vec<Chunk> = chunk_ranges(rows.len(), threads)
        .into_iter()
        .map(|range| Chunk {
            assignment: vec![usize::MAX; range.len()],
            upper: vec![f64::INFINITY; range.len()],
            lower: vec![0.0; range.len() * buckets],
            rows: &rows[range],
        })
        .collect();
    let mut drift: Vec<f64> = Vec::new();
    let mut bucket_drift = vec![0.0f64; buckets];
    // Update-step scratch, hoisted out of the loop: one `k x dim` sum
    // buffer, the counts, and the centroid about to be overwritten.
    let mut sums = vec![0.0f32; k * dim];
    let mut counts = vec![0usize; k];
    let mut previous = vec![0.0f32; dim];
    let slack = 1.0 + margin;
    let mut group_scans = 0u64;
    let mut updates = 0;
    loop {
        // Assignment step (parallel, pure per point).
        let pass = Pass {
            lanes: &lanes,
            span,
            drift: &drift,
            bucket_drift: &bucket_drift,
            slack,
        };
        let (changed, scans) = pass.run(&mut chunks);
        group_scans += scans;
        // Converged, or out of update steps: either way the assignment
        // now describes the final centroids.
        if !changed || updates == max_iters {
            break;
        }
        updates += 1;
        // Update step — sequential in point-index order: the `f32` sum
        // accumulation is order-sensitive, and this order is the
        // contract (`add_scaled(v, 1.0)` per point, exactly as before).
        sums.fill(0.0);
        counts.fill(0);
        for chunk in &chunks {
            for (row, &a) in chunk.rows.iter().zip(&chunk.assignment) {
                for (acc, &x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(*row) {
                    *acc += x;
                }
                counts[a] += 1;
            }
        }
        drift.clear();
        for (ci, c) in centroids.iter_mut().enumerate() {
            // Empty clusters keep their previous centroid; k-means++ makes
            // this rare and harmless.
            if counts[ci] == 0 {
                drift.push(0.0);
                continue;
            }
            previous.copy_from_slice(c.as_slice());
            let inv = 1.0 / counts[ci] as f64;
            for (x, &s) in c
                .as_mut_slice()
                .iter_mut()
                .zip(&sums[ci * dim..(ci + 1) * dim])
            {
                *x = (f64::from(s) * inv) as f32;
            }
            drift.push(sq_dist_slices(&previous, c.as_slice()).sqrt() * slack);
        }
        for (slot, moved) in bucket_drift.iter_mut().zip(drift.chunks(span * LANES)) {
            *slot = moved.iter().fold(0.0, |m: f64, &d| m.max(d));
        }
        lanes = LaneBlocks::from_rows(dim, centroids.iter().map(Embedding::as_slice));
    }
    let passes = updates as u64 + 1;
    // Flattening the chunks frees the bounds before the caller builds
    // anything from the assignment.
    let assignment: Vec<usize> = chunks.into_iter().flat_map(|c| c.assignment).collect();
    // One exact distance per point — the scalar chain, whose bits the
    // lane sums share — summed in point order.
    let inertia = rows
        .iter()
        .zip(&assignment)
        .map(|(row, &a)| sq_dist_slices(centroids[a].as_slice(), row))
        .sum();
    let group_scans_full = passes * rows.len() as u64 * lanes.groups() as u64;
    Some(KMeansFit {
        model: KMeansModel { centroids, lanes },
        assignment,
        inertia,
        passes,
        group_scans,
        group_scans_full,
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
/// per-point distance-table updates fan out over `threads`. Every point
/// is measured against every center, so the points are lane-transposed
/// once, for the seeding only, and each center costs one lane scan of
/// them rather than a serial add chain per point. Centers are rows of
/// the data and are borrowed from it until the end.
fn init_plus_plus(rows: &[&[f32]], k: usize, rng: &mut impl Rng, threads: usize) -> Vec<Embedding> {
    let mut picks = vec![rng.random_range(0..rows.len())];
    let points = LaneBlocks::<f32>::from_rows(rows[0].len(), rows.iter().copied());
    let mut d2 = vec![f64::INFINITY; rows.len()];
    while picks.len() < k {
        d2_pass(&points, rows[picks[picks.len() - 1]], &mut d2, threads);
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
        picks.push(next);
    }
    picks
        .into_iter()
        .map(|i| Embedding::from_vec(rows[i].to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_embed::{TopicSpace, TopicSpaceConfig};
    use proptest::prelude::*;

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

    proptest! {
        /// The sorted `n`-slot buffer against a stable sort of every
        /// `(distance, index)`: centroids drawn from five points, so
        /// most distances are exactly equal and equidistant centroids
        /// must come out in index order. Mutation that bites: `<` for
        /// `<=` in the `partition_point` puts a newcomer before its
        /// equals.
        #[test]
        fn assign_top_n_is_the_stable_sort_truncated(
            picks in collection::vec(0usize..5, 1..40),
            query in 0usize..6,
        ) {
            let points = [[0.0f32, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 1.0], [0.5, 0.5]];
            let centroids: Vec<Embedding> = (picks.iter())
                .map(|&p| Embedding::from_vec(points[p].to_vec()))
                .collect();
            let model = KMeansModel {
                lanes: LaneBlocks::from_rows(2, centroids.iter().map(Embedding::as_slice)),
                centroids,
            };
            let q = Embedding::from_vec(points[query].to_vec());
            let mut order: Vec<usize> = (0..model.k()).collect();
            order.sort_by(|&a, &b| {
                let (da, db) = (model.centroids[a].sq_dist(&q), model.centroids[b].sq_dist(&q));
                da.partial_cmp(&db).unwrap()
            });
            let k = model.k();
            for n in [0, 1, 4, k, k + 3] {
                prop_assert_eq!(model.assign_top_n(&q, n), &order[..n.min(k)], "n={}", n);
            }
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

    #[test]
    fn a_bound_one_ulp_short_loses_the_tie() {
        // Integers on a line, each twice: all arithmetic is exact, and
        // centroids settle where points sit exactly midway between two of
        // them. A skip test that treats "bound equals distance" as
        // "farther" — the margin at zero and a bound one ulp the wrong
        // way — keeps such a point on the higher index; the real margin
        // must not.
        let data: Vec<Embedding> = (0..200)
            .map(|i| Embedding::from_vec(vec![(i / 2) as f32]))
            .collect();
        let rows: Vec<&[f32]> = data.iter().map(|e| e.as_slice()).collect();
        let wrong_fits = |margin: f64| {
            (0..20u64)
                .filter(|&seed| {
                    let fit = fit_rows(&rows, 9, 15, seed, 1, margin).unwrap();
                    (data.iter().zip(&fit.assignment)).any(|(v, &a)| fit.model.assign(v) != a)
                })
                .count()
        };
        assert_eq!(wrong_fits(SKIP_MARGIN), 0);
        assert!(wrong_fits(-f64::EPSILON) > 0);
    }
}
