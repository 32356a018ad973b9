//! The certified nearest-centroid scan: an `f32` estimate of a point's
//! squared distances to every centroid, each with an error bound, that
//! names the exact nearest centroid without computing an exact distance
//! — and computes the few exact distances it needs when it cannot.
//!
//! # The contract
//!
//! The nearest centroid of a point `x` is the `(D_j, j)` minimum over the
//! centroids, where `D_j` is [`ic_embed::sq_dist_slices`]`(c_j, x)`: the
//! exact `f64` chain the lane kernel reproduces bit for bit (`kernel`
//! module docs). A full exact scan costs one `dim`-term `f64` chain per
//! centroid. Over a whole k-means fit only about one point scan in a
//! thousand has a runner-up close enough that the chain is needed to
//! tell the two apart; the rest are decided long before the last bit.
//!
//! # The estimate
//!
//! `‖x − c‖² = ‖x‖² − 2 x·c + ‖c‖²`, and `‖x‖²` is the same for every
//! centroid, so the scan ranks `E_j = ‖c_j‖² − 2 x·c_j`. The dot products
//! are the cheap part to vectorize: [`CentroidTable`] keeps an `f32` copy
//! of the centroids, [`BLOCK`] centroids to a block and component-major
//! within it, so one pass over `x` advances `BLOCK` accumulators with
//! one broadcast multiply and one add per component — in `f32`, eight to
//! a 256-bit register, and with no widening. Each centroid's dot product
//! is [`CHAINS`] chains (component `i` goes to chain `i mod CHAINS`),
//! added in order at the end, so a pass has `BLOCK · CHAINS` independent
//! accumulators; `‖c_j‖²` and `‖c_j‖` are `f64` and computed once per
//! table, and `E_j` is formed in `f64`.
//!
//! # The bound
//!
//! `u = 2⁻²⁴` (`f32`), `n` the dimension, `m = ⌈n/4⌉ + 3`: a product is
//! rounded once, its chain adds at most `⌈n/4⌉ − 1` more roundings (the
//! first add is onto `0.0`, exact) and closing the four chains three more.
//! In the standard model (`fl(a ∘ b) = (a ∘ b)(1 + δ) + η`, `|δ| ≤ u`,
//! `η` only for a product that underflows, `|η| ≤ 2⁻¹⁵⁰`; an add that
//! lands in the subnormal range is exact), recursive summation gives
//!
//! ```text
//! |dot̂ − x·c| ≤ γ_m Σ|x_i c_i| + n·2⁻¹⁵⁰(1 + γ_m),   γ_m = m·u / (1 − m·u)
//! ```
//!
//! and `Σ|x_i c_i| ≤ ‖x‖‖c‖` (Cauchy–Schwarz), so `2·|dot̂ − x·c| ≤
//! γ_m (‖x‖ + ‖c‖)² + n·2⁻¹⁴⁹(1 + γ_m)`. The `f64` side is far smaller:
//! `D_j` itself is within `γ⁶⁴_{n+2}·d_j ≤ γ⁶⁴_{n+2}(‖x‖ + ‖c‖)²` of the
//! real `d_j = ‖x − c_j‖²` (no `f64` under- or overflow from `f32`
//! inputs), and `‖c‖²`, `‖x‖`, the subtraction forming `E_j` and the
//! bound's own arithmetic each add a few `2⁻⁵³` relative to
//! `(‖x‖ + ‖c‖)²`. So with
//!
//! ```text
//! b_j = REL·(‖x‖ + ‖c_j‖)² + ABS,   REL = 2m·2⁻²⁴,   ABS = n·2⁻¹⁴⁷
//! ```
//!
//! `|D_j − ‖x‖² − E_j| ≤ b_j` holds with about half of `REL` to spare
//! (the `f64` terms need under `(3n + 20)·2⁻⁵³`, against a spare
//! `≥ m·2⁻²⁴·0.99`) and four times `ABS`, for every `n ≤ MAX_DIM`. The
//! absolute term is what subnormal products need: at magnitudes near
//! 10⁻²⁰ every `f32` product underflows and relative bounds stop holding.
//!
//! # The decision
//!
//! Per centroid the scan has `lo_j = E_j − b_j` and `hi_j = E_j + b_j`,
//! and `D_j − ‖x‖² ∈ [lo_j, hi_j]`. Let `U = min_j hi_j`, reached at `w`.
//! Every centroid with `lo_j > U` is strictly farther than `w` — it
//! loses even the index tie-break — so the exact minimum is among the
//! candidates `{ j : lo_j ≤ U }`, which always holds `w`. When `w` is the
//! only candidate it is **certified**: the answer, with no exact
//! distance computed. Otherwise every candidate is scored with
//! `sq_dist_slices` and the `(D, index)` minimum wins — an **exact
//! resolve**. Comparing computed ends is sound because rounding is
//! monotone: `fl(a) > fl(b)` implies `a > b`. An estimate that is not
//! finite (an `f32` product or sum overflowed: magnitudes past ≈10¹⁹)
//! certifies nothing; [`CentroidTable::nearest`] returns `None` and the
//! caller runs its exact scan. Either way the answer is the exact scan's,
//! so every assignment, centroid bit and report byte is unchanged.
//!
//! The tests measure the bound's slack — the largest `|D_j − ‖x‖² − E_j|
//! / b_j` is 0.11 where products are normal and 0.25 at magnitude 1e-20,
//! where `ABS` carries it — and show that a bound scaled down far enough
//! certifies the wrong centroid of a near tie.
//!
//! # Why the body is compiled twice
//!
//! As the lane kernel and `ic_embed`'s Box–Muller kernel: one body,
//! instantiated for the build's baseline (SSE2 on x86-64: four `f32` to a
//! register) and under `#[target_feature(enable = "avx2")]` (eight),
//! picked per call by `is_x86_feature_detected!`. The body is plain
//! multiplies and adds, which Rust never contracts into fused
//! multiply-adds, so both instantiations compute the same estimate to
//! the bit — the same decisions and the same certified/resolve counts on
//! every host.

use std::iter::zip;

/// Centroids per block of the `f32` table.
const BLOCK: usize = 16;

/// Chains per centroid: `BLOCK * CHAINS` accumulators a pass — eight
/// AVX2 registers, enough to hide the add latency.
const CHAINS: usize = 4;

/// Widest dimension the bound is stated for; a wider table would need
/// `REL` near 1 and certifies nothing, so the model never builds one.
pub(crate) const MAX_DIM: usize = 1 << 16;

/// `2^e` for a normal exponent.
const fn two_to(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// The centroids as the certified scan reads them: an `f32` copy,
/// `BLOCK` to a block, component-major within a block
/// (`blocks[(b * dim + i) * BLOCK + jj]` is component `i` of centroid
/// `b * BLOCK + jj`), with their norms. Padding centroids in the last
/// block are zero with an infinite `‖c‖²`, so their intervals are
/// `[∞, ∞]`: never the minimum, never a candidate.
#[derive(Debug, Clone)]
pub(crate) struct CentroidTable {
    dim: usize,
    k: usize,
    blocks: Vec<f32>,
    /// `‖c_j‖²` in `f64`, padded with `∞`.
    sq_norms: Vec<f64>,
    /// `‖c_j‖`, padded with `0`.
    norms: Vec<f64>,
    /// `REL` of the bound (module docs, "The bound").
    rel: f64,
    /// `ABS` of the bound.
    abs: f64,
}

/// What one scan decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Decision {
    /// The `(D_j, j)` minimum over every centroid.
    pub(crate) best: usize,
    /// Whether the intervals left more than one candidate, so exact
    /// distances decided.
    pub(crate) resolved: bool,
    /// `‖x‖²` as the scan computed it.
    pub(crate) nx2: f64,
    /// An upper bound on `D_best`: `‖x‖² + hi_best` when certified, the
    /// exact `D_best` when resolved.
    pub(crate) upper: f64,
}

impl CentroidTable {
    /// A table of `rows` (each `dim` wide), or `None` past [`MAX_DIM`].
    pub(crate) fn new<'a>(
        dim: usize,
        rows: impl ExactSizeIterator<Item = &'a [f32]>,
    ) -> Option<Self> {
        if dim > MAX_DIM {
            return None;
        }
        let k = rows.len();
        let padded = k.div_ceil(BLOCK) * BLOCK;
        let mut blocks = vec![0.0f32; padded * dim];
        let (mut sq_norms, mut norms) = (vec![f64::INFINITY; padded], vec![0.0; padded]);
        for (j, row) in rows.enumerate() {
            assert_eq!(row.len(), dim, "embedding dimension mismatch");
            let block = &mut blocks[(j / BLOCK) * dim * BLOCK..];
            for (i, &c) in row.iter().enumerate() {
                block[i * BLOCK + j % BLOCK] = c;
            }
            sq_norms[j] = sum_sq(row);
            norms[j] = sq_norms[j].sqrt();
        }
        let m = dim.div_ceil(CHAINS) + CHAINS - 1;
        Some(Self {
            dim,
            k,
            blocks,
            sq_norms,
            norms,
            rel: 2.0 * m as f64 * two_to(-24),
            abs: dim as f64 * two_to(-147),
        })
    }

    /// A buffer for [`Self::nearest`]'s `lo`, one entry per centroid and
    /// padding centroid; reused across the points of a chunk.
    pub(crate) fn lo_buffer(&self) -> Vec<f64> {
        vec![0.0; self.sq_norms.len()]
    }

    /// The nearest centroid to `x` (module docs, "The decision"); `exact(j)`
    /// must be `sq_dist_slices(c_j, x)`. `None` when the estimate is not
    /// finite: nothing is certified and the caller scans exactly.
    /// `lo` (from [`Self::lo_buffer`]) holds every centroid's `lo_j`
    /// afterwards, `∞` for padding: `‖x‖² + lo_j` is a lower bound on
    /// `D_j`.
    pub(crate) fn nearest(
        &self,
        x: &[f32],
        lo: &mut [f64],
        exact: impl Fn(usize) -> f64,
    ) -> Option<Decision> {
        assert_eq!(x.len(), self.dim, "embedding dimension mismatch");
        let nx2 = sum_sq(x);
        let u = self.intervals(x, nx2.sqrt(), lo)?;
        // The centroid reaching `U` is a candidate: a lone candidate is it.
        let lo = &lo[..self.k];
        if lo.iter().filter(|&&l| l <= u).count() == 1 {
            return Some(Decision {
                best: lo.iter().position(|&l| l <= u).expect("one candidate"),
                resolved: false,
                nx2,
                upper: nx2 + u,
            });
        }
        let mut best = (f64::INFINITY, 0);
        for (j, _) in lo.iter().enumerate().filter(|&(_, &l)| l <= u) {
            let d = exact(j);
            if d < best.0 {
                best = (d, j);
            }
        }
        Some(Decision {
            best: best.1,
            resolved: true,
            nx2,
            upper: best.0,
        })
    }

    /// `lo_j` for every centroid into `lo`, and `U`, the smallest `hi_j`
    /// — or `None` if an estimate is not finite. The body as the host
    /// runs it fastest.
    fn intervals(&self, x: &[f32], nx: f64, lo: &mut [f64]) -> Option<f64> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `intervals_avx2` is safe code whose only requirement
            // is that the CPU executes AVX2, which was just detected.
            return unsafe { self.intervals_avx2(x, nx, lo) };
        }
        self.intervals_body(x, nx, lo)
    }

    /// [`Self::intervals_body`] compiled with AVX2 on.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn intervals_avx2(&self, x: &[f32], nx: f64, lo: &mut [f64]) -> Option<f64> {
        self.intervals_body(x, nx, lo)
    }

    /// Per block: the `BLOCK` dot products, then per centroid `E_j`,
    /// `b_j`, `lo_j` stored and `hi_j` folded into a per-lane running
    /// minimum, reduced over the lanes at the end. Every step is
    /// lane-wise, so all of it stays in vector registers.
    #[inline(always)]
    fn intervals_body(&self, x: &[f32], nx: f64, lo: &mut [f64]) -> Option<f64> {
        let mut hi_min = [f64::INFINITY; BLOCK];
        // `Σ dot·0`: zero while every dot product is finite, NaN from the
        // first one that is not.
        let mut nan = [0.0f32; BLOCK];
        let blocks = self.blocks.chunks_exact(self.dim * BLOCK);
        let stats = zip(
            self.sq_norms.chunks_exact(BLOCK),
            self.norms.chunks_exact(BLOCK),
        );
        for ((block, (sq_norms, norms)), lo) in zip(zip(blocks, stats), lo.chunks_exact_mut(BLOCK))
        {
            let dots = dots_body(block, x);
            for jj in 0..BLOCK {
                nan[jj] += dots[jj] * 0.0;
                let e = sq_norms[jj] - 2.0 * f64::from(dots[jj]);
                let s = nx + norms[jj];
                let bound = self.rel * (s * s) + self.abs;
                lo[jj] = e - bound;
                let hi = e + bound;
                hi_min[jj] = if hi < hi_min[jj] { hi } else { hi_min[jj] };
            }
        }
        if nan.iter().any(|&v| v != 0.0) {
            return None;
        }
        Some(hi_min.into_iter().fold(f64::INFINITY, f64::min))
    }
}

/// One block's `BLOCK` dot products with `x`: component `i` into chain
/// `i % CHAINS` of each centroid, the chains added in order at the end.
#[inline(always)]
fn dots_body(block: &[f32], x: &[f32]) -> [f32; BLOCK] {
    let mut chains = [[0.0f32; BLOCK]; CHAINS];
    let mut rows = block.chunks_exact(CHAINS * BLOCK);
    for (rows, xs) in zip(rows.by_ref(), x.chunks_exact(CHAINS)) {
        for ((acc, row), &xi) in zip(zip(&mut chains, rows.chunks_exact(BLOCK)), xs) {
            for (a, &c) in zip(acc, row) {
                *a += xi * c;
            }
        }
    }
    // A `dim` that is not a multiple of `CHAINS` leaves a few components.
    let tail = &x[x.len() - x.len() % CHAINS..];
    for ((acc, row), &xi) in zip(zip(&mut chains, rows.remainder().chunks_exact(BLOCK)), tail) {
        for (a, &c) in zip(acc, row) {
            *a += xi * c;
        }
    }
    let [first, rest @ ..] = chains;
    rest.iter().fold(first, |mut dots, acc| {
        for (d, &a) in zip(&mut dots, acc) {
            *d += a;
        }
        dots
    })
}

/// The smallest of `v` (`∞` if empty; no NaN in `v`), four lanes at a
/// time so that it vectorizes: the bound refresh takes one per bucket.
pub(crate) fn min_of(v: &[f64]) -> f64 {
    let mut lanes = [f64::INFINITY; 4];
    let mut chunks = v.chunks_exact(4);
    for c in chunks.by_ref() {
        for (m, &x) in zip(&mut lanes, c) {
            *m = if x < *m { x } else { *m };
        }
    }
    chunks
        .remainder()
        .iter()
        .chain(&lanes)
        .fold(f64::INFINITY, |m, &x| m.min(x))
}

/// `Σ v_i²` in `f64` over eight chains (any order is inside the bound).
fn sum_sq(v: &[f32]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut chunks = v.chunks_exact(8);
    for c in chunks.by_ref() {
        for (a, &x) in zip(&mut acc, c) {
            *a += f64::from(x) * f64::from(x);
        }
    }
    for (a, &x) in zip(&mut acc, chunks.remainder()) {
        *a += f64::from(x) * f64::from(x);
    }
    acc.iter().sum()
}

#[cfg(test)]
mod tests {
    //! The scan against the exact `(D, index)` minimum over every
    //! centroid, at adversarial inputs.
    //!
    //! Mutation that fails them (it was run): the bound scaled down —
    //! `rel: 2.0 * m as f64 * two_to(-24)` with `two_to(-44)` — certifies
    //! the wrong centroid of a near tie:
    //! `near_ties_resolve_and_a_shrunken_bound_certifies_the_wrong_one`
    //! fails on its first half, and so do `nearest_is_the_exact_minimum`
    //! and `ic-vecindex`'s `bounded_fit_equivalence` (the near-duplicate
    //! adversary).
    use super::*;
    use ic_embed::{Embedding, sq_dist_slices};
    use ic_stats::rng::rng_from_seed;

    fn table(rows: &[Vec<f32>]) -> CentroidTable {
        CentroidTable::new(rows[0].len(), rows.iter().map(Vec::as_slice)).unwrap()
    }

    /// The exact scan: `(D, index)` minimum by a strict `<` in index order.
    fn exact_nearest(rows: &[Vec<f32>], x: &[f32]) -> usize {
        let mut best = (f64::INFINITY, 0);
        for (j, c) in rows.iter().enumerate() {
            let d = sq_dist_slices(c, x);
            if d < best.0 {
                best = (d, j);
            }
        }
        best.1
    }

    fn decide(t: &CentroidTable, rows: &[Vec<f32>], x: &[f32]) -> Option<Decision> {
        t.nearest(x, &mut t.lo_buffer(), |j| sq_dist_slices(&rows[j], x))
    }

    fn gaussian_rows(n: usize, dim: usize, scale: f32, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rng_from_seed(seed);
        (0..n)
            .map(|_| {
                let e = Embedding::gaussian(dim, 1.0, &mut rng);
                e.as_slice().iter().map(|&c| c * scale).collect()
            })
            .collect()
    }

    /// The largest `|D_j − ‖x‖² − E_j| / b_j` over every centroid, with
    /// `D_j − ‖x‖²` in exact rational arithmetic replaced by an `f64`
    /// difference whose own error is far below `b_j`.
    fn worst_slack(t: &CentroidTable, rows: &[Vec<f32>], x: &[f32]) -> f64 {
        let mut lo = t.lo_buffer();
        let nx2 = sum_sq(x);
        t.intervals_body(x, nx2.sqrt(), &mut lo).unwrap();
        let mut worst = 0.0f64;
        for (j, c) in rows.iter().enumerate() {
            let s = nx2.sqrt() + t.norms[j];
            let bound = t.rel * (s * s) + t.abs;
            let e = lo[j] + bound;
            let d = sq_dist_slices(c, x);
            worst = worst.max(((d - nx2) - e).abs() / bound);
        }
        worst
    }

    #[test]
    fn nearest_is_the_exact_minimum() {
        // Dims around the chain pairing and the block width, centroid
        // counts around `BLOCK`, magnitudes from where every product is
        // subnormal to where the squares near `f32`'s top: every decision
        // must be the exact scan's, and the bound must keep its slack.
        // The largest `|D − ‖x‖² − E| / b` where products are normal, and
        // at 1e-20, where they are subnormal and `ABS` carries the bound.
        let (mut worst, mut worst_subnormal) = (0.0f64, 0.0f64);
        let (mut scans, mut resolved) = (0, 0);
        for dim in [1usize, 2, 7, 9, 64, 70] {
            for k in [1usize, 2, 15, 16, 17, 45, 129] {
                for (s, scale) in [1e-20f32, 1e-10, 1.0, 1e5, 1e15].into_iter().enumerate() {
                    let rows = gaussian_rows(k, dim, scale, (dim * 1000 + k * 10 + s) as u64);
                    let points = gaussian_rows(40, dim, scale, 7 + s as u64);
                    let t = table(&rows);
                    for x in &points {
                        let d = decide(&t, &rows, x).expect("finite at these magnitudes");
                        assert_eq!(
                            d.best,
                            exact_nearest(&rows, x),
                            "dim={dim} k={k} scale={scale}"
                        );
                        assert!(d.upper >= sq_dist_slices(&rows[d.best], x));
                        scans += 1;
                        resolved += usize::from(d.resolved);
                        let slack = worst_slack(&t, &rows, x);
                        if s == 0 {
                            worst_subnormal = worst_subnormal.max(slack);
                        } else {
                            worst = worst.max(slack);
                        }
                    }
                }
            }
        }
        println!(
            "max |D − ‖x‖² − E| / b = {worst:e} ({worst_subnormal:e} at 1e-20); \
             {resolved} of {scans} scans resolved"
        );
        assert!(
            worst.max(worst_subnormal) <= 0.5,
            "the bound's slack is gone"
        );
    }

    #[test]
    fn near_ties_resolve_and_a_shrunken_bound_certifies_the_wrong_one() {
        // Centroids in pairs one `f32` ulp apart in a few components: the
        // true gap between a pair's distances is far below the `f32`
        // estimate's rounding, so the real bound must leave both
        // candidates and resolve exactly; the same table with the bound
        // scaled down by 2⁻²⁰ certifies on rounding noise and must get
        // some of them wrong.
        let base = gaussian_rows(20, 64, 1.0, 3);
        let rows: Vec<Vec<f32>> = base
            .iter()
            .flat_map(|c| {
                let mut twin = c.clone();
                for v in twin.iter_mut().step_by(9) {
                    *v = f32::from_bits(v.to_bits() + 1);
                }
                [c.clone(), twin]
            })
            .collect();
        let mut t = table(&rows);
        let mut rng = rng_from_seed(4);
        let points: Vec<Vec<f32>> = (0..400)
            .map(|i| {
                let noise = Embedding::gaussian(64, 0.3, &mut rng);
                zip(&base[i % base.len()], noise.as_slice())
                    .map(|(&c, &n)| c + n)
                    .collect()
            })
            .collect();
        let mut resolved = 0;
        for x in &points {
            let d = decide(&t, &rows, x).unwrap();
            assert_eq!(d.best, exact_nearest(&rows, x));
            resolved += usize::from(d.resolved);
        }
        assert!(
            resolved * 2 > points.len(),
            "near ties must resolve: {resolved}"
        );
        t.rel *= two_to(-20);
        t.abs = 0.0;
        let wrong = points
            .iter()
            .filter(|x| decide(&t, &rows, x).unwrap().best != exact_nearest(&rows, x))
            .count();
        assert!(wrong > 0, "a shrunken bound certified every near tie right");
    }

    #[test]
    fn zero_rows_and_identical_centroids_resolve_to_the_first() {
        for dim in [1usize, 9, 64] {
            let rows = vec![vec![0.0f32; dim]; 40];
            let t = table(&rows);
            for x in [vec![0.0f32; dim], vec![1.0; dim], vec![-3.5; dim]] {
                let d = decide(&t, &rows, &x).unwrap();
                assert_eq!((d.best, d.resolved), (0, true), "dim={dim}");
            }
        }
    }

    #[test]
    fn an_estimate_that_is_not_finite_certifies_nothing() {
        // 1e20 squared overflows `f32`; so does one huge component among
        // ordinary ones (in the point, or in one centroid only).
        let rows = gaussian_rows(40, 9, 1e20, 5);
        let t = table(&rows);
        for x in gaussian_rows(10, 9, 1e20, 6) {
            assert_eq!(decide(&t, &rows, &x), None);
        }
        let mut rows = gaussian_rows(40, 9, 1.0, 8);
        let mut x = gaussian_rows(1, 9, 1.0, 9).remove(0);
        rows[0][4] = 2.0;
        x[4] = f32::MAX;
        assert_eq!(decide(&table(&rows), &rows, &x), None);
        (x[2], x[3], x[4]) = (2.0, 2.0, 0.5);
        assert!(decide(&table(&rows), &rows, &x).is_some());
        // One centroid's even chain overflows up and its odd one down:
        // their sum is NaN.
        (rows[33][2], rows[33][3]) = (f32::MAX, -f32::MAX);
        assert_eq!(decide(&table(&rows), &rows, &x), None);
    }

    #[test]
    fn both_instantiations_give_the_same_intervals() {
        // The portable body against the AVX2 one, and both against the
        // same chains written out one centroid at a time: every `lo_j`
        // and `U` to the bit.
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!("avx2 not detected: only the portable body is compared");
        }
        for dim in [1usize, 2, 3, 8, 63, 64, 65, 128] {
            for k in [1usize, 15, 16, 33, 128] {
                let rows = gaussian_rows(k, dim, 1.0, (dim * 7 + k) as u64);
                let t = table(&rows);
                for x in gaussian_rows(8, dim, 1.0, 99) {
                    let nx = sum_sq(&x).sqrt();
                    let mut want_lo = Vec::new();
                    let mut want = f64::INFINITY;
                    for (j, c) in rows.iter().enumerate() {
                        let mut chains = [0.0f32; CHAINS];
                        for (i, (&xi, &ci)) in zip(&x, c).enumerate() {
                            chains[i % CHAINS] += xi * ci;
                        }
                        let dot = chains[1..].iter().fold(chains[0], |d, &a| d + a);
                        let e = t.sq_norms[j] - 2.0 * f64::from(dot);
                        let s = nx + t.norms[j];
                        let bound = t.rel * (s * s) + t.abs;
                        want_lo.push((e - bound).to_bits());
                        want = want.min(e + bound);
                    }
                    let mut bodies = Vec::new();
                    let mut lo = t.lo_buffer();
                    bodies.push(("portable", t.intervals_body(&x, nx, &mut lo), lo));
                    #[cfg(target_arch = "x86_64")]
                    if avx2 {
                        let mut lo = t.lo_buffer();
                        // SAFETY: the host executes AVX2, checked above.
                        let got = unsafe { t.intervals_avx2(&x, nx, &mut lo) };
                        bodies.push(("avx2", got, lo));
                    }
                    for (name, got, lo) in bodies {
                        let u = got.unwrap();
                        assert_eq!(u.to_bits(), want.to_bits(), "{name} dim={dim} k={k}");
                        let lo: Vec<u64> = lo[..k].iter().map(|l| l.to_bits()).collect();
                        assert_eq!(lo, want_lo, "{name} dim={dim} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_constants_are_what_the_docs_say() {
        let t = table(&[vec![0.0; 64]]);
        assert_eq!(t.rel, 38.0 / (1u64 << 24) as f64);
        assert_eq!(t.abs, 64.0 * 2f64.powi(-147));
        assert!(CentroidTable::new(MAX_DIM + 1, std::iter::empty::<&[f32]>()).is_none());
    }
}
