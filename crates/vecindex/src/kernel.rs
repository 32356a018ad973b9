//! The lane kernel: the one scan behind k-means assignment, centroid
//! ranking and the IVF posting-list probe.
//!
//! # Why lanes
//!
//! Scoring one query against a stored row is a reduction over the
//! components — `sum((c_j - q_j)^2)` for a centroid, `sum(q_j * r_j)` for
//! a posting-list row — accumulated in `f64`. Row-major storage makes
//! that one *dependent* add chain per pair: 64 adds at dim 64, each
//! waiting out the previous add's latency, which is what the scalar probe
//! spent its time on. [`LaneBlocks`] stores the rows **lane-transposed**
//! instead: groups of [`LANES`] rows held component-major
//! (`blocks[g * dim * LANES + j * LANES + lane]` is component `j` of row
//! `g * LANES + lane`), so one pass over the query's components advances
//! `LANES` independent accumulators — enough instruction-level
//! parallelism (and SIMD width) to hide the add latency. The bytes are
//! the same `f32` components the row-major layout held, in a different
//! order; nothing is stored twice.
//!
//! # Why it is a schedule change, not a numeric one
//!
//! Every pair's accumulator starts from the identity `Iterator::sum`
//! starts from (`-0.0` since Rust 1.83 — it matters when every product is
//! `-0.0`), and then receives exactly the scalar loop's terms in
//! component order: `d = f64::from(c_j) - f64::from(q_j); d * d` as in
//! [`ic_embed::sq_dist_slices`], `f64::from(q_j) * f64::from(r_j)` as in
//! [`ic_embed::dot_slices`]. Floating-point addition is not associative,
//! but nothing is re-associated: the lanes only interleave *different*
//! pairs' chains. So each sum is bit-identical to the scalar reduction,
//! and everything derived from it — argmin, probe order, cosine, hit
//! lists, report bytes — is unchanged. Padding lanes in a partial last
//! group are computed and then dropped: only the first `len` rows ever
//! reach a caller.

use std::ops::Range;

/// Rows per group, i.e. accumulators advanced per component pass: eight
/// independent `f64` chains (one AVX-512 register, four SSE2 registers;
/// either way enough to hide the add latency of the scalar chain).
pub(crate) const LANES: usize = 8;

/// The value `Iterator::sum::<f64>()` starts from, so a lane accumulator
/// and the scalar reductions in `ic-embed` agree on an all-`-0.0` sum
/// whichever identity the standard library uses.
#[inline]
fn sum_identity() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// `v` widened to `f64` (lossless), the form the lane scans take a
/// query in so the widening happens once per query, not once per group.
pub(crate) fn widen(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| f64::from(x)).collect()
}

/// A growable table of `dim`-wide rows stored lane-transposed (see the
/// module docs). Rows are addressed by index `0..len`; `push` appends
/// into the last group and `swap_remove` moves the last row into the
/// hole, so the live rows are always the dense prefix.
///
/// `T` is the stored component type: `f32` for posting lists (the same
/// bytes the rows arrived as), `f64` for a centroid table (a few
/// kilobytes, rebuilt per Lloyd iteration and scanned once per point, so
/// widening at build time rather than in the inner loop is worth ~10 %
/// of the fit). Either way a component reaches the accumulator as the
/// same `f64`.
#[derive(Debug, Clone)]
pub(crate) struct LaneBlocks<T> {
    dim: usize,
    len: usize,
    /// `len.div_ceil(LANES)` groups of `dim * LANES` components; lanes
    /// past `len` in the last group hold stale or zero padding.
    blocks: Vec<T>,
}

impl<T: Copy + Default + From<f32> + Into<f64>> LaneBlocks<T> {
    /// An empty table of `dim`-wide rows with room for `rows` rows.
    pub(crate) fn with_capacity(dim: usize, rows: usize) -> Self {
        Self {
            dim,
            len: 0,
            blocks: Vec::with_capacity(rows.div_ceil(LANES) * dim * LANES),
        }
    }

    /// A table holding `rows` in order.
    pub(crate) fn from_rows<'a>(
        dim: usize,
        rows: impl ExactSizeIterator<Item = &'a [f32]>,
    ) -> Self {
        let mut table = Self::with_capacity(dim, rows.len());
        for row in rows {
            table.push(row);
        }
        table
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Row width.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Reserves room for exactly `additional` more rows.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        let want = (self.len + additional).div_ceil(LANES) * self.dim * LANES;
        self.blocks
            .reserve_exact(want.saturating_sub(self.blocks.len()));
    }

    /// Appends `row` as row `len`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `dim` wide.
    pub(crate) fn push(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "embedding dimension mismatch");
        let (g, lane) = (self.len / LANES, self.len % LANES);
        if lane == 0 {
            self.blocks.resize((g + 1) * self.dim * LANES, T::default());
        }
        let block = &mut self.blocks[g * self.dim * LANES..];
        for (j, &x) in row.iter().enumerate() {
            block[j * LANES + lane] = T::from(x);
        }
        self.len += 1;
    }

    /// Removes row `pos` by moving the last row into its place.
    pub(crate) fn swap_remove(&mut self, pos: usize) {
        assert!(pos < self.len, "row out of range");
        let last = self.len - 1;
        if pos != last {
            let (from, to) = (self.offset(last), self.offset(pos));
            for j in 0..self.dim {
                self.blocks[to + j * LANES] = self.blocks[from + j * LANES];
            }
        }
        self.len = last;
        self.blocks
            .truncate(self.len.div_ceil(LANES) * self.dim * LANES);
    }

    /// Appends the components of row `pos` to `out`.
    pub(crate) fn extend_row_into(&self, pos: usize, out: &mut Vec<T>) {
        assert!(pos < self.len, "row out of range");
        let at = self.offset(pos);
        out.extend((0..self.dim).map(|j| self.blocks[at + j * LANES]));
    }

    /// Index of component 0 of row `pos`; component `j` is `j * LANES`
    /// further on.
    fn offset(&self, pos: usize) -> usize {
        (pos / LANES) * self.dim * LANES + pos % LANES
    }

    /// Number of lane groups, `len.div_ceil(LANES)`.
    pub(crate) fn groups(&self) -> usize {
        self.len.div_ceil(LANES)
    }

    /// Calls `sink(i, sq_dist(row_i, v))` for every row in index order —
    /// each value bit-identical to [`ic_embed::sq_dist_slices`].
    pub(crate) fn sq_dists(&self, v64: &[f64], sink: impl FnMut(usize, f64)) {
        self.sq_dists_in(0..self.groups(), v64, sink);
    }

    /// [`Self::sq_dists`] over the rows of lane groups `groups` only —
    /// the same sums, since a group's accumulators never see another's.
    pub(crate) fn sq_dists_in(
        &self,
        groups: Range<usize>,
        v64: &[f64],
        sink: impl FnMut(usize, f64),
    ) {
        self.scan(
            groups,
            v64,
            |x, c| {
                let d = c - x;
                d * d
            },
            sink,
        );
    }

    /// Calls `sink(i, dot(v, row_i))` for every row in index order —
    /// each value bit-identical to [`ic_embed::dot_slices`].
    pub(crate) fn dots(&self, v64: &[f64], sink: impl FnMut(usize, f64)) {
        self.scan(0..self.groups(), v64, |x, c| x * c, sink);
    }

    /// `(argmin, min)` of [`Self::sq_dists`] with a strict `<` update in
    /// row order, so ties break to the first row; `(0, INFINITY)` for an
    /// empty table.
    pub(crate) fn nearest(&self, v64: &[f64]) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        self.sq_dists(v64, |i, d| {
            if d < best.1 {
                best = (i, d);
            }
        });
        best
    }

    /// The one loop: per group, `LANES` accumulators each summing
    /// `term(v_j, row_j)` in component order from the `sum` identity;
    /// live lanes go to `sink` in row order, padding lanes nowhere.
    #[inline(always)]
    fn scan(
        &self,
        groups: Range<usize>,
        v64: &[f64],
        term: impl Fn(f64, f64) -> f64,
        mut sink: impl FnMut(usize, f64),
    ) {
        assert_eq!(v64.len(), self.dim, "embedding dimension mismatch");
        let group = self.dim * LANES;
        for g in groups {
            let block = &self.blocks[g * group..(g + 1) * group];
            let mut acc = [sum_identity(); LANES];
            for (lanes, &x) in block.chunks_exact(LANES).zip(v64) {
                for (a, &c) in acc.iter_mut().zip(lanes) {
                    *a += term(x, c.into());
                }
            }
            let live = (self.len - g * LANES).min(LANES);
            for (lane, &s) in acc[..live].iter().enumerate() {
                sink(g * LANES + lane, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_embed::{Embedding, dot_slices, sq_dist_slices};
    use ic_stats::rng::rng_from_seed;

    fn table(rows: &[Embedding], dim: usize) -> LaneBlocks<f32> {
        LaneBlocks::from_rows(dim, rows.iter().map(Embedding::as_slice))
    }

    #[test]
    fn lane_sums_match_the_scalar_reductions_bitwise() {
        // Row counts around the lane width and dims that are not a
        // multiple of it: padding lanes must never surface.
        let mut rng = rng_from_seed(11);
        for dim in [1usize, 7, 9, 64, 70] {
            for n in [0usize, 1, 7, 8, 9, 17] {
                let rows: Vec<Embedding> = (0..n)
                    .map(|_| Embedding::gaussian(dim, 1.0, &mut rng))
                    .collect();
                let q = Embedding::gaussian(dim, 1.0, &mut rng);
                let t = table(&rows, dim);
                let q64 = widen(q.as_slice());
                let mut seen = 0;
                t.dots(&q64, |i, d| {
                    assert_eq!(i, seen);
                    seen += 1;
                    let want = dot_slices(q.as_slice(), rows[i].as_slice());
                    assert_eq!(d.to_bits(), want.to_bits(), "dot dim={dim} n={n}");
                });
                assert_eq!(seen, n);
                t.sq_dists(&q64, |i, d| {
                    let want = sq_dist_slices(rows[i].as_slice(), q.as_slice());
                    assert_eq!(d.to_bits(), want.to_bits(), "sq_dist dim={dim} n={n}");
                });
            }
        }
    }

    #[test]
    fn an_all_negative_zero_sum_keeps_its_sign() {
        // Every product is -0.0; `dot_slices` returns whatever
        // `Iterator::sum` makes of that, and so must the lanes.
        let row = Embedding::from_vec(vec![0.0, 0.0, 0.0]);
        let q = Embedding::from_vec(vec![-1.0, -2.0, -3.0]);
        let t = table(std::slice::from_ref(&row), 3);
        t.dots(&widen(q.as_slice()), |_, d| {
            assert_eq!(
                d.to_bits(),
                dot_slices(q.as_slice(), row.as_slice()).to_bits()
            );
        });
    }

    #[test]
    fn swap_remove_keeps_the_dense_prefix() {
        let mut rng = rng_from_seed(12);
        let mut rows: Vec<Embedding> = (0..19)
            .map(|_| Embedding::gaussian(5, 1.0, &mut rng))
            .collect();
        let mut t = table(&rows, 5);
        for pos in [0usize, 17, 8, 7, 3, 0] {
            t.swap_remove(pos);
            rows.swap_remove(pos);
            assert_eq!(t.len(), rows.len());
            for (i, want) in rows.iter().enumerate() {
                let mut got = Vec::new();
                t.extend_row_into(i, &mut got);
                assert_eq!(got, want.as_slice());
            }
        }
        while t.len() > 0 {
            t.swap_remove(t.len() - 1);
        }
        assert!(t.blocks.is_empty());
        t.push(rows[0].as_slice());
        let mut got = Vec::new();
        t.extend_row_into(0, &mut got);
        assert_eq!(got, rows[0].as_slice());
    }

    #[test]
    fn nearest_breaks_ties_to_the_first_row() {
        let rows = vec![Embedding::from_vec(vec![1.0, 0.0]); 11];
        let t = table(&rows, 2);
        assert_eq!(t.nearest(&[1.0, 0.0]), (0, 0.0));
        assert_eq!(
            LaneBlocks::<f64>::with_capacity(2, 0)
                .nearest(&[1.0, 0.0])
                .0,
            0
        );
    }
}
