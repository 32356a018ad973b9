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
//! # Why the body is compiled twice, and why eight chains
//!
//! As compiled for baseline x86-64 (SSE2: two `f64` to a register) a
//! group's eight chains are four accumulator registers, each needing its
//! own convert, multiply and add per component, and the loop is
//! *issue-bound*. With AVX2 (four to a register) the same eight chains
//! are two registers and half the instructions. So the one body is
//! instantiated twice — as compiled for the build's baseline, and under
//! `#[target_feature(enable = "avx2")]` — and picked per call by
//! `is_x86_feature_detected!` (a cached flag; the call is one of the
//! crate's two `unsafe`s, the `certified` scan's dispatch the other);
//! hosts without AVX2, or off x86-64, run the loop they ran before there
//! was a choice. With two registers the AVX2 loop is
//! *latency-bound* on paper (each accumulator waits out its previous add
//! with one other chain to fill the gap), and walking two groups a pass —
//! sixteen chains — was built and measured (`docs/replay-perf.md`,
//! "Stage-1 probe"): a tenth faster on a repeated query whose lists sit
//! in L1/L2, nothing on distinct queries, whose lists stream from L3 at
//! the memory floor either way, slower than one group in eight of ten
//! end-to-end rounds, and slower than eight chains under SSE2; thirty-two
//! chains no better. One group a pass it stays.
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
//! pairs' chains, and Rust never contracts `a + b * c` into a fused
//! multiply-add, so wider registers change which chain's add issues next
//! and nothing else. So each sum is bit-identical to the scalar reduction,
//! and everything derived from it — argmin, probe order, cosine, hit
//! lists, report bytes — is unchanged. Padding lanes in a partial last
//! group are computed and then dropped: only the first `len` rows ever
//! reach a caller.

use std::ops::Range;

/// Rows per group, i.e. accumulators advanced per component pass: eight
/// independent `f64` chains (two AVX2 registers, four SSE2 registers;
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
    #[cfg(test)]
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

    /// Overwrites row `to` with row `from` of `src`.
    pub(crate) fn copy_row(&mut self, to: usize, src: &Self, from: usize) {
        assert!(to < self.len && from < src.len, "row out of range");
        assert_eq!(self.dim, src.dim, "embedding dimension mismatch");
        let (to, from) = (self.offset(to), src.offset(from));
        for j in 0..self.dim {
            self.blocks[to + j * LANES] = src.blocks[from + j * LANES];
        }
    }

    /// Appends the components of row `pos` to `out`.
    #[cfg(test)]
    pub(crate) fn extend_row_into(&self, pos: usize, out: &mut Vec<T>) {
        assert!(pos < self.len, "row out of range");
        let at = self.offset(pos);
        out.extend((0..self.dim).map(|j| self.blocks[at + j * LANES]));
    }

    /// The table from component 0 of row `pos` on: component `j` of the
    /// row is element `j * LANES` of the slice.
    pub(crate) fn row_lanes(&self, pos: usize) -> &[T] {
        assert!(pos < self.len, "row out of range");
        &self.blocks[self.offset(pos)..]
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
        self.scan(groups, v64, sq_dist_term, sink);
    }

    /// Calls `sink(i, dot(v, row_i))` for every row in index order —
    /// each value bit-identical to [`ic_embed::dot_slices`].
    pub(crate) fn dots(&self, v64: &[f64], sink: impl FnMut(usize, f64)) {
        self.scan(0..self.groups(), v64, dot_term, sink);
    }

    /// [`Self::dots`]'s value for row `pos` alone: its lane's chain, the
    /// same terms added to the same identity in component order, without
    /// the other seven lanes of its group.
    pub(crate) fn dot(&self, pos: usize, v64: &[f64]) -> f64 {
        assert!(pos < self.len, "row out of range");
        assert_eq!(v64.len(), self.dim, "embedding dimension mismatch");
        let at = self.offset(pos);
        let mut acc = sum_identity();
        for (j, &x) in v64.iter().enumerate() {
            acc += dot_term(x, self.blocks[at + j * LANES].into());
        }
        acc
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

    /// The one loop, as the host runs it fastest: the eight chains in
    /// 256-bit registers where the CPU has AVX2, as compiled for the
    /// build's baseline everywhere else. Same operations in the same order
    /// either way (see "Why it is a schedule change" in the module docs).
    fn scan(
        &self,
        groups: Range<usize>,
        v64: &[f64],
        term: impl Fn(f64, f64) -> f64,
        sink: impl FnMut(usize, f64),
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `scan_avx2` is safe code whose only requirement is
            // that the CPU executes AVX2, which was just detected.
            return unsafe { self.scan_avx2(groups, v64, term, sink) };
        }
        self.scan_body(groups, v64, term, sink);
    }

    /// [`Self::scan_body`] compiled with AVX2 on: a group's eight chains
    /// are two registers instead of four.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn scan_avx2(
        &self,
        groups: Range<usize>,
        v64: &[f64],
        term: impl Fn(f64, f64) -> f64,
        sink: impl FnMut(usize, f64),
    ) {
        self.scan_body(groups, v64, term, sink);
    }

    /// Per group, `LANES` accumulators each summing `term(v_j, row_j)`
    /// over its own row in component order from the `sum` identity; live
    /// lanes go to `sink` in row order, padding lanes nowhere.
    #[inline(always)]
    fn scan_body(
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

/// One component's term of a squared distance, as
/// [`ic_embed::sq_dist_slices`] forms it.
#[inline(always)]
fn sq_dist_term(x: f64, c: f64) -> f64 {
    let d = c - x;
    d * d
}

/// One component's term of a dot product, as [`ic_embed::dot_slices`]
/// forms it.
#[inline(always)]
fn dot_term(x: f64, c: f64) -> f64 {
    x * c
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_embed::{Embedding, dot_slices, sq_dist_slices};
    use ic_stats::rng::rng_from_seed;

    fn table(rows: &[Embedding], dim: usize) -> LaneBlocks<f32> {
        LaneBlocks::from_rows(dim, rows.iter().map(Embedding::as_slice))
    }

    fn host_has_avx2() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        return false;
    }

    /// What each instantiation of the body sends to its sink for
    /// `groups`, as `(row, sum bits)`: the portable one always, the AVX2
    /// one where the host runs it. `term` is a fn item, so both are the
    /// inlined loops `dots`/`sq_dists_in` compile to.
    fn each_body(
        t: &LaneBlocks<f32>,
        groups: Range<usize>,
        q64: &[f64],
        term: impl Fn(f64, f64) -> f64 + Copy,
    ) -> Vec<(&'static str, Vec<(usize, u64)>)> {
        let mut out = Vec::new();
        t.scan_body(groups.clone(), q64, term, |i, s| {
            out.push((i, s.to_bits()));
        });
        let mut bodies = vec![("portable", std::mem::take(&mut out))];
        #[cfg(target_arch = "x86_64")]
        if host_has_avx2() {
            // SAFETY: the host executes AVX2, checked on the line above.
            unsafe { t.scan_avx2(groups, q64, term, |i, s| out.push((i, s.to_bits()))) };
            bodies.push(("avx2", out));
        }
        bodies
    }

    #[test]
    fn lane_sums_match_the_scalar_reductions_bitwise() {
        // Row counts around one, two, three and four groups, dims that are
        // not a multiple of the lane width, and every sub-range of groups
        // (the bounded Lloyd pass scans one-group buckets, so ranges start
        // and end on odd groups): padding lanes must never surface and
        // every sum must carry the scalar chain's bits — from both
        // instantiations called directly, and from the dispatching entry
        // points the crate calls.
        // Mutation that bites: emit `acc[..LANES]` instead of
        // `acc[..live]` and n = 1 hands the sink rows 1..8.
        let avx2 = host_has_avx2();
        if !avx2 {
            println!("avx2 not detected: only the portable body is compared");
        }
        let mut rng = rng_from_seed(11);
        for dim in [1usize, 7, 9, 64, 70] {
            for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 24, 25, 33] {
                let rows: Vec<Embedding> = (0..n)
                    .map(|_| Embedding::gaussian(dim, 1.0, &mut rng))
                    .collect();
                let q = Embedding::gaussian(dim, 1.0, &mut rng);
                let t = table(&rows, dim);
                let q64 = widen(q.as_slice());
                let dot = |i: usize| (i, dot_slices(q.as_slice(), rows[i].as_slice()).to_bits());
                let sq_dist = |i: usize| {
                    (
                        i,
                        sq_dist_slices(rows[i].as_slice(), q.as_slice()).to_bits(),
                    )
                };
                for lo in 0..=t.groups() {
                    for hi in lo..=t.groups() {
                        let live = lo * LANES..(hi * LANES).min(n);
                        let want_dot: Vec<_> = live.clone().map(dot).collect();
                        let want_sq: Vec<_> = live.map(sq_dist).collect();
                        let at = format!("dim={dim} n={n} groups={lo}..{hi}");
                        let bodies = each_body(&t, lo..hi, &q64, dot_term);
                        assert_eq!(bodies.len(), 1 + usize::from(avx2));
                        for (body, got) in bodies {
                            assert_eq!(got, want_dot, "dot, {body} {at}");
                        }
                        for (body, got) in each_body(&t, lo..hi, &q64, sq_dist_term) {
                            assert_eq!(got, want_sq, "sq_dist, {body} {at}");
                        }
                        let mut got = Vec::new();
                        t.sq_dists_in(lo..hi, &q64, |i, s| got.push((i, s.to_bits())));
                        assert_eq!(got, want_sq, "sq_dists_in {at}");
                    }
                }
                let mut got = Vec::new();
                t.dots(&q64, |i, s| got.push((i, s.to_bits())));
                assert_eq!(
                    got,
                    (0..n).map(dot).collect::<Vec<_>>(),
                    "dots dim={dim} n={n}"
                );
                let one: Vec<_> = (0..n).map(|i| (i, t.dot(i, &q64).to_bits())).collect();
                assert_eq!(one, got, "dot dim={dim} n={n}");
            }
        }
    }

    #[test]
    fn an_all_negative_zero_sum_keeps_its_sign() {
        // Every product is -0.0; `dot_slices` returns whatever
        // `Iterator::sum` makes of that, and so must the lanes.
        let row = Embedding::from_vec(vec![0.0, 0.0, 0.0]);
        let q = Embedding::from_vec(vec![-1.0, -2.0, -3.0]);
        let want = dot_slices(q.as_slice(), row.as_slice()).to_bits();
        let t = table(&vec![row; 9], 3);
        let q64 = widen(q.as_slice());
        let mut bodies = each_body(&t, 0..2, &q64, dot_term);
        let mut dispatched = Vec::new();
        t.dots(&q64, |i, s| dispatched.push((i, s.to_bits())));
        bodies.push(("dots", dispatched));
        bodies.push((
            "dot",
            (0..9).map(|i| (i, t.dot(i, &q64).to_bits())).collect(),
        ));
        for (body, got) in bodies {
            let want: Vec<_> = (0..9).map(|i| (i, want)).collect();
            assert_eq!(got, want, "{body}");
        }
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
