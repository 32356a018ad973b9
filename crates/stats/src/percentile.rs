//! Exact percentile computation over recorded samples.
//!
//! The evaluation reports P50/P99 request completion times (§6.4, Fig. 20)
//! and median/max/min request rates (Fig. 2b). Sample counts in this
//! reproduction are modest (at most a few million), so an exact
//! sort-on-query recorder is both simpler and more trustworthy than a
//! sketch. Queries cache the sorted order and invalidate on insert.

/// Records `f64` samples and answers exact percentile queries.
///
/// # Examples
///
/// ```
/// use ic_stats::Percentiles;
///
/// let mut p = Percentiles::new();
/// for i in 1..=100 {
///     p.record(i as f64);
/// }
/// assert_eq!(p.quantile(0.5), Some(50.5));
/// assert_eq!(p.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Creates an empty recorder with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            samples: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Records one sample. Non-finite values are rejected (and counted as a
    /// programming error in debug builds) because a single NaN would poison
    /// every downstream percentile.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        if x.is_finite() {
            self.samples.push(x);
            self.sorted = false;
        }
    }

    /// Bulk-records samples.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.record(x);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Exact quantile with linear interpolation between order statistics
    /// (the "R-7" rule used by numpy). `q` is clamped to `[0, 1]`.
    /// Returns `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median (P50).
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// P99.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Smallest sample.
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.first().copied()
    }

    /// Largest sample.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Drops all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }

    /// Read-only view of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Freezes the current samples into a read-only [`PercentileSnapshot`]
    /// answering any number of quantile queries without `&mut self` —
    /// the repeated-query path for periodic samplers, which would
    /// otherwise pay `ensure_sorted`'s borrow (and, interleaved with
    /// recording, a re-sort) on every probe.
    pub fn snapshot(&self) -> PercentileSnapshot {
        let mut sorted = self.samples.clone();
        if !self.sorted {
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite by construction"));
        }
        PercentileSnapshot { sorted }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite by construction"));
            self.sorted = true;
        }
    }
}

/// An immutable sorted copy of a [`Percentiles`] recorder's samples at
/// one instant: the memoized read-only query path.
///
/// # Examples
///
/// ```
/// use ic_stats::Percentiles;
///
/// let mut p = Percentiles::new();
/// p.record_all([3.0, 1.0, 2.0]);
/// let snap = p.snapshot();
/// assert_eq!(snap.quantile(0.5), Some(2.0));
/// p.record(100.0); // does not disturb the snapshot
/// assert_eq!(snap.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PercentileSnapshot {
    sorted: Vec<f64>,
}

impl PercentileSnapshot {
    /// Samples frozen in the snapshot.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the snapshot froze an empty recorder.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Exact quantile with the same R-7 interpolation as
    /// [`Percentiles::quantile`]; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac)
    }

    /// Median (P50).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// P99.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_returns_none() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
        assert_eq!(p.mean(), None);
        assert!(p.is_empty());
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut p = Percentiles::new();
        p.record(7.0);
        assert_eq!(p.quantile(0.0), Some(7.0));
        assert_eq!(p.quantile(0.5), Some(7.0));
        assert_eq!(p.quantile(1.0), Some(7.0));
    }

    #[test]
    fn interpolates_between_order_statistics() {
        let mut p = Percentiles::new();
        p.record_all([10.0, 20.0]);
        assert_eq!(p.quantile(0.5), Some(15.0));
        assert_eq!(p.quantile(0.25), Some(12.5));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut a = Percentiles::new();
        let mut b = Percentiles::new();
        a.record_all([3.0, 1.0, 2.0, 5.0, 4.0]);
        b.record_all([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.p50(), b.p50());
        assert_eq!(a.p99(), b.p99());
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut p = Percentiles::new();
        for i in 0..1000 {
            p.record((i as f64 * 17.0) % 251.0);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = p.quantile(q).unwrap();
            assert!(v >= prev, "quantile not monotone at q={q}");
            prev = v;
        }
    }

    #[test]
    fn rejects_non_finite_in_release_semantics() {
        let mut p = Percentiles::new();
        // In release builds the debug_assert is skipped and the sample is
        // silently dropped; verify the recorder stays clean either way.
        if !cfg!(debug_assertions) {
            p.record(f64::NAN);
            assert!(p.is_empty());
        }
        p.record(1.0);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn snapshot_matches_live_queries_and_stays_frozen() {
        let mut p = Percentiles::new();
        for i in 0..1000 {
            p.record((i as f64 * 17.0) % 251.0);
        }
        let snap = p.snapshot();
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(snap.quantile(q), p.quantile(q));
        }
        assert_eq!(snap.min(), p.min());
        assert_eq!(snap.max(), p.max());
        assert_eq!(snap.len(), p.len());
        p.record(1e9);
        assert_ne!(snap.max(), p.max());
        assert!(PercentileSnapshot::default().p99().is_none());
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut p = Percentiles::new();
        p.record(1.0);
        assert_eq!(p.p50(), Some(1.0));
        p.record(3.0);
        assert_eq!(p.p50(), Some(2.0));
        p.record(2.0);
        assert_eq!(p.p50(), Some(2.0));
        assert_eq!(p.min(), Some(1.0));
        assert_eq!(p.max(), Some(3.0));
    }
}
