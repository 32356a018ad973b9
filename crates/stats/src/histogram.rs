//! Fixed-bin histograms and empirical CDFs.
//!
//! Used to reproduce the distribution-shaped figures: similarity CDFs
//! (Fig. 3a), access-count CDFs (Fig. 10), score densities (Figs. 27/28)
//! and the request-density plot (Fig. 2a).

/// A histogram over `[lo, hi)` with uniform bins.
///
/// Samples below `lo` land in the first bin and samples at or above `hi`
/// land in the last bin, so mass is never silently dropped.
///
/// # Examples
///
/// ```
/// use ic_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
/// h.record(3.5);
/// assert_eq!(h.count(), 1);
/// assert_eq!(h.bin_counts()[3], 1);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins >= 1` uniform bins.
    /// Returns `None` for degenerate ranges.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Option<Self> {
        if !(hi > lo) || bins == 0 || !lo.is_finite() || !hi.is_finite() {
            return None;
        }
        Some(Self {
            lo,
            hi,
            counts: vec![0; bins],
        })
    }

    /// Records one sample (clamped into range).
    pub fn record(&mut self, x: f64) {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * bins as f64).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-bin raw counts.
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Density per bin (fractions summing to 1; all zeros when empty).
    pub fn densities(&self) -> Vec<f64> {
        let total = self.count();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// The `[lo, hi)` range.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

/// Empirical cumulative distribution function over a finite sample.
///
/// # Examples
///
/// ```
/// use ic_stats::Cdf;
///
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.fraction_above(4.0), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples; non-finite values are discarded.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite after retain"));
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0.0 when empty).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly above `x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// Evaluates the CDF at evenly spaced points for plotting, returning
    /// `(x, F(x))` pairs.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        (0..points)
            .map(|i| {
                let x = if points == 1 {
                    hi
                } else {
                    lo + (hi - lo) * i as f64 / (points - 1) as f64
                };
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_places_samples_in_bins() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.record(0.1);
        h.record(0.3);
        h.record(0.6);
        h.record(0.9);
        assert_eq!(h.bin_counts(), &[1, 1, 1, 1]);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(-5.0);
        h.record(5.0);
        h.record(1.0); // Exactly `hi` lands in the last bin.
        assert_eq!(h.bin_counts(), &[1, 2]);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn histogram_densities_sum_to_one() {
        let mut h = Histogram::new(-3.0, 3.0, 12).unwrap();
        for i in 0..1000 {
            h.record((i as f64 / 167.0).sin() * 3.0);
        }
        let total: f64 = h.densities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_rejects_degenerate_ranges() {
        assert!(Histogram::new(1.0, 1.0, 4).is_none());
        assert!(Histogram::new(2.0, 1.0, 4).is_none());
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
    }

    #[test]
    fn cdf_basic_fractions() {
        let cdf = Cdf::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.25);
        assert_eq!(cdf.fraction_at_or_below(2.5), 0.5);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
        assert_eq!(cdf.fraction_above(2.5), 0.5);
    }

    #[test]
    fn cdf_discards_non_finite() {
        let cdf = Cdf::from_samples(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let cdf = Cdf::from_samples((0..500).map(|i| ((i * 37) % 101) as f64).collect());
        let curve = cdf.curve(50);
        assert_eq!(curve.len(), 50);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 >= w[0].0);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_empty_is_safe() {
        let cdf = Cdf::from_samples(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert!(cdf.curve(10).is_empty());
    }
}
