//! Dense embedding vectors and their arithmetic.

use rand::Rng;

use crate::boxmuller;

/// A dense embedding vector.
///
/// Components are stored as `f32` (matching production embedding stores;
/// one million cached examples at 64 dims is ~256 MB as `f64` but half that
/// as `f32`), while reductions accumulate in `f64` for stability.
///
/// # Examples
///
/// ```
/// use ic_embed::Embedding;
///
/// let a = Embedding::from_vec(vec![1.0, 0.0]);
/// let b = Embedding::from_vec(vec![0.0, 1.0]);
/// assert_eq!(a.cosine(&b), 0.0);
/// assert_eq!(a.cosine(&a), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Embedding {
    data: Vec<f32>,
}

impl Embedding {
    /// Wraps a raw vector.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self { data }
    }

    /// An all-zeros embedding of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            data: vec![0.0; dim],
        }
    }

    /// Draws an isotropic Gaussian vector with per-component standard
    /// deviation `sigma`.
    ///
    /// The draw contract: component `i` takes draws `2i` and `2i + 1`
    /// from `rng` as `u1 = random::<f64>().max(f64::MIN_POSITIVE)` and
    /// `u2 = random::<f64>()`, and is
    /// `((-2.0 * u1.ln()).sqrt() * (TAU * u2).cos() * sigma) as f32` with
    /// the host's libm, bit for bit. That is Box–Muller per component;
    /// the crate stays independent of ic-stats' `Normal` to avoid a
    /// reseed contract. The value is computed by a vectorized estimate
    /// whose error margin certifies the `f32` bits, and by that
    /// expression itself where it does not (about 10⁻⁵ of components,
    /// and every one at `sigma == 0`).
    pub fn gaussian(dim: usize, sigma: f64, rng: &mut impl Rng) -> Self {
        Self::gaussian_counted(dim, sigma, rng).0
    }

    /// [`Embedding::gaussian`], and how many of its components were
    /// recomputed with libm because the estimate could not certify them.
    /// A hook for the micro-benchmark's `embed_gaussian shape:` line.
    #[doc(hidden)]
    pub fn gaussian_counted(dim: usize, sigma: f64, rng: &mut impl Rng) -> (Self, usize) {
        let mut data = vec![0.0; dim];
        let fallbacks = boxmuller::fill(&mut data, sigma, rng);
        (Self { data }, fallbacks)
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// Read-only component view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable component view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Dot product accumulated in `f64`.
    ///
    /// Delegates to [`dot_slices`] so the owned and slab-resident
    /// representations share one reduction, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ (a programming error in this workspace:
    /// all embeddings in one space share a dimension).
    pub fn dot(&self, other: &Embedding) -> f64 {
        assert_eq!(self.dim(), other.dim(), "embedding dimension mismatch");
        dot_slices(&self.data, &other.data)
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Cosine similarity in `[-1, 1]`; zero vectors yield 0.0.
    pub fn cosine(&self, other: &Embedding) -> f64 {
        cosine_from_dot(self.dot(other), self.norm(), other.norm())
    }

    /// Scales the vector to unit norm (no-op for the zero vector).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            let inv = (1.0 / n) as f32;
            for v in &mut self.data {
                *v *= inv;
            }
        }
    }

    /// Returns a unit-norm copy.
    pub fn normalized(&self) -> Embedding {
        let mut out = self.clone();
        out.normalize();
        out
    }

    /// Adds `k * other` into `self` component-wise.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add_scaled(&mut self, other: &Embedding, k: f64) {
        assert_eq!(self.dim(), other.dim(), "embedding dimension mismatch");
        let kf = k as f32;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += kf * b;
        }
    }

    /// Squared Euclidean distance.
    ///
    /// Delegates to [`sq_dist_slices`] so the owned and slab-resident
    /// representations share one reduction, bit for bit.
    pub fn sq_dist(&self, other: &Embedding) -> f64 {
        assert_eq!(self.dim(), other.dim(), "embedding dimension mismatch");
        sq_dist_slices(&self.data, &other.data)
    }
}

/// Squared Euclidean distance of two equal-length component slices —
/// bit-identical to [`Embedding::sq_dist`] on the same components
/// (same iteration order, same `f64` widening, same accumulator).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sq_dist_slices(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "embedding dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(&a, &b)| {
            let d = f64::from(a) - f64::from(b);
            d * d
        })
        .sum()
}

/// Dot product of two equal-length `f32` component slices, accumulated
/// in `f64` — the single reduction behind [`Embedding::dot`] and every
/// slab-resident scoring path. Keeping one definition (same iteration
/// order, same widening, same accumulator) is what makes the arena/SoA
/// layout a pure layout change: a slab row and the `Embedding` it was
/// copied from produce bit-identical dots, norms, and cosines.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_slices(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "embedding dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(&a, &b)| f64::from(a) * f64::from(b))
        .sum()
}

/// Euclidean norm of a component slice — bit-identical to
/// [`Embedding::norm`] on the same components.
pub fn norm_slice(a: &[f32]) -> f64 {
    dot_slices(a, a).sqrt()
}

/// Cosine similarity from a dot product and the two norms — the one
/// definition of the zero-denominator guard and the `[-1, 1]` clamp,
/// behind [`Embedding::cosine`] and every path that hoists the norms
/// (once per query, once per stored row) or produces the dot product
/// itself (the vector index's lane scan). With `dot` equal to
/// `dot_slices(a, b)` and the norms to `norm_slice` of each side, the
/// result is [`Embedding::cosine`] bit for bit.
pub fn cosine_from_dot(dot: f64, a_norm: f64, b_norm: f64) -> f64 {
    let denom = a_norm * b_norm;
    if denom == 0.0 {
        return 0.0;
    }
    (dot / denom).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_stats::rng::rng_from_seed;

    #[test]
    fn slice_reductions_match_embedding_methods_bitwise() {
        let mut rng = rng_from_seed(9);
        let a = Embedding::gaussian(33, 1.3, &mut rng);
        let b = Embedding::gaussian(33, 0.7, &mut rng);
        assert_eq!(
            dot_slices(a.as_slice(), b.as_slice()).to_bits(),
            a.dot(&b).to_bits()
        );
        assert_eq!(norm_slice(a.as_slice()).to_bits(), a.norm().to_bits());
        let dot = dot_slices(a.as_slice(), b.as_slice());
        assert_eq!(
            cosine_from_dot(dot, norm_slice(a.as_slice()), norm_slice(b.as_slice())).to_bits(),
            a.cosine(&b).to_bits()
        );
        let z = Embedding::zeros(33);
        assert_eq!(cosine_from_dot(0.0, z.norm(), b.norm()), 0.0);
    }

    #[test]
    fn cosine_of_identical_is_one() {
        let v = Embedding::from_vec(vec![3.0, 4.0]);
        assert!((v.cosine(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_is_minus_one() {
        let a = Embedding::from_vec(vec![1.0, 2.0]);
        let b = Embedding::from_vec(vec![-1.0, -2.0]);
        assert!((a.cosine(&b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_cosine_is_zero() {
        let z = Embedding::zeros(4);
        let v = Embedding::from_vec(vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(z.cosine(&v), 0.0);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut v = Embedding::from_vec(vec![3.0, 4.0]);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        assert!((v.as_slice()[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_is_noop() {
        let mut z = Embedding::zeros(3);
        z.normalize();
        assert_eq!(z, Embedding::zeros(3));
    }

    #[test]
    fn gaussian_has_expected_scale() {
        let mut rng = rng_from_seed(1);
        let v = Embedding::gaussian(10_000, 0.5, &mut rng);
        // Norm of an isotropic Gaussian concentrates near sigma * sqrt(dim).
        let expected = 0.5 * (10_000f64).sqrt();
        assert!((v.norm() - expected).abs() / expected < 0.05);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Embedding::from_vec(vec![1.0, 1.0]);
        let b = Embedding::from_vec(vec![2.0, -2.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn sq_dist_matches_hand_computation() {
        let a = Embedding::from_vec(vec![1.0, 2.0]);
        let b = Embedding::from_vec(vec![4.0, 6.0]);
        assert!((a.sq_dist(&b) - 25.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_rejects_dimension_mismatch() {
        let a = Embedding::zeros(2);
        let b = Embedding::zeros(3);
        let _ = a.dot(&b);
    }
}
