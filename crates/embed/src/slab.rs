//! Arena (SoA) storage for embedding payloads.
//!
//! The vector index used to hold one heap-allocated `Vec<f32>` per
//! stored example, so a posting-list scan chased a pointer per item and
//! recomputed each item's norm on every visit. [`EmbeddingSlab`] packs
//! all rows of one embedding space into a single contiguous `f32` slab
//! (structure-of-arrays) and caches each row's Euclidean norm at insert
//! time:
//!
//! - **Locality**: a list scan streams consecutive cache lines instead
//!   of dereferencing per-item allocations.
//! - **Norm caching**: `norm_slice(row)` is a pure function of the row,
//!   so computing it once at insert and reusing it on every scan is
//!   bit-identical to recomputing it per visit.
//!
//! Slots are stable: removing a row parks its slot on a free list and
//! later inserts reuse it, so surviving slots never move and id → slot
//! maps stay valid across churn. All arithmetic goes through the shared
//! slice reductions in [`crate::vector`], which [`Embedding`] itself
//! delegates to — the slab is a pure layout change, never a numeric one.

use crate::vector::{Embedding, norm_slice};

/// Contiguous storage for fixed-dimension embedding rows with cached
/// per-row norms and free-list slot reuse.
///
/// `ic_vecindex::IvfIndex` kept its rows here until its posting lists
/// took them over (cluster-major, lane-transposed); the slab remains
/// the row-major store for callers that address rows by stable slot.
///
/// Invariants the callers lean on:
///
/// - **Fixed dimension.** The first [`insert`](Self::insert) fixes the
///   row width; inserting a row of any other width panics (a
///   dimension mix-up is an indexing bug, never data).
/// - **Stable slots.** A slot returned by `insert` addresses the same
///   row until [`remove`](Self::remove)d; removal parks the slot on a
///   free list (LIFO) for reuse and never moves surviving rows, so
///   external id → slot maps stay valid across churn.
/// - **Bitwise norm determinism.** [`norm`](Self::norm) returns
///   exactly what `norm_slice` computed at insert time, which is
///   bit-identical to recomputing it per visit — caching is a pure
///   speedup, invisible to the byte-determinism contract.
///
/// # Examples
///
/// ```
/// use ic_embed::{Embedding, EmbeddingSlab};
///
/// let mut slab = EmbeddingSlab::new();
/// let e = Embedding::from_vec(vec![3.0, 4.0]);
/// let slot = slab.insert(e.as_slice());
/// assert_eq!(slab.row(slot), e.as_slice());
/// assert_eq!(slab.norm(slot).to_bits(), e.norm().to_bits());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EmbeddingSlab {
    /// Row width; fixed by the first insert.
    dim: Option<usize>,
    /// Row-major payload: slot `s` occupies `data[s*dim .. (s+1)*dim]`.
    data: Vec<f32>,
    /// Cached Euclidean norm per slot (stale for freed slots).
    norms: Vec<f64>,
    /// Freed slots awaiting reuse.
    free: Vec<u32>,
}

impl EmbeddingSlab {
    /// Creates an empty slab; the first insert fixes the dimension.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.norms.len() - self.free.len()
    }

    /// Whether no live rows remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row width, once fixed by the first insert.
    pub fn dim(&self) -> Option<usize> {
        self.dim
    }

    /// Copies `row` into the slab (reusing a freed slot when one is
    /// available) and returns its slot. The row's norm is computed once
    /// here and served from cache thereafter.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not match the slab's established dimension.
    pub fn insert(&mut self, row: &[f32]) -> u32 {
        let dim = *self.dim.get_or_insert(row.len());
        assert_eq!(row.len(), dim, "embedding dimension mismatch");
        let norm = norm_slice(row);
        match self.free.pop() {
            Some(slot) => {
                let start = slot as usize * dim;
                self.data[start..start + dim].copy_from_slice(row);
                self.norms[slot as usize] = norm;
                slot
            }
            None => {
                let slot = u32::try_from(self.norms.len()).expect("slab slot overflow");
                self.data.extend_from_slice(row);
                self.norms.push(norm);
                slot
            }
        }
    }

    /// Bulk [`insert`](Self::insert): copies every row (in order) and
    /// returns their slots. Slot assignment, data placement and the
    /// free-list evolution are exactly the per-row loop's; the only
    /// difference is that the per-row norms — pure functions of their
    /// rows — are computed up front over `threads` disjoint contiguous
    /// row chunks, so the final state is bit-identical to sequential
    /// inserts at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if any row does not match the slab's established
    /// dimension.
    pub fn insert_bulk(&mut self, rows: &[&[f32]], threads: usize) -> Vec<u32> {
        if rows.is_empty() {
            return Vec::new();
        }
        let dim = *self.dim.get_or_insert(rows[0].len());
        for row in rows {
            assert_eq!(row.len(), dim, "embedding dimension mismatch");
        }
        let mut norms = vec![0.0f64; rows.len()];
        let ranges = crate::par::chunk_ranges(rows.len(), threads);
        if ranges.len() <= 1 {
            for (n, row) in norms.iter_mut().zip(rows) {
                *n = norm_slice(row);
            }
        } else {
            std::thread::scope(|s| {
                let mut rest = norms.as_mut_slice();
                for range in &ranges {
                    let (chunk, tail) = rest.split_at_mut(range.len());
                    rest = tail;
                    let rows = &rows[range.start..range.end];
                    s.spawn(move || {
                        for (n, row) in chunk.iter_mut().zip(rows) {
                            *n = norm_slice(row);
                        }
                    });
                }
            });
        }
        rows.iter()
            .zip(&norms)
            .map(|(row, &norm)| match self.free.pop() {
                Some(slot) => {
                    let start = slot as usize * dim;
                    self.data[start..start + dim].copy_from_slice(row);
                    self.norms[slot as usize] = norm;
                    slot
                }
                None => {
                    let slot = u32::try_from(self.norms.len()).expect("slab slot overflow");
                    self.data.extend_from_slice(row);
                    self.norms.push(norm);
                    slot
                }
            })
            .collect()
    }

    /// Releases `slot` for reuse. The caller owns the id → slot map and
    /// must not read a slot after removing it.
    pub fn remove(&mut self, slot: u32) {
        debug_assert!((slot as usize) < self.norms.len(), "slot out of range");
        debug_assert!(!self.free.contains(&slot), "double free of slab slot");
        self.free.push(slot);
    }

    /// The components of a live row.
    pub fn row(&self, slot: u32) -> &[f32] {
        let dim = self.dim.expect("slab has rows");
        let start = slot as usize * dim;
        &self.data[start..start + dim]
    }

    /// The cached Euclidean norm of a live row — bit-identical to
    /// `norm_slice(self.row(slot))`.
    pub fn norm(&self, slot: u32) -> f64 {
        self.norms[slot as usize]
    }

    /// Materializes a live row as an owned [`Embedding`] (used by the
    /// rare retrain path, which hands owned vectors to K-means).
    pub fn to_embedding(&self, slot: u32) -> Embedding {
        Embedding::from_vec(self.row(slot).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_stats::rng::rng_from_seed;

    #[test]
    fn rows_and_norms_round_trip_bitwise() {
        let mut rng = rng_from_seed(31);
        let mut slab = EmbeddingSlab::new();
        let embeddings: Vec<Embedding> = (0..17)
            .map(|_| Embedding::gaussian(24, 1.0, &mut rng))
            .collect();
        let slots: Vec<u32> = embeddings
            .iter()
            .map(|e| slab.insert(e.as_slice()))
            .collect();
        assert_eq!(slab.len(), 17);
        assert_eq!(slab.dim(), Some(24));
        for (e, &slot) in embeddings.iter().zip(&slots) {
            assert_eq!(slab.row(slot), e.as_slice());
            assert_eq!(slab.norm(slot).to_bits(), e.norm().to_bits());
            assert_eq!(slab.to_embedding(slot), *e);
        }
    }

    #[test]
    fn freed_slots_are_reused_and_survivors_stay_put() {
        let mut slab = EmbeddingSlab::new();
        let a = slab.insert(&[1.0, 0.0]);
        let b = slab.insert(&[0.0, 1.0]);
        let c = slab.insert(&[1.0, 1.0]);
        slab.remove(b);
        assert_eq!(slab.len(), 2);
        let d = slab.insert(&[2.0, 2.0]);
        assert_eq!(d, b, "freed slot must be reused");
        assert_eq!(slab.row(a), &[1.0, 0.0]);
        assert_eq!(slab.row(c), &[1.0, 1.0]);
        assert_eq!(slab.row(d), &[2.0, 2.0]);
        assert_eq!(slab.norm(d).to_bits(), norm_slice(&[2.0, 2.0]).to_bits());
        assert_eq!(slab.len(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mixed_dimensions_are_rejected() {
        let mut slab = EmbeddingSlab::new();
        slab.insert(&[1.0, 2.0]);
        slab.insert(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn insert_bulk_matches_sequential_inserts_bitwise() {
        let mut rng = rng_from_seed(77);
        let embeddings: Vec<Embedding> = (0..23)
            .map(|_| Embedding::gaussian(16, 1.0, &mut rng))
            .collect();
        let rows: Vec<&[f32]> = embeddings.iter().map(|e| e.as_slice()).collect();
        // More threads than rows must still tile the work correctly.
        for threads in [1usize, 2, 4, 64] {
            let mut seq = EmbeddingSlab::new();
            // Churn first so the bulk path exercises free-list reuse.
            let a = seq.insert(&[0.0f32; 16]);
            let b = seq.insert(&[1.0f32; 16]);
            seq.remove(a);
            seq.remove(b);
            let mut par = seq.clone();
            let seq_slots: Vec<u32> = rows.iter().map(|r| seq.insert(r)).collect();
            let par_slots = par.insert_bulk(&rows, threads);
            assert_eq!(seq_slots, par_slots, "threads={threads}");
            for &slot in &par_slots {
                assert_eq!(par.row(slot), seq.row(slot), "threads={threads}");
                assert_eq!(
                    par.norm(slot).to_bits(),
                    seq.norm(slot).to_bits(),
                    "threads={threads}"
                );
            }
            assert_eq!(par.len(), seq.len());
        }
    }

    #[test]
    fn empty_slab_reports_empty() {
        let slab = EmbeddingSlab::new();
        assert!(slab.is_empty());
        assert_eq!(slab.dim(), None);
    }
}
