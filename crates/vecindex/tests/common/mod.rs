//! The generator the IVF property tests share: rows from a tiny signed
//! component set, dims and pool sizes around the lane width, and the
//! all-`-0.0`-products row/query pair.

#![allow(dead_code)]

use ic_embed::Embedding;

/// Components from a tiny signed set, so zero vectors, duplicate rows
/// (exact ties) and sign-only differences occur routinely.
pub fn embedding(raw: &[i32], dim: usize) -> Embedding {
    Embedding::from_vec(raw.iter().take(dim).map(|&v| v as f32 * 0.5).collect())
}

/// Dims on both sides of the lane width, none but 64 a multiple of it.
pub const DIMS: [usize; 5] = [1, 7, 9, 64, 70];
/// Pool sizes that leave every partial-group shape in a posting list.
pub const LENS: [usize; 6] = [0, 1, 7, 8, 9, 17];

/// A row with a non-zero norm whose products with [`negative_query`]
/// are all `-0.0` (`1 * -0.0`, then `0 * -1` per remaining component).
pub fn negative_zero_row(dim: usize) -> Embedding {
    let mut row = vec![0.0f32; dim];
    row[0] = 1.0;
    Embedding::from_vec(row)
}

pub fn negative_query(dim: usize) -> Embedding {
    let mut q = vec![-1.0f32; dim];
    q[0] = -0.0;
    Embedding::from_vec(q)
}
