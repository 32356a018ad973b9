//! Hash maps keyed by one program-generated integer id.
//!
//! The example store and the vector index look an id up ≈50 times per
//! arrival (`ExampleCache::entries` per stage-2 candidate and per used
//! example, the locator per insert/remove). The default SipHash is
//! keyed per process to resist crafted collisions; these ids are
//! counters the program itself hands out, so one [`split_mix64`]
//! finalizer is all the mixing a lookup needs. Iteration order stops being per-process random — the
//! same history of inserts and removes iterates the same way in every
//! run — but it is still no order a caller may rely on: whoever needs a
//! *particular* order sorts, as under the default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::split_mix64;

/// A `HashMap` whose keys hash with one [`split_mix64`] — for keys that
/// are a single integer id (`ExampleId`, an index `ItemId`), never for
/// keys that arrive from outside the program.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The [`Hasher`] behind [`IdMap`]: a `u64` write folds into the state
/// through one [`split_mix64`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = split_mix64(self.0 ^ x);
    }

    /// Byte strings are not what this hasher is for, but a key that
    /// hashes through `write` must still hash correctly: fold eight
    /// bytes at a time, then the length.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_u64(bytes.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Id(u64);

    #[test]
    fn a_u64_newtype_hashes_with_one_split_mix() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for x in [0u64, 1, 0x1000_0000, u64::MAX] {
            assert_eq!(build.hash_one(Id(x)), split_mix64(x));
            assert_eq!(build.hash_one(x), split_mix64(x));
        }
    }

    #[test]
    fn behaves_like_a_map_over_dense_and_sparse_ids() {
        let mut m: IdMap<Id, usize> = IdMap::default();
        let ids: Vec<u64> = (0..5_000u64)
            .chain((0..5_000).map(|i| 0x1000_0000 + i * 4_096))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert!(m.insert(Id(id), i).is_none());
        }
        assert_eq!(m.len(), ids.len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(m.get(&Id(id)), Some(&i));
        }
        assert_eq!(m.remove(&Id(7)), Some(7));
        assert!(!m.contains_key(&Id(7)));
    }

    #[test]
    fn the_same_history_iterates_the_same_way() {
        // Two default-hashed maps would disagree: each draws its own key.
        let build = || -> Vec<u64> {
            let mut m: IdMap<u64, ()> = IdMap::default();
            for k in 0..64 {
                m.insert(k, ());
            }
            m.remove(&9);
            m.keys().copied().collect()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn byte_keys_still_distinguish_length_and_content() {
        let h = |s: &str| {
            let mut hasher = IdHasher::default();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_ne!(h("abc"), h("abd"));
        assert_ne!(h("abc"), h("abc\0"));
        assert_ne!(h(""), h("\0"));
    }
}
