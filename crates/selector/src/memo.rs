//! The stage-1 probe memo: a repeated query is probed once.
//!
//! Stage 1 is a pure function of two things — the bits of the request
//! embedding and the contents of the index (`stage1_candidates` and the
//! IVF configuration are fixed when the selector is built). Most
//! requests have counterparts the system has already seen, and the
//! degenerate counterpart is the same query arriving again; when it
//! does and the index has not changed in between, the ≈500–900
//! comparisons of a probe recompute bytes the selector held a moment
//! ago. The memo keeps them: a fixed table of [`SLOTS`] direct-mapped
//! slots, each holding
//!
//! - **key** — the embedding's components. A cheap hash of the first
//!   [`HASHED_PREFIX`] components' bits picks the slot; a hit counts
//!   only when *every* component matches **bit for bit**
//!   (`f32::to_bits`, not float equality: `0.0 == -0.0`, but the two can
//!   score a row `+0.0` and `-0.0`, which are different report bytes);
//! - **value** — the `(ExampleId, similarity)` list exactly as
//!   [`ic_vecindex::VectorIndex::search`] returned it;
//! - **stamp** — [`ic_vecindex::IvfIndex::generation`] at the time of the
//!   probe. The index advances it itself on every `insert`, `remove`,
//!   `insert_bulk` and retrain, so there is no selector-side bookkeeping
//!   to forget. A stamp mismatch is a miss.
//!
//! There is no other invalidation: no TTL, no knob, no environment
//! variable, no configuration field. A hit returns the probe's own
//! bytes, so every downstream artifact is unchanged by construction;
//! stage 2, the threshold and the router still run per arrival on live
//! state. `tests/probe_memo_oracle.rs` holds the memoized selector
//! against a memo-less twin index over random interleavings of writes
//! and reads; its header names the mutations that fail it.
//!
//! # Nothing paid where a probe is cheaper than remembering it
//!
//! A miss pays for the memo twice: the lookup (hash four components,
//! compare until the first differing one) and the store (copy the
//! 256-byte key and the 32 × 16-byte hit list into the slot, ≈0.8 KB
//! written). Measured on the 2-CPU AVX2 host that recorded
//! `docs/replay-perf.md` ("Probe memo"):
//!
//! - **the tax on a miss** is ≈40 ns with the table in cache (a scratch
//!   loop over 4 096 distinct keys: 51.5 ns a miss against 14.3 ns for
//!   the list a caller receives either way) and too small to resolve
//!   against a real probe (`stage1_repeat_20k/miss ÷ plain` read
//!   0.996–1.066 over five runs of a ≈22 µs probe); **a hit** is
//!   ≈50 ns in that loop, ≈105 ns in the micro-benchmark;
//! - **a probe** costs ≈30 ns per expected comparison streamed from L3
//!   (22.5 µs at 753 on the 20 000-row bank) and ≈46 ns per comparison
//!   on a bank of 100 (≈2.3 µs at 50, where fixed costs dominate).
//!
//! The memo pays when `repeat share × probe > tax`, i.e. when the
//! index expects more than `tax ÷ (cost per comparison × repeat
//! share)` comparisons. [`MIN_COMPARISONS`] puts the break-even at a
//! repeat share of half a per cent: 40 ns ÷ (30 ns × 0.005) ≈ 267,
//! rounded to 256. Above the bar a probe is ≥ 8 µs and the tax under
//! 1 % of it even with cold slots; at 50 comparisons the same table
//! needs 2–3 % exact repeats to break even, the walls cannot tell
//! (ungated, the bank-of-100 workload read 0.646 → 0.646 s, 3 of 6
//! pairs) and peak RSS read +1.45 MiB in 6 of 6 — so there the memo is
//! not consulted at all and its counters do not move. The test is on
//! [`ic_vecindex::IvfIndex::expected_comparisons`], a property the
//! selector reads off its input, not a workload name.
//!
//! The table is ≈100 KB when full (128 × (256 B key + 512 B list +
//! headers)) and allocates a slot's buffers on its first store.

use ic_llmsim::ExampleId;

/// Direct-mapped slots (a power of two: the slot is the hash's top bits).
const SLOTS: usize = 128;

/// Components whose bits feed the slot hash; the full key is compared
/// before a hit counts, so this only decides which queries share a slot.
const HASHED_PREFIX: usize = 4;

/// The memo is consulted only while a probe is expected to make at
/// least this many comparisons (see the module docs for the
/// derivation).
pub(crate) const MIN_COMPARISONS: f64 = 256.0;

/// Stamp of a slot nothing was stored in; no index reaches it.
const EMPTY: u64 = u64::MAX;

#[derive(Debug)]
struct Slot {
    stamp: u64,
    key: Vec<f32>,
    hits: Vec<(ExampleId, f64)>,
}

/// The table and its two counters.
#[derive(Debug)]
pub(crate) struct ProbeMemo {
    slots: Vec<Slot>,
    /// Stage-1 calls that consulted the table.
    pub(crate) lookups: u64,
    /// How many of them were answered from it.
    pub(crate) hits: u64,
}

impl ProbeMemo {
    pub(crate) fn new() -> Self {
        Self {
            slots: (0..SLOTS)
                .map(|_| Slot {
                    stamp: EMPTY,
                    key: Vec::new(),
                    hits: Vec::new(),
                })
                .collect(),
            lookups: 0,
            hits: 0,
        }
    }

    /// The hit list for `query` under index generation `stamp`: the
    /// slot's copy when it holds this very query at this very stamp,
    /// otherwise `probe()`'s, remembered in the slot on the way out.
    pub(crate) fn get_or_probe(
        &mut self,
        query: &[f32],
        stamp: u64,
        probe: impl FnOnce() -> Vec<(ExampleId, f64)>,
    ) -> Vec<(ExampleId, f64)> {
        self.lookups += 1;
        let slot = &mut self.slots[slot_of(query)];
        if slot.stamp == stamp && same_bits(&slot.key, query) {
            self.hits += 1;
            return slot.hits.clone();
        }
        let hits = probe();
        slot.stamp = stamp;
        slot.key.clear();
        slot.key.extend_from_slice(query);
        slot.hits.clear();
        slot.hits.extend_from_slice(&hits);
        hits
    }
}

/// Multiplicative hash of the prefix components' bits, top bits taken.
fn slot_of(query: &[f32]) -> usize {
    let h = query.iter().take(HASHED_PREFIX).fold(0u64, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    (h >> (u64::BITS - SLOTS.trailing_zeros())) as usize
}

fn same_bits(key: &[f32], query: &[f32]) -> bool {
    key.len() == query.len()
        && key
            .iter()
            .zip(query)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(tag: u64) -> Vec<(ExampleId, f64)> {
        vec![(ExampleId(tag), 0.5)]
    }

    #[test]
    fn a_hit_needs_the_stamp_and_every_bit_of_the_key() {
        let mut memo = ProbeMemo::new();
        let q = [0.25f32, -1.0, 0.0, 3.0, 7.0];
        assert_eq!(memo.get_or_probe(&q, 5, || list(1)), list(1));
        // Same bits, same stamp: the probe is not run.
        assert_eq!(memo.get_or_probe(&q, 5, || unreachable!()), list(1));
        // A later generation misses and overwrites.
        assert_eq!(memo.get_or_probe(&q, 6, || list(2)), list(2));
        assert_eq!(memo.get_or_probe(&q, 6, || unreachable!()), list(2));
        // Same hashed prefix (same slot), another component past it.
        let mut later = q;
        later[4] = 7.5;
        assert_eq!(slot_of(&later), slot_of(&q));
        assert_eq!(memo.get_or_probe(&later, 6, || list(3)), list(3));
        // `0.0 == -0.0` as floats; as keys they differ.
        let mut negative_zero = later;
        negative_zero[4] = 0.0;
        assert_eq!(memo.get_or_probe(&negative_zero, 6, || list(4)), list(4));
        negative_zero[4] = -0.0;
        assert_eq!(memo.get_or_probe(&negative_zero, 6, || list(5)), list(5));
        // A key that is a prefix of the stored one is another key.
        assert_eq!(memo.get_or_probe(&q[..4], 6, || list(6)), list(6));
        assert_eq!((memo.lookups, memo.hits), (8, 2));
    }

    #[test]
    fn an_untouched_slot_matches_nothing() {
        let mut memo = ProbeMemo::new();
        // Not the empty key at generation 0, nor at the sentinel's
        // neighbours.
        for stamp in [0, 1, EMPTY - 1] {
            assert_eq!(memo.get_or_probe(&[], stamp, || list(stamp)), list(stamp));
        }
        assert_eq!(memo.hits, 0);
    }
}
