//! Knapsack cache eviction (§4.3).
//!
//! "The decision process mirrors a classic knapsack problem: each example
//! is treated as an item with a weight (its cache size, such as plaintext
//! length) and a value (the achievable efficiency gain). ... This
//! one-dimensional knapsack problem can be solved efficiently."
//!
//! The production path is a greedy value-density solver (near-optimal for
//! knapsacks whose item weights are small relative to capacity, which
//! plaintext examples always are), run once over every cached example by
//! [`crate::ExampleManager::enforce_capacity`]. An exact dynamic-programming solver is provided for
//! validation and small instances; a property test in this module pins
//! the greedy solution to within a provable bound of optimal.

use ic_llmsim::ExampleId;

use crate::cache::ExampleCache;

/// One knapsack item: an example's id, byte weight, and retention value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnapsackItem {
    /// The example.
    pub id: ExampleId,
    /// Plaintext size in bytes.
    pub weight: usize,
    /// Decayed offload gain (non-negative).
    pub value: f64,
}

/// Greedy density knapsack: keeps items in descending value/weight order
/// while they fit. Returns the ids to KEEP.
pub fn greedy_knapsack(items: &[KnapsackItem], capacity: usize) -> Vec<ExampleId> {
    let mut sorted: Vec<&KnapsackItem> = items.iter().filter(|i| i.weight > 0).collect();
    sorted.sort_by(|a, b| {
        let da = a.value / a.weight as f64;
        let db = b.value / b.weight as f64;
        db.partial_cmp(&da)
            .expect("finite densities")
            .then(a.id.cmp(&b.id))
    });
    let mut kept = Vec::new();
    let mut used = 0usize;
    for item in sorted {
        if used + item.weight <= capacity {
            used += item.weight;
            kept.push(item.id);
        }
    }
    // Zero-weight items always fit.
    kept.extend(items.iter().filter(|i| i.weight == 0).map(|i| i.id));
    kept
}

/// Exact 0/1 knapsack via dynamic programming over byte capacity.
/// Intended for validation and small instances — O(n * capacity).
/// Returns the ids to KEEP.
pub fn dp_knapsack(items: &[KnapsackItem], capacity: usize) -> Vec<ExampleId> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // dp[w] = best value using capacity w; keep[i][w] = item i taken at w.
    let mut dp = vec![0.0f64; capacity + 1];
    let mut take = vec![vec![false; capacity + 1]; n];
    for (i, item) in items.iter().enumerate() {
        if item.weight > capacity {
            continue;
        }
        for w in (item.weight..=capacity).rev() {
            let candidate = dp[w - item.weight] + item.value.max(0.0);
            if candidate > dp[w] {
                dp[w] = candidate;
                take[i][w] = true;
            }
        }
    }
    // Trace back.
    let mut kept = Vec::new();
    let mut w = capacity;
    for i in (0..n).rev() {
        if take[i][w] {
            kept.push(items[i].id);
            w -= items[i].weight;
        }
    }
    kept.reverse();
    kept
}

/// Total value of a keep set.
pub fn total_value(items: &[KnapsackItem], kept: &[ExampleId]) -> f64 {
    items
        .iter()
        .filter(|i| kept.contains(&i.id))
        .map(|i| i.value)
        .sum()
}

/// The ids of `items` that are not in `keep`, in item order — what a
/// knapsack solution evicts.
fn all_but(items: &[KnapsackItem], mut keep: Vec<ExampleId>) -> Vec<ExampleId> {
    keep.sort_unstable();
    items
        .iter()
        .map(|i| i.id)
        .filter(|id| keep.binary_search(id).is_err())
        .collect()
}

/// One capacity pass at time `now`: when `cache` holds more than
/// `capacity` bytes, keeps [`greedy_knapsack`]'s solution over every entry
/// (weight = plaintext bytes, value = decayed offload gain) and removes
/// the rest. Returns the evicted ids in id order.
pub(crate) fn evict_to(cache: &mut ExampleCache, capacity: usize, now: f64) -> Vec<ExampleId> {
    if cache.total_bytes() <= capacity {
        return Vec::new();
    }
    let mut items: Vec<KnapsackItem> = (cache.iter())
        .map(|(&id, e)| KnapsackItem {
            id,
            weight: e.example.byte_len(),
            value: e.offload_gain.value_at(now),
        })
        .collect();
    items.sort_unstable_by_key(|i| i.id);
    let evicted = all_but(&items, greedy_knapsack(&items, capacity));
    for &id in &evicted {
        cache.remove(id);
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngExt;

    fn item(id: u64, weight: usize, value: f64) -> KnapsackItem {
        KnapsackItem {
            id: ExampleId(id),
            weight,
            value,
        }
    }

    #[test]
    fn dp_finds_classic_optimum() {
        // Capacity 10: best is {B, C} (value 11), not the dense A alone.
        let items = [item(1, 9, 10.0), item(2, 5, 6.0), item(3, 5, 5.0)];
        let kept = dp_knapsack(&items, 10);
        assert_eq!(kept, vec![ExampleId(2), ExampleId(3)]);
        assert!((total_value(&items, &kept) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_respects_capacity() {
        let items = [item(1, 4, 4.0), item(2, 4, 3.0), item(3, 4, 2.0)];
        let kept = greedy_knapsack(&items, 8);
        let used: usize = items
            .iter()
            .filter(|i| kept.contains(&i.id))
            .map(|i| i.weight)
            .sum();
        assert!(used <= 8);
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(&ExampleId(1)));
        assert!(kept.contains(&ExampleId(2)));
    }

    #[test]
    fn zero_weight_items_always_kept() {
        let items = [item(1, 0, 0.1), item(2, 100, 5.0)];
        let kept = greedy_knapsack(&items, 10);
        assert!(kept.contains(&ExampleId(1)));
        assert!(!kept.contains(&ExampleId(2)));
    }

    #[test]
    fn oversized_item_is_skipped_not_fatal() {
        let items = [item(1, 1000, 100.0), item(2, 5, 1.0)];
        assert_eq!(dp_knapsack(&items, 10), vec![ExampleId(2)]);
        assert_eq!(greedy_knapsack(&items, 10), vec![ExampleId(2)]);
    }

    #[test]
    fn the_evicted_ids_are_the_contains_filters_in_item_order() {
        // 2 000 items in shuffled id order, weights 1..=8 and only four
        // distinct densities, so the greedy order is decided by the id
        // tie-break almost everywhere; half the bytes fit.
        let mut rng = ic_stats::rng::rng_from_seed(84);
        let items: Vec<KnapsackItem> = (0..2_000u64)
            .map(|i| {
                let weight = rng.random_range(1usize..9);
                let density = [0.0, 0.5, 0.5, 2.0][rng.random_range(0..4usize)];
                item((i * 7919) % 2_000, weight, weight as f64 * density)
            })
            .collect();
        let capacity = items.iter().map(|i| i.weight).sum::<usize>() / 2;
        let keep = greedy_knapsack(&items, capacity);
        let want: Vec<ExampleId> = (items.iter().map(|i| i.id))
            .filter(|id| !keep.contains(id))
            .collect();
        assert!(want.len() > 500 && want.len() < 1_500);
        assert_eq!(all_but(&items, keep), want);
        assert_eq!(all_but(&items, Vec::new()).len(), items.len());
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert!(dp_knapsack(&[], 10).is_empty());
        assert!(greedy_knapsack(&[], 10).is_empty());
        let items = [item(1, 5, 1.0)];
        assert!(dp_knapsack(&items, 0).is_empty());
    }

    proptest! {
        #[test]
        fn dp_matches_brute_force(
            weights in proptest::collection::vec(1usize..12, 1..8),
            values in proptest::collection::vec(0.0f64..10.0, 8),
            capacity in 1usize..40,
        ) {
            let items: Vec<KnapsackItem> = weights
                .iter()
                .zip(&values)
                .enumerate()
                .map(|(i, (&w, &v))| item(i as u64, w, v))
                .collect();
            // Brute force over all subsets.
            let n = items.len();
            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let mut w = 0usize;
                let mut v = 0.0;
                for (i, it) in items.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        w += it.weight;
                        v += it.value;
                    }
                }
                if w <= capacity && v > best {
                    best = v;
                }
            }
            let kept = dp_knapsack(&items, capacity);
            let used: usize = items.iter().filter(|i| kept.contains(&i.id)).map(|i| i.weight).sum();
            prop_assert!(used <= capacity);
            let dp_value = total_value(&items, &kept);
            prop_assert!((dp_value - best).abs() < 1e-9, "dp {dp_value} vs brute {best}");
        }

        #[test]
        fn greedy_is_within_bound_of_optimal(
            weights in proptest::collection::vec(1usize..10, 1..8),
            values in proptest::collection::vec(0.1f64..10.0, 8),
            capacity in 10usize..60,
        ) {
            let items: Vec<KnapsackItem> = weights
                .iter()
                .zip(&values)
                .enumerate()
                .map(|(i, (&w, &v))| item(i as u64, w, v))
                .collect();
            let optimal = total_value(&items, &dp_knapsack(&items, capacity));
            let greedy = total_value(&items, &greedy_knapsack(&items, capacity));
            // Greedy-by-density plus the max single item is a 1/2
            // approximation; plain greedy can lose at most the largest
            // single item's value relative to optimal.
            let max_item = items.iter().map(|i| i.value).fold(0.0f64, f64::max);
            prop_assert!(greedy + max_item + 1e-9 >= optimal,
                "greedy {greedy} too far below optimal {optimal}");
        }

        #[test]
        fn greedy_never_exceeds_capacity(
            weights in proptest::collection::vec(1usize..20, 1..20),
            capacity in 1usize..50,
        ) {
            let items: Vec<KnapsackItem> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| item(i as u64, w, (i % 5) as f64))
                .collect();
            let kept = greedy_knapsack(&items, capacity);
            let used: usize = items.iter().filter(|i| kept.contains(&i.id)).map(|i| i.weight).sum();
            prop_assert!(used <= capacity);
        }
    }
}
