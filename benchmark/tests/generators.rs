//! The workload generators are pure functions of their arguments, and
//! `--seed` reaches exactly the input it is documented to drive.

use std::collections::HashSet;

use icbench::run::fnv64;
use icbench::workload::{REPEAT_SHARE, Workload};

fn arrival_hash(arrivals: &[f64]) -> u64 {
    let bytes: Vec<u8> = arrivals
        .iter()
        .flat_map(|a| a.to_bits().to_le_bytes())
        .collect();
    fnv64(&bytes)
}

fn request_hash(workload: Workload, n: usize) -> u64 {
    let mut generator = workload.generator();
    let bytes: Vec<u8> = workload
        .requests(&mut generator, n)
        .iter()
        .flat_map(|r| {
            let mut b = r.id.0.to_le_bytes().to_vec();
            b.extend(
                r.embedding
                    .as_slice()
                    .iter()
                    .flat_map(|x| x.to_bits().to_le_bytes()),
            );
            b.extend(r.input_tokens.to_le_bytes());
            b
        })
        .collect();
    fnv64(&bytes)
}

#[test]
fn arrivals_repeat_per_seed_and_differ_across_seeds() {
    for workload in Workload::ALL {
        let a = workload.arrivals(7, 0.05);
        assert_eq!(arrival_hash(&a), arrival_hash(&workload.arrivals(7, 0.05)));
        assert_ne!(arrival_hash(&a), arrival_hash(&workload.arrivals(8, 0.05)));
        assert!(a.len() > 100, "{}: {} arrivals", workload.name(), a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
        assert!(a[0] > 0.0 && *a.last().unwrap() < workload.duration_s() * 0.05);
    }
}

#[test]
fn requests_are_a_fixture_and_repeat_exactly() {
    for workload in Workload::ALL {
        assert_eq!(request_hash(workload, 500), request_hash(workload, 500));
    }
    assert_ne!(
        request_hash(Workload::TrendingDups, 500),
        request_hash(Workload::ChurnWrites, 500),
        "the repeat pattern changes the stream"
    );
}

#[test]
fn trending_repeat_share_is_one_half() {
    let workload = Workload::TrendingDups;
    let n = 12_000;
    let requests = workload.requests(&mut workload.generator(), n);
    let mut seen = HashSet::new();
    let repeats = requests.iter().filter(|r| !seen.insert(r.id)).count();
    let share = repeats as f64 / n as f64;
    assert!((share - REPEAT_SHARE).abs() <= 0.02, "repeat share {share}");
    // A repeat is the same request, byte for byte.
    let first = requests
        .iter()
        .find(|r| r.id == requests[n - 1].id)
        .unwrap();
    assert_eq!(
        first.embedding.as_slice(),
        requests[n - 1].embedding.as_slice()
    );
}

#[test]
fn no_other_workload_repeats_a_request() {
    for workload in [
        Workload::ColdstartLowload,
        Workload::BigbankSelect,
        Workload::ChurnWrites,
    ] {
        let requests = workload.requests(&mut workload.generator(), 2_000);
        let ids: HashSet<_> = requests.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), requests.len());
    }
}
