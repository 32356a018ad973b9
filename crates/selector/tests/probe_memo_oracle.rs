//! Differential test of the stage-1 probe memo: a memoized
//! [`ExampleSelector`] against a memo-less oracle — a twin
//! [`IvfIndex`] under the same configuration, given the same writes and
//! searched directly — over random interleavings of
//!
//! - `index_example` (fresh ids and overwrites of live ones),
//! - `unindex_example` (aimed at the ids the last query returned, so a
//!   stale list is a visibly wrong list; absent ids too, which change
//!   nothing and must invalidate nothing),
//! - one `index_examples` bulk load that crosses a retrain point,
//! - fresh queries, exact repeats of earlier queries, queries that share
//!   an earlier query's hashed prefix and differ in the last component,
//!   and a pair of queries that differ only in the sign of a zero
//!   (`0.0 == -0.0`, but against the planted rows one scores `+0.0` and
//!   the other `-0.0`).
//!
//! After **every** operation the last query is asked again and its hit
//! list must equal the twin's: same ids, same order, same similarity
//! bits. The counters are held to what the memo's contract allows: a
//! stage-1 call moves `lookups` by one exactly when the twin's
//! `expected_comparisons()` is at or above the memo's bar (256) and by
//! nothing below it; `hits` moves by one when the call repeats the call
//! before it with no write between them, by nothing when the key was
//! not asked since the last write, and by at most one otherwise (the
//! table is direct-mapped; another key may have taken the slot).
//! `lookups − hits` is the number of probes run.
//!
//! Half the cases run the index exact (`brute_force_below` above the
//! pool, every list scanned), half with `nprobe = 8` of ≈22–32 lists.
//!
//! Mutations that fail it (each run and seen to fail, then reverted):
//!
//! 1. *No generation bump on `remove`* (`IvfIndex::remove` without its
//!    `self.generation += 1`): the re-query after an `unindex_example`
//!    is answered from the memo and still lists the removed id —
//!    `hit lists differ after op …`.
//! 2. *Slot match on the hash alone* (`get_or_probe` without
//!    `same_bits`): a query sharing the hashed prefix of the one in its
//!    slot gets that one's list.
//! 3. *Float equality for the key compare* (`a == b` for
//!    `a.to_bits() == b.to_bits()`): the `-0.0` query is answered with
//!    the `+0.0` query's list, whose planted rows carry the other sign
//!    bit.

use std::collections::HashSet;

use ic_embed::Embedding;
use ic_llmsim::{ExampleId, Request};
use ic_selector::{ExampleSelector, SelectorConfig};
use ic_vecindex::{IvfConfig, IvfIndex, VectorIndex};
use ic_workloads::{Dataset, WorkloadGenerator};
use proptest::prelude::*;

const DIM: usize = 8;
/// `ic_selector`'s (crate-private) `memo::MIN_COMPARISONS`.
const MEMO_BAR: f64 = 256.0;
/// Rows loaded before the first operation: trained at 512 under the
/// partial-probe configuration, the next retrain due at 1 024.
const BASE: u64 = 700;
/// Fresh rows of the one bulk load — enough to cross 1 024.
const BULK: u64 = 400;

/// Bank rows are non-negative, so the all-negative sign-of-zero query
/// scores every row at or below zero and the planted rows (zero in
/// every component but the last) come first, at `+0.0` or `-0.0`.
fn row(raw: &[u32]) -> Embedding {
    Embedding::from_vec(raw.iter().map(|&v| v as f32 * 0.5).collect())
}

fn query(raw: &[i32]) -> Embedding {
    Embedding::from_vec(raw.iter().map(|&v| v as f32 * 0.5).collect())
}

fn planted(last: f32) -> Embedding {
    let mut v = vec![0.0f32; DIM];
    v[DIM - 1] = last;
    Embedding::from_vec(v)
}

fn zero_sign_query(last: f32) -> Embedding {
    let mut v = vec![-1.0f32; DIM];
    v[DIM - 1] = last;
    Embedding::from_vec(v)
}

fn bits(e: &Embedding) -> Vec<u32> {
    e.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The memoized selector, its memo-less twin, and what the test knows
/// about the memo's state.
struct Pair {
    selector: ExampleSelector,
    twin: IvfIndex,
    template: Request,
    /// Keys asked since the last write that changed the index.
    asked: HashSet<Vec<u32>>,
    /// The previous stage-1 call's key, if no write came after it.
    previous: Option<Vec<u32>>,
}

impl Pair {
    fn new(ivf: IvfConfig, rows: Vec<(u64, Embedding)>) -> Self {
        let mut selector = ExampleSelector::new(SelectorConfig {
            ivf: ivf.clone(),
            ..SelectorConfig::default()
        });
        let mut twin = IvfIndex::new(ivf);
        selector.index_examples(
            rows.iter()
                .map(|(id, e)| (ExampleId(*id), e.clone()))
                .collect(),
        );
        twin.insert_bulk(rows);
        let template = WorkloadGenerator::new(Dataset::MsMarco, 5)
            .generate_requests(1)
            .pop()
            .expect("one request");
        Self {
            selector,
            twin,
            template,
            asked: HashSet::new(),
            previous: None,
        }
    }

    fn wrote(&mut self) {
        self.asked.clear();
        self.previous = None;
    }

    /// One stage-1 call, compared with the twin; returns the hit ids.
    fn ask(&mut self, q: &Embedding, context: &str) -> Vec<u64> {
        let request = Request {
            embedding: q.clone(),
            ..self.template.clone()
        };
        let (lookups, hits) = self.selector.probe_memo_counts();
        let got = self.selector.stage1(&request);
        let want = self
            .twin
            .search(q, self.selector.config().stage1_candidates);
        let flat = |id: u64, sim: f64| (id, sim.to_bits());
        assert_eq!(
            got.iter()
                .map(|&(id, sim)| flat(id.0, sim))
                .collect::<Vec<_>>(),
            want.iter()
                .map(|h| flat(h.id, h.similarity))
                .collect::<Vec<_>>(),
            "hit lists differ after {context}"
        );
        let (lookups_now, hits_now) = self.selector.probe_memo_counts();
        let key = bits(q);
        if self.twin.expected_comparisons() >= MEMO_BAR {
            assert_eq!(lookups_now, lookups + 1, "{context}: one lookup per call");
            if self.previous.as_ref() == Some(&key) {
                assert_eq!(hits_now, hits + 1, "{context}: an immediate repeat hits");
            } else if !self.asked.contains(&key) {
                assert_eq!(
                    hits_now, hits,
                    "{context}: a key not asked since the last write"
                );
            } else {
                assert!(hits_now - hits <= 1, "{context}");
            }
        } else {
            assert_eq!(
                (lookups_now, hits_now),
                (lookups, hits),
                "{context}: below the bar"
            );
        }
        self.asked.insert(key.clone());
        self.previous = Some(key);
        want.iter().map(|h| h.id).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn the_memoized_selector_is_the_memo_less_index(
        exact in 0u32..2,
        base in collection::vec(collection::vec(0u32..3, DIM), BASE as usize),
        bulk in collection::vec(collection::vec(0u32..3, DIM), BULK as usize),
        kinds in collection::vec(0u32..12, 20..70),
        picks in collection::vec(0usize..1_000, 70),
        fresh_rows in collection::vec(collection::vec(0u32..3, DIM), 70),
        fresh_queries in collection::vec(collection::vec(-2i32..3, DIM), 70),
    ) {
        let ivf = IvfConfig {
            nprobe: 8,
            brute_force_below: if exact == 1 { 100_000 } else { 64 },
            train_iters: 4,
            ..IvfConfig::default()
        };
        // Ids 0 and 1 are the planted rows; the rest of the base bank
        // follows, the bulk load's ids after it, per-item inserts above.
        let mut rows = vec![(0, planted(1.0)), (1, planted(0.5))];
        rows.extend((2..BASE).zip(base.iter().map(|raw| row(raw))));
        let mut pair = Pair::new(ivf, rows);
        let mut queries: Vec<Embedding> = vec![query(&fresh_queries[0])];
        let mut last_hits = pair.ask(&queries[0], "the base load");
        let mut bulk_rows = Some(bulk);
        let mut next_id = BASE + BULK;
        for (step, &kind) in kinds.iter().enumerate() {
            let pick = picks[step];
            let context = format!("op {step} (kind {kind}, exact {exact})");
            match kind {
                // Insert a fresh id, or overwrite a live one.
                0 | 1 => {
                    let id = if kind == 0 || last_hits.is_empty() {
                        next_id += 1;
                        next_id
                    } else {
                        last_hits[pick % last_hits.len()]
                    };
                    let e = row(&fresh_rows[step]);
                    pair.selector.index_example(ExampleId(id), e.clone());
                    pair.twin.insert(id, e);
                    pair.wrote();
                }
                // Remove one of the ids the last query returned — or,
                // one time in four, an id that was never there.
                2 | 3 => {
                    let id = if pick % 4 == 0 || last_hits.is_empty() {
                        u64::MAX - pick as u64
                    } else {
                        last_hits[pick % last_hits.len()]
                    };
                    let removed = pair.twin.remove(id);
                    prop_assert_eq!(pair.selector.unindex_example(ExampleId(id)), removed);
                    if removed {
                        pair.wrote();
                    }
                }
                // The bulk load, once.
                4 => {
                    if let Some(raws) = bulk_rows.take() {
                        let fits = pair.twin.build_stats().fits;
                        let items: Vec<(u64, Embedding)> =
                            (BASE..).zip(raws.iter().map(|raw| row(raw))).collect();
                        pair.selector.index_examples(
                            items.iter().map(|(id, e)| (ExampleId(*id), e.clone())).collect(),
                        );
                        pair.twin.insert_bulk(items);
                        prop_assert_eq!(
                            pair.twin.build_stats().fits - fits,
                            u64::from(exact == 0),
                            "the bulk load crosses a retrain point unless the index is exact"
                        );
                        pair.wrote();
                    }
                }
                5 | 6 => queries.push(query(&fresh_queries[step])),
                // An exact repeat of an earlier query (moved to the end,
                // so the re-ask below repeats it once more).
                7 | 8 => {
                    let q = queries[pick % queries.len()].clone();
                    queries.push(q);
                }
                // An earlier query's hashed prefix, another last component.
                9 | 10 => {
                    let mut v = queries[pick % queries.len()].as_slice().to_vec();
                    v[DIM - 1] += 0.5 + (pick % 3) as f32;
                    queries.push(Embedding::from_vec(v));
                }
                // The sign of a zero: `+0.0`, then `-0.0` right behind it
                // in the same slot.
                _ => {
                    pair.ask(&zero_sign_query(0.0), &context);
                    queries.push(zero_sign_query(-0.0));
                }
            }
            let q = queries.last().expect("never empty").clone();
            last_hits = pair.ask(&q, &context);
        }
        let (lookups, hits) = pair.selector.probe_memo_counts();
        prop_assert!(hits <= lookups);
    }
}

/// The two planted rows against the sign-of-zero pair, spelled out: the
/// lists the memo must keep apart really do differ, and only in sign
/// bits.
#[test]
fn the_sign_of_a_zero_reaches_the_hit_list() {
    let mut twin = IvfIndex::new(IvfConfig::default());
    twin.insert(0, planted(1.0));
    twin.insert(1, planted(0.5));
    let (plus, minus) = (
        twin.search(&zero_sign_query(0.0), 2),
        twin.search(&zero_sign_query(-0.0), 2),
    );
    for (p, m) in plus.iter().zip(&minus) {
        assert_eq!(p.id, m.id);
        assert_eq!(p.similarity, m.similarity);
        assert!(p.similarity.is_sign_positive() && m.similarity.is_sign_negative());
    }
}

/// A bank of 100 expects ≈50 comparisons a probe — cheaper than
/// remembering one: repeats and all, the counters do not move, and the
/// first row past the bar moves them.
#[test]
fn below_the_bar_the_memo_is_not_consulted() {
    let rows: Vec<(u64, Embedding)> = (0..100u32)
        .map(|i| (u64::from(i), row(&[i % 3, i % 5, i % 7, 1, 2, i % 2, 0, 1])))
        .collect();
    let mut pair = Pair::new(IvfConfig::default(), rows);
    assert!(pair.twin.expected_comparisons() < MEMO_BAR);
    let q = query(&[1, 2, 0, -1, 2, 1, 0, 1]);
    for round in 0..3 {
        pair.ask(&q, &format!("round {round}"));
    }
    assert_eq!(pair.selector.probe_memo_counts(), (0, 0));
    // Exact search over 256 rows is 256 comparisons.
    let exact = IvfConfig {
        brute_force_below: 100_000,
        ..IvfConfig::default()
    };
    let rows = |n: u32| (0..n).map(|i| (u64::from(i), row(&[i % 3, i % 5, 1, 1, 2, 0, 0, 1])));
    let mut pair = Pair::new(exact, rows(255).collect());
    pair.ask(&q, "255 rows");
    assert_eq!(pair.selector.probe_memo_counts(), (0, 0));
    pair.selector.index_example(ExampleId(255), planted(1.0));
    pair.twin.insert(255, planted(1.0));
    pair.wrote();
    pair.ask(&q, "256 rows");
    pair.ask(&q, "256 rows, again");
    assert_eq!(pair.selector.probe_memo_counts(), (2, 1));
}
