//! Differential test of stage 2 + the diversity pick against the
//! per-candidate pipeline they replaced, kept here as the oracle: one
//! feature extraction per candidate with the request-only headroom
//! recomputed and the quality-signal noise drawn from a freshly seeded
//! RNG, one `predict` each, a full stable `sort_by`, and a greedy pick
//! that calls `Embedding::cosine` (three reductions) per pair.
//! `select_with_stage1` must return the same ids in the same order and
//! the same utilities by `to_bits()`.
//!
//! The banks are built to hit what the fast path could get wrong:
//! near-duplicate runs (identical embeddings under fresh ids — every
//! member after the first is redundant), exact utility ties (duplicates
//! whose quality signal saturates at 1.0 tie on every feature, so only
//! the id orders them — the case an unstable sort must still get
//! right), zero-norm embeddings that reach the pick (the cosine guard),
//! candidates whose id is not in the store, all at `UTILITY_CUT`; and
//! threshold 0.0 through `select_with_threshold` over stage 1's own
//! candidates. The pick reads the vectors from the selector's index, so
//! every bank is indexed there; the oracle keeps reading the store's
//! examples, which still carry theirs.

use std::collections::HashMap;

use ic_embed::Embedding;
use ic_llmsim::{Example, ExampleId, Generator, ModelId, ModelSpec, Request, signal_noise};
use ic_selector::proxy::FEATURE_DIM;
use ic_selector::{DIVERSITY_CEILING, ExampleSelector, MAX_EXAMPLES, UTILITY_CUT, quality_signal};
use ic_stats::dist::Normal;
use ic_stats::rng::rng_from_seed;
use ic_workloads::{Dataset, WorkloadGenerator};
use proptest::prelude::*;

/// The id-derived noise as `quality_signal` used to draw it on every
/// read.
fn seeded_noise(id: ExampleId) -> f64 {
    let mut rng = rng_from_seed(id.0 ^ 0x51_6E_A1);
    Normal::new(0.0, 0.08).expect("valid").sample(&mut rng)
}

/// Feature extraction as it was per candidate.
fn oracle_features(
    request: &Request,
    example: &Example,
    target: &ModelSpec,
    sim: f64,
) -> [f64; FEATURE_DIM] {
    let sim = sim.clamp(-1.0, 1.0);
    let qsig = (example.quality + seeded_noise(example.id)).clamp(0.0, 1.0);
    let task_match = if request.task == example.task {
        1.0
    } else {
        0.0
    };
    let skill_sim = request.skills.similarity(&example.skills);
    let len_norm = (f64::from(example.response_tokens).ln() / 8.0).clamp(0.0, 1.5);
    let headroom_proxy = 1.0 - request.skills.weighted_score(&target.capability);
    [
        1.0,
        sim,
        sim * sim,
        qsig,
        sim * qsig,
        task_match * skill_sim,
        len_norm,
        headroom_proxy,
    ]
}

/// `select_from_stage1` as it was, under `threshold`: `(ids, utilities)`
/// in prompt order.
fn oracle_select(
    selector: &ExampleSelector,
    request: &Request,
    candidates: &[(ExampleId, f64)],
    store: &HashMap<ExampleId, Example>,
    target: &ModelSpec,
    threshold: f64,
) -> (Vec<ExampleId>, Vec<f64>) {
    let mut scored: Vec<(ExampleId, f64, &Example)> = candidates
        .iter()
        .filter_map(|&(id, sim)| store.get(&id).map(|ex| (id, sim, ex)))
        .map(|(id, sim, ex)| {
            let features = oracle_features(request, ex, target, sim);
            (id, selector.proxy().predict(&features), ex)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite predictions")
            .then(a.0.cmp(&b.0))
    });
    let mut picked: Vec<(ExampleId, f64, &Example)> = Vec::new();
    for &(id, util, ex) in &scored {
        if picked.len() >= MAX_EXAMPLES || util < threshold {
            break;
        }
        let redundant = picked
            .iter()
            .any(|&(_, _, p)| p.embedding.cosine(&ex.embedding) > DIVERSITY_CEILING);
        if !redundant {
            picked.push((id, util, ex));
        }
    }
    picked.reverse();
    (
        picked.iter().map(|&(id, ..)| id).collect(),
        picked.iter().map(|&(_, u, _)| u).collect(),
    )
}

/// Utilities as bits, so a comparison is exact.
fn utility_bits(utilities: &[f64]) -> Vec<u64> {
    utilities.iter().map(|u| u.to_bits()).collect()
}

/// `donor` under a fresh id (the carried noise follows the id).
fn reissue(donor: &Example, id: u64) -> Example {
    let id = ExampleId(id);
    Example {
        id,
        signal_noise: signal_noise(id),
        ..donor.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn select_with_stage1_matches_the_per_candidate_pipeline(
        seed in 0u64..10_000,
        n_bank in 24usize..120,
        dup_runs in collection::vec(collection::vec(0u32..10_000, 3), 1..5),
        zero_sims in collection::vec(0.5f64..1.0, 0..3),
        train in 0usize..12,
        zero_threshold in 0u32..2,
        keep in collection::vec(0u32..100, 160),
    ) {
        let mut wg = WorkloadGenerator::new(Dataset::MsMarco, seed);
        let small = ModelSpec::gemma_2_2b();
        let bank = wg.generate_examples(n_bank, &ModelSpec::gemma_2_27b(), ModelId(0), &Generator::new());
        let dim = bank[0].embedding.dim();
        let mut store: HashMap<ExampleId, Example> = bank.iter().cloned().map(|e| (e.id, e)).collect();
        let mut next_id = 1_000_000u64;

        // Duplicate runs off random donors. Odd runs saturate the
        // quality signal: members with positive noise all read 1.0 and
        // tie on every feature.
        let mut donors = Vec::new();
        for (r, raw) in dup_runs.iter().enumerate() {
            let donor = &bank[raw[0] as usize % bank.len()];
            donors.push(donor.clone());
            for _ in 0..2 + raw[1] % 5 {
                let mut dup = reissue(donor, next_id);
                next_id += 1;
                if r % 2 == 1 {
                    dup.quality = 1.0;
                }
                store.insert(dup.id, dup);
            }
        }
        // Zero-norm embeddings, handed to stage 2 with a similarity
        // that carries them past the threshold and into the pick.
        let mut forced: Vec<(ExampleId, f64)> = Vec::new();
        for &sim in &zero_sims {
            let mut z = reissue(&donors[0], next_id);
            next_id += 1;
            z.embedding = Embedding::zeros(dim);
            z.quality = 0.95;
            forced.push((z.id, sim));
            store.insert(z.id, z);
        }

        let mut ids: Vec<ExampleId> = store.keys().copied().collect();
        ids.sort_unstable();
        let mut selector = ExampleSelector::standard();
        for id in &ids {
            selector.index_example(*id, store[id].embedding.clone());
        }
        // Optionally move the proxy off its prior.
        for (i, r) in wg.generate_requests(train).iter().enumerate() {
            if let Some(&(id, sim)) = selector.stage1(r).first() {
                let f = ic_selector::ProxyFeatures::extract(r, &store[&id], &small).as_array();
                selector.proxy_mut().update(&f, (sim * (i % 3) as f64 / 3.0).clamp(0.0, 1.0));
            }
        }

        // One request per donor topic (its duplicates are its nearest
        // candidates) plus unrelated traffic.
        let mut requests: Vec<Request> = donors
            .iter()
            .map(|d| {
                let mut r = wg.generate_request_for_topic(d.topic);
                r.embedding = d.embedding.clone();
                r
            })
            .collect();
        requests.extend(wg.generate_requests(3));

        for request in &requests {
            // A random subset of the store under the true cosines, the
            // forced zero-norm entries, and an id the store never held.
            let mut candidates: Vec<(ExampleId, f64)> = ids
                .iter()
                .zip(keep.iter().cycle())
                .filter(|&(id, &k)| k < 60 && !forced.iter().any(|(f, _)| f == id))
                .map(|(&id, _)| (id, request.embedding.cosine(&store[&id].embedding)))
                .collect();
            candidates.extend(&forced);
            candidates.push((ExampleId(u64::MAX), 0.99));

            let got = selector.select_with_stage1(request, candidates.clone(), &store, &small);
            let want = oracle_select(&selector, request, &candidates, &store, &small, UTILITY_CUT);
            prop_assert_eq!(&got.ids, &want.0);
            prop_assert_eq!(utility_bits(&got.predicted_utility), utility_bits(&want.1));
            prop_assert_eq!(got.stage1_count, candidates.len());
            prop_assert_eq!(got.threshold_used.to_bits(), UTILITY_CUT.to_bits());

            // Threshold 0.0, through the whole pipeline.
            if zero_threshold == 1 {
                let got = selector.select_with_threshold(request, &store, &small, 0.0);
                let probed = selector.stage1(request);
                let want = oracle_select(&selector, request, &probed, &store, &small, 0.0);
                prop_assert_eq!(&got.ids, &want.0);
                prop_assert_eq!(utility_bits(&got.predicted_utility), utility_bits(&want.1));
                prop_assert_eq!(got.stage1_count, probed.len());
                prop_assert_eq!(got.threshold_used.to_bits(), 0.0f64.to_bits());
            }
        }
    }
}

/// The bank actually exercises the cases the header names: across a
/// few fixed seeds the pick meets redundant candidates, exact ties and
/// a zero-norm embedding.
#[test]
fn the_generated_banks_hit_duplicates_ties_and_zero_norms() {
    let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 3);
    let small = ModelSpec::gemma_2_2b();
    let bank = wg.generate_examples(40, &ModelSpec::gemma_2_27b(), ModelId(0), &Generator::new());
    let donor = &bank[5];
    let mut store: HashMap<ExampleId, Example> = HashMap::new();
    for k in 0..12 {
        let mut dup = reissue(donor, 1_000_000 + k);
        dup.quality = 1.0;
        store.insert(dup.id, dup);
    }
    let saturated: Vec<ExampleId> = store
        .values()
        .filter(|e| quality_signal(e) == 1.0)
        .map(|e| e.id)
        .collect();
    assert!(saturated.len() >= 2, "need a tie: {saturated:?}");
    let mut zero = reissue(donor, 2_000_000);
    zero.embedding = Embedding::zeros(donor.embedding.dim());
    store.insert(zero.id, zero.clone());

    // The diversity pick reads the vectors from the selector's index.
    let mut selector = ExampleSelector::standard();
    for e in store.values() {
        selector.index_example(e.id, e.embedding.clone());
    }
    let mut request = wg.generate_request_for_topic(donor.topic);
    request.embedding = donor.embedding.clone();
    let mut candidates: Vec<(ExampleId, f64)> = store
        .values()
        .filter(|e| e.id != zero.id)
        .map(|e| (e.id, request.embedding.cosine(&e.embedding)))
        .collect();
    candidates.sort_unstable_by_key(|&(id, _)| std::cmp::Reverse(id));
    candidates.push((zero.id, 0.9));
    let got = selector.select_with_stage1(&request, candidates.clone(), &store, &small);
    let (want_ids, _) = oracle_select(
        &selector,
        &request,
        &candidates,
        &store,
        &small,
        UTILITY_CUT,
    );
    assert_eq!(got.ids, want_ids);
    // One of the twelve duplicates survives (the smallest saturated id:
    // ties break by id), and the zero-norm entry — cosine 0 to it — is
    // never redundant.
    assert_eq!(got.ids.len(), 2);
    assert!(got.ids.contains(&zero.id));
    assert!(got.ids.contains(saturated.iter().min().unwrap()));
}

#[test]
fn carried_signal_noise_is_the_seeded_rng_formula() {
    // The three id ranges the program hands out: bank generation,
    // `update_cache`, and the DP-synthetic bank.
    let ranges = [0u64, 0x1000_0000, 0x4000_0000_0000_0000];
    for base in ranges {
        for i in 0..3_334 {
            let id = ExampleId(base + i);
            assert_eq!(
                signal_noise(id).to_bits(),
                seeded_noise(id).to_bits(),
                "{id:?}"
            );
        }
    }
    // Generated examples carry it, and `quality_signal` reads it.
    let mut wg = WorkloadGenerator::new(Dataset::MsMarco, 9);
    for e in wg.generate_examples(
        200,
        &ModelSpec::gemma_2_27b(),
        ModelId(0),
        &Generator::new(),
    ) {
        assert_eq!(e.signal_noise.to_bits(), seeded_noise(e.id).to_bits());
        assert_eq!(
            quality_signal(&e).to_bits(),
            (e.quality + seeded_noise(e.id)).clamp(0.0, 1.0).to_bits()
        );
    }
}
