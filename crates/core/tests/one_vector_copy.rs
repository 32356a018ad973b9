//! One copy of each example vector: the Example Manager's cache keeps an
//! example's plaintext and metadata, the Example Selector's index keeps
//! its embedding (§4.1, §4.3), and the serving path reads the vector
//! only from there.
//!
//! `cached_examples_carry_no_vector_and_the_index_row_is_the_admitted_one`
//! checks the layout after seeding, `update_cache` admissions (which
//! retrain the index), capacity evictions and more admissions: every
//! cached example's embedding is zero-length, and the index row of each
//! cached id has the admitted embedding's bits and norm.
//!
//! `serving_on_a_churned_cache_matches_the_side_copy_reference` serves
//! a few hundred requests while the cache admits served pairs and evicts
//! under a byte cap. Before each serving a reference computes the
//! selection from a side copy of every admitted embedding, kept by the
//! test: proxy scores from `ProxyFeatures::extract` on the example with
//! its vector restored (so the similarity is `Embedding::cosine`, not
//! stage 1's), a full stable sort, and the diversity pick with
//! `Embedding::cosine` per pair. The served selection's ids, utilities
//! and stage-1 similarities must equal it by `to_bits()`, and so must
//! the feedback features of every pick (`extract_with_sim` on the
//! cached example with the carried similarity against `extract` on the
//! side copy). The proxy's weights after the run are pinned to the
//! values the same scenario produced when the cached examples still
//! carried their vectors and both paths read them.
//!
//! Mutations that fail these tests: `ExampleCache::insert` keeping the
//! embedding (the invariant test); the diversity pick comparing the
//! candidate's row with itself (the reference selection);
//! `Selection::stage1_similarity` filled with the predicted utilities
//! (the carried similarities, ahead of the feedback features). The row
//! reductions themselves are held to `Embedding`'s by `ic-vecindex`'s
//! `stored_rows_are_the_inserted_embeddings_bit_for_bit`.

use std::collections::HashMap;

use ic_cache::{IcCacheConfig, IcCacheSystem};
use ic_embed::Embedding;
use ic_llmsim::{Example, ExampleId, ExampleStore, Generator, ModelSpec, Request};
use ic_selector::proxy::FEATURE_DIM;
use ic_selector::{DIVERSITY_CEILING, MAX_EXAMPLES, ProxyFeatures, ProxyModel, UTILITY_CUT};
use ic_workloads::{Dataset, WorkloadGenerator};

/// A Gemma-pair system seeded with `bank` MS MARCO examples, its
/// request generator, and the side copy of every seeded embedding.
fn seeded(
    bank: usize,
    seed: u64,
) -> (
    IcCacheSystem,
    WorkloadGenerator,
    HashMap<ExampleId, Embedding>,
) {
    let config = IcCacheConfig::gemma_pair();
    let large = config.catalog.by_name("gemma-2-27b").unwrap();
    let mut wg = WorkloadGenerator::new(Dataset::MsMarco, seed);
    let examples = wg.generate_examples(bank, &ModelSpec::gemma_2_27b(), large, &Generator::new());
    let side = examples
        .iter()
        .map(|e| (e.id, e.embedding.clone()))
        .collect();
    let mut system = IcCacheSystem::new(config);
    system.seed_examples(examples, 0.0);
    (system, wg, side)
}

/// Serves `request` and caches the served pair, recording the admitted
/// embedding in the side copy.
fn serve_and_admit(
    system: &mut IcCacheSystem,
    side: &mut HashMap<ExampleId, Embedding>,
    request: &Request,
    now: f64,
) -> ic_cache::ServeOutcome {
    let out = system.serve(request);
    if let Some(id) = system.update_cache(request, &out.outcome, out.model, now) {
        side.insert(id, request.embedding.clone());
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every cached example carries a zero-length embedding, and the index
/// holds exactly the cached ids, each row the admitted embedding.
fn assert_one_copy(system: &IcCacheSystem, side: &HashMap<ExampleId, Embedding>, label: &str) {
    let cache = system.manager().cache();
    let index = system.selector().index();
    assert_eq!(system.selector().indexed_count(), cache.len(), "{label}");
    for (id, entry) in cache.iter() {
        assert_eq!(
            entry.example.embedding.dim(),
            0,
            "{label}: {id:?} keeps a vector"
        );
        let row = index
            .row(id.0)
            .unwrap_or_else(|| panic!("{label}: {id:?} not indexed"));
        let want = &side[id];
        let got: Vec<u32> = row.components().map(f32::to_bits).collect();
        let want_bits: Vec<u32> = want.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want_bits, "{label}: row of {id:?}");
        assert_eq!(row.norm().to_bits(), want.norm().to_bits(), "{label}");
    }
}

#[test]
fn cached_examples_carry_no_vector_and_the_index_row_is_the_admitted_one() {
    let (mut system, mut wg, mut side) = seeded(100, 29);
    assert_one_copy(&system, &side, "seeded");

    // The bulk build last fit at 64 rows; admissions past 128 retrain.
    let fits = system.selector().index().build_stats().fits;
    for (i, r) in wg.generate_requests(120).iter().enumerate() {
        serve_and_admit(&mut system, &mut side, r, i as f64);
    }
    assert!(
        system.selector().index().build_stats().fits > fits,
        "no retrain"
    );
    assert_one_copy(&system, &side, "admitted and retrained");

    let bytes = system.manager().cache().total_bytes();
    system.set_cache_capacity(Some(bytes / 2));
    assert!(system.run_rebalance(200.0) > 0, "nothing evicted");
    system.set_cache_capacity(None);
    assert_one_copy(&system, &side, "evicted");

    for (i, r) in wg.generate_requests(40).iter().enumerate() {
        serve_and_admit(&mut system, &mut side, r, 300.0 + i as f64);
    }
    assert_one_copy(&system, &side, "admitted after evictions");
}

/// `cached` with its vector restored from the side copy: the example as
/// it was before the cache dropped the vector.
fn with_vector(cached: &Example, side: &HashMap<ExampleId, Embedding>) -> Example {
    Example {
        embedding: side[&cached.id].clone(),
        ..cached.clone()
    }
}

/// The selection as computed before the index owned the vectors:
/// `(ids, utilities, similarities)` in prompt order.
fn reference_select(
    system: &IcCacheSystem,
    side: &HashMap<ExampleId, Embedding>,
    request: &Request,
    target: &ModelSpec,
) -> (Vec<ExampleId>, Vec<f64>, Vec<f64>) {
    let cache = system.manager().cache();
    let proxy = system.selector().proxy();
    let mut scored: Vec<(ExampleId, f64, Example)> = (system.selector().stage1(request))
        .into_iter()
        .filter_map(|(id, _)| cache.get_example(id).map(|e| with_vector(e, side)))
        .map(|e| {
            let features = ProxyFeatures::extract(request, &e, target).as_array();
            (e.id, proxy.predict(&features), e)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut picked: Vec<&(ExampleId, f64, Example)> = Vec::new();
    for candidate in &scored {
        if picked.len() >= MAX_EXAMPLES || candidate.1 < UTILITY_CUT {
            break;
        }
        let redundant = (picked.iter())
            .any(|p| p.2.embedding.cosine(&candidate.2.embedding) > DIVERSITY_CEILING);
        if !redundant {
            picked.push(candidate);
        }
    }
    picked.reverse();
    (
        picked.iter().map(|p| p.0).collect(),
        picked.iter().map(|p| p.1).collect(),
        (picked.iter())
            .map(|p| request.embedding.cosine(&p.2.embedding))
            .collect(),
    )
}

/// The proxy's weights, read through `predict` on the unit vectors.
fn weight_bits(proxy: &ProxyModel) -> Vec<u64> {
    (0..FEATURE_DIM)
        .map(|i| {
            let mut x = [0.0; FEATURE_DIM];
            x[i] = 1.0;
            proxy.predict(&x).to_bits()
        })
        .collect()
}

#[test]
fn serving_on_a_churned_cache_matches_the_side_copy_reference() {
    let (mut system, mut wg, mut side) = seeded(400, 31);
    let target = {
        let config = system.config();
        let model = config
            .offload_models()
            .first()
            .copied()
            .unwrap_or(config.primary);
        config.catalog.get(model).clone()
    };
    let bytes = system.manager().cache().total_bytes();
    system.set_cache_capacity(Some(bytes * 9 / 10));

    let (mut picks, mut evicted) = (0usize, 0usize);
    for (i, r) in wg.generate_requests(300).iter().enumerate() {
        let now = i as f64;
        if i % 25 == 0 {
            evicted += system.run_rebalance(now);
        }
        let want = reference_select(&system, &side, r, &target);
        let out = serve_and_admit(&mut system, &mut side, r, now);
        let sel = &out.selection;
        assert_eq!(sel.ids, want.0, "request {i}");
        assert_eq!(bits(&sel.predicted_utility), bits(&want.1), "request {i}");
        assert_eq!(bits(&sel.stage1_similarity), bits(&want.2), "request {i}");
        // The feedback features of every pick, as the serving path builds
        // them and as they were built from the example's own vector.
        let spec = system.config().catalog.get(out.model);
        for (id, &sim) in sel.ids.iter().zip(&sel.stage1_similarity) {
            let Some(cached) = system.manager().cache().get_example(*id) else {
                continue;
            };
            let served = ProxyFeatures::extract_with_sim(r, cached, spec, sim).as_array();
            let reference = ProxyFeatures::extract(r, &with_vector(cached, &side), spec).as_array();
            assert_eq!(bits(&served), bits(&reference), "request {i}, {id:?}");
        }
        picks += sel.ids.len();
    }
    assert!(picks > 300, "the selector picked only {picks} examples");
    assert!(evicted > 0, "the cap never evicted");
    assert_one_copy(&system, &side, "after serving");

    let proxy = system.selector().proxy();
    assert!(proxy.updates() > 0, "no feedback reached the proxy");
    assert_eq!(
        weight_bits(proxy),
        PINNED_WEIGHTS,
        "proxy weights moved: {:?}",
        weight_bits(proxy)
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect::<Vec<_>>()
    );
}

/// The proxy's weights after the churned scenario, recorded with every
/// cached example still carrying its vector and both the diversity pick
/// and the feedback features reading it.
/// (-0.3446…, 0.4102…, 0.3552…, -0.0176…, 0.4355…, 0.0552…, -0.0041…,
/// 0.0519…).
const PINNED_WEIGHTS: [u64; FEATURE_DIM] = [
    13823251780235704305,
    4601060641746462747,
    4600070880233163404,
    13804107385943075304,
    4601516974538852089,
    4588121023856556196,
    13794707366977004298,
    4587635373712256349,
];
