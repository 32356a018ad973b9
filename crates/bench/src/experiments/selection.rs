//! Example-selection and example-management experiments: Figs. 9, 10, 11
//! and 19.

use ic_llmsim::icl::example_utility;
use ic_llmsim::{ExampleStore, GenSetup, Generator, ModelSpec};
use ic_manager::replay::replay_example;
use ic_manager::{ExampleCache, KnapsackItem, greedy_knapsack};
use ic_selector::{ExampleSelector, ProxyFeatures};
use ic_stats::rng::rng_from_seed;
use ic_workloads::{Dataset, WorkloadGenerator};
use rand::RngExt;
use std::collections::{BTreeMap, HashMap};

use crate::harness::{Scale, side_by_side};
use crate::report::{Report, Table, f3, pct, shape_check};

/// Builds a trained selector plus a store for a dataset. The store
/// iterates in id order, so whatever is drawn per example lands on the
/// same example every run.
fn trained_selector(
    ds: Dataset,
    n_examples: usize,
    n_train: usize,
    seed: u64,
) -> (
    ExampleSelector,
    BTreeMap<ic_llmsim::ExampleId, ic_llmsim::Example>,
    WorkloadGenerator,
    Generator,
    ModelSpec,
) {
    let sim = Generator::new();
    let small = ModelSpec::gemma_2_2b();
    let large = ModelSpec::gemma_2_27b();
    let mut wg = WorkloadGenerator::sized(ds, seed, n_examples);
    let examples = wg.generate_examples(n_examples, &large, ic_llmsim::ModelId(1), &sim);
    let mut selector = ExampleSelector::standard();
    let mut store = BTreeMap::new();
    for e in examples {
        selector.index_example(e.id, e.embedding.clone());
        store.insert(e.id, e);
    }
    let all_ids: Vec<ic_llmsim::ExampleId> = store.keys().copied().collect();
    let mut neg_rng = rng_from_seed(seed ^ 0x5E1F);
    for r in &wg.generate_requests(n_train) {
        let base = sim.base_quality(&small, r);
        let mut batch: Vec<ic_llmsim::ExampleId> = selector
            .stage1(r)
            .into_iter()
            .take(8)
            .map(|(id, _)| id)
            .collect();
        // Also train on a couple of random (usually irrelevant) examples:
        // the proxy must learn that dissimilar examples have no utility,
        // otherwise stage 2 ranks unseen distractors by noise.
        for _ in 0..2 {
            batch.push(all_ids[neg_rng.random_range(0..all_ids.len())]);
        }
        for id in batch {
            let e = &store[&id];
            let label = example_utility(e, r, base);
            let f = ProxyFeatures::extract(r, e, &small).as_array();
            for _ in 0..4 {
                selector.proxy_mut().update(&f, label);
            }
        }
    }
    (selector, store, wg, sim, small)
}

/// Fig. 9: two-stage selection beats relevance-only selection.
pub fn fig09_twostage(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig09_twostage",
        "Two-stage example selection improves response quality",
        "Fig. 9",
    );
    let mut table = Table::new(
        "Average score of small+examples vs large (paper: OpenOrca -0.22 -> -0.10, \
         Alpaca -0.51 -> -0.29)",
        &["dataset", "stage-1 only", "stage-1+2"],
    );
    let judge = ic_judge::Autorater::standard();
    for ds in [Dataset::OpenOrca, Dataset::Alpaca] {
        let n_ex = scale.count(200_000, 1_500);
        // The 600-request floor keeps the proxy meaningfully trained even
        // at quick scale; below that the stage-1 vs stage-2 comparison is
        // noise-dominated.
        let (selector, store, mut wg, sim, small) =
            trained_selector(ds, n_ex, scale.count(8_000, 600), scale.seed ^ 9);
        let large = ModelSpec::gemma_2_27b();
        // Common random numbers: both small-model arms see identical
        // generation noise per request, so the comparison isolates pick
        // quality (the same CRN pairing tests/end_to_end.rs uses).
        let mut seeds = ic_stats::rng::SeedStream::new(scale.seed ^ 10);
        let requests = wg.generate_requests(scale.count(3_000, 150));
        let mut q_stage1 = Vec::new();
        let mut q_two = Vec::new();
        let mut q_large = Vec::new();
        for r in &requests {
            let arm_seed = seeds.next_seed();
            // Stage-1-only: top-5 by similarity.
            let s1: Vec<&ic_llmsim::Example> = selector
                .stage1(r)
                .into_iter()
                .take(5)
                .filter_map(|(id, _)| store.get_example(id))
                .collect();
            q_stage1.push(
                sim.generate(
                    &small,
                    r,
                    &GenSetup::with_examples(s1),
                    &mut rng_from_seed(arm_seed),
                )
                .quality,
            );
            // Full two-stage.
            let sel = selector.select_with_threshold(r, &store, &small, 0.0);
            let refs = sel.resolve(&store);
            q_two.push(
                sim.generate(
                    &small,
                    r,
                    &GenSetup::with_examples(refs),
                    &mut rng_from_seed(arm_seed),
                )
                .quality,
            );
            q_large.push(
                sim.generate(
                    &large,
                    r,
                    &GenSetup::bare(),
                    &mut rng_from_seed(arm_seed ^ 1),
                )
                .quality,
            );
        }
        // The judge also sees identical comparison noise for both arms.
        let mut judge_rng = rng_from_seed(scale.seed ^ 12);
        let (s1_score, _) = side_by_side(&judge, &q_stage1, &q_large, &mut judge_rng.clone());
        let (two_score, _) = side_by_side(&judge, &q_two, &q_large, &mut judge_rng);
        table.row(vec![
            wg.spec().name.to_string(),
            f3(s1_score),
            f3(two_score),
        ]);
        report.finding(format!(
            "{}: stage-1+2 score {} vs stage-1-only {} — two-stage closes part of the \
             gap to the large model, as in Fig. 9",
            wg.spec().name,
            f3(two_score),
            f3(s1_score)
        ));
    }
    report.table(table);
    report
}

/// Fig. 10: example access counts are long-tailed.
pub fn fig10_longtail(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig10_longtail",
        "Example access exhibits a long-tail distribution",
        "Fig. 10",
    );
    let mut table = Table::new(
        "Access concentration after replaying online traffic through stage-1 retrieval",
        &[
            "dataset",
            "top-10% examples' share of accesses",
            "median accesses",
            "max accesses",
        ],
    );
    for ds in [Dataset::LmsysChat, Dataset::MsMarco] {
        let n_ex = scale.count(150_000, 1_200);
        let (selector, store, mut wg, _, small) = trained_selector(ds, n_ex, 50, scale.seed ^ 11);
        let mut cache = ExampleCache::new();
        for e in store.values() {
            cache.insert(e.clone(), 0.0);
        }
        for r in &wg.generate_requests(scale.count(20_000, 1_500)) {
            let sel = selector.select_with_threshold(r, &store, &small, 0.0);
            for id in &sel.ids {
                cache.record_access(*id);
            }
        }
        let mut counts = cache.access_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum::<u64>().max(1);
        let head: u64 = counts.iter().take(counts.len() / 10).sum();
        let median = counts[counts.len() / 2];
        let max = counts[0];
        table.row(vec![
            wg.spec().name.to_string(),
            pct(head as f64 / total as f64),
            median.to_string(),
            max.to_string(),
        ]);
        report.finding(format!(
            "{}: top-10% of examples absorb {} of accesses (max {max}, median {median}) \
             — the Fig. 10 long tail",
            wg.spec().name,
            pct(head as f64 / total as f64)
        ));
    }
    report.table(table);
    report
}

/// Fig. 11: cost-aware example replay (distillation) improves response
/// quality for downstream requests.
pub fn fig11_replay(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig11_replay",
        "Example replay improves final response quality",
        "Fig. 11",
    );
    let mut table = Table::new(
        "Avg score of small+IC vs large, before/after best-of-4 replay (paper: \
         OpenOrca -0.26 -> -0.20, math -0.42 -> -0.19, code -0.66 -> -0.41)",
        &["dataset", "w/o replay", "w/ replay"],
    );
    let judge = ic_judge::Autorater::standard();
    for ds in [Dataset::OpenOrca, Dataset::Math500, Dataset::Nl2Bash] {
        let n_ex = scale.count(30_000, 800);
        let (selector, mut store, mut wg, sim, small) =
            trained_selector(ds, n_ex, scale.count(4_000, 150), scale.seed ^ 12);
        let large = ModelSpec::gemma_2_27b();
        let mut rng = rng_from_seed(scale.seed ^ 13);
        let requests = wg.generate_requests(scale.count(2_500, 120));
        let measure = |store: &BTreeMap<ic_llmsim::ExampleId, ic_llmsim::Example>,
                       rng: &mut rand::rngs::StdRng| {
            let mut q_ic = Vec::new();
            let mut q_large = Vec::new();
            for r in &requests {
                let sel = selector.select_with_threshold(r, store, &small, 0.0);
                let refs = sel.resolve(store);
                q_ic.push(
                    sim.generate(&small, r, &GenSetup::with_examples(refs), rng)
                        .quality,
                );
                q_large.push(sim.generate(&large, r, &GenSetup::bare(), rng).quality);
            }
            (q_ic, q_large)
        };
        // Common random numbers: both measurement passes replay the same
        // generation noise so the only difference is example quality.
        let mut rng_before = rng_from_seed(scale.seed ^ 0x1101);
        let (before_ic, before_large) = measure(&store, &mut rng_before);
        // Replay every example best-of-4 (the planner's cut-off behaviour
        // is unit-tested in ic-manager; here we measure the quality effect).
        for e in store.values_mut() {
            let _ = replay_example(e, &large, &sim, 4, &mut rng);
        }
        let mut rng_after = rng_from_seed(scale.seed ^ 0x1101);
        let (after_ic, after_large) = measure(&store, &mut rng_after);
        let (s_before, _) = side_by_side(&judge, &before_ic, &before_large, &mut rng);
        let (s_after, _) = side_by_side(&judge, &after_ic, &after_large, &mut rng);
        table.row(vec![wg.spec().name.to_string(), f3(s_before), f3(s_after)]);
        report.finding(format!(
            "{}: replay moves the avg score {} -> {} (paper shape: strictly better)",
            wg.spec().name,
            f3(s_before),
            f3(s_after)
        ));
    }
    report.table(table);
    report
}

/// Fig. 19: utility-aware caching saturates at small cache sizes.
pub fn fig19_cachesize(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig19_cachesize",
        "IC-Cache delivers improvement under small example-cache sizes",
        "Fig. 19",
    );
    let mut table = Table::new(
        "Mean quality of small+IC vs retained cache fraction (paper: near-saturated \
         at tiny caches with utility-aware retention; naive random retention trails)",
        &[
            "dataset",
            "cache %",
            "naive (random keep)",
            "IC-Cache (utility keep)",
        ],
    );
    let sim = Generator::new();
    for ds in [Dataset::Nl2Bash, Dataset::Wmt16] {
        let n_ex = scale.count(60_000, 1_200);
        let (selector, store, mut wg, _, small) =
            trained_selector(ds, n_ex, scale.count(3_000, 150), scale.seed ^ 14);
        // Earn offload gains for examples proportional to realized utility
        // on a profiling pass.
        let mut cache = ExampleCache::new();
        for e in store.values() {
            cache.insert(e.clone(), 0.0);
        }
        for r in &wg.generate_requests(scale.count(6_000, 400)) {
            let sel = selector.select_with_threshold(r, &store, &small, 0.0);
            for id in &sel.ids {
                let base = sim.base_quality(&small, r);
                let u = example_utility(&store[id], r, base);
                cache.record_offload_gain(*id, 0.0, u);
            }
        }
        let eval_requests = wg.generate_requests(scale.count(1_500, 120));
        let mut rng = rng_from_seed(scale.seed ^ 15);
        for keep_frac in [0.05, 0.25, 1.0] {
            // Utility-aware keep-set via the knapsack (uniform weights so
            // the budget is a count budget).
            let items: Vec<KnapsackItem> = cache
                .iter()
                .map(|(&id, e)| KnapsackItem {
                    id,
                    weight: 1,
                    value: e.offload_gain.value_at(0.0),
                })
                .collect();
            let budget = ((items.len() as f64 * keep_frac) as usize).max(1);
            let smart_keep: std::collections::HashSet<_> =
                greedy_knapsack(&items, budget).into_iter().collect();
            // Naive: keep a random subset of the same size.
            let naive_keep: std::collections::HashSet<_> = store
                .keys()
                .filter(|_| rng.random::<f64>() < keep_frac)
                .copied()
                .collect();
            // Common random numbers: both arms draw the same generation
            // noise, so a row differs only in the examples kept.
            let mean_q = |keep: &std::collections::HashSet<ic_llmsim::ExampleId>| {
                let mut rng = rng_from_seed(scale.seed ^ 16);
                let sub: HashMap<_, _> = store
                    .iter()
                    .filter(|(id, _)| keep.contains(id))
                    .map(|(id, e)| (*id, e.clone()))
                    .collect();
                let mut sum = 0.0;
                for r in &eval_requests {
                    let sel = selector.select_with_threshold(r, &sub, &small, 0.0);
                    let refs = sel.resolve(&sub);
                    sum += sim
                        .generate(&small, r, &GenSetup::with_examples(refs), &mut rng)
                        .quality;
                }
                sum / eval_requests.len() as f64
            };
            table.row(vec![
                wg.spec().name.to_string(),
                pct(keep_frac),
                f3(mean_q(&naive_keep)),
                f3(mean_q(&smart_keep)),
            ]);
        }
    }
    for line in fig19_findings(&table.rows) {
        report.finding(line);
    }
    report.table(table);
    report
}

/// fig19's findings, read off its rows `[dataset, cache %, random keep,
/// utility keep]`, three per dataset with the full cache last: the cells
/// where utility-aware retention trails random retention, and the
/// smaller caches' quality as a share of the full one's.
fn fig19_findings(rows: &[Vec<String>]) -> Vec<String> {
    let q = |cell: &str| -> f64 { cell.parse().expect("a quality cell") };
    let trailing: Vec<String> = (rows.iter())
        .filter(|row| q(&row[3]) < q(&row[2]))
        .map(|row| format!("{} {} ({} vs {})", row[0], row[1], row[3], row[2]))
        .collect();
    let shares: Vec<String> = (rows.chunks(3))
        .flat_map(|d| {
            let full = q(&d[2][3]);
            (d[..2].iter())
                .map(move |row| format!("{} {} {}", row[0], row[1], pct(q(&row[3]) / full)))
        })
        .collect();
    vec![
        shape_check(
            "utility-aware retention never trails random retention",
            rows.len(),
            &trailing,
        ),
        format!(
            "utility-aware retention's quality as a share of the full cache's: {}",
            shares.join(", ")
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig09_two_stage_beats_stage1() {
        let r = fig09_twostage(Scale::quick());
        for row in &r.tables[0].rows {
            let s1: f64 = row[1].parse().unwrap();
            let two: f64 = row[2].parse().unwrap();
            assert!(two >= s1 - 0.05, "two-stage should not lose: {s1} vs {two}");
        }
    }

    #[test]
    fn fig10_head_dominates() {
        let r = fig10_longtail(Scale::quick());
        for row in &r.tables[0].rows {
            let share: f64 = row[1].trim_end_matches('%').parse().unwrap();
            assert!(share > 15.0, "long tail too flat: {share}%");
        }
    }

    #[test]
    fn fig11_replay_improves() {
        let r = fig11_replay(Scale::quick());
        for row in &r.tables[0].rows {
            let before: f64 = row[1].parse().unwrap();
            let after: f64 = row[2].parse().unwrap();
            assert!(
                after >= before - 0.05,
                "replay regressed: {before} -> {after}"
            );
        }
    }

    /// Fails if the replay walks the store in hash order again: the
    /// replay RNG's draws then land on other examples in each run.
    #[test]
    fn fig11_replay_is_deterministic() {
        let a = fig11_replay(Scale::quick()).to_markdown();
        let b = fig11_replay(Scale::quick()).to_markdown();
        assert_eq!(a, b);
    }

    /// The finding names exactly the cells where the utility keep's
    /// quality is below the random keep's, and the full-cache rows, where
    /// both arms keep every example and draw the same generation noise,
    /// read the same.
    #[test]
    fn fig19_smart_keeps_up_with_full_cache() {
        let r = fig19_cachesize(Scale::quick());
        let rows = &r.tables[0].rows;
        let q = |cell: &str| -> f64 { cell.parse().unwrap() };
        let mut trailing = 0;
        for row in rows {
            let trails = q(&row[3]) < q(&row[2]);
            trailing += usize::from(trails);
            let cell = format!("{} {} (", row[0], row[1]);
            assert_eq!(r.findings[0].contains(&cell), trails, "{row:?}");
            assert!(row[1] != "100.0%" || row[2] == row[3], "{row:?}");
        }
        let holds = format!("holds in {} of {};", rows.len() - trailing, rows.len());
        assert!(r.findings[0].contains(&holds), "{}", r.findings[0]);
    }
}
