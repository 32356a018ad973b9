//! Quality experiments: Figs. 14, 15, 17, 21, 27/28 and Tables 2, 3.

use ic_baselines::{LongRag, SemanticCache, SemanticCacheConfig, SftAdapter};
use ic_cache::IcCacheConfig;
use ic_judge::Autorater;
use ic_llmsim::{GenSetup, Generator, ModelSpec, TaskKind};
use ic_manager::dp::{DpConfig, synthesize_pool};
use ic_stats::Histogram;
use ic_stats::rng::rng_from_seed;
use ic_workloads::{Dataset, WorkloadGenerator};

use crate::harness::{PairSetup, Scale, side_by_side};
use crate::report::{Report, Table, f3, pct, shape_check};

/// Paired qualities of (small bare, small+IC, large bare) on a dataset
/// for an arbitrary model pair, using the full selection pipeline.
fn pair_qualities(
    config: IcCacheConfig,
    dataset: Dataset,
    scale: Scale,
    salt: u64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut setup = PairSetup::with_config(
        config,
        dataset,
        scale.count(150_000, 1_500),
        scale.seed ^ salt,
    );
    setup.warm_up(scale.count(3_000, 250));
    let requests = setup.generator.generate_requests(scale.count(3_000, 180));
    // Common random numbers per arm: the bare and IC arms replay the same
    // generation noise, isolating the augmentation effect.
    let mut rng_bare = rng_from_seed(scale.seed ^ salt ^ 0xF);
    let mut rng_ic = rng_from_seed(scale.seed ^ salt ^ 0xF);
    let mut rng_large = rng_from_seed(scale.seed ^ salt ^ 0xF0);
    let mut bare = Vec::new();
    let mut ic = Vec::new();
    let mut large = Vec::new();
    for r in &requests {
        bare.push(
            setup
                .sim
                .generate(&setup.small_spec, r, &GenSetup::bare(), &mut rng_bare)
                .quality,
        );
        let sel = setup.system.with_selection(r);
        let refs = sel.resolve(setup.system.manager().cache());
        ic.push(
            setup
                .sim
                .generate(
                    &setup.small_spec,
                    r,
                    &GenSetup::with_examples(refs),
                    &mut rng_ic,
                )
                .quality,
        );
        large.push(
            setup
                .sim
                .generate(&setup.large_spec, r, &GenSetup::bare(), &mut rng_large)
                .quality,
        );
    }
    (bare, ic, large)
}

/// Fig. 14: IC-Cache rescues semantic-caching quality at high hit rates.
pub fn fig14_semantic_ic(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig14_semantic_ic",
        "IC-Cache augments semantic caching deployments",
        "Fig. 14",
    );
    let judge = Autorater::standard();
    let mut table = Table::new(
        "Win rate vs fresh small-model generation at matched hit rates (paper: \
         w/ IC holds quality while w/o IC collapses)",
        &["dataset", "threshold", "hit rate", "w/o IC", "w/ IC"],
    );
    for dataset in [Dataset::NaturalQuestions, Dataset::LmsysChat] {
        let sim = Generator::new();
        let small = ModelSpec::gemma_2_2b();
        let large = ModelSpec::gemma_2_27b();
        let n_ex = scale.count(100_000, 1_500);
        let mut wg = WorkloadGenerator::sized(dataset, scale.seed ^ 41, n_ex);
        let examples = wg.generate_examples(n_ex, &large, ic_llmsim::ModelId(1), &sim);
        let requests = wg.generate_requests(scale.count(3_000, 180));
        for threshold in [0.9, 0.8, 0.7] {
            let mut cache = SemanticCache::new(SemanticCacheConfig {
                similarity_threshold: threshold,
            });
            for e in &examples {
                cache.insert(e.clone());
            }
            let mut rng = rng_from_seed(scale.seed ^ 42);
            let mut fresh = Vec::new();
            let mut reuse = Vec::new();
            let mut with_ic = Vec::new();
            let mut hits = 0usize;
            for r in &requests {
                let Some(hit) = cache.lookup(r) else { continue };
                hits += 1;
                let entry = cache.entry(hit.entry).expect("hit exists").clone();
                fresh.push(sim.generate(&small, r, &GenSetup::bare(), &mut rng).quality);
                // w/o IC: return the cached response verbatim.
                reuse.push(SemanticCache::effective_quality(&entry, r));
                // w/ IC: repurpose the entry as an in-context example.
                with_ic.push(
                    sim.generate(&small, r, &GenSetup::with_examples(vec![&entry]), &mut rng)
                        .quality,
                );
            }
            if fresh.is_empty() {
                continue;
            }
            let mut rng2 = rng_from_seed(scale.seed ^ 43);
            let (_, wr_reuse) = side_by_side(&judge, &reuse, &fresh, &mut rng2);
            let (_, wr_ic) = side_by_side(&judge, &with_ic, &fresh, &mut rng2);
            table.row(vec![
                dataset.spec().name.into(),
                format!("{threshold:.1}"),
                pct(hits as f64 / requests.len() as f64),
                pct(wr_reuse),
                pct(wr_ic),
            ]);
        }
    }
    report.table(table);
    report.finding(
        "shape check: repurposing hits as in-context examples keeps the win rate at or \
         above break-even where verbatim reuse falls below it (paper: up to 28% quality \
         improvement)",
    );
    report
}

/// Fig. 15: IC stacks on SFT and RAG.
pub fn fig15_sft_rag(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig15_sft_rag",
        "IC-Cache augments SFT and RAG deployments",
        "Fig. 15",
    );
    let judge = Autorater::standard();
    // SFT arm on Natural Questions (paper: 27.1 / 29.5 / 47.3).
    let (bare, ic, large) = pair_qualities(
        IcCacheConfig::gemma_pair(),
        Dataset::NaturalQuestions,
        scale,
        0x51,
    );
    let adapter = SftAdapter::standard(TaskKind::QuestionAnswering);
    let mut setup = PairSetup::gemma(
        Dataset::NaturalQuestions,
        scale.count(100_000, 1_200),
        scale.seed ^ 0x52,
    );
    setup.warm_up(scale.count(2_000, 200));
    let requests = setup.generator.generate_requests(bare.len());
    let mut rng = rng_from_seed(scale.seed ^ 0x53);
    let mut sft = Vec::new();
    let mut sft_ic = Vec::new();
    for r in &requests {
        let shift = adapter.shift(r);
        sft.push(
            setup
                .sim
                .generate(
                    &setup.small_spec,
                    r,
                    &GenSetup {
                        base_quality_shift: shift,
                        ..GenSetup::bare()
                    },
                    &mut rng,
                )
                .quality,
        );
        let sel = setup.system.with_selection(r);
        let refs = sel.resolve(setup.system.manager().cache());
        sft_ic.push(
            setup
                .sim
                .generate(
                    &setup.small_spec,
                    r,
                    &GenSetup {
                        examples: refs,
                        base_quality_shift: shift,
                        ..GenSetup::default()
                    },
                    &mut rng,
                )
                .quality,
        );
    }
    let mut t = Table::new(
        "Win rates vs the large model (paper: NQ 27.1/29.5/47.3 for bare/SFT/SFT+IC; \
         MS MARCO 41.1/51.6/63.3 for bare/RAG/RAG+IC)",
        &["dataset", "bare", "+aug", "+aug+IC", "bare+IC (reference)"],
    );
    let (_, wr_bare) = side_by_side(&judge, &bare, &large, &mut rng);
    let (_, wr_sft) = side_by_side(&judge, &sft, &large, &mut rng);
    let (_, wr_sft_ic) = side_by_side(&judge, &sft_ic, &large, &mut rng);
    let (_, wr_ic) = side_by_side(&judge, &ic, &large, &mut rng);
    t.row(vec![
        "Natural Questions (SFT)".into(),
        pct(wr_bare),
        pct(wr_sft),
        pct(wr_sft_ic),
        pct(wr_ic),
    ]);

    // RAG arm on MS MARCO.
    let mut setup2 = PairSetup::gemma(
        Dataset::MsMarco,
        scale.count(150_000, 1_500),
        scale.seed ^ 0x54,
    );
    setup2.warm_up(scale.count(2_000, 200));
    let requests2 = setup2.generator.generate_requests(scale.count(3_000, 180));
    let mut rag = LongRag::standard(scale.seed ^ 0x55);
    let mut rng2 = rng_from_seed(scale.seed ^ 0x56);
    let mut bare2 = Vec::new();
    let mut ragv = Vec::new();
    let mut rag_ic = Vec::new();
    let mut large2 = Vec::new();
    for r in &requests2 {
        bare2.push(
            setup2
                .sim
                .generate(&setup2.small_spec, r, &GenSetup::bare(), &mut rng2)
                .quality,
        );
        let docs = rag.retrieve(r);
        ragv.push(
            setup2
                .sim
                .generate(
                    &setup2.small_spec,
                    r,
                    &GenSetup::with_rag(docs.clone()),
                    &mut rng2,
                )
                .quality,
        );
        let sel = setup2.system.with_selection(r);
        let refs = sel.resolve(setup2.system.manager().cache());
        rag_ic.push(
            setup2
                .sim
                .generate(
                    &setup2.small_spec,
                    r,
                    &GenSetup {
                        examples: refs,
                        rag_docs: docs,
                        ..GenSetup::default()
                    },
                    &mut rng2,
                )
                .quality,
        );
        large2.push(
            setup2
                .sim
                .generate(&setup2.large_spec, r, &GenSetup::bare(), &mut rng2)
                .quality,
        );
    }
    let (_, wr2_bare) = side_by_side(&judge, &bare2, &large2, &mut rng2);
    let (_, wr2_rag) = side_by_side(&judge, &ragv, &large2, &mut rng2);
    let (_, wr2_rag_ic) = side_by_side(&judge, &rag_ic, &large2, &mut rng2);
    t.row(vec![
        "MS MARCO (RAG)".into(),
        pct(wr2_bare),
        pct(wr2_rag),
        pct(wr2_rag_ic),
        "-".into(),
    ]);
    report.table(t);
    report.finding(
        "shape check: each augmentation helps and IC stacks on top of both, with \
         aug+IC strictly best — the Fig. 15 ordering",
    );
    report
}

/// Fig. 17 (and Appendix B): side-by-side win rates with and without IC.
pub fn fig17_sidebyside(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig17_sidebyside",
        "IC-Cache improves generation quality across model families",
        "Fig. 17",
    );
    let judge = Autorater::standard();
    let mut t = Table::new(
        "Small-model win rate vs large, w/o and w/ IC (paper: LMSys 36.7->44.2, \
         OpenOrca 44.6->57.0, NQ Qwen-vs-R1 7.9->24.4)",
        &[
            "pair / dataset",
            "paper w/o -> w/",
            "measured w/o IC",
            "measured w/ IC",
        ],
    );
    for (config, dataset, label, paper) in [
        (
            IcCacheConfig::gemini_pair(),
            Dataset::LmsysChat,
            "Gemini Flash vs Pro / LMSys-Chat",
            "36.7% -> 44.2%",
        ),
        (
            IcCacheConfig::gemini_pair(),
            Dataset::OpenOrca,
            "Gemini Flash vs Pro / OpenOrca",
            "44.6% -> 57.0%",
        ),
        (
            IcCacheConfig::qwen_deepseek_pair(),
            Dataset::NaturalQuestions,
            "Qwen-2.5-7B vs DeepSeek-R1 / NQ",
            "7.9% -> 24.4%",
        ),
    ] {
        let (bare, ic, large) = pair_qualities(config, dataset, scale, 0x61);
        let mut rng = rng_from_seed(scale.seed ^ 0x62);
        let (_, wr_bare) = side_by_side(&judge, &bare, &large, &mut rng);
        let (_, wr_ic) = side_by_side(&judge, &ic, &large, &mut rng);
        report.finding(format!(
            "{label}: {} -> {} (paper {paper}) — IC lifts the small model in every pair",
            pct(wr_bare),
            pct(wr_ic)
        ));
        t.row(vec![label.into(), paper.into(), pct(wr_bare), pct(wr_ic)]);
    }
    report.table(t);
    report
}

/// Fig. 21: DP-synthesized example pool.
pub fn fig21_dp(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig21_dp",
        "DP synthetic example pools cost little quality",
        "Fig. 21",
    );
    let judge = Autorater::standard();
    let mut t = Table::new(
        "Win rate vs large with original vs DP-synthetic pools (paper: LMSys \
         40.5 -> 39.0, MS MARCO 57.3 -> 52.0)",
        &["dataset", "w/o DP", "w/ DP", "no-IC baseline"],
    );
    for dataset in [Dataset::LmsysChat, Dataset::MsMarco] {
        let sim = Generator::new();
        let small = ModelSpec::gemma_2_2b();
        let large = ModelSpec::gemma_2_27b();
        let n_ex = scale.count(100_000, 1_500);
        let mut wg = WorkloadGenerator::sized(dataset, scale.seed ^ 0x71, n_ex);
        let examples = wg.generate_examples(n_ex, &large, ic_llmsim::ModelId(1), &sim);
        let dp_pool = synthesize_pool(&examples, &DpConfig::default(), scale.seed ^ 0x72);
        let requests = wg.generate_requests(scale.count(2_500, 150));
        let mut rng = rng_from_seed(scale.seed ^ 0x73);
        let eval_pool = |pool: &[ic_llmsim::Example], rng: &mut rand::rngs::StdRng| {
            use ic_vecindex::{FlatIndex, VectorIndex};
            let mut index = FlatIndex::new();
            for e in pool {
                index.insert(e.id.0, e.embedding.clone());
            }
            let mut q = Vec::new();
            for r in &requests {
                let refs: Vec<&ic_llmsim::Example> = index
                    .search(&r.embedding, 5)
                    .into_iter()
                    .filter_map(|h| pool.iter().find(|e| e.id.0 == h.id))
                    .collect();
                q.push(
                    sim.generate(&small, r, &GenSetup::with_examples(refs), rng)
                        .quality,
                );
            }
            q
        };
        let q_orig = eval_pool(&examples, &mut rng);
        let q_dp = eval_pool(&dp_pool, &mut rng);
        let q_bare: Vec<f64> = requests
            .iter()
            .map(|r| sim.generate(&small, r, &GenSetup::bare(), &mut rng).quality)
            .collect();
        let q_large: Vec<f64> = requests
            .iter()
            .map(|r| sim.generate(&large, r, &GenSetup::bare(), &mut rng).quality)
            .collect();
        let (_, wr_orig) = side_by_side(&judge, &q_orig, &q_large, &mut rng);
        let (_, wr_dp) = side_by_side(&judge, &q_dp, &q_large, &mut rng);
        let (_, wr_bare) = side_by_side(&judge, &q_bare, &q_large, &mut rng);
        t.row(vec![
            dataset.spec().name.into(),
            pct(wr_orig),
            pct(wr_dp),
            pct(wr_bare),
        ]);
        report.finding(format!(
            "{}: DP pool costs {} win-rate points but stays above the no-IC baseline \
             ({} vs {}) — the Fig. 21 shape",
            dataset.spec().name,
            f3((wr_orig - wr_dp) * 100.0),
            pct(wr_dp),
            pct(wr_bare)
        ));
    }
    report.table(t);
    report
}

/// Fig. 27 (and Fig. 28): score distributions shift right with IC.
pub fn fig27_distributions(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig27_distributions",
        "Score distributions shift toward higher quality with IC",
        "Fig. 27 (and Fig. 28)",
    );
    let judge = Autorater::standard();
    let mut t = Table::new(
        "Mean pairwise score of small vs large, baseline and with IC, plus the \
         fraction of scores at -3 (Fig. 28's left-tail mass)",
        &[
            "family",
            "dataset",
            "baseline mean",
            "IC mean",
            "baseline P(-3)",
            "IC P(-3)",
        ],
    );
    // Presets, not configs: `IcCacheConfig` owns its catalog and is not
    // `Clone`, so each dataset builds the pair afresh.
    for (preset, family) in [
        (
            IcCacheConfig::gemini_pair as fn() -> IcCacheConfig,
            "Gemini",
        ),
        (IcCacheConfig::gemma_pair, "Gemma-2"),
        (IcCacheConfig::phi_pair, "Phi-3"),
    ] {
        for dataset in [Dataset::MsMarco, Dataset::NaturalQuestions] {
            let (bare, ic, large) = pair_qualities(preset(), dataset, scale, 0x81);
            let mut rng = rng_from_seed(scale.seed ^ 0x82);
            let mut hist_bare = Histogram::new(-3.0, 3.001, 7).expect("valid range");
            let mut hist_ic = Histogram::new(-3.0, 3.001, 7).expect("valid range");
            let mut sum_bare = 0.0;
            let mut sum_ic = 0.0;
            for i in 0..bare.len() {
                let sb = judge.score_balanced(bare[i], large[i], 8, &mut rng);
                let si = judge.score_balanced(ic[i], large[i], 8, &mut rng);
                hist_bare.record(sb);
                hist_ic.record(si);
                sum_bare += sb;
                sum_ic += si;
            }
            let n = bare.len() as f64;
            let p3_bare = hist_bare.densities()[0];
            let p3_ic = hist_ic.densities()[0];
            t.row(vec![
                family.into(),
                dataset.spec().name.into(),
                f3(sum_bare / n),
                f3(sum_ic / n),
                pct(p3_bare),
                pct(p3_ic),
            ]);
        }
    }
    for line in fig27_findings(&t.rows) {
        report.finding(line);
    }
    report.table(t);
    report
}

/// fig27's findings, read off its rows `[family, dataset, baseline mean,
/// IC mean, baseline P(-3), IC P(-3)]`: the cells where IC fails to raise
/// the mean score, and those where it fails to shrink the -3 bucket.
fn fig27_findings(rows: &[Vec<String>]) -> Vec<String> {
    let num = |cell: &str| -> f64 { cell.trim_end_matches('%').parse().expect("a number") };
    let failing = |bare: usize, ic: usize, better: fn(f64, f64) -> bool| -> Vec<String> {
        (rows.iter())
            .filter(|row| !better(num(&row[bare]), num(&row[ic])))
            .map(|row| format!("{}/{} ({} -> {})", row[0], row[1], row[bare], row[ic]))
            .collect()
    };
    vec![
        shape_check(
            "IC raises the mean score in every cell; Fig. 28: -2.33 -> -0.89 on Phi-3/NQ",
            rows.len(),
            &failing(2, 3, |bare, ic| ic > bare),
        ),
        shape_check(
            "IC shrinks the -3 bucket in every cell",
            rows.len(),
            &failing(4, 5, |bare, ic| ic < bare),
        ),
    ]
}

/// Table 2: IC vs RAG vs IC+RAG on MS MARCO.
pub fn tab02_rag(scale: Scale) -> Report {
    let mut report = Report::new("tab02_rag", "IC-Cache complements LongRAG", "Table 2");
    let judge = Autorater::standard();
    let mut setup = PairSetup::gemma(
        Dataset::MsMarco,
        scale.count(150_000, 1_500),
        scale.seed ^ 0x91,
    );
    setup.warm_up(scale.count(2_500, 200));
    let requests = setup.generator.generate_requests(scale.count(3_000, 180));
    let mut rag = LongRag::standard(scale.seed ^ 0x92);
    let mut rng = rng_from_seed(scale.seed ^ 0x93);
    let mut q = vec![Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut q_large = Vec::new();
    for r in &requests {
        let docs = rag.retrieve(r);
        let sel = setup.system.with_selection(r);
        let refs = sel.resolve(setup.system.manager().cache());
        q[0].push(
            setup
                .sim
                .generate(&setup.small_spec, r, &GenSetup::bare(), &mut rng)
                .quality,
        );
        q[1].push(
            setup
                .sim
                .generate(
                    &setup.small_spec,
                    r,
                    &GenSetup::with_rag(docs.clone()),
                    &mut rng,
                )
                .quality,
        );
        q[2].push(
            setup
                .sim
                .generate(
                    &setup.small_spec,
                    r,
                    &GenSetup::with_examples(refs.clone()),
                    &mut rng,
                )
                .quality,
        );
        q[3].push(
            setup
                .sim
                .generate(
                    &setup.small_spec,
                    r,
                    &GenSetup {
                        examples: refs,
                        rag_docs: docs,
                        ..GenSetup::default()
                    },
                    &mut rng,
                )
                .quality,
        );
        q_large.push(
            setup
                .sim
                .generate(&setup.large_spec, r, &GenSetup::bare(), &mut rng)
                .quality,
        );
    }
    let mut t = Table::new(
        "Gemma-2-2B vs Gemma-2-27B on MS MARCO (paper: -0.427/41.5%, 0.005/52.6%, \
         0.067/56.4%, 0.297/62.4%)",
        &["config", "avg score", "win rate"],
    );
    let labels = [
        "Gemma-2B",
        "Gemma-2B + RAG",
        "Gemma-2B + IC",
        "Gemma-2B + IC + RAG",
    ];
    let mut win_rates = Vec::new();
    for (label, qs) in labels.iter().zip(&q) {
        let (score, wr) = side_by_side(&judge, qs, &q_large, &mut rng);
        win_rates.push(wr);
        t.row(vec![(*label).into(), f3(score), pct(wr)]);
    }
    report.table(t);
    report.finding(format!(
        "ordering check (paper: IC+RAG > IC > RAG > bare): measured win rates {} / {} / {} / {}",
        pct(win_rates[3]),
        pct(win_rates[2]),
        pct(win_rates[1]),
        pct(win_rates[0]),
    ));
    report
}

/// Table 3: IC vs SFT, in-domain and out-of-domain.
pub fn tab03_sft(scale: Scale) -> Report {
    let mut report = Report::new("tab03_sft", "IC-Cache vs supervised fine-tuning", "Table 3");
    let judge = Autorater::standard();
    // The adapter is tuned on NQ (QuestionAnswering); Alpaca is OOD.
    let adapter = SftAdapter::standard(TaskKind::QuestionAnswering);
    let mut t = Table::new(
        "Gemma-2-2B vs 27B on Alpaca, OOD setting (paper: bare -0.19/45.6%, \
         OOD-SFT -0.59/32.3%, in-domain IC -0.18/47.3%, OOD IC -0.21/46.7%)",
        &["config", "avg score", "win rate"],
    );
    let mut setup = PairSetup::gemma(Dataset::Alpaca, scale.count(30_000, 800), scale.seed ^ 0xA1);
    setup.warm_up(scale.count(1_500, 150));
    let requests = setup.generator.generate_requests(scale.count(1_800, 150));
    let mut rng = rng_from_seed(scale.seed ^ 0xA2);
    let mut q_bare = Vec::new();
    let mut q_sft = Vec::new();
    let mut q_ic = Vec::new();
    let mut q_large = Vec::new();
    for r in &requests {
        q_bare.push(
            setup
                .sim
                .generate(&setup.small_spec, r, &GenSetup::bare(), &mut rng)
                .quality,
        );
        q_sft.push(
            setup
                .sim
                .generate(
                    &setup.small_spec,
                    r,
                    &GenSetup {
                        base_quality_shift: adapter.shift(r),
                        ..GenSetup::bare()
                    },
                    &mut rng,
                )
                .quality,
        );
        let sel = setup.system.with_selection(r);
        let refs = sel.resolve(setup.system.manager().cache());
        q_ic.push(
            setup
                .sim
                .generate(
                    &setup.small_spec,
                    r,
                    &GenSetup::with_examples(refs),
                    &mut rng,
                )
                .quality,
        );
        q_large.push(
            setup
                .sim
                .generate(&setup.large_spec, r, &GenSetup::bare(), &mut rng)
                .quality,
        );
    }
    let (s_bare, w_bare) = side_by_side(&judge, &q_bare, &q_large, &mut rng);
    let (s_sft, w_sft) = side_by_side(&judge, &q_sft, &q_large, &mut rng);
    let (s_ic, w_ic) = side_by_side(&judge, &q_ic, &q_large, &mut rng);
    t.row(vec!["Gemma-2B".into(), f3(s_bare), pct(w_bare)]);
    t.row(vec!["Gemma-2B + OOD SFT".into(), f3(s_sft), pct(w_sft)]);
    t.row(vec![
        "Gemma-2B + IC (Alpaca cache)".into(),
        f3(s_ic),
        pct(w_ic),
    ]);
    report.table(t);
    report.finding(format!(
        "paper's key contrast holds: OOD fine-tuning regresses ({} vs bare {}) while \
         IC adapts without touching weights ({})",
        pct(w_sft),
        pct(w_bare),
        pct(w_ic)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_ic_lifts_every_pair() {
        let r = fig17_sidebyside(Scale::quick());
        for row in &r.tables[0].rows {
            let without: f64 = row[2].trim_end_matches('%').parse().unwrap();
            let with: f64 = row[3].trim_end_matches('%').parse().unwrap();
            assert!(with > without, "IC must lift win rate: {without} -> {with}");
        }
    }

    #[test]
    fn tab02_ordering_holds() {
        let r = tab02_rag(Scale::quick());
        let wr: Vec<f64> = r.tables[0]
            .rows
            .iter()
            .map(|row| row[2].trim_end_matches('%').parse().unwrap())
            .collect();
        // IC+RAG >= IC and IC+RAG >= RAG and all >= bare (with slack).
        assert!(wr[3] >= wr[2] - 2.0, "IC+RAG vs IC: {wr:?}");
        assert!(wr[3] >= wr[1] - 2.0, "IC+RAG vs RAG: {wr:?}");
        assert!(wr[3] > wr[0], "IC+RAG vs bare: {wr:?}");
    }

    #[test]
    fn tab03_ood_sft_regresses() {
        let r = tab03_sft(Scale::quick());
        let wr: Vec<f64> = r.tables[0]
            .rows
            .iter()
            .map(|row| row[2].trim_end_matches('%').parse().unwrap())
            .collect();
        assert!(wr[1] < wr[0], "OOD SFT must regress: {wr:?}");
        assert!(wr[2] >= wr[1], "IC must beat OOD SFT: {wr:?}");
    }

    /// Each cell the findings name as failing is one whose row fails the
    /// predicate, and no other.
    #[test]
    fn fig27_findings_match_the_table() {
        let r = fig27_distributions(Scale::quick());
        let rows = &r.tables[0].rows;
        let num =
            |row: &Vec<String>, k: usize| -> f64 { row[k].trim_end_matches('%').parse().unwrap() };
        let mut fails = [0, 0];
        for row in rows {
            let cell = format!("{}/{} (", row[0], row[1]);
            let failed = [num(row, 3) <= num(row, 2), num(row, 5) >= num(row, 4)];
            for i in 0..2 {
                fails[i] += usize::from(failed[i]);
                assert_eq!(r.findings[i].contains(&cell), failed[i], "{row:?}");
            }
        }
        for (finding, n) in r.findings.iter().zip(fails) {
            let holds = format!("holds in {} of {};", rows.len() - n, rows.len());
            assert!(finding.contains(&holds), "{finding}");
        }
    }

    #[test]
    fn fig21_dp_stays_above_no_ic() {
        let r = fig21_dp(Scale::quick());
        for row in &r.tables[0].rows {
            let dp: f64 = row[2].trim_end_matches('%').parse().unwrap();
            let bare: f64 = row[3].trim_end_matches('%').parse().unwrap();
            assert!(dp > bare - 3.0, "DP should beat no-IC: {dp} vs {bare}");
        }
    }
}
