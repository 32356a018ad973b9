//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment is a module under [`experiments`] exposing
//! `run(scale) -> Report`; every report prints the paper's expected
//! numbers next to this reproduction's measured ones so the *shape* of
//! each result (who wins, by what factor, where crossovers fall) can be
//! checked at a glance. `cargo run -p ic-bench --release --bin
//! all_experiments` regenerates everything and rewrites `EXPERIMENTS.md`.
//!
//! Criterion micro-benchmarks (selector stages, router decisions, knapsack
//! solvers, IVF search, serving steps) live under `benches/`.

pub mod artifact;
pub mod env;
pub mod experiments;
pub mod harness;
pub mod report;

pub use artifact::write_artifact;
pub use env::{parse_env, parse_watermarks};
pub use harness::{PairSetup, Scale, side_by_side};
pub use report::{Report, Table};

/// Runs one experiment by id, if it exists.
pub fn run_by_id(id: &str, scale: Scale) -> Option<Report> {
    use experiments as x;
    let report = match id {
        "fig01_tradeoff" => x::motivation::fig01_tradeoff(scale),
        "fig02_trace" => x::motivation::fig02_trace(scale),
        "fig03_similarity" => x::motivation::fig03_similarity(scale),
        "fig04_icl_gain" => x::motivation::fig04_icl_gain(scale),
        "fig07_correlation" => x::motivation::fig07_correlation(scale),
        "fig09_twostage" => x::selection::fig09_twostage(scale),
        "fig10_longtail" => x::selection::fig10_longtail(scale),
        "fig11_replay" => x::selection::fig11_replay(scale),
        "fig12_e2e" => x::e2e::fig12_e2e(scale),
        "fig13_tradeoff_curves" => x::e2e::fig13_tradeoff_curves(scale),
        "fig14_semantic_ic" => x::quality::fig14_semantic_ic(scale),
        "fig15_sft_rag" => x::quality::fig15_sft_rag(scale),
        "fig16_ablation" => x::e2e::fig16_ablation(scale),
        "fig17_sidebyside" => x::quality::fig17_sidebyside(scale),
        "fig18_breakdown" => x::e2e::fig18_breakdown(scale),
        "fig19_cachesize" => x::selection::fig19_cachesize(scale),
        "fig20_loads" => x::e2e::fig20_loads(scale),
        "fig21_dp" => x::quality::fig21_dp(scale),
        "fig27_distributions" => x::quality::fig27_distributions(scale),
        "tab01_datasets" => x::tables::tab01_datasets(scale),
        "tab02_rag" => x::quality::tab02_rag(scale),
        "tab03_sft" => x::quality::tab03_sft(scale),
        "tab04_judges" => x::tables::tab04_judges(scale),
        "headline" => x::e2e::headline(scale),
        _ => return None,
    };
    Some(report)
}

/// Shared binary entry point: checks the `IC_*` knobs (exit 2 on a
/// malformed one), parses `--quick` / `--full` (default full) and
/// prints the report to stdout.
pub fn cli_main(id: &str) {
    if let Err(msg) = experiments::e2e::checked_engine_config() {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    match run_by_id(id, scale) {
        Some(report) => println!("{}", report.to_markdown()),
        None => {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        }
    }
}
