//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment is a module under [`experiments`] exposing
//! `run(scale) -> Report`; every report prints the paper's expected
//! numbers next to this reproduction's measured ones so the *shape* of
//! each result (who wins, by what factor, where crossovers fall) can be
//! checked at a glance. One binary serves them all:
//! `cargo run -p ic-bench --release --bin repro -- <id> [--quick]` prints
//! one report, and `repro all` regenerates everything and rewrites
//! `EXPERIMENTS.md` (see [`cli_main`]). `fig12_e2e` is a binary of its
//! own because it also writes the `BENCH_*` artifacts.
//!
//! Criterion micro-benchmarks (selector stages, router decisions, knapsack
//! solvers, IVF search, serving steps) live under `benches/`.

pub mod artifact;
pub mod env;
pub mod experiments;
pub mod harness;
pub mod report;

use std::fmt::Write as _;
use std::time::Instant;

pub use artifact::write_artifact;
pub use harness::{PairSetup, Scale, side_by_side};
pub use report::{Report, Table};

/// Runs one experiment by id, if it exists.
pub fn run_by_id(id: &str, scale: Scale) -> Option<Report> {
    experiments::EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, run)| run(scale))
}

/// The `repro <id>|all [--quick]` entry point. Checks the `IC_*` knobs
/// first (exit 2 on a malformed or unknown one; the reports themselves
/// run at the knob-free defaults), then runs at quick scale with
/// `--quick` and full scale otherwise. `<id>` prints that
/// experiment's report; `all` runs every experiment and writes
/// `EXPERIMENTS.md` plus `results/<id>.md` into the current directory
/// (with `--quick` it prints the document instead). Anything else — an
/// unknown id, a second id, any other flag — exits 2 naming it and
/// listing the ids, before anything runs.
pub fn cli_main() {
    if let Err(msg) = env::from_env() {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    // Everything but `--quick` counts as an id, so a misspelled flag is
    // an unknown id that runs nothing, not a full-scale run.
    let ids: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    let report = match ids[..] {
        ["all"] => return run_all(scale, quick),
        [id] => run_by_id(id, scale),
        _ => None,
    };
    let Some(report) = report else {
        let known: Vec<&str> = experiments::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "error: expected one experiment id or `all`, got {ids:?}\n\
             usage: repro <id>|all [--quick]\nids: {}",
            known.join(", ")
        );
        std::process::exit(2);
    };
    println!("{}", report.to_markdown());
}

/// `repro all`: every report in one markdown document.
fn run_all(scale: Scale, quick: bool) {
    let t0 = Instant::now();
    let reports = experiments::all(scale);
    let mut doc = String::new();
    writeln!(doc, "# EXPERIMENTS: paper vs. measured\n").unwrap();
    writeln!(
        doc,
        "Regenerated by `cargo run -p ic-bench --release --bin repro -- all` \
         (scale fraction {}, seed {}). Absolute numbers come from the simulator \
         substrate (DESIGN.md section 2); the *shape* of every result — orderings, \
         factors, crossovers — is the reproduction target.\n",
        scale.fraction, scale.seed
    )
    .unwrap();
    for r in &reports {
        doc.push_str(&r.to_markdown());
        doc.push('\n');
    }
    writeln!(
        doc,
        "---\nTotal wall time: {:.1}s",
        t0.elapsed().as_secs_f64()
    )
    .unwrap();
    if quick {
        println!("{doc}");
        return;
    }
    std::fs::create_dir_all("results").expect("create results dir");
    for r in &reports {
        std::fs::write(format!("results/{}.md", r.id), r.to_markdown()).expect("write result file");
    }
    std::fs::write("EXPERIMENTS.md", &doc).expect("write EXPERIMENTS.md");
    println!(
        "wrote EXPERIMENTS.md and results/ ({} experiments, {:.1}s)",
        reports.len(),
        t0.elapsed().as_secs_f64()
    );
}
