//! Runs every experiment and rewrites `EXPERIMENTS.md` at the workspace
//! root (plus one markdown file per experiment under `results/`).
//! Pass `--quick` for a fast smoke run that does not overwrite files.

use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    if let Err(msg) = ic_bench::experiments::e2e::checked_engine_config() {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        ic_bench::Scale::quick()
    } else {
        ic_bench::Scale::full()
    };
    let t0 = Instant::now();
    let reports = ic_bench::experiments::all(scale);
    let mut doc = String::new();
    writeln!(doc, "# EXPERIMENTS: paper vs. measured\n").unwrap();
    writeln!(
        doc,
        "Regenerated by `cargo run -p ic-bench --release --bin all_experiments` \
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
    } else {
        std::fs::create_dir_all("results").expect("create results dir");
        for r in &reports {
            std::fs::write(format!("results/{}.md", r.id), r.to_markdown())
                .expect("write result file");
        }
        std::fs::write("EXPERIMENTS.md", &doc).expect("write EXPERIMENTS.md");
        println!(
            "wrote EXPERIMENTS.md and results/ ({} experiments, {:.1}s)",
            reports.len(),
            t0.elapsed().as_secs_f64()
        );
    }
}
