//! `icbench` — the IC-Cache stack's benchmark. See `README.md`.

use std::path::Path;
use std::process::ExitCode;

use icbench::compare::{DETAIL_PREFIX, compare, runset};
use icbench::layers::run_traced;
use icbench::run::{Counts, Untraced, result_line, run_untraced};
use icbench::workload::{FIXTURE_SEED, Workload};

const USAGE: &str = "usage:
  icbench [--workload <name>] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      one workload, or all four in turn; the last stdout line is the result
  icbench runset --out <file> [--seed N] [--seconds S] [--commit ID]
      appends one line to <file>: every workload, untraced and traced
  icbench compare <a.jsonl> <b.jsonl>
      holds the last line of <b> against the last line of <a>
workloads: coldstart_lowload bigbank_select trending_dups churn_writes";

/// Where traced runs leave `<workload>.spans.json`, relative to the
/// directory the benchmark is run from (the root of a checkout).
const SPANS_DIR: &str = "benchmark/out";

/// Command-line options of a measuring run.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: FIXTURE_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {s} is not a length of time"));
                }
                options.seconds = s;
            }
            "--trace" => {
                options.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn print_counts(c: &Counts) {
    println!(
        "  requests: sent {} served {} rejected {} failed {} (failed_share {:.6}); events {}",
        c.sent,
        c.served,
        c.rejected,
        c.failed,
        c.failed as f64 / c.sent.max(1) as f64,
        c.events
    );
}

/// The machine-readable line `runset` reads (see `DETAIL_PREFIX`).
fn detail_line(hash: u64, c: &Counts, reps: Option<&Untraced>) -> String {
    let reps = reps.map_or_else(String::new, |u| {
        format!(",\"setup_s\":{:?},\"replay_s\":{:?}", u.setup_s, u.replay_s)
    });
    format!(
        "{DETAIL_PREFIX}{{\"hash\":\"{hash:016x}\",\"sent\":{},\"served\":{},\"rejected\":{},\
         \"failed\":{},\"events\":{}{reps}}}",
        c.sent, c.served, c.rejected, c.failed, c.events
    )
}

fn print_untraced(workload: Workload, u: &Untraced) {
    println!(
        "{}: {} repetitions, report fnv64 {:016x}",
        workload.name(),
        u.replay_s.len(),
        u.hash
    );
    print_counts(&u.counts);
    println!(
        "  latency percentiles over {} finished requests; quality judged on {}",
        u.sim.samples, u.sim.judged
    );
    for (name, value, unit) in u.end_to_end() {
        println!("  {name:<22} {value:>14.6} {unit}");
    }
}

/// One measuring run of one workload: the human-readable block, then
/// the result line.
fn run_workload(workload: Workload, options: &Options) -> Result<(), String> {
    let (scale, seconds, min_reps) = if options.smoke {
        (0.05, 0.0, 1)
    } else {
        (1.0, options.seconds, 3)
    };
    if options.trace {
        let t = run_traced(workload, options.seed, scale, Path::new(SPANS_DIR))?;
        println!(
            "{}: traced run, report fnv64 {:016x} (traced == untraced), spans in {}",
            workload.name(),
            t.hash,
            t.spans_path.display()
        );
        print_counts(&t.counts);
        for (name, value, unit) in &t.values {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
        println!("{}", detail_line(t.hash, &t.counts, None));
        println!("{}", result_line(&t.counts, &t.values));
        return Ok(());
    }
    let u = run_untraced(workload, options.seed, scale, seconds, min_reps)?;
    print_untraced(workload, &u);
    let collapse = u.sim.out_of_collapse(&u.counts);
    match &collapse {
        Ok(()) => println!("  out of collapse: yes"),
        Err(why) => println!("  out of collapse: NO ({why})"),
    }
    if options.smoke {
        collapse?;
    }
    println!("{}", detail_line(u.hash, &u.counts, Some(&u)));
    println!("{}", result_line(&u.counts, &u.end_to_end()));
    Ok(())
}

/// Runs the named workload, or all four in turn when none is named.
fn run(options: &Options) -> Result<(), String> {
    match options.workload {
        Some(workload) => run_workload(workload, options),
        None => Workload::ALL
            .into_iter()
            .try_for_each(|workload| run_workload(workload, options)),
    }
}

/// `icbench runset --out <file> [--seed N] [--seconds S] [--commit ID]`.
fn run_set(args: &[String]) -> Result<(), String> {
    let (mut out, mut commit, mut rest) = (None, "unknown".to_owned(), Vec::new());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--commit" => commit = it.next().ok_or("--commit needs a value")?.clone(),
            _ => rest.push(flag.clone()),
        }
    }
    if !commit
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "._-+".contains(c))
    {
        return Err(format!("--commit {commit} is not an identifier"));
    }
    let options = parse_options(&rest)?;
    let out = out.ok_or("runset needs --out <file>")?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    runset(
        &exe,
        Path::new(&out),
        options.seed,
        options.seconds,
        &commit,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("runset") => run_set(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => match compare(Path::new(a), Path::new(b)) {
                Ok(true) => Ok(()),
                Ok(false) => Err("the run sets disagree".into()),
                Err(why) => Err(why),
            },
            _ => Err(format!("compare takes two files\n{USAGE}")),
        },
        _ => parse_options(&args).and_then(|o| run(&o)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("icbench: {why}");
            ExitCode::FAILURE
        }
    }
}
