//! A knob the run cannot honour must stop the bench binaries before
//! any replay: a fault schedule naming a pool the cluster does not have
//! (`IC_POOL_OUTAGE=5:300:60` on the two-pool Gemma cluster used to be
//! skipped silently, recording a fault-free run as if it had survived
//! the outage), any `IC_*` variable that is set but malformed, and any
//! set `IC_*` variable that is not a knob at all — a misspelled or
//! retired name (each used to replay the defaults under the knob's
//! name). So must any argument a binary does not take.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BINS: [&str; 2] = [env!("CARGO_BIN_EXE_fig12_e2e"), env!("CARGO_BIN_EXE_repro")];

fn run_quick(bin: &str, var: &str, value: &str) -> Output {
    Command::new(bin)
        .arg("--quick")
        .env(var, value)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn bench binary")
}

fn assert_rejects_unknown_pool(bin: &str) {
    let out = run_quick(bin, "IC_POOL_OUTAGE", "5:300:60");
    assert_eq!(out.status.code(), Some(2), "{bin} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("IC_POOL_OUTAGE") && stderr.contains("pool 5"),
        "{bin} must name the knob and the pool: {stderr}"
    );
}

#[test]
fn fig12_e2e_exits_2_on_an_outage_for_a_pool_it_does_not_have() {
    assert_rejects_unknown_pool(BINS[0]);
}

#[test]
fn repro_exits_2_on_an_outage_for_a_pool_it_does_not_have() {
    assert_rejects_unknown_pool(BINS[1]);
}

/// Every knob a run reads, each with a value its type cannot hold, and
/// each knob whose type holds values outside its `docs/config.md`
/// domain with such values (each used to run: `IC_RESP_THRESHOLD=nan`
/// served every stage-0 nearest entry).
const MALFORMED: &[(&str, &str)] = &[
    ("IC_PREEMPT_QUANTUM", "-1"),
    ("IC_MAX_QUEUE", "many"),
    ("IC_KV_BUDGET", "1e3"),
    ("IC_KV_HOST_BLOCKS", "-4"),
    ("IC_RESP_CACHE", "on"),
    ("IC_RESP_THRESHOLD", "0,98"),
    ("IC_POOL_OUTAGE", "1:300"),
    ("IC_OBS_TRACE", "true"),
    ("IC_OBS_SAMPLE", "1m"),
    ("IC_RESP_CACHE", "2"),
    ("IC_OBS_TRACE", "255"),
    ("IC_RESP_THRESHOLD", "nan"),
    ("IC_RESP_THRESHOLD", "1.5"),
    ("IC_RESP_THRESHOLD", "-inf"),
    ("IC_KV_BUDGET", "0"),
    ("IC_OBS_SAMPLE", "-5"),
    ("IC_OBS_SAMPLE", "nan"),
];

/// Each `VAR=value` of `table`, set alone, must stop every binary
/// with exit 2 and the pair on stderr before anything is printed.
fn assert_exits_2_naming(table: &[(&str, &str)]) {
    for bin in BINS {
        for &(var, value) in table {
            let out = run_quick(bin, var, value);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{bin} must exit 2 on {var}={value:?}"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("{var}={value:?}")),
                "{bin} must name {var} and {value:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{bin} ran before rejecting {var}");
        }
    }
}

#[test]
fn a_malformed_knob_exits_2_naming_variable_and_value() {
    assert_exits_2_naming(MALFORMED);
}

/// A new knob needs a malformed case above: every row of the knob table
/// but `IC_BLESS`, which accepts any value, has one.
#[test]
fn every_knob_has_a_malformed_case() {
    for knob in ic_bench::env::KNOBS {
        let covered = MALFORMED.iter().any(|(var, _)| *var == knob.name);
        assert_eq!(covered, knob.name != "IC_BLESS", "{}", knob.name);
    }
}

/// Well-formed values under names nothing reads: sixteen retired knobs
/// and a typo of a live one.
const UNKNOWN: &[(&str, &str)] = &[
    ("IC_REPLAY_THREADS", "4"),
    ("IC_SELECTOR_WINDOW", "2"),
    ("IC_SETUP_THREADS", "4"),
    ("IC_ROUTER_REPLICAS", "4"),
    ("IC_GOSSIP_PERIOD", "5"),
    ("IC_SHARE_BURST", "8"),
    ("IC_KV_SHARE", "1"),
    ("IC_SELECTOR_BATCH", "8"),
    ("IC_PREFILL_CHUNK", "256"),
    ("IC_KV_BLOCK", "16"),
    ("IC_KV_WATERMARKS", "0.9,0.7"),
    ("IC_RESP_BYTES", "4194304"),
    ("IC_RESP_TTL", "300"),
    ("IC_RESP_PREPOP", "2"),
    ("IC_RESP_WINDOW", "60"),
    ("IC_OBS_RING", "1048576"),
    ("IC_KV_BUDGT", "64"),
];

#[test]
fn a_retired_or_misspelled_knob_exits_2_naming_the_variable() {
    assert_exits_2_naming(UNKNOWN);
}

/// An argument a binary does not take must stop it with exit 2 naming
/// the argument, before it runs or writes anything: each of these used
/// to run (`--fracton 0.2` and `--quikc` ran the full-scale experiment,
/// `--trace --quick` wrote the trace to a file named `--quick`, and
/// `--quick --fraction 0.2` ran the fraction and skipped the suite and
/// `BENCH_e2e.json` the `--quick` asked for).
#[test]
fn an_argument_a_binary_does_not_take_exits_2_naming_it() {
    let cases: [(&str, &[&str], &str); 5] = [
        (BINS[0], &["--fracton", "0.2"], "--fracton"),
        (BINS[0], &["--trace", "--quick"], "--trace"),
        (BINS[0], &["--quikc"], "--quikc"),
        (BINS[0], &["--quick", "--fraction", "0.2"], "--fraction"),
        (BINS[1], &["tab01_datasets", "--quikc"], "--quikc"),
    ];
    for (i, (bin, args, named)) in cases.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("bad_args_{}_{i}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let start = Instant::now();
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn bench binary");
        let elapsed = start.elapsed();
        let written = std::fs::read_dir(&dir).expect("read scratch dir").count();
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{bin} must name {named}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran before rejecting");
        assert_eq!(written, 0, "{bin} {args:?} wrote into its directory");
        // Rejection is argument parsing alone (milliseconds); a second
        // is far below any run the argument could have started.
        assert!(
            elapsed < Duration::from_secs(1),
            "{bin} {args:?}: {elapsed:?}"
        );
    }
}
