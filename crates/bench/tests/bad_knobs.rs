//! A knob the run cannot honour must stop the bench binaries before
//! any replay: a fault schedule naming a pool the cluster does not have
//! (`IC_POOL_OUTAGE=5:300:60` on the two-pool Gemma cluster used to be
//! skipped silently, recording a fault-free run as if it had survived
//! the outage), any `IC_*` variable that is set but malformed, and any
//! set `IC_*` variable that is not a knob at all — a misspelled or
//! retired name (each used to replay the defaults under the knob's
//! name).

use std::process::{Command, Output};

const BINS: [&str; 2] = [
    env!("CARGO_BIN_EXE_fig12_e2e"),
    env!("CARGO_BIN_EXE_headline"),
];

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
fn headline_exits_2_on_an_outage_for_a_pool_it_does_not_have() {
    assert_rejects_unknown_pool(BINS[1]);
}

/// Every variable `engine_config()` reads, plus `IC_SETUP_THREADS` and
/// `IC_SHARE_BURST`, each with a value its type cannot hold.
const MALFORMED: &[(&str, &str)] = &[
    ("IC_PREFILL_CHUNK", "abc"),
    ("IC_PREEMPT_QUANTUM", "-1"),
    ("IC_MAX_QUEUE", "many"),
    ("IC_SELECTOR_BATCH", "8.0"),
    ("IC_KV_BLOCK", "16t"),
    ("IC_KV_BUDGET", "1e3"),
    ("IC_KV_WATERMARKS", "0.5,0.9"),
    ("IC_KV_HOST_BLOCKS", "-4"),
    ("IC_KV_SHARE", "yes"),
    ("IC_RESP_CACHE", "on"),
    ("IC_RESP_THRESHOLD", "0,98"),
    ("IC_RESP_BYTES", "4MiB"),
    ("IC_RESP_TTL", ""),
    ("IC_RESP_PREPOP", "2.5"),
    ("IC_RESP_WINDOW", "60s"),
    ("IC_ROUTER_REPLICAS", "x4"),
    ("IC_GOSSIP_PERIOD", "5 s"),
    ("IC_POOL_OUTAGE", "1:300"),
    ("IC_OBS_TRACE", "true"),
    ("IC_OBS_SAMPLE", "1m"),
    ("IC_OBS_RING", "-1"),
    ("IC_SETUP_THREADS", "all"),
    ("IC_SHARE_BURST", "8x"),
    ("IC_SHARE_BURST", " "),
];

/// Each `VAR=value` of `table`, set alone, must stop both binaries
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

/// Well-formed values under names nothing reads: two retired knobs and
/// a typo of a live one.
const UNKNOWN: &[(&str, &str)] = &[
    ("IC_REPLAY_THREADS", "4"),
    ("IC_SELECTOR_WINDOW", "2"),
    ("IC_KV_BUDGT", "64"),
];

#[test]
fn a_retired_or_misspelled_knob_exits_2_naming_the_variable() {
    assert_exits_2_naming(UNKNOWN);
}
