//! Golden-file regression test for the deterministic e2e payload.
//!
//! `fig12_e2e --quick` writes `BENCH_e2e.json` from the IC-Cache row of
//! its suite: the MS MARCO run of [`ic_bench::experiments::e2e::E2eRun`]
//! at the default seed. CI's determinism job checks that two runs of
//! the *same build* agree and `cmp`s the binary's file against the
//! golden; this test pins the exact bytes in-repo, both from `E2eRun`
//! and from the suite run the binary writes, so an unintended behaviour
//! change to the engine, scheduler, KV model or report serialization
//! fails `cargo test -q` locally — before CI, and with a diffable
//! artifact.
//!
//! When a change intentionally moves the metrics, regenerate with:
//!
//! ```sh
//! IC_BLESS=1 cargo test -q -p ic-bench --test golden_e2e
//! ```
//!
//! and commit the updated `tests/golden/BENCH_e2e.quick.json`. A run
//! whose selector serves an example to under half its requests fails
//! before it can be blessed. The runs here are hermetic (each takes its
//! knobs as a value; nothing reads the environment but the `IC_BLESS`
//! check), so a stray `IC_*` variable cannot fail the comparison.

mod common;

use common::quick;
use ic_bench::Scale;
use ic_bench::experiments::e2e::{E2eRun, fig12_e2e_full};
use ic_engine::EngineConfig;
use ic_workloads::Dataset;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/BENCH_e2e.quick.json"
);

fn golden() -> String {
    std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file exists; regenerate with IC_BLESS=1 cargo test -p ic-bench --test golden_e2e",
    )
}

#[test]
fn quick_e2e_report_matches_golden() {
    let report = E2eRun::new(Scale::quick(), Dataset::MsMarco).run();
    // The byte compare below says the run drifted; this says whether the
    // drift matters. A selector that stops serving examples must not be
    // blessable (quick MS MARCO selects for 76 % of its requests).
    assert!(
        report.selection_hit_rate() >= 0.5,
        "only {:.1}% of selections returned an example: the selector collapsed",
        report.selection_hit_rate() * 100.0
    );
    let json = report.to_json();
    // Only the documented `IC_BLESS=1` blesses; any other value (or a
    // typo like `IC_BLESS=0`) still runs the check.
    if std::env::var("IC_BLESS").is_ok_and(|v| v.trim() == "1") {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden file");
        return;
    }
    assert_eq!(
        json,
        golden().trim_end(),
        "BENCH_e2e.json (quick, default seed) drifted from the committed golden. \
         If intentional, regenerate with: IC_BLESS=1 cargo test -q -p ic-bench --test golden_e2e"
    );
}

/// The file `fig12_e2e --quick` writes is the golden: the suite's
/// IC-Cache row is the run [`quick_e2e_report_matches_golden`] pins.
#[test]
fn fig12_writes_the_golden_run() {
    if std::env::var("IC_BLESS").is_ok_and(|v| v.trim() == "1") {
        return;
    }
    let (_, report) = fig12_e2e_full(Scale::quick(), &EngineConfig::default());
    assert_eq!(
        report.to_json(),
        golden().trim_end(),
        "fig12_e2e's BENCH_e2e.json drifted from the E2eRun the golden pins"
    );
}

/// Sharing on the *natural* quick trace is inert: every sequence
/// allocates its KV privately, so nothing maps and the share-on report
/// is byte-identical to the share-off run.
#[test]
fn quick_e2e_kv_share_is_byte_inert_on_the_natural_trace() {
    if std::env::var("IC_BLESS").is_ok_and(|v| v.trim() == "1") {
        return;
    }
    let on = quick(
        EngineConfig {
            kv_share: true,
            ..EngineConfig::default()
        },
        0,
    );
    let off = quick(EngineConfig::default(), 0);
    assert_eq!(
        on.to_json(),
        off.to_json(),
        "kv_share must map nothing and perturb nothing on the natural trace"
    );
    assert_eq!(on.kv.blocks_saved, 0);
}

/// `EngineConfig::kv_share` is inert: every sequence allocates its KV
/// privately. The 8-way burst is the traffic that would dedup if
/// sharing were still wired in (eight concurrent sequences per example
/// set), and the report must still equal the default run's byte for
/// byte.
#[test]
fn kv_share_is_inert_on_shared_prefix_bursts() {
    if std::env::var("IC_BLESS").is_ok_and(|v| v.trim() == "1") {
        return;
    }
    let on = quick(
        EngineConfig {
            kv_share: true,
            ..EngineConfig::default()
        },
        8,
    );
    let off = quick(EngineConfig::default(), 8);
    assert_eq!(
        on.to_json(),
        off.to_json(),
        "kv_share must change nothing, even where example sets overlap"
    );
}
