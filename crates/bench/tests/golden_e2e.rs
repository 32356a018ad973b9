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

use ic_bench::Scale;
use ic_bench::env::Knobs;
use ic_bench::experiments::e2e::{E2eRun, fig12_e2e_full};
use ic_engine::{EngineConfig, EngineReport};
use ic_workloads::Dataset;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/BENCH_e2e.quick.json"
);

/// The quick-scale MS MARCO run under `engine`, its trace reshaped by
/// `burst`.
fn quick(engine: EngineConfig, burst: usize) -> EngineReport {
    let knobs = Knobs { engine, burst };
    E2eRun::with(Scale::quick(), Dataset::MsMarco, &knobs).run()
}

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
    let (_, report) = fig12_e2e_full(Scale::quick(), &Knobs::default());
    assert_eq!(
        report.to_json(),
        golden().trim_end(),
        "fig12_e2e's BENCH_e2e.json drifted from the E2eRun the golden pins"
    );
}

/// Sharing on the *natural* quick trace is inert: example-set repeats
/// exist (the selection cache re-serves popular sets) but almost never
/// overlap in time, and content-table entries die with their blocks —
/// so nothing maps and the share-on report is byte-identical to the
/// share-off run. The knob only pays on overlapping traffic, which is
/// exactly what makes it safe to leave on.
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
        "no two requests with the same example set are concurrently \
         resident on the natural quick trace, so sharing must map \
         nothing and perturb nothing"
    );
    assert_eq!(on.kv.blocks_saved, 0);
}

/// The acceptance workload: every 8 consecutive arrivals collapse onto
/// one instant carrying the same request (≥ 8 concurrent sequences per
/// example set). With `kv_share` on the replay must be (a)
/// deterministic across runs, (b) actually deduplicating
/// (`dedup_ratio > 0`), and (c) strictly lighter on memory than the
/// share-off run at identical traffic (`peak_occupancy` and `allocs`
/// both undercut it).
#[test]
fn quick_e2e_kv_share_deduplicates_on_shared_prefix_bursts() {
    if std::env::var("IC_BLESS").is_ok_and(|v| v.trim() == "1") {
        return;
    }
    let config = EngineConfig {
        kv_share: true,
        ..EngineConfig::default()
    };
    let a = quick(config.clone(), 8);
    let b = quick(config, 8);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "kv_share=1 burst replay must be deterministic"
    );

    let off = quick(EngineConfig::default(), 8);
    assert!(
        a.kv.blocks_saved > 0,
        "8-way bursts of one request must map prefix blocks \
         (got blocks_saved=0)"
    );
    assert!(
        a.kv.dedup_ratio() > 0.0,
        "dedup_ratio must be positive when blocks were saved"
    );
    assert!(
        a.kv.shared_blocks_peak > 0,
        "burst members are concurrently resident, so some block must \
         have been shared at its peak"
    );
    assert!(
        a.kv.peak_occupancy() < off.kv.peak_occupancy(),
        "dedup must strictly lower peak occupancy at identical traffic: \
         share-on {} vs share-off {}",
        a.kv.peak_occupancy(),
        off.kv.peak_occupancy()
    );
    assert!(
        a.kv.allocs < off.kv.allocs,
        "every saved block is an allocation the share-off run performed: \
         share-on allocs ({}) must undercut share-off allocs ({})",
        a.kv.allocs,
        off.kv.allocs
    );
}
