//! Golden-file regression test for the deterministic e2e payload.
//!
//! `fig12_e2e --quick` (and `headline --quick`) write `BENCH_e2e.json`
//! from the MS MARCO run of [`ic_bench::experiments::e2e::E2eRun`]
//! at the default seed. CI's determinism job only checks that two runs
//! of the *same build* agree; this test additionally pins the exact
//! bytes in-repo, so an unintended behaviour change to the engine,
//! scheduler, KV model or report serialization fails `cargo test -q`
//! locally — before CI, and with a diffable artifact.
//!
//! When a change intentionally moves the metrics, regenerate with:
//!
//! ```sh
//! IC_BLESS=1 cargo test -q -p ic-bench --test golden_e2e
//! ```
//!
//! and commit the updated `tests/golden/BENCH_e2e.quick.json`. The
//! runs here are hermetic ([`E2eRun::new`] reads no engine knob), so a
//! stray `IC_*` variable in the environment cannot fail the comparison
//! (a malformed `IC_SETUP_THREADS`, the one knob read, panics naming
//! itself).

use ic_bench::Scale;
use ic_bench::experiments::e2e::E2eRun;
use ic_engine::EngineConfig;
use ic_workloads::Dataset;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/BENCH_e2e.quick.json"
);

/// The knob-free quick-scale MS MARCO run the golden pins.
fn quick() -> E2eRun {
    E2eRun::new(Scale::quick(), Dataset::MsMarco)
}

#[test]
fn quick_e2e_report_matches_golden() {
    let json = quick().run().to_json();
    // Only the documented `IC_BLESS=1` blesses; any other value (or a
    // typo like `IC_BLESS=0`) still runs the check.
    if std::env::var("IC_BLESS").is_ok_and(|v| v.trim() == "1") {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file exists; regenerate with IC_BLESS=1 cargo test -p ic-bench --test golden_e2e",
    );
    assert_eq!(
        json,
        golden.trim_end(),
        "BENCH_e2e.json (quick, default seed) drifted from the committed golden. \
         If intentional, regenerate with: IC_BLESS=1 cargo test -q -p ic-bench --test golden_e2e"
    );
}

/// The parallel-setup acceptance pin: the whole deterministic setup
/// pipeline (bank embedding, k-means, IVF posting-list builds) run at
/// `IC_SETUP_THREADS = 4` must produce an *unmasked* report
/// byte-identical to the committed single-thread golden. No masking —
/// threads are a pure wall-clock knob, never a bytes knob.
#[test]
fn quick_e2e_setup_threads_are_byte_inert() {
    if std::env::var("IC_BLESS").is_ok_and(|v| v.trim() == "1") {
        return; // Blessing the sibling golden; this one never reblesses.
    }
    let json = quick().setup_threads(4).run().to_json();
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file exists; regenerate with IC_BLESS=1 cargo test -p ic-bench --test golden_e2e",
    );
    assert_eq!(
        json,
        golden.trim_end(),
        "the 4-thread setup pipeline drifted from the single-thread \
         golden — a parallel path stopped being bit-exact"
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
    let on = quick()
        .config(EngineConfig {
            kv_share: true,
            ..EngineConfig::default()
        })
        .run();
    let off = quick().run();
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
    let a = quick().burst(8).config(config.clone()).run();
    let b = quick().burst(8).config(config).run();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "kv_share=1 burst replay must be deterministic"
    );

    let off = quick().burst(8).run();
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
