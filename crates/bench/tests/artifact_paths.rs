//! Regression tests for artifact-path handling in the bench binaries
//! (`ic_bench::artifact::write_artifact`): `fig12_e2e --trace
//! runs/out.json` used to panic with a bare `io::Error` after the whole
//! replay had run whenever the trace path's parent directory was
//! missing. The binary now creates missing parent directories and writes
//! its `BENCH_*` files into an arbitrary working directory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ic-bin-artifacts-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch cwd");
    dir
}

fn run_bin(bin: &str, args: &[&str], cwd: &Path) -> std::process::Output {
    Command::new(bin)
        .args(args)
        .current_dir(cwd)
        // A hermetic knob environment: the run itself is irrelevant
        // here, only the artifact writes are under test.
        .env_remove("IC_OBS_TRACE")
        .env("IC_OBS_SAMPLE", "30")
        .output()
        .expect("spawn bench binary")
}

#[test]
fn fig12_trace_path_with_missing_parent_dirs_succeeds() {
    let cwd = scratch("fig12");
    // Relative trace path whose parents do not exist — the old code
    // panicked on the final write. The telemetry sampler is armed too,
    // so the bare-filename JSONL write is covered in the same run.
    let out = run_bin(
        env!("CARGO_BIN_EXE_fig12_e2e"),
        &["--fraction", "0.0005", "--trace", "runs/obs/trace.json"],
        &cwd,
    );
    assert!(
        out.status.success(),
        "fig12_e2e failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for artifact in [
        "runs/obs/trace.json",
        "BENCH_replay.json",
        "BENCH_telemetry.jsonl",
    ] {
        let path = cwd.join(artifact);
        let len = std::fs::metadata(&path)
            .unwrap_or_else(|e| panic!("{artifact} missing: {e}"))
            .len();
        assert!(len > 0, "{artifact} is empty");
    }
    // One replay per run: the record carries that replay's one wall,
    // and the summary prints one `replay:` line and no overhead pair.
    let replay = std::fs::read_to_string(cwd.join("BENCH_replay.json")).expect("BENCH_replay.json");
    assert!(replay.contains("\"wall_s\":"), "{replay}");
    assert!(!replay.contains("\"traced_wall_s\""), "{replay}");
    assert!(!replay.contains("\"probe_memo_"), "{replay}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("replay:")).count(),
        1,
        "{stdout}"
    );
    assert!(!stdout.contains("obs overhead:"), "{stdout}");
    assert!(!stdout.contains("probe memo:"), "{stdout}");
    std::fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn fig12_writes_its_report_into_an_arbitrary_cwd() {
    let cwd = scratch("fig12-quick");
    let out = run_bin(env!("CARGO_BIN_EXE_fig12_e2e"), &["--quick"], &cwd);
    assert!(
        out.status.success(),
        "fig12_e2e failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(cwd.join("BENCH_e2e.json")).expect("BENCH_e2e.json");
    assert!(json.contains("\"resp_cache\":{"), "report block missing");
    std::fs::remove_dir_all(&cwd).unwrap();
}
