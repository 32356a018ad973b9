//! A fault schedule the cluster cannot run must stop the bench
//! binaries before any replay: `IC_POOL_OUTAGE=5:300:60` on the
//! two-pool Gemma cluster used to be skipped silently, recording a
//! fault-free run as if it had survived the outage.

use std::process::Command;

fn assert_rejects_unknown_pool(bin: &str) {
    let out = Command::new(bin)
        .arg("--quick")
        .env("IC_POOL_OUTAGE", "5:300:60")
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn bench binary");
    assert_eq!(out.status.code(), Some(2), "{bin} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("IC_POOL_OUTAGE") && stderr.contains("pool 5"),
        "{bin} must name the knob and the pool: {stderr}"
    );
}

#[test]
fn fig12_e2e_exits_2_on_an_outage_for_a_pool_it_does_not_have() {
    assert_rejects_unknown_pool(env!("CARGO_BIN_EXE_fig12_e2e"));
}

#[test]
fn headline_exits_2_on_an_outage_for_a_pool_it_does_not_have() {
    assert_rejects_unknown_pool(env!("CARGO_BIN_EXE_headline"));
}
