//! Shared `IC_*` environment-knob parsing for the bench binaries.
//!
//! The `fig12_e2e` and `headline` binaries (via
//! [`crate::experiments::e2e::engine_config`]) accept scheduler and
//! KV-memory overrides from the environment. Parsing used to be
//! duplicated ad hoc near each use site, with drifting error handling;
//! this module is the single implementation: a malformed value behaves
//! exactly like an unset variable (the byte-deterministic defaults win),
//! never a panic, so a typo in a sweep script cannot crash or skew a
//! recorded run.

use ic_engine::PoolOutage;
use ic_serving::Watermarks;

/// Parses `name` from the environment; `None` when unset or malformed.
pub fn parse_env<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

/// Parses a pool-outage schedule (e.g.
/// `IC_POOL_OUTAGE=1:300:120;0:900:60` — pool 1 down at t=300s for
/// 120s, pool 0 down at t=900s for 60s). `None` when unset or when any
/// entry is malformed or non-positive-duration (malformed == unset, the
/// repo-wide convention: a typo must not half-apply a fault schedule).
pub fn parse_outages(name: &str) -> Option<Vec<PoolOutage>> {
    let raw = std::env::var(name).ok()?;
    let mut outages = Vec::new();
    for entry in raw.split(';').filter(|e| !e.trim().is_empty()) {
        let mut parts = entry.split(':');
        let pool: usize = parts.next()?.trim().parse().ok()?;
        let at_s: f64 = parts.next()?.trim().parse().ok()?;
        let duration_s: f64 = parts.next()?.trim().parse().ok()?;
        if parts.next().is_some() || !at_s.is_finite() || at_s < 0.0 {
            return None;
        }
        if !duration_s.is_finite() || duration_s <= 0.0 {
            return None;
        }
        outages.push(PoolOutage {
            pool,
            at_s,
            duration_s,
        });
    }
    (!outages.is_empty()).then_some(outages)
}

/// Parses a `"high,low"` watermark pair (e.g. `IC_KV_WATERMARKS=0.9,0.7`);
/// `None` when unset, malformed, or violating `0 < low < high <= 1`.
/// Inverted *and equal* pairs are malformed: `low == high` is legal at
/// the kvmem level (a pinned band) but as an env override it is always
/// a sweep-script typo that silently kills the pressure band, so it
/// reads as unset like every other malformed knob.
pub fn parse_watermarks(name: &str) -> Option<Watermarks> {
    let raw = std::env::var(name).ok()?;
    let (high, low) = raw.split_once(',')?;
    let high: f64 = high.trim().parse().ok()?;
    let low: f64 = low.trim().parse().ok()?;
    (low > 0.0 && low < high && high <= 1.0).then(|| Watermarks::new(high, low))
}

/// Parses `IC_SETUP_THREADS` — worker threads for the deterministic
/// setup pipeline (example-bank embedding, k-means, IVF
/// posting-list builds). Unset, `0`, `1`, or malformed all mean
/// sequential. The setup is bit-identical at any value (the parallel
/// paths only fan out pure per-row work), so this knob trades wall
/// clock, never bytes — `BENCH_e2e.json` is unchanged (CI-enforced).
pub fn setup_threads() -> usize {
    parse_env::<usize>("IC_SETUP_THREADS").unwrap_or(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global environment: each test uses its own variable name
    // so parallel test threads cannot race.

    #[test]
    fn parses_plain_values() {
        unsafe { std::env::set_var("IC_TEST_ENV_U32", " 42 ") };
        assert_eq!(parse_env::<u32>("IC_TEST_ENV_U32"), Some(42));
        assert_eq!(parse_env::<u32>("IC_TEST_ENV_UNSET"), None);
    }

    #[test]
    fn malformed_values_behave_like_unset() {
        unsafe { std::env::set_var("IC_TEST_ENV_BAD", "forty-two") };
        assert_eq!(parse_env::<u32>("IC_TEST_ENV_BAD"), None);
    }

    #[test]
    fn parses_watermark_pairs() {
        unsafe { std::env::set_var("IC_TEST_WM_OK", "0.95, 0.6") };
        let wm = parse_watermarks("IC_TEST_WM_OK").expect("valid pair");
        assert!((wm.high - 0.95).abs() < 1e-12);
        assert!((wm.low - 0.6).abs() < 1e-12);
    }

    #[test]
    fn parses_outage_schedules() {
        unsafe { std::env::set_var("IC_TEST_OUTAGE_OK", "1:300:120; 0:900:60") };
        let outages = parse_outages("IC_TEST_OUTAGE_OK").expect("valid schedule");
        assert_eq!(
            outages,
            vec![
                PoolOutage {
                    pool: 1,
                    at_s: 300.0,
                    duration_s: 120.0
                },
                PoolOutage {
                    pool: 0,
                    at_s: 900.0,
                    duration_s: 60.0
                },
            ]
        );
        assert_eq!(parse_outages("IC_TEST_OUTAGE_UNSET"), None);
    }

    #[test]
    fn malformed_outage_schedules_behave_like_unset() {
        for (name, value) in [
            ("IC_TEST_OUTAGE_BAD1", "1:300"),          // Missing duration.
            ("IC_TEST_OUTAGE_BAD2", "1:300:0"),        // Zero duration.
            ("IC_TEST_OUTAGE_BAD3", "1:300:-5"),       // Negative duration.
            ("IC_TEST_OUTAGE_BAD4", "x:300:10"),       // Non-numeric pool.
            ("IC_TEST_OUTAGE_BAD5", "1:300:10:9"),     // Extra field.
            ("IC_TEST_OUTAGE_BAD6", "1:300:10;2:bad"), // One bad entry poisons all.
            ("IC_TEST_OUTAGE_BAD7", ";"),              // Empty entries only.
        ] {
            unsafe { std::env::set_var(name, value) };
            assert_eq!(parse_outages(name), None, "{value:?} must read as unset");
        }
    }

    #[test]
    fn rejects_inverted_or_malformed_watermarks() {
        unsafe { std::env::set_var("IC_TEST_WM_INV", "0.5,0.9") };
        assert_eq!(parse_watermarks("IC_TEST_WM_INV"), None);
        // Regression: an equal pair used to parse, pinning a dead
        // (zero-width) pressure band; it must read as unset.
        unsafe { std::env::set_var("IC_TEST_WM_EQ", "0.8,0.8") };
        assert_eq!(parse_watermarks("IC_TEST_WM_EQ"), None);
        unsafe { std::env::set_var("IC_TEST_WM_ONE", "0.9") };
        assert_eq!(parse_watermarks("IC_TEST_WM_ONE"), None);
        unsafe { std::env::set_var("IC_TEST_WM_ZERO", "0.9,0") };
        assert_eq!(parse_watermarks("IC_TEST_WM_ZERO"), None);
        unsafe { std::env::set_var("IC_TEST_WM_BIG", "1.2,0.5") };
        assert_eq!(parse_watermarks("IC_TEST_WM_BIG"), None);
        assert_eq!(parse_watermarks("IC_TEST_WM_UNSET"), None);
    }
}
