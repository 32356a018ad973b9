//! Shared `IC_*` environment-knob parsing for the bench binaries.
//!
//! The bench binaries (via
//! [`crate::experiments::e2e::checked_engine_config`]) accept scheduler
//! and KV-memory overrides from the environment. This module is the
//! single implementation: an unset variable is `Ok(None)` (the
//! byte-deterministic defaults win), and a variable that is set but
//! does not parse is an `Err` naming the variable and its value — the
//! binaries print it and exit 2, so a typo in a sweep script stops the
//! run instead of silently recording the defaults under the knob's
//! name. The same goes for a typo in the *name*, or a knob a later PR
//! retired: [`unknown_knobs`] names every set `IC_*` variable that is
//! not in [`KNOBS`].

use ic_engine::PoolOutage;
use ic_serving::Watermarks;

/// Why a knob read below a binary's `main` may `expect`: every bench
/// binary calls [`crate::experiments::e2e::checked_engine_config`]
/// before it runs anything.
pub(crate) const KNOBS_CHECKED: &str = "IC_* knobs are checked at startup";

/// Every `IC_*` environment variable the repo reads — the knob column
/// of `docs/config.md`, row for row. Anything else starting with `IC_`
/// in a bench binary's environment is a typo or a retired knob.
pub const KNOBS: &[&str] = &[
    "IC_PREFILL_CHUNK",
    "IC_PREEMPT_QUANTUM",
    "IC_MAX_QUEUE",
    "IC_SELECTOR_BATCH",
    "IC_SETUP_THREADS",
    "IC_KV_BLOCK",
    "IC_KV_BUDGET",
    "IC_KV_WATERMARKS",
    "IC_KV_HOST_BLOCKS",
    "IC_KV_SHARE",
    "IC_SHARE_BURST",
    "IC_RESP_CACHE",
    "IC_RESP_THRESHOLD",
    "IC_RESP_BYTES",
    "IC_RESP_TTL",
    "IC_RESP_PREPOP",
    "IC_RESP_WINDOW",
    "IC_ROUTER_REPLICAS",
    "IC_GOSSIP_PERIOD",
    "IC_POOL_OUTAGE",
    "IC_OBS_TRACE",
    "IC_OBS_SAMPLE",
    "IC_OBS_RING",
    "IC_BLESS",
];

/// `Err` naming every `IC_*` variable that is set but is not one of
/// [`KNOBS`] — a misspelled name (`IC_KV_BUDGT`) or a retired knob
/// (`IC_REPLAY_THREADS`) would otherwise be ignored and the defaults
/// recorded under its name.
pub fn unknown_knobs() -> Result<(), String> {
    let mut unknown: Vec<String> = std::env::vars_os()
        .map(|(name, value)| (name.to_string_lossy().into_owned(), value))
        .filter(|(name, _)| name.starts_with("IC_") && !KNOBS.contains(&name.as_str()))
        .map(|(name, value)| format!("{name}={value:?}"))
        .collect();
    unknown.sort_unstable();
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "not an IC_* knob, so nothing would read it: {} (docs/config.md lists the knobs)",
            unknown.join(", ")
        ))
    }
}

/// The raw value of `name`; `Ok(None)` when unset.
fn raw_env(name: &str) -> Result<Option<String>, String> {
    debug_assert!(
        KNOBS.contains(&name) || name.starts_with("IC_TEST_"),
        "{name} is read but not listed in KNOBS"
    );
    match std::env::var(name) {
        Ok(raw) => Ok(Some(raw)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(raw)) => Err(format!("{name}={raw:?} is not unicode")),
    }
}

/// Parses `name` from the environment: `Ok(None)` when unset, `Err`
/// naming the variable and its value when set but malformed.
pub fn parse_env<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String> {
    parse_env_in(name, "", |_| true)
}

/// [`parse_env`] for a knob whose type holds values the run cannot
/// honour: a value that parses but fails `accepts` is an `Err` too,
/// naming the variable, its value and `domain` (`nan` parses as an
/// `f64`, and a stage-0 threshold of `nan` serves every nearest entry).
pub(crate) fn parse_env_in<T: std::str::FromStr>(
    name: &str,
    domain: &str,
    accepts: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    let Some(raw) = raw_env(name)? else {
        return Ok(None);
    };
    match raw.trim().parse() {
        Ok(value) if accepts(&value) => Ok(Some(value)),
        Ok(_) => Err(format!("{name}={raw:?} is not {domain}")),
        Err(_) => Err(format!(
            "{name}={raw:?} is not a valid {}",
            std::any::type_name::<T>()
        )),
    }
}

/// A switch knob: exactly `0` (off) or `1` (on); `Ok(None)` when unset.
pub(crate) fn parse_switch(name: &str) -> Result<Option<bool>, String> {
    Ok(parse_env_in::<u8>(name, "0 or 1", |v| *v <= 1)?.map(|v| v == 1))
}

/// Parses a pool-outage schedule (e.g.
/// `IC_POOL_OUTAGE=1:300:120;0:900:60` — pool 1 down at t=300s for
/// 120s, pool 0 down at t=900s for 60s). `Ok(None)` when unset; `Err`
/// when any entry is malformed or non-positive-duration, or no entry is
/// given (a typo must not half-apply a fault schedule).
pub fn parse_outages(name: &str) -> Result<Option<Vec<PoolOutage>>, String> {
    let Some(raw) = raw_env(name)? else {
        return Ok(None);
    };
    let parse_entry = |entry: &str| {
        let mut parts = entry.split(':');
        let pool: usize = parts.next()?.trim().parse().ok()?;
        let at_s: f64 = parts.next()?.trim().parse().ok()?;
        let duration_s: f64 = parts.next()?.trim().parse().ok()?;
        let well_formed = parts.next().is_none()
            && at_s.is_finite()
            && at_s >= 0.0
            && duration_s.is_finite()
            && duration_s > 0.0;
        well_formed.then_some(PoolOutage {
            pool,
            at_s,
            duration_s,
        })
    };
    let outages: Option<Vec<PoolOutage>> = raw
        .split(';')
        .filter(|e| !e.trim().is_empty())
        .map(parse_entry)
        .collect();
    match outages {
        Some(outages) if !outages.is_empty() => Ok(Some(outages)),
        _ => Err(format!(
            "{name}={raw:?} is not a `pool:at:duration[;...]` schedule with positive durations"
        )),
    }
}

/// Parses a `"high,low"` watermark pair (e.g. `IC_KV_WATERMARKS=0.9,0.7`):
/// `Ok(None)` when unset, `Err` when malformed or violating
/// `0 < low < high <= 1`. Inverted *and equal* pairs are malformed:
/// `low == high` is legal at the kvmem level (a pinned band) but as an
/// env override it is always a sweep-script typo that silently kills
/// the pressure band.
pub fn parse_watermarks(name: &str) -> Result<Option<Watermarks>, String> {
    let Some(raw) = raw_env(name)? else {
        return Ok(None);
    };
    let pair = raw.split_once(',').and_then(|(high, low)| {
        let high: f64 = high.trim().parse().ok()?;
        let low: f64 = low.trim().parse().ok()?;
        (low > 0.0 && low < high && high <= 1.0).then(|| Watermarks::new(high, low))
    });
    pair.map(Some)
        .ok_or_else(|| format!("{name}={raw:?} is not a `high,low` pair with 0 < low < high <= 1"))
}

/// Parses `IC_SETUP_THREADS` — worker threads for the IVF index's
/// k-means fit when the bank is seeded: the k-means++ distance updates,
/// the assignment passes and the bulk-tail assignment fan out; bank
/// generation and embedding stay sequential. Unset, `0` and `1` all mean
/// sequential; a malformed value is an `Err`. The index is bit-identical
/// at any value (the parallel paths only fan out pure per-row work), so
/// this knob trades wall clock, never bytes — `BENCH_e2e.json` is
/// unchanged (CI-enforced).
pub fn setup_threads() -> Result<usize, String> {
    Ok(parse_env::<usize>("IC_SETUP_THREADS")?.unwrap_or(1).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global environment: each test uses its own variable name
    // so parallel test threads cannot race.

    #[test]
    fn knobs_are_the_rows_of_the_config_doc() {
        let doc = include_str!("../../../docs/config.md");
        let rows: Vec<&str> = doc
            .lines()
            .filter_map(|line| line.strip_prefix("| `IC_"))
            .map(|rest| &rest[..rest.find('`').expect("closing backtick")])
            .collect();
        let knobs: Vec<&str> = KNOBS.iter().map(|k| &k["IC_".len()..]).collect();
        assert_eq!(rows, knobs, "docs/config.md table vs env::KNOBS");
    }

    #[test]
    fn parses_plain_values() {
        unsafe { std::env::set_var("IC_TEST_ENV_U32", " 42 ") };
        assert_eq!(parse_env::<u32>("IC_TEST_ENV_U32"), Ok(Some(42)));
        assert_eq!(parse_env::<u32>("IC_TEST_ENV_UNSET"), Ok(None));
    }

    #[test]
    fn malformed_values_are_errors_naming_variable_and_value() {
        unsafe { std::env::set_var("IC_TEST_ENV_BAD", "forty-two") };
        let err = parse_env::<u32>("IC_TEST_ENV_BAD").expect_err("malformed");
        assert!(err.contains("IC_TEST_ENV_BAD") && err.contains("forty-two"));
    }

    #[test]
    fn parses_watermark_pairs() {
        unsafe { std::env::set_var("IC_TEST_WM_OK", "0.95, 0.6") };
        let wm = parse_watermarks("IC_TEST_WM_OK")
            .expect("valid pair")
            .expect("set");
        assert!((wm.high - 0.95).abs() < 1e-12);
        assert!((wm.low - 0.6).abs() < 1e-12);
    }

    #[test]
    fn parses_outage_schedules() {
        unsafe { std::env::set_var("IC_TEST_OUTAGE_OK", "1:300:120; 0:900:60") };
        let outages = parse_outages("IC_TEST_OUTAGE_OK")
            .expect("valid schedule")
            .expect("set");
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
        assert_eq!(parse_outages("IC_TEST_OUTAGE_UNSET"), Ok(None));
    }

    #[test]
    fn malformed_outage_schedules_are_errors() {
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
            let err = parse_outages(name).expect_err(value);
            assert!(err.contains(name) && err.contains(value), "{err}");
        }
    }

    #[test]
    fn rejects_inverted_or_malformed_watermarks() {
        for (name, value) in [
            ("IC_TEST_WM_INV", "0.5,0.9"),
            // Regression: an equal pair used to parse, pinning a dead
            // (zero-width) pressure band.
            ("IC_TEST_WM_EQ", "0.8,0.8"),
            ("IC_TEST_WM_ONE", "0.9"),
            ("IC_TEST_WM_ZERO", "0.9,0"),
            ("IC_TEST_WM_BIG", "1.2,0.5"),
        ] {
            unsafe { std::env::set_var(name, value) };
            let err = parse_watermarks(name).expect_err(value);
            assert!(err.contains(name) && err.contains(value), "{err}");
        }
        assert_eq!(parse_watermarks("IC_TEST_WM_UNSET"), Ok(None));
    }
}
