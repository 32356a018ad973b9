//! The bench binaries' `IC_*` environment knobs: one table ([`KNOBS`]),
//! one parsed value ([`Knobs`]) and one reader ([`Knobs::from_env`]).
//!
//! Each binary calls [`Knobs::from_env`] once, before anything runs, and
//! hands the value to the run; nothing below `main` reads the
//! environment. An unset knob keeps its default (the byte-deterministic
//! run). A knob that is set but does not parse, or lies outside its
//! `accepts` domain, is an `Err` naming the variable and its value — the
//! binaries print it and exit 2, so a typo in a sweep script stops the
//! run instead of silently recording the defaults under the knob's name.
//! The same goes for a typo in the *name*, or a knob a later change
//! retired: every set `IC_*` variable that is no row of [`KNOBS`] is an
//! `Err` too.

use ic_engine::{EngineConfig, PoolOutage};
use ic_serving::Watermarks;

/// The knobs of one run: the unified engine's configuration plus the
/// two knobs the set-up reads.
#[derive(Debug, Clone)]
pub struct Knobs {
    /// Every engine knob, applied to [`EngineConfig::default`].
    pub engine: EngineConfig,
    /// `IC_SETUP_THREADS`: worker threads for the IVF index's k-means
    /// fit when the example bank is seeded (at least 1). The index is
    /// bit-identical at any value, so this trades wall clock, never
    /// bytes.
    pub setup_threads: usize,
    /// `IC_SHARE_BURST`: the
    /// [`burst_workload`](crate::experiments::e2e::burst_workload)
    /// reshape of the IC-Cache replay's trace (`< 2` keeps the natural
    /// trace).
    pub burst: usize,
}

impl Default for Knobs {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            setup_threads: 1,
            burst: 0,
        }
    }
}

/// One `IC_*` knob: its name, the values it accepts (`docs/config.md`'s
/// `accepts` column, word for word) and how a trimmed value sets it
/// (`None` when the value is not one it accepts).
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// The values it accepts, as the error message and the doc say them.
    pub accepts: &'static str,
    /// Applies a trimmed value to the knobs.
    pub set: fn(&mut Knobs, &str) -> Option<()>,
}

/// A finite `f64` that `ok` accepts (`nan` and `inf` parse as `f64`s,
/// and a stage-0 threshold of `nan` would serve every nearest entry).
fn number(value: &str, ok: fn(f64) -> bool) -> Option<f64> {
    value.parse().ok().filter(|x: &f64| x.is_finite() && ok(*x))
}

/// A switch: exactly `0` (off) or `1` (on).
fn switch(value: &str) -> Option<bool> {
    value.parse().ok().filter(|s: &u8| *s <= 1).map(|s| s == 1)
}

/// Every `IC_*` environment variable the repo reads — the rows of
/// `docs/config.md`'s table, in its order. Anything else starting with
/// `IC_` in a bench binary's environment is a typo or a retired knob.
#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    Knob { name: "IC_PREFILL_CHUNK", accepts: "integer ≥ 0",
        set: |k, v| v.parse().ok().map(|n| k.engine.prefill_chunk_tokens = n) },
    Knob { name: "IC_PREEMPT_QUANTUM", accepts: "integer ≥ 0",
        set: |k, v| v.parse().ok().map(|n| k.engine.preempt_decode_quantum = n) },
    Knob { name: "IC_MAX_QUEUE", accepts: "integer ≥ 0",
        set: |k, v| v.parse().ok().map(|n| k.engine.max_queue = Some(n)) },
    Knob { name: "IC_SELECTOR_BATCH", accepts: "integer ≥ 0",
        set: |k, v| v.parse().ok().map(|n| k.engine.selector_batch = n) },
    Knob { name: "IC_SETUP_THREADS", accepts: "integer ≥ 0",
        set: |k, v| v.parse().ok().map(|n: usize| k.setup_threads = n.max(1)) },
    Knob { name: "IC_KV_BLOCK", accepts: "integer ≥ 1",
        set: |k, v| v.parse().ok().filter(|n| *n >= 1).map(|n| k.engine.kv_block_tokens = n) },
    Knob { name: "IC_KV_BUDGET", accepts: "integer ≥ 1",
        set: |k, v| v.parse().ok().filter(|n| *n >= 1).map(|n| k.engine.kv_budget_blocks = n) },
    Knob { name: "IC_KV_WATERMARKS", accepts: "`high,low`, 0 < low < high ≤ 1",
        set: |k, v| parse_watermarks(v).map(|w| k.engine.kv_watermarks = w) },
    Knob { name: "IC_KV_HOST_BLOCKS", accepts: "integer ≥ 0",
        set: |k, v| v.parse().ok().map(|n| k.engine.kv_swap.host_capacity_blocks = n) },
    Knob { name: "IC_KV_SHARE", accepts: "`0` or `1`",
        set: |k, v| switch(v).map(|on| k.engine.kv_share = on) },
    Knob { name: "IC_SHARE_BURST", accepts: "integer ≥ 0",
        set: |k, v| v.parse().ok().map(|n| k.burst = n) },
    Knob { name: "IC_RESP_CACHE", accepts: "`0` or `1`",
        set: |k, v| switch(v).map(|on| k.engine.resp_cache = on) },
    Knob { name: "IC_RESP_THRESHOLD", accepts: "number in [−1, 1]",
        set: |k, v| number(v, |x| x.abs() <= 1.0).map(|x| k.engine.resp_threshold = x) },
    Knob { name: "IC_RESP_BYTES", accepts: "integer ≥ 0",
        set: |k, v| v.parse().ok().map(|n| k.engine.resp_budget_bytes = n) },
    Knob { name: "IC_RESP_TTL", accepts: "finite number > 0",
        set: |k, v| number(v, |x| x > 0.0).map(|x| k.engine.resp_ttl_s = x) },
    Knob { name: "IC_RESP_PREPOP", accepts: "integer ≥ 0",
        set: |k, v| v.parse().ok().map(|n| k.engine.resp_prepop_min = n) },
    Knob { name: "IC_RESP_WINDOW", accepts: "finite number > 0",
        set: |k, v| number(v, |x| x > 0.0).map(|x| k.engine.resp_window_s = x) },
    Knob { name: "IC_ROUTER_REPLICAS", accepts: "integer ≥ 1",
        set: |k, v| v.parse().ok().filter(|n| *n >= 1).map(|n| k.engine.router_replicas = n) },
    Knob { name: "IC_GOSSIP_PERIOD", accepts: "finite number ≥ 0",
        set: |k, v| number(v, |x| x >= 0.0).map(|x| k.engine.gossip_period_s = x) },
    Knob { name: "IC_POOL_OUTAGE",
        accepts: "`pool:at:duration[;...]`, a pool the cluster has, finite at ≥ 0, \
                  finite duration > 0",
        set: |k, v| parse_outages(v).map(|o| k.engine.pool_outages = o) },
    Knob { name: "IC_OBS_TRACE", accepts: "`0` or `1`",
        set: |k, v| switch(v).map(|on| k.engine.trace = on) },
    Knob { name: "IC_OBS_SAMPLE", accepts: "finite number ≥ 0",
        set: |k, v| number(v, |x| x >= 0.0).map(|x| k.engine.obs_sample_s = x) },
    Knob { name: "IC_OBS_RING", accepts: "integer ≥ 0",
        set: |k, v| v.parse().ok().map(|n| k.engine.obs_ring = n) },
    // Read by the golden tests, not by a run: a row so that setting it
    // is not a typo.
    Knob { name: "IC_BLESS", accepts: "any (only `1` blesses)", set: |_, _| Some(()) },
];

impl Knobs {
    /// The knobs the environment sets: every set `IC_*` variable through
    /// its [`KNOBS`] row, and the fault schedule checked against the
    /// Gemma-pair cluster every e2e run replays on. `Err` names the
    /// offending variable and value; the binaries print it and exit 2
    /// before anything runs.
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(std::env::vars_os().map(|(name, value)| {
            (
                name.to_string_lossy().into_owned(),
                value.to_string_lossy().into_owned(),
            )
        }))
    }

    /// [`Knobs::from_env`] over explicit `(name, value)` pairs.
    fn from_vars(vars: impl IntoIterator<Item = (String, String)>) -> Result<Self, String> {
        let mut knobs = Self::default();
        let mut vars: Vec<_> = vars
            .into_iter()
            .filter(|(name, _)| name.starts_with("IC_"))
            .collect();
        // In name order, so the variable an error names does not depend
        // on the environment's order.
        vars.sort_unstable();
        for (name, value) in vars {
            let Some(knob) = KNOBS.iter().find(|k| k.name == name) else {
                return Err(format!(
                    "{name}={value:?} is not an IC_* knob, so nothing would read it \
                     (docs/config.md lists the knobs)"
                ));
            };
            if (knob.set)(&mut knobs, value.trim()).is_none() {
                return Err(format!("{name}={value:?} is not {}", knob.accepts));
            }
        }
        let pools = ic_cache::IcCacheConfig::gemma_pair().models.len();
        if let Some(outage) = knobs.engine.pool_outages.iter().find(|o| o.pool >= pools) {
            return Err(format!(
                "IC_POOL_OUTAGE names pool {} but the cluster has {pools} pools (0..={})",
                outage.pool,
                pools - 1
            ));
        }
        Ok(knobs)
    }
}

/// Parses a pool-outage schedule (e.g. `1:300:120;0:900:60` — pool 1
/// down at t=300s for 120s, pool 0 down at t=900s for 60s). `None` when
/// any entry is malformed or non-positive-duration, or no entry is given
/// (a typo must not half-apply a fault schedule).
pub fn parse_outages(value: &str) -> Option<Vec<PoolOutage>> {
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
    let outages: Vec<PoolOutage> = value
        .split(';')
        .filter(|e| !e.trim().is_empty())
        .map(parse_entry)
        .collect::<Option<_>>()?;
    (!outages.is_empty()).then_some(outages)
}

/// Parses a `"high,low"` watermark pair (e.g. `0.9,0.7`): `None` when
/// malformed or violating `0 < low < high <= 1`. Inverted *and equal*
/// pairs are malformed: `low == high` is legal at the kvmem level (a
/// pinned band) but as a knob value it is always a sweep-script typo that
/// silently kills the pressure band.
pub fn parse_watermarks(value: &str) -> Option<Watermarks> {
    let (high, low) = value.split_once(',')?;
    let high: f64 = high.trim().parse().ok()?;
    let low: f64 = low.trim().parse().ok()?;
    (low > 0.0 && low < high && high <= 1.0).then(|| Watermarks::new(high, low))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(vars: &[(&str, &str)]) -> Result<Knobs, String> {
        Knobs::from_vars(vars.iter().map(|&(n, v)| (n.to_owned(), v.to_owned())))
    }

    /// `docs/config.md`'s table is [`KNOBS`]: the same names in the same
    /// order, each row's `accepts` column word for word, and every
    /// documented default that is not `unset`, set through its row,
    /// leaves [`Knobs::default`] as it is.
    #[test]
    fn knobs_are_the_rows_of_the_config_doc() {
        let doc = include_str!("../../../docs/config.md");
        // `| `NAME` | default | accepts | acts on | effect |`
        let rows: Vec<Vec<&str>> = doc
            .lines()
            .filter(|line| line.starts_with("| `IC_"))
            .map(|line| line.split(" | ").collect())
            .collect();
        let names: Vec<&str> = rows
            .iter()
            .map(|r| r[0].trim_matches(['|', ' ', '`']))
            .collect();
        let knobs: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        assert_eq!(names, knobs, "docs/config.md table vs env::KNOBS");
        let default = format!("{:?}", Knobs::default());
        for (row, knob) in rows.iter().zip(KNOBS) {
            assert_eq!(row[2], knob.accepts, "{}: accepts column", knob.name);
            let documented = row[1].trim_matches('`');
            if documented != "unset" {
                let mut set = Knobs::default();
                assert_eq!((knob.set)(&mut set, documented), Some(()), "{}", knob.name);
                assert_eq!(format!("{set:?}"), default, "{}: default column", knob.name);
            }
        }
    }

    #[test]
    fn parses_plain_values() {
        // Values are trimmed; names outside `IC_*` are not knobs.
        let k = knobs(&[
            ("IC_PREFILL_CHUNK", " 42 "),
            ("IC_MAX_QUEUE", "7\n"),
            ("PATH", "x"),
        ])
        .expect("valid");
        assert_eq!(k.engine.prefill_chunk_tokens, 42);
        assert_eq!(k.engine.max_queue, Some(7));
        let unset = knobs(&[]).expect("nothing set");
        assert_eq!(format!("{unset:?}"), format!("{:?}", Knobs::default()));
    }

    #[test]
    fn malformed_values_are_errors_naming_variable_and_value() {
        let err = knobs(&[("IC_KV_BUDGET", "forty-two")]).expect_err("malformed");
        assert_eq!(err, "IC_KV_BUDGET=\"forty-two\" is not integer ≥ 1");
        let err = knobs(&[("IC_KV_BUDGT", "64")]).expect_err("unknown");
        assert!(err.contains("IC_KV_BUDGT=\"64\""), "{err}");
    }

    #[test]
    fn parses_watermark_pairs() {
        let wm = parse_watermarks("0.95, 0.6").expect("valid pair");
        assert!((wm.high - 0.95).abs() < 1e-12);
        assert!((wm.low - 0.6).abs() < 1e-12);
    }

    #[test]
    fn parses_outage_schedules() {
        let outages = parse_outages("1:300:120; 0:900:60").expect("valid schedule");
        let entries: Vec<_> = outages
            .iter()
            .map(|o| (o.pool, o.at_s, o.duration_s))
            .collect();
        assert_eq!(entries, [(1, 300.0, 120.0), (0, 900.0, 60.0)]);
        let err = knobs(&[("IC_POOL_OUTAGE", "5:300:60")]).expect_err("no pool 5");
        assert!(err.contains("pool 5"), "{err}");
    }

    #[test]
    fn malformed_outage_schedules_are_errors() {
        for value in [
            "1:300",          // Missing duration.
            "1:300:0",        // Zero duration.
            "1:300:-5",       // Negative duration.
            "x:300:10",       // Non-numeric pool.
            "1:300:10:9",     // Extra field.
            "1:300:10;2:bad", // One bad entry poisons all.
            ";",              // Empty entries only.
        ] {
            assert_eq!(parse_outages(value), None, "{value}");
        }
    }

    #[test]
    fn rejects_inverted_or_malformed_watermarks() {
        for value in [
            "0.5,0.9",
            // Regression: an equal pair used to parse, pinning a dead
            // (zero-width) pressure band.
            "0.8,0.8", "0.9", "0.9,0", "1.2,0.5",
        ] {
            assert_eq!(parse_watermarks(value), None, "{value}");
        }
    }
}
