//! `ic-obs`: deterministic observability for the IC-Cache replay.
//!
//! Three coupled facilities, all zero-cost when disabled and
//! byte-deterministic when enabled:
//!
//! 1. **Request-lifecycle tracing** — components record [`ObsEvent`]s
//!    into per-lane ring buffers ([`LaneBuf`]); the engine's
//!    [`Recorder`] merges them into one `(time, lane)`-ordered stream.
//!    [`critical_paths`] folds that stream into an exact
//!    integer-microsecond latency decomposition per request
//!    ([`CriticalPath`]): queue wait, prefill, decode, swap penalty,
//!    retry overhead.
//! 2. **Timeline export** — [`ObsReport::chrome_trace_json`] serializes
//!    the stream as Chrome trace-event JSON, loadable in Perfetto with
//!    one track per pool replica and one for the router's arrivals.
//! 3. **Time-series telemetry** — an `ic_desim::Periodic`-driven
//!    sampler snapshots queue depth, KV occupancy, batch size, and the
//!    router's load estimate and decision count into
//!    [`TelemetrySample`]s; [`ObsReport::telemetry_jsonl`] renders them
//!    as JSONL.
//!
//! Everything downstream of recording is a pure function of the event
//! stream, so two replays of the same seed yield byte-identical
//! artifacts. The crate depends only on `ic-desim` (for [`SimTime`]
//! stamps), which lets every layer of the stack — serving pools
//! included — record without dependency cycles.
//!
//! [`SimTime`]: ic_desim::SimTime

mod chrome;
mod critical;
mod event;
mod recorder;
mod telemetry;

pub use critical::{CriticalPath, critical_paths};
pub use event::{EventKind, NO_REQUEST, ObsEvent};
pub use recorder::{LaneBuf, Recorder};
pub use telemetry::{PoolSample, TelemetrySample};

use std::collections::BTreeMap;

/// Identity of one serving pool, for timeline track naming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolMeta {
    /// Pool (model) name, e.g. `gemma-27b`.
    pub name: String,
    /// Serving replicas in the pool.
    pub replicas: u32,
}

/// Everything the observability layer captured in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Serving pools, in routing order (lane `p + 1` is `pools[p]`).
    pub pools: Vec<PoolMeta>,
    /// The merged, `(time, lane)`-ordered event stream (empty when only
    /// the sampler ran).
    pub events: Vec<ObsEvent>,
    /// Events evicted from ring buffers before the merge.
    pub dropped: u64,
    /// Periodic telemetry snapshots, in time order.
    pub samples: Vec<TelemetrySample>,
}

impl ObsReport {
    /// Serializes the event stream as Chrome trace-event JSON
    /// (Perfetto-loadable). See `docs/observability.md` for the track
    /// layout.
    pub fn chrome_trace_json(&self) -> String {
        chrome::chrome_trace_json(self)
    }

    /// Renders the telemetry snapshots as JSONL: one line per sample
    /// plus a trailing summary line. `footer_extra` is spliced into the
    /// summary object verbatim (callers pass pre-serialized fragments
    /// such as replay counters).
    pub fn telemetry_jsonl(&self, footer_extra: Option<&str>) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out.push_str(&format!(
            "{{\"kind\":\"summary\",\"events_recorded\":{},\"events_dropped\":{},\"samples\":{}",
            self.events.len(),
            self.dropped,
            self.samples.len(),
        ));
        if let Some(extra) = footer_extra {
            out.push(',');
            out.push_str(extra);
        }
        out.push_str("}\n");
        out
    }

    /// Folds the event stream into per-request critical paths.
    pub fn critical_paths(&self) -> BTreeMap<u64, CriticalPath> {
        critical_paths(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_jsonl_has_summary_footer() {
        let report = ObsReport {
            pools: Vec::new(),
            events: Vec::new(),
            dropped: 2,
            samples: Vec::new(),
        };
        assert_eq!(
            report.telemetry_jsonl(None),
            "{\"kind\":\"summary\",\"events_recorded\":0,\"events_dropped\":2,\"samples\":0}\n"
        );
        assert_eq!(
            report.telemetry_jsonl(Some("\"replay\":{\"threads\":4}")),
            "{\"kind\":\"summary\",\"events_recorded\":0,\"events_dropped\":2,\"samples\":0,\"replay\":{\"threads\":4}}\n"
        );
    }
}
