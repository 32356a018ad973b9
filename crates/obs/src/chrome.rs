//! Chrome trace-event JSON export (Perfetto-loadable).
//!
//! Maps the merged event stream onto the trace-event model: one
//! *process* per component (pid 0 is the router, pid `p + 1` is
//! serving pool `p`), one *thread* per track inside it (the router's
//! arrivals track; a pool scheduler track plus one track per serving
//! replica). Step iterations and request residencies become
//! `"X"` complete spans, preemptions/swaps/CoW/outages become
//! `"s"`-scoped `"i"` instants, and track names are declared with
//! `"M"` metadata events. All timestamps are the simulator's integer
//! microseconds, so the export is byte-deterministic by construction.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::ObsReport;
use crate::event::EventKind;

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn meta(out: &mut Vec<String>, pid: u32, tid: u32, field: &str, name: &str) {
    out.push(format!(
        "{{\"name\":\"{field}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
        esc(name)
    ));
}

fn span(out: &mut Vec<String>, name: &str, pid: u32, tid: u32, ts: u64, dur: u64, args: &str) {
    out.push(format!(
        "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}"
    ));
}

fn instant(out: &mut Vec<String>, name: &str, pid: u32, tid: u32, ts: u64, args: &str) {
    out.push(format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"s\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}"
    ));
}

/// A request span currently open on some pool replica track.
struct OpenSpan {
    pid: u32,
    tid: u32,
    since_us: u64,
    decoding: bool,
}

impl OpenSpan {
    fn close(&self, out: &mut Vec<String>, at_us: u64, request: u64) {
        let name = if self.decoding { "decode" } else { "prefill" };
        span(
            out,
            name,
            self.pid,
            self.tid,
            self.since_us,
            at_us - self.since_us,
            &format!("\"request\":{request}"),
        );
    }
}

/// Serializes the report's event stream as Chrome trace-event JSON.
pub fn chrome_trace_json(report: &ObsReport) -> String {
    let mut out: Vec<String> = Vec::new();

    // Track declarations. pid 0: the router.
    meta(&mut out, 0, 0, "process_name", "router");
    meta(&mut out, 0, 0, "thread_name", "arrivals");
    // pid p + 1: serving pool p.
    for (p, pool) in report.pools.iter().enumerate() {
        let pid = p as u32 + 1;
        meta(
            &mut out,
            pid,
            0,
            "process_name",
            &format!("pool {p}: {}", pool.name),
        );
        meta(&mut out, pid, 0, "thread_name", "scheduler");
        for r in 0..pool.replicas {
            meta(&mut out, pid, r + 1, "thread_name", &format!("replica {r}"));
        }
    }

    let mut open: BTreeMap<u64, OpenSpan> = BTreeMap::new();
    // Requests past their first token: spans they reopen are decode,
    // not prefill, even across a swap-out/resume gap.
    let mut decoded: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for ev in &report.events {
        let at_us = ev.at.as_micros();
        match ev.kind {
            EventKind::Arrival | EventKind::Stage0Hit => {
                let name = if ev.kind == EventKind::Arrival {
                    "arrival"
                } else {
                    "stage0_hit"
                };
                let args = format!("\"request\":{}", ev.request);
                instant(&mut out, name, 0, 0, at_us, &args);
            }
            EventKind::PoolDown { pool } => {
                instant(&mut out, "pool_down", pool + 1, 0, at_us, "");
            }
            EventKind::PoolUp { pool } => {
                instant(&mut out, "pool_up", pool + 1, 0, at_us, "");
            }
            EventKind::StepEnd { started, batch } => {
                let ts = started.as_micros();
                span(
                    &mut out,
                    "step",
                    ev.lane,
                    0,
                    ts,
                    at_us - ts,
                    &format!("\"batch\":{batch}"),
                );
            }
            EventKind::SlotStart { replica } | EventKind::Resumed { replica } => {
                if let Some(s) = open.remove(&ev.request) {
                    s.close(&mut out, at_us, ev.request);
                }
                open.insert(
                    ev.request,
                    OpenSpan {
                        pid: ev.lane,
                        tid: replica + 1,
                        since_us: at_us,
                        decoding: decoded.contains(&ev.request),
                    },
                );
            }
            EventKind::FirstToken => {
                if let Some(mut s) = open.remove(&ev.request) {
                    s.close(&mut out, at_us, ev.request);
                    s.since_us = at_us;
                    s.decoding = true;
                    open.insert(ev.request, s);
                }
                decoded.insert(ev.request);
            }
            EventKind::QuantumPreempt => {
                if let Some(s) = open.remove(&ev.request) {
                    s.close(&mut out, at_us, ev.request);
                    instant(
                        &mut out,
                        "preempt",
                        s.pid,
                        s.tid,
                        at_us,
                        &format!("\"request\":{}", ev.request),
                    );
                }
            }
            EventKind::PressureSwapOut { host_blocks } => {
                if let Some(s) = open.remove(&ev.request) {
                    s.close(&mut out, at_us, ev.request);
                    instant(
                        &mut out,
                        "swap_out",
                        s.pid,
                        s.tid,
                        at_us,
                        &format!("\"request\":{},\"host_blocks\":{host_blocks}", ev.request),
                    );
                }
            }
            EventKind::FailoverFlush { .. } => {
                // Failover voids the sequence's progress; it restarts
                // from prefill when re-admitted.
                if let Some(s) = open.remove(&ev.request) {
                    s.close(&mut out, at_us, ev.request);
                }
                decoded.remove(&ev.request);
            }
            EventKind::Finish { .. } => {
                if let Some(s) = open.remove(&ev.request) {
                    s.close(&mut out, at_us, ev.request);
                }
            }
            // Selection/queueing detail lives in the telemetry stream;
            // it has no track of its own on the timeline.
            EventKind::Stage1Probe
            | EventKind::Selected { .. }
            | EventKind::RouterDecision { .. }
            | EventKind::Enqueued { .. }
            | EventKind::RejectedByCap { .. }
            | EventKind::PrefillChunk { .. } => {}
        }
    }
    let mut json = String::from("{\"traceEvents\":[");
    json.push_str(&out.join(","));
    json.push_str("]}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsEvent, PoolMeta};
    use ic_desim::SimTime;

    fn ev(us: u64, lane: u32, request: u64, kind: EventKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_micros(us),
            lane,
            request,
            kind,
        }
    }

    fn report(events: Vec<ObsEvent>) -> ObsReport {
        ObsReport {
            pools: vec![PoolMeta {
                name: "gemma-27b".into(),
                replicas: 2,
            }],
            events,
            dropped: 0,
            samples: Vec::new(),
        }
    }

    #[test]
    fn emits_tracks_spans_and_instants() {
        let json = chrome_trace_json(&report(vec![
            ev(0, 0, 1, EventKind::Arrival),
            ev(10, 1, 1, EventKind::SlotStart { replica: 0 }),
            ev(40, 1, 1, EventKind::FirstToken),
            ev(60, 1, 1, EventKind::QuantumPreempt),
            ev(80, 1, 1, EventKind::SlotStart { replica: 1 }),
            ev(100, 1, 1, EventKind::Finish { preemptions: 1 }),
            ev(
                120,
                1,
                crate::NO_REQUEST,
                EventKind::StepEnd {
                    started: SimTime::from_micros(90),
                    batch: 3,
                },
            ),
        ]));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
        assert!(json.contains("\"name\":\"pool 0: gemma-27b\""));
        assert!(json.contains(
            "{\"name\":\"prefill\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10,\"dur\":30,\"args\":{\"request\":1}}"
        ));
        assert!(json.contains(
            "{\"name\":\"decode\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":40,\"dur\":20,\"args\":{\"request\":1}}"
        ));
        assert!(json.contains("\"name\":\"preempt\",\"ph\":\"i\""));
        // The re-admitted sequence continues decoding on the new replica.
        assert!(json.contains(
            "{\"name\":\"decode\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":80,\"dur\":20,\"args\":{\"request\":1}}"
        ));
        assert!(json.contains(
            "{\"name\":\"step\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":90,\"dur\":30,\"args\":{\"batch\":3}}"
        ));
        // Determinism: same input, same bytes.
        assert_eq!(
            json,
            chrome_trace_json(&report(vec![
                ev(0, 0, 1, EventKind::Arrival),
                ev(10, 1, 1, EventKind::SlotStart { replica: 0 }),
                ev(40, 1, 1, EventKind::FirstToken),
                ev(60, 1, 1, EventKind::QuantumPreempt),
                ev(80, 1, 1, EventKind::SlotStart { replica: 1 }),
                ev(100, 1, 1, EventKind::Finish { preemptions: 1 }),
                ev(
                    120,
                    1,
                    crate::NO_REQUEST,
                    EventKind::StepEnd {
                        started: SimTime::from_micros(90),
                        batch: 3,
                    },
                ),
            ]))
        );
    }

    #[test]
    fn escapes_pool_names() {
        let mut r = report(vec![]);
        r.pools[0].name = "we\"ird\\name".into();
        let json = chrome_trace_json(&r);
        assert!(json.contains("we\\\"ird\\\\name"));
    }
}
