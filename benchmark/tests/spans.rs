//! The traced run's spans nest: every span's children fit inside it.

use std::path::Path;

use icbench::compare::Json;
use icbench::layers::run_traced;
use icbench::metrics::PER_LAYER;
use icbench::spans::{NO_REQUEST, Spans};
use icbench::workload::{FIXTURE_SEED, Workload};

fn assert_nested(spans: &Spans) {
    let all = spans.all();
    let mut covered = vec![0u64; all.len()];
    for (i, s) in all.iter().enumerate() {
        assert!(
            s.start_ns <= s.end_ns,
            "span {i} ({}) ends before it starts",
            s.name
        );
        if let Some(p) = s.parent {
            let parent = &all[p as usize];
            assert!((p as usize) < i, "span {i} precedes its parent");
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "span {i} ({}) [{}, {}] leaves its parent {} [{}, {}]",
                s.name,
                s.start_ns,
                s.end_ns,
                parent.name,
                parent.start_ns,
                parent.end_ns
            );
            covered[p as usize] += s.duration_ns();
        }
    }
    for (i, s) in all.iter().enumerate() {
        assert!(
            covered[i] <= s.duration_ns(),
            "children of span {i} ({}) outlast it",
            s.name
        );
    }
}

#[test]
fn recorder_nests_scopes_and_batches() {
    let mut spans = Spans::new();
    spans.scope("outer", NO_REQUEST, 1, |spans| {
        spans.time("leaf", 3, || std::hint::black_box(1 + 1));
        let start = spans.now_ns();
        let t = std::time::Instant::now();
        std::hint::black_box((0..1000).sum::<u64>());
        spans.record_batch("batch", start, t.elapsed().as_nanos() as u64, 1000);
    });
    assert_eq!(spans.all().len(), 3);
    assert_eq!(spans.all()[1].parent, Some(0));
    assert_eq!(spans.all()[1].request, 3);
    assert_eq!(spans.all()[2].calls, 1000);
    assert_nested(&spans);
    let own = spans.self_ns();
    assert_eq!(
        own[0],
        spans.all()[0].duration_ns() - spans.all()[1].duration_ns() - spans.all()[2].duration_ns()
    );
}

#[test]
fn traced_runs_nest_and_write_loadable_traces() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for workload in [Workload::TrendingDups, Workload::ChurnWrites] {
        let t = run_traced(workload, FIXTURE_SEED, 0.05, out)
            .unwrap_or_else(|why| panic!("{}: {why}", workload.name()));
        assert_nested(&t.spans);
        let names: Vec<&str> = t.values.iter().map(|v| v.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
        assert!(t.values.iter().all(|v| v.1.is_finite()), "{:?}", t.values);
        let trace = Json::parse(&std::fs::read_to_string(&t.spans_path).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Json::arr).unwrap();
        assert_eq!(events.len(), t.spans.all().len());
        assert_eq!(events[0].get("ph").and_then(Json::str), Some("X"));
        // Stage 0 and the manager run only where the workload uses them.
        let value = |name: &str| t.values.iter().find(|v| v.0 == name).unwrap().1;
        let stage0 = workload == Workload::TrendingDups;
        assert_eq!(value("respcache.lookup_miss_us_p50") > 0.0, stage0);
        assert_eq!(value("manager.admit_us_p50") > 0.0, !stage0);
    }
}
