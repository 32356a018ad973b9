//! `BENCHMARK.json` repeats the metric tables and workload list the
//! program defines, and `compare` judges run sets by those bounds.

use std::path::PathBuf;

use icbench::compare::{Json, compare, quartiles, spread};
use icbench::metrics::{END_TO_END, PER_LAYER};
use icbench::run::{Counts, result_line};
use icbench::workload::Workload;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn manifest_lists_the_programs_metrics_and_workloads() {
    let manifest = manifest();
    let field = |entry: &Json, key: &str| entry.get(key).and_then(Json::str).unwrap().to_owned();

    let workloads = manifest.get("workloads").and_then(Json::arr).unwrap();
    let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);

    let end_to_end = manifest.get("end_to_end").and_then(Json::arr).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit);
        assert_eq!(field(entry, "better"), m.better.as_str());
        assert_eq!(
            entry.get("bound").and_then(Json::num),
            Some(m.bound),
            "{}",
            m.name
        );
        assert!(m.bound <= 0.25);
    }
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let per_layer = manifest.get("per_layer").and_then(Json::arr).unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, &(name, unit, better)) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(field(entry, "name"), name);
        assert_eq!(field(entry, "unit"), unit);
        assert_eq!(field(entry, "better"), better.as_str());
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let counts = Counts {
        sent: 10,
        served: 10,
        ..Counts::default()
    };
    let line = result_line(&counts, &[("setup_s", 0.5, "s"), ("x", 2.0, "count")]);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
         {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 2, \"unit\": \"count\"}}}"
    );
    assert!(Json::parse(&line).is_ok());
}

#[test]
fn json_round_trips_through_its_compact_form() {
    let text = r#"{"a":[1,2.5,-3e-7],"b":{"c":"x \"y\" \\","d":true,"e":null},"f":[]}"#;
    let parsed = Json::parse(text).unwrap();
    assert_eq!(Json::parse(&parsed.to_string()), Ok(parsed.clone()));
    assert_eq!(
        parsed.get("a").and_then(Json::arr).map(<[Json]>::len),
        Some(3)
    );
    assert_eq!(
        parsed.get("b").and_then(|b| b.get("c")).and_then(Json::str),
        Some(r#"x "y" \"#)
    );
    for bad in ["{", "[1,]", "{\"a\" 1}", "1 2", "tru"] {
        assert!(Json::parse(bad).is_err(), "{bad}");
    }
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    assert_eq!(quartiles(&[1.0]), None);
    assert!((spread(&ten) - 1.0).abs() < 1e-12);
}

/// A run set in which every workload reports `value(metric)` for each
/// end-to-end metric, three repetitions for the host ones.
fn run_set(hash: &str, value: impl Fn(&str) -> [f64; 3]) -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            let e2e: Vec<String> = END_TO_END
                .iter()
                .map(|m| {
                    let [a, b, c] = value(m.name);
                    format!("\"{}\":[{a},{b},{c}]", m.name)
                })
                .collect();
            format!(
                "\"{}\":{{\"hash\":\"{hash}\",\"e2e\":{{{}}}}}",
                w.name(),
                e2e.join(",")
            )
        })
        .collect();
    format!("{{\"seed\":1,\"workloads\":{{{}}}}}\n", workloads.join(","))
}

fn write(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn compare_applies_bounds_to_host_and_equality_to_sim_metrics() {
    let base = write("base.jsonl", &run_set("aa", |_| [1.0, 1.01, 0.99]));
    // Within every bound, and a file's last line is the one compared.
    let near = format!(
        "{}{}",
        run_set("zz", |_| [9.0; 3]),
        run_set("aa", |m| if m == "replay_s" {
            [1.1, 1.11, 1.09]
        } else {
            [1.0, 1.01, 0.99]
        })
    );
    assert_eq!(compare(&base, &write("near.jsonl", &near)), Ok(true));
    // A host median past its bound.
    let slow = run_set("aa", |m| {
        if m == "replay_s" {
            [1.3; 3]
        } else {
            [1.0, 1.01, 0.99]
        }
    });
    assert_eq!(compare(&base, &write("slow.jsonl", &slow)), Ok(false));
    // A faster host median is not a regression.
    let fast = run_set("aa", |m| {
        if m == "replay_s" {
            [0.5; 3]
        } else {
            [1.0, 1.01, 0.99]
        }
    });
    assert_eq!(compare(&base, &write("fast.jsonl", &fast)), Ok(true));
    // Any change at all of a simulated-clock metric, or of the hash.
    let drift = run_set("aa", |m| {
        if m == "offload_ratio" {
            [1.0000001, 1.01, 0.99]
        } else {
            [1.0, 1.01, 0.99]
        }
    });
    assert_eq!(compare(&base, &write("drift.jsonl", &drift)), Ok(false));
    let rehash = run_set("bb", |_| [1.0, 1.01, 0.99]);
    assert_eq!(compare(&base, &write("rehash.jsonl", &rehash)), Ok(false));
    // Repetitions spread wider than the bound leave the metric unresolved.
    let noisy = run_set("aa", |m| {
        if m == "replay_s" {
            [1.0, 2.0, 3.0]
        } else {
            [1.0, 1.01, 0.99]
        }
    });
    assert_eq!(compare(&base, &write("noisy.jsonl", &noisy)), Ok(true));
    // Different seeds are not comparable.
    let reseeded = run_set("aa", |_| [1.0, 1.01, 0.99]).replace("\"seed\":1", "\"seed\":2");
    assert!(compare(&base, &write("reseeded.jsonl", &reseeded)).is_err());
}
