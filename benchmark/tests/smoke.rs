//! Every workload stays out of collapse at 1/20 of its length: the hook a
//! CI job can call (`icbench --workload <w> --smoke`).

use icbench::compare::Json;
use icbench::metrics::END_TO_END;
use icbench::run::run_untraced;
use icbench::workload::{FIXTURE_SEED, Workload};

#[test]
fn every_workload_passes_the_collapse_guard_at_smoke_length() {
    for workload in Workload::ALL {
        let u = run_untraced(workload, FIXTURE_SEED, 0.05, 0.0, 1)
            .unwrap_or_else(|why| panic!("{}: {why}", workload.name()));
        u.sim
            .out_of_collapse(&u.counts)
            .unwrap_or_else(|why| panic!("{}: {why}", workload.name()));
        assert_eq!(u.counts.served + u.counts.rejected, u.counts.sent);
    }
}

#[test]
fn the_same_seed_replays_to_the_same_report() {
    let run = |seed| run_untraced(Workload::TrendingDups, seed, 0.05, 0.0, 2).unwrap();
    let (a, b, other) = (run(3), run(3), run(4));
    assert_eq!(a.hash, b.hash);
    assert_eq!(a.sim, b.sim);
    assert_ne!(a.hash, other.hash, "another arrival seed is another replay");
}

#[test]
fn the_command_prints_the_result_line_last() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_icbench"))
        .args([
            "--workload",
            "coldstart_lowload",
            "--seed",
            "5",
            "--seconds",
            "0",
        ])
        .args(["--trace", "0", "--smoke"])
        .output()
        .expect("icbench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let Json::Obj(members) = &result else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::num).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for (m, (_, v)) in END_TO_END.iter().zip(metrics) {
        assert_eq!(v.get("unit").and_then(Json::str), Some(m.unit));
        assert!(
            v.get("value").and_then(Json::num).unwrap() > 0.0,
            "{} is zero",
            m.name
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_icbench"))
            .args(args)
            .output()
            .expect("icbench runs");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
