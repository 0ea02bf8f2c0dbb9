//! Smoke test of the ledger at tiny sizes: one command per workload
//! prints every metric `BENCHMARK.json` names, with its unit, passes its
//! output checks, and fails (non-zero exit, `correct: false`) when a
//! check is made to fail.

use dqec_sweep::json::{self, Json};
use std::path::PathBuf;
use std::process::{Command, Output};

fn benchmark() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the ledger");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str, field: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("array")
        .iter()
        .map(|m| {
            m.get(field)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> (Output, Json) {
    let trace_out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{workload}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_dqec_ledger"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .arg("--trace-out")
        .arg(&trace_out)
        .args(extra)
        .output()
        .expect("ledger runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result = json::parse(last).expect("last line is JSON");
    (out, result)
}

fn assert_metrics(result: &Json, doc: &Json, key: &str) {
    let metrics = result.get("metrics").expect("metrics");
    let Json::Obj(pairs) = metrics else {
        panic!("metrics is an object")
    };
    let printed: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let declared = names(doc, key, "name");
    assert_eq!(
        printed, declared,
        "{key} metrics printed in declaration order"
    );
    for (name, unit) in declared.iter().zip(names(doc, key, "unit")) {
        let m = metrics.get(name).expect("metric present");
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has a numeric value"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name} unit"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let doc = benchmark();
    for workload in names(&doc, "workloads", "name") {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (out, result) = run(&workload, trace, &[]);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                matches!(result.get("correct"), Some(Json::Bool(true))),
                "{workload} correct"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            assert_metrics(&result, &doc, key);
            if key == "end_to_end" {
                for name in names(&doc, key, "name") {
                    let v = result
                        .get("metrics")
                        .and_then(|m| m.get(&name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64);
                    assert!(
                        v.is_some_and(|v| v > 0.0),
                        "{workload}: end-to-end {name} is never 0"
                    );
                }
            } else {
                let trace_out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                    .join(format!("trace-{workload}.json"));
                let chrome =
                    json::parse(&std::fs::read_to_string(trace_out).expect("trace written"))
                        .expect("trace is JSON");
                assert!(chrome
                    .get("traceEvents")
                    .and_then(Json::as_arr)
                    .is_some_and(|e| !e.is_empty()));
            }
        }
    }
}

#[test]
fn a_failing_check_fails_the_run() {
    for trace in [0, 1] {
        let (out, result) = run("yield_fab", trace, &["--break-check"]);
        assert!(!out.status.success(), "a failed check exits non-zero");
        assert!(matches!(result.get("correct"), Some(Json::Bool(false))));
        assert!(result.get("failed").and_then(Json::as_u64).unwrap_or(0) >= 1);
    }
}

#[test]
fn malformed_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dqec_ledger"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("ledger runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
