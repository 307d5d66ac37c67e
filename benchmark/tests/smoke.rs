//! Runs the benchmark at smoke scale and checks what it prints and writes
//! against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_mempod-benchmark");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names<'a>(spec: &'a Value, key: &str) -> Vec<(&'a str, &'a str)> {
    spec[key]
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            (m["name"].as_str().expect("a name"), unit)
        })
        .collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The whitespace-separated fields of the line starting with `workload`
/// and `what`.
fn line<'a>(text: &'a str, workload: &str, what: &str) -> Option<Vec<&'a str>> {
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|t| t.len() > 2 && t[0] == workload && t[1] == what)
}

#[test]
fn smoke_run_prints_every_metric_and_writes_parsable_traces() {
    let text = stdout(&run(&["--smoke"]));
    let spec = spec();
    let mut metrics = names(&spec, "end_to_end");
    metrics.extend(names(&spec, "per_layer"));
    for (workload, _) in names(&spec, "workloads") {
        assert!(valid_name(workload), "{workload}");
        for &(name, unit) in &metrics {
            assert!(valid_name(name), "{name}");
            let fields = line(&text, workload, name)
                .unwrap_or_else(|| panic!("{workload} {name} not printed"));
            assert_eq!(fields[2], unit, "{workload} {name}");
        }
        let ops = line(&text, workload, "ops_attempted").expect("ops line");
        assert_eq!(&ops[3..5], ["ops_failed", "0"], "{workload}: {ops:?}");

        let trace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/smoke/{workload}.trace.json"));
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).expect("trace written"))
                .expect("trace parses");
        let events = doc["traceEvents"].as_array().expect("traceEvents");
        assert!(events.iter().all(|e| e["ph"].as_str() == Some("X")));
        assert!(events.len() > 10, "{workload}: {} spans", events.len());
    }
}

#[test]
fn one_workload_run_ends_with_the_json_result() {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = [
            "--workload",
            "mcf_cameo",
            "--seed",
            "11",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ];
        let text = stdout(&run(&args));
        let result: Value =
            serde_json::from_str(text.lines().last().expect("output")).expect("last line is JSON");
        assert_eq!(result["correct"].as_bool(), Some(true));
        assert_eq!(result["failed"].as_u64(), Some(0));
        assert!(result["attempted"].as_u64() >= Some(1));
        let got = result["metrics"].as_object().expect("metrics");
        let spec = spec();
        let want = names(&spec, key);
        assert_eq!(got.len(), want.len());
        for (name, unit) in want {
            let m = got.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m["unit"].as_str(), Some(unit));
            assert!(m["value"].as_f64().is_some_and(f64::is_finite), "{name}");
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--bogus"],
        &["compare", "one.json"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A results file with one workload and one metric.
fn results(rps: f64, q: f64) -> String {
    let doc = serde_json::json!({ "workloads": { "w": {
        "report_digest": "ab",
        "end_to_end": { "sim_rps": { "median": rps, "q1": rps * (1.0 - q), "q3": rps * (1.0 + q), "n": 5 } },
    } } });
    serde_json::to_string(&doc).expect("values serialize")
}

#[test]
fn compare_flags_regressions_and_wide_spreads() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, text: String| {
        let p = dir.join(name);
        std::fs::write(&p, text).expect("temp file written");
        p.to_string_lossy().into_owned()
    };
    let base = write("base.json", results(1000.0, 0.01));
    let same = write("same.json", results(980.0, 0.01));
    let slow = write("slow.json", results(700.0, 0.01));
    let noisy = write("noisy.json", results(700.0, 0.2));

    assert_eq!(run(&["compare", &base, &same]).status.code(), Some(0));
    let out = run(&["compare", &base, &slow]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));
    let out = run(&["compare", &base, &noisy]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("unresolved"));
}
