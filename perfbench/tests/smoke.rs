//! The benchmark's own smoke test: every workload at a short length,
//! untraced and traced. Each run must report every metric that
//! `BENCHMARK.json` names for its mode, with its unit, fail nothing, and
//! (traced) leave a Chrome trace that `ft_trace::validate_chrome_trace`
//! accepts.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use ft_trace::JsonVal;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["kernels-full", "serve-warm", "cold-start"];

fn parse(text: &str) -> JsonVal {
    JsonVal::parse(text).unwrap_or_else(|e| panic!("not JSON ({e}): {text}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(spec: &JsonVal, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(JsonVal::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(JsonVal::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_checks_its_outputs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let spec =
        parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"));
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(JsonVal::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonVal::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .current_dir(root)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {}\n{stdout}",
                out.status
            );
            let result = parse(stdout.lines().last().expect("a result line"));
            assert_eq!(
                result.get("correct"),
                Some(&JsonVal::Bool(true)),
                "{workload}: {stdout}"
            );
            assert_eq!(result.get("failed").and_then(JsonVal::as_u64), Some(0));
            assert!(
                result
                    .get("attempted")
                    .and_then(JsonVal::as_u64)
                    .unwrap_or(0)
                    >= 1
            );
            let metrics = result
                .get("metrics")
                .and_then(JsonVal::as_obj)
                .expect("metrics object");
            let want = declared(&spec, section);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload} --trace {trace}: metric count"
            );
            for (name, unit) in &want {
                let m = metrics
                    .iter()
                    .find(|(k, _)| k == name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace}: no metric {name}"))
                    .1
                    .clone();
                assert_eq!(
                    m.get("unit").and_then(JsonVal::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let v = m
                    .get("value")
                    .and_then(JsonVal::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{name} = {v}");
            }
            if trace == "1" {
                let fail_rate = metrics
                    .iter()
                    .find(|(k, _)| k == "fail_rate")
                    .expect("fail_rate");
                assert_eq!(
                    fail_rate.1.get("value").and_then(JsonVal::as_f64),
                    Some(0.0)
                );
                let path = root.join(format!(".perfbench/trace-{workload}-seed7.json"));
                let json = std::fs::read_to_string(&path).expect("trace file");
                ft_trace::validate_chrome_trace(&json).expect("valid Chrome trace");
                assert!(
                    stdout.contains("tracing overhead"),
                    "{workload}: no overhead line"
                );
            } else {
                for (name, _) in &want {
                    let v = metrics
                        .iter()
                        .find(|(k, _)| k == name)
                        .and_then(|(_, m)| m.get("value")?.as_f64());
                    assert!(
                        v.is_some_and(|v| v > 0.0),
                        "{workload}: end-to-end {name} must not be 0"
                    );
                }
            }
        }
    }
}
