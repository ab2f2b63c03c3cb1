//! Tiny-size runs of every workload, untraced and traced: the last
//! stdout line must carry every metric `BENCHMARK.json` names, each with
//! its unit.

use std::path::PathBuf;
use std::process::{Command, Output};

use serde_json::Value;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn pmvbench(args: &[&str], out: &str) -> Output {
    // A directory per invocation: tests run in parallel.
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    Command::new(env!("CARGO_BIN_EXE_pmvbench"))
        .args(args)
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("run pmvbench")
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let spec = spec();
    for workload in spec["workloads"].as_array().expect("workloads") {
        let name = workload["name"].as_str().expect("workload name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = pmvbench(
                &[
                    "--workload",
                    name,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--tiny",
                ],
                &format!("smoke-{name}-{trace}"),
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{name} trace {trace}: {stderr}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("result line is JSON");
            assert!(result["correct"] == true, "{name}: {last}");
            assert!(result["attempted"].as_u64().expect("attempted") >= 1);
            assert!(result["failed"].as_u64().is_some());
            let printed = result["metrics"].as_object().expect("metrics object");
            let wanted = spec[key].as_array().expect("metric list");
            for m in wanted {
                let metric = m["name"].as_str().expect("metric name");
                let got = printed
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name} trace {trace}: {metric} missing"));
                assert!(got["value"].as_f64().is_some(), "{metric}: {last}");
                assert!(got["unit"] == m["unit"].as_str().expect("unit"), "{metric}");
            }
            assert_eq!(
                printed.len(),
                wanted.len(),
                "{name}: extra metrics in {last}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = pmvbench(
        &["--workload", "nope", "--seed", "1", "--seconds", "1"],
        "smoke-bad-args",
    );
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
