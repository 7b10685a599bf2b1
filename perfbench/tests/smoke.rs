//! Every workload at smoke size, untraced and traced, with every output
//! check on; the metrics each run reports are exactly the ones
//! `BENCHMARK.json` declares.

use std::process::Command;

/// Metric names declared in `BENCHMARK.json` under `section`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &text[start..];
    let end = rest.find(']').expect("section closes");
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// Metric names in a result line, in order.
fn reported(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics present")..];
    let pieces: Vec<&str> = metrics.split(": {\"value\"").collect();
    // Every piece but the last ends with the quoted name of the metric whose
    // value follows it.
    pieces[..pieces.len() - 1]
        .iter()
        .map(|s| {
            let end = s.rfind('"').expect("name closes");
            let start = s[..end].rfind('"').expect("name opens");
            s[start + 1..end].to_string()
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_the_declared_metrics() {
    for workload in ["cold_translate", "zipf_logged", "restart_100x"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = stdout.lines().last().expect("a result line");
            assert!(result.starts_with("{\"correct\": true,"), "{result}");
            assert_eq!(
                reported(result),
                declared(section),
                "{workload} trace={trace}"
            );
        }
    }
}

#[test]
fn unknown_arguments_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
