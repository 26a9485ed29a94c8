//! The benchmark's own check: every workload, untraced and traced, on
//! tiny lists, twice with one seed. `--smoke` fails unless every
//! metric and unit named in `BENCHMARK.json` is reported, every answer
//! passes the correctness gate, and every deterministic field (cost
//! ratios, success and provenance rates, cache, DP and ladder counts,
//! and the answers themselves) repeats exactly across the two runs.

use std::process::Command;

#[test]
fn smoke_runs_are_complete_correct_and_repeatable() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .output()
        .expect("run perfbench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "smoke failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("smoke: ok"), "{stdout}");
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed on failure");
}
