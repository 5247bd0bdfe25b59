//! Drives the built binary the way the suite and the driver do.

use std::process::Command;

use sim_obs::JsonValue;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_msq-benchmark"))
}

/// `--smoke`: all six workloads at tiny sizes, untraced and traced, with
/// every verifier on, twice over with the repeat check.
#[test]
fn smoke_suite_passes_and_repeats() {
    let out = bin()
        .args(["--smoke", "--repeat-check", "--seed", "11"])
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke suite failed:\n{stdout}");
    assert!(stdout.contains("# suite ok"));
    for w in
        ["local_scan", "manet_dense", "manet_wide", "monitor_churn", "serve_read", "serve_write"]
    {
        assert!(stdout.contains(&format!("{w:<14} ops_attempted=")), "{w} did not report");
        let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/out/");
        let text = std::fs::read_to_string(format!("{trace}{w}.trace.jsonl")).expect("trace file");
        assert!(text.lines().all(|l| JsonValue::parse(l).is_ok()), "{w} trace is JSON lines");
        assert!(text.contains("\"type\": \"span\""));
    }
    // Layer separation: a workload without a network prints no manet line.
    assert!(!stdout.lines().any(|l| l.starts_with("local_scan") && l.contains(" manet.")));
    assert!(!stdout.lines().any(|l| l.starts_with("serve_") && l.contains(" manet.")));
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("manet_wide") && l.contains(" manet.aodv.frames")));
}

/// The driver's call: the last line is the result object, with exactly
/// the end-to-end metrics untraced and the per-layer ones traced.
#[test]
fn driver_call_prints_the_result_object_last() {
    for (trace, present, absent) in
        [("0", "wall_s", "dist.serve.lookups"), ("1", "dist.serve.lookups", "wall_s")]
    {
        let out = bin()
            .args([
                "--workload",
                "serve_read",
                "--seed",
                "5",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ])
            .output()
            .expect("runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = JsonValue::parse(stdout.lines().last().expect("output")).expect("result object");
        let keys: Vec<&str> =
            last.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert!(last.get("attempted").and_then(JsonValue::as_u64).expect("attempted") >= 1);
        let metrics = last.get("metrics").expect("metrics");
        assert!(metrics.get(present).is_some(), "{present} missing with --trace {trace}");
        assert!(metrics.get(absent).is_none(), "{absent} present with --trace {trace}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = bin().args(["--workload", "nope"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
