//! `msq` fails loudly: a trace export that cannot be written exits
//! non-zero (CI diffs the exported file against the golden, and a run that
//! printed an error but exited 0 would leave that diff reading a stale or
//! missing file), and an option the subcommand does not take exits 2
//! before any work runs.

use std::process::Command;

#[test]
fn trace_query_exits_nonzero_when_the_jsonl_write_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_msq"))
        .args(["trace", "--jsonl", "/nonexistent/dir/t.jsonl"])
        .output()
        .expect("msq runs");
    assert!(!out.status.success(), "a failed --jsonl write must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to write /nonexistent/dir/t.jsonl"), "{stderr}");
}

#[test]
fn an_unknown_option_exits_2_before_any_work_runs() {
    // `all` would print its worker count first and then run every figure.
    let out = Command::new(env!("CARGO_BIN_EXE_msq"))
        .args(["all", "--jbos", "4"])
        .output()
        .expect("msq runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option `--jbos` for `msq all`"), "{stderr}");
}
