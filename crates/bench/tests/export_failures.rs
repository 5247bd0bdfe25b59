//! A trace export that cannot be written fails the process: CI diffs the
//! exported file against the golden, and a run that printed an error but
//! exited 0 would leave that diff reading a stale or missing file.

use std::process::Command;

#[test]
fn trace_query_exits_nonzero_when_the_jsonl_write_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_query"))
        .args(["--jsonl", "/nonexistent/dir/t.jsonl"])
        .output()
        .expect("trace_query runs");
    assert!(!out.status.success(), "a failed --jsonl write must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to write /nonexistent/dir/t.jsonl"), "{stderr}");
}
