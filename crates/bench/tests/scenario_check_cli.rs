//! `scenario_check` on hostile spec files: every bad input is reported
//! and exits with status 1 — the process never aborts.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `text` to a scratch spec file and runs `scenario_check` on it.
fn check(file: &str, text: &str) -> Output {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, text).expect("write spec");
    Command::new(env!("CARGO_BIN_EXE_scenario_check"))
        .arg(&path)
        .output()
        .expect("run scenario_check")
}

#[test]
fn deeply_nested_spec_exits_nonzero_without_aborting() {
    // Unbounded recursive descent would overflow its stack on 100,000
    // open brackets.
    let out = check("deeply_nested.json", &"[".repeat(100_000));
    // `code()` is `None` when a signal (a stack-overflow abort) ended
    // the process.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nesting deeper than 128 levels"),
        "{stderr}"
    );
}

#[test]
fn misspelled_key_exits_nonzero_with_a_suggestion() {
    let out = check(
        "misspelled_key.json",
        r#"{"model": "LLM-7B-32K", "policies": {"preemptoin": "evict-pause"},
            "workload": [{"name": "t", "dataset": "QMSum", "requests": 2}]}"#,
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean \"preemption\""), "{stderr}");
}
