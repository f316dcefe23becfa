//! `check_regression` on good and bad input: a snapshot row compared
//! with itself passes, a throughput drop fails the gate (status 1), and
//! an unreadable or non-JSON file exits with status 2 and a message
//! naming it — the process never panics.

use bench::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file)
}

fn snapshot() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serving.json")
}

/// Runs `check_regression --snapshot BENCH_serving.json <fresh>`.
fn check(fresh: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_check_regression"))
        .arg("--snapshot")
        .arg(snapshot())
        .arg(fresh)
        .output()
        .expect("run check_regression")
}

/// The snapshot's first bench document, as `--json` would write it.
fn first_bench() -> Json {
    let text = std::fs::read_to_string(snapshot()).expect("read snapshot");
    let doc = Json::parse(&text).expect("snapshot parses");
    doc.get("benches").and_then(Json::as_arr).expect("benches")[0].clone()
}

#[test]
fn snapshot_rows_pass_and_a_throughput_drop_fails() {
    let bench = first_bench();
    let same = scratch("same_bench.json");
    std::fs::write(&same, bench.to_pretty()).expect("write bench");
    let out = check(&same);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let mut slow = bench;
    let tput = slow
        .get("rows")
        .and_then(Json::as_arr)
        .and_then(|rows| rows[0].get("tokens_per_second"))
        .and_then(Json::as_f64)
        .expect("first row has tokens_per_second");
    slow.set_pointer("/rows/0/tokens_per_second", Json::num(tput * 0.5))
        .expect("set throughput");
    let slow_path = scratch("slow_bench.json");
    std::fs::write(&slow_path, slow.to_pretty()).expect("write bench");
    let out = check(&slow_path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("throughput dropped"), "{stderr}");
}

#[test]
fn missing_input_exits_2_naming_the_file() {
    let missing = scratch("no_such_bench.json");
    let out = check(&missing);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot read {}", missing.display())),
        "{stderr}"
    );
}

#[test]
fn non_json_input_exits_2_naming_the_file() {
    let garbage = scratch("garbage_bench.json");
    std::fs::write(&garbage, "not json {").expect("write garbage");
    let out = check(&garbage);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot parse {}", garbage.display())),
        "{stderr}"
    );
}
