//! `check_regression` on good and bad input: the snapshot's benches,
//! written out one file each, pass; any change to a row, in either
//! direction, or a missing bench fails the gate (status 1); and an
//! unreadable, non-JSON or malformed file exits with status 2 and a
//! message naming it — the process never panics.

use bench::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file)
}

fn snapshot() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serving.json")
}

fn run(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_check_regression"))
        .args(args)
        .output()
        .expect("run check_regression")
}

/// Runs `check_regression --snapshot BENCH_serving.json <fresh>...`.
fn check(fresh: &[PathBuf]) -> Output {
    let snap = snapshot();
    let mut args = vec![Path::new("--snapshot"), &snap];
    args.extend(fresh.iter().map(PathBuf::as_path));
    run(&args)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The snapshot's bench documents, as `--json` would write them.
fn benches() -> Vec<Json> {
    let text = std::fs::read_to_string(snapshot()).expect("read snapshot");
    let doc = Json::parse(&text).expect("snapshot parses");
    doc.get("benches")
        .and_then(Json::as_arr)
        .expect("benches")
        .to_vec()
}

/// Writes each document to `<dir>/<i>.json` and returns the paths.
fn write_all(dir: &str, docs: &[Json]) -> Vec<PathBuf> {
    let dir = scratch(dir);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    (docs.iter().enumerate())
        .map(|(i, doc)| {
            let path = dir.join(format!("{i}.json"));
            std::fs::write(&path, doc.to_pretty()).expect("write bench");
            path
        })
        .collect()
}

/// The snapshot's benches with the first row's throughput scaled.
fn with_throughput(factor: f64) -> Vec<Json> {
    let mut docs = benches();
    let tput = docs[0]
        .get("rows")
        .and_then(Json::as_arr)
        .and_then(|rows| rows[0].get("tokens_per_second"))
        .and_then(Json::as_f64)
        .expect("first row has tokens_per_second");
    docs[0]
        .set_pointer("/rows/0/tokens_per_second", Json::num(tput * factor))
        .expect("set throughput");
    docs
}

#[test]
fn snapshot_rows_pass_and_a_throughput_drop_fails() {
    let out = check(&write_all("same", &benches()));
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let out = check(&write_all("slow", &with_throughput(0.5)));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr(&out).contains("tokens_per_second"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn a_one_field_improvement_fails() {
    let out = check(&write_all("fast", &with_throughput(1.001)));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr(&out).contains("tokens_per_second"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn a_missing_bench_fails() {
    let mut docs = benches();
    let gone = docs.pop().expect("a bench");
    let out = check(&write_all("missing", &docs));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let bench = gone.get("bench").and_then(Json::as_str).expect("bench");
    assert!(
        stderr(&out).contains(&format!(
            "{bench}: in the snapshot but missing from the fresh set"
        )),
        "{}",
        stderr(&out)
    );
}

#[test]
fn missing_input_exits_2_naming_the_file() {
    let missing = scratch("no_such_bench.json");
    let out = check(std::slice::from_ref(&missing));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        stderr(&out).contains(&format!("cannot read {}", missing.display())),
        "{}",
        stderr(&out)
    );
}

#[test]
fn non_json_input_exits_2_naming_the_file() {
    let garbage = scratch("garbage_bench.json");
    std::fs::write(&garbage, "not json {").expect("write garbage");
    let out = check(std::slice::from_ref(&garbage));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        stderr(&out).contains(&format!("cannot parse {}", garbage.display())),
        "{}",
        stderr(&out)
    );
}

/// Writes `text` to a scratch file named after `case`.
fn malformed(case: &str, text: &str) -> PathBuf {
    let path = scratch(&format!("malformed_{case}.json"));
    std::fs::write(&path, text).expect("write bench");
    path
}

#[test]
fn malformed_fresh_documents_exit_2_naming_the_file_in_both_modes() {
    let row = r#"{"bench": "b", "rows": [{"name": "r", "value": 1}]}"#;
    for (case, docs, message) in [
        ("no_bench", &[r#"{"foo": 1}"#][..], "no string \"bench\""),
        (
            "rows_not_array",
            &[r#"{"bench": "fig13", "rows": {"x": 1}}"#],
            "bench fig13: no array \"rows\"",
        ),
        (
            "row_not_object",
            &[r#"{"bench": "b", "rows": [1]}"#],
            "bench b: a row is not an object with a string \"name\"",
        ),
        (
            "row_without_name",
            &[r#"{"bench": "b", "rows": [{"value": 1}]}"#],
            "bench b: a row is not an object with a string \"name\"",
        ),
        (
            "repeat_in_a_file",
            &[r#"{"bench": "b", "rows": [{"name": "r"}, {"name": "r"}]}"#],
            "row b/r repeats",
        ),
        ("repeat_across_files", &[row, row], "row b/r repeats"),
    ] {
        let paths: Vec<PathBuf> = (docs.iter().enumerate())
            .map(|(i, text)| malformed(&format!("{case}_{i}"), text))
            .collect();
        let named = format!("{}: {message}", paths.last().expect("a file").display());
        let out = check(&paths);
        assert_eq!(out.status.code(), Some(2), "{case}: {out:?}");
        assert!(stderr(&out).contains(&named), "{case}: {}", stderr(&out));

        let written = scratch(&format!("malformed_{case}_snapshot.json"));
        let _ = std::fs::remove_file(&written);
        let mut args = vec![Path::new("--write-snapshot"), &written];
        args.extend(paths.iter().map(PathBuf::as_path));
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{case}: {out:?}");
        assert!(stderr(&out).contains(&named), "{case}: {}", stderr(&out));
        assert!(!written.exists(), "{case}: wrote {}", written.display());
    }
}

#[test]
fn a_repeated_snapshot_row_exits_2_naming_the_snapshot() {
    let row = r#"{"bench": "b", "rows": [{"name": "r"}]}"#;
    let snap = malformed(
        "repeat_snapshot",
        &format!(r#"{{"benches": [{row}, {row}]}}"#),
    );
    let fresh = malformed("repeat_snapshot_fresh", row);
    let out = run(&[Path::new("--snapshot"), &snap, &fresh]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let named = format!("{}: row b/r repeats", snap.display());
    assert!(stderr(&out).contains(&named), "{}", stderr(&out));
}
