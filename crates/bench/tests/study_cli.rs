//! The `study` runner end to end: every checked-in `studies/*.json`
//! tiny grid reproduces the `BENCH_serving.json` snapshot rows, and bad
//! input — a malformed study, a mistyped switch — exits with a message
//! naming it instead of panicking or being silently ignored.

use bench::json::Json;
use bench::regression::{compare, Rows};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The benches the checked-in studies write: the stems of
/// `studies/*.json`, sorted.
fn studies() -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(repo_root().join("studies"))
        .expect("read studies/")
        .map(|e| e.expect("studies/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect();
    stems.sort();
    stems
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("spawn bench binary")
}

/// Each row's name and key list, in order.
fn shape(bench: &Json) -> Vec<(String, Vec<String>)> {
    bench
        .get("rows")
        .and_then(Json::as_arr)
        .expect("rows")
        .iter()
        .map(|row| {
            let Json::Obj(pairs) = row else {
                panic!("row is not an object: {row:?}")
            };
            let name = row.get("name").and_then(Json::as_str).expect("row name");
            (
                name.to_string(),
                pairs.iter().map(|(k, _)| k.clone()).collect(),
            )
        })
        .collect()
}

#[test]
fn tiny_studies_reproduce_the_snapshot() {
    let out_dir = scratch("study-json");
    let _ = std::fs::remove_dir_all(&out_dir);
    let studies = studies();
    assert!(studies.len() >= 12, "{studies:?}");
    let mut args = vec!["--tiny", "--json", out_dir.to_str().expect("utf-8 path")];
    let files: Vec<String> = studies
        .iter()
        .map(|b| format!("studies/{b}.json"))
        .collect();
    args.extend(files.iter().map(String::as_str));
    let out = run(env!("CARGO_BIN_EXE_study"), &args);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let snapshot = read(&repo_root().join("BENCH_serving.json"));
    let fresh: Vec<Json> = studies
        .iter()
        .map(|b| read(&out_dir.join(format!("{b}.json"))))
        .collect();
    let benches = snapshot
        .get("benches")
        .and_then(Json::as_arr)
        .expect("benches");
    // The snapshot restricted to the study benches: the other benches
    // come from other binaries.
    let pinned = benches.iter().filter(|b| {
        let name = b.get("bench").and_then(Json::as_str);
        studies.iter().any(|s| Some(s.as_str()) == name)
    });
    let pinned = Rows::of(pinned).expect("valid snapshot");
    let fresh_rows = Rows::of(&fresh).expect("valid study output");
    assert!(fresh_rows.count() > 0);
    let violations = compare(&pinned, &fresh_rows);
    assert!(violations.is_empty(), "{violations:#?}");

    for (bench, doc) in studies.iter().zip(&fresh) {
        assert_eq!(
            doc.get("bench").and_then(Json::as_str),
            Some(bench.as_str())
        );
        let pinned = benches
            .iter()
            .find(|b| b.get("bench").and_then(Json::as_str) == Some(bench.as_str()))
            .unwrap_or_else(|| panic!("{bench} missing from the snapshot"));
        assert_eq!(
            shape(doc),
            shape(pinned),
            "{bench}: row names or keys drifted"
        );
    }
}

/// Writes a study whose tiny block sets `pointer`, runs it, and
/// returns the output.
fn study_setting(file: &str, pointer: &str) -> Output {
    let path = scratch(file);
    let text = format!(
        r#"{{"base": {{"model": "LLM-7B-32K",
              "workload": [{{"name": "t", "dataset": "QMSum", "requests": 2}}]}},
            "axes": [{{"name": "a", "values": [{{"label": "x"}}]}}],
            "tiny": {{"set": {{"{pointer}": "none"}}}}}}"#
    );
    std::fs::write(&path, text).expect("write study");
    run(
        env!("CARGO_BIN_EXE_study"),
        &["--tiny", path.to_str().expect("utf-8 path")],
    )
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn pointer_that_resolves_nowhere_exits_1() {
    let out = study_setting("bad_pointer.json", "/polices/router");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr(&out).contains("JSON pointer /polices/router resolves nowhere"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn misspelled_knob_exits_1_with_the_codec_suggestion() {
    let out = study_setting("bad_knob.json", "/policies/preemptoin");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr(&out).contains("did you mean \"preemption\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn invalid_study_json_exits_1() {
    let path = scratch("not_json.json");
    std::fs::write(&path, "{\"base\": ").expect("write study");
    let out = run(env!("CARGO_BIN_EXE_study"), &[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stderr(&out).contains("invalid JSON"), "{}", stderr(&out));
}

#[test]
fn unknown_switches_and_bad_thread_counts_exit_2() {
    for (bin, args, message) in [
        (
            env!("CARGO_BIN_EXE_study"),
            &["--tnyi", "studies/latency_curve.json"][..],
            "unknown switch --tnyi",
        ),
        (
            env!("CARGO_BIN_EXE_sim_speed"),
            &["--tnyi"][..],
            "unknown switch --tnyi",
        ),
        (
            env!("CARGO_BIN_EXE_sim_speed"),
            &["--threads", "x"][..],
            "--threads requires an integer, got \"x\"",
        ),
        (
            env!("CARGO_BIN_EXE_sim_speed"),
            &["--threads"][..],
            "--threads requires a value",
        ),
        (
            env!("CARGO_BIN_EXE_scenario_check"),
            &["--tiny", "scenarios/two_tenant.json"][..],
            "unknown switch --tiny",
        ),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(stderr(&out).contains(message), "{args:?}: {}", stderr(&out));
    }
}
