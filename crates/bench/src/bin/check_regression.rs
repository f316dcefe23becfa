//! Bench-trajectory regression gate, a CLI over `bench::regression`:
//!
//! * `check_regression --snapshot BENCH_serving.json fresh1.json ...`
//!   exits 1 unless the fresh bench files hold exactly the snapshot's
//!   benches and rows, each equal to its snapshot row field for field
//!   (the `sim_speed` row's wall-clock exception is in the library).
//! * `check_regression --write-snapshot BENCH_serving.json fresh1.json ...`
//!   merges per-bin bench files into a new snapshot.
//!
//! Both exit 2, naming the file, on an unreadable or non-JSON file or a
//! malformed bench document: no string `bench`, no array `rows`, a row
//! that is not an object with a string `name`, or a repeated
//! `bench/name` key.

use bench::json::Json;
use bench::regression::{self, Rows};

/// Reports a bad input or output file and exits with status 2.
fn fail(msg: String) -> ! {
    eprintln!("check_regression: {msg}");
    std::process::exit(2);
}

fn read_doc(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(format!("cannot parse {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, snap_path, inputs) = match args.as_slice() {
        [mode, snap, inputs @ ..]
            if !inputs.is_empty()
                && ["--snapshot", "--write-snapshot"].contains(&mode.as_str()) =>
        {
            (mode, snap, inputs)
        }
        _ => fail(
            "usage: check_regression --snapshot <BENCH_serving.json> <fresh.json>...\n\
             \x20      check_regression --write-snapshot <out.json> <fresh.json>..."
                .to_string(),
        ),
    };
    let fresh_docs: Vec<Json> = inputs.iter().map(|p| read_doc(p)).collect();
    let mut fresh = Rows::default();
    for (path, doc) in inputs.iter().zip(&fresh_docs) {
        (fresh.add(doc)).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    }
    if mode == "--write-snapshot" {
        let snapshot = regression::merge_snapshot(fresh_docs.clone());
        std::fs::write(snap_path, snapshot.to_pretty())
            .unwrap_or_else(|e| fail(format!("cannot write {snap_path}: {e}")));
        println!(
            "wrote snapshot {snap_path} ({} benches, {} rows)",
            fresh_docs.len(),
            fresh.count()
        );
        return;
    }
    let snapshot = read_doc(snap_path);
    let benches = (snapshot.get("benches").and_then(Json::as_arr))
        .unwrap_or_else(|| fail(format!("{snap_path}: no array \"benches\"")));
    let mut snap = Rows::default();
    for doc in benches {
        (snap.add(doc)).unwrap_or_else(|e| fail(format!("{snap_path}: {e}")));
    }
    let violations = regression::compare(&snap, &fresh);
    if violations.is_empty() {
        println!(
            "OK: {} rows in {} benches equal the snapshot",
            fresh.count(),
            fresh_docs.len()
        );
    } else {
        eprintln!("REGRESSION GATE FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
