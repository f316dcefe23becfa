//! One path from a spec to a report: every checked-in
//! `scenarios/**/*.json` is canonical (byte-identical to its own
//! re-serialization) and produces the same `ServingReport` through each
//! public entry point — `Materialized::run` at 1 and 2 threads and
//! `Materialized::serve` of that trace through a fresh materialization
//! at the spec's own thread count — pools, router calibration and all.

use pimphony::Scenario;
use std::path::{Path, PathBuf};

/// `sim_speed --tiny`'s request divisor, applied to the perf specs.
const TINY_DIVISOR: usize = 64;

/// Every `.json` file under `dir`, recursively, in sorted order.
fn spec_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(spec_files(&path));
        } else if path.extension().is_some_and(|x| x == "json") {
            out.push(path);
        }
    }
    out
}

#[test]
fn every_spec_is_canonical() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let specs = spec_files(&root);
    assert!(specs.len() >= 8, "found only {specs:?}");
    for path in specs {
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let spec = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            spec.to_pretty(),
            text,
            "{}: spec must be canonical (run scenario_check --canonicalize)",
            path.display()
        );
    }
}

#[test]
fn every_spec_reports_identically_through_every_entry_point() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let specs = spec_files(&root);
    assert!(specs.len() >= 8, "found only {specs:?}");
    for path in specs {
        let name = path.strip_prefix(&root).unwrap().display().to_string();
        let mut spec = Scenario::from_file(path.to_str().unwrap()).expect("spec parses");
        if name.starts_with("perf") {
            for t in &mut spec.workload {
                t.requests = (t.requests / TINY_DIVISOR).max(1);
            }
        }
        let mut m = spec.materialize().expect("spec materializes");
        m.threads = 1;
        let sequential = m.run();
        assert_eq!(
            sequential.latency.completed + sequential.shed,
            m.trace.len() as u64,
            "{name}"
        );
        m.threads = 2;
        assert_eq!(
            m.run(),
            sequential,
            "{name}: Materialized::run at 2 threads"
        );
        let fresh = spec.materialize().expect("materialize");
        assert_eq!(
            fresh.serve(&m.trace),
            sequential,
            "{name}: Materialized::serve"
        );
    }
}
