//! Scenario validator and runner: parse + materialize + run every spec
//! file given on the command line.
//!
//! CI points this at the checked-in `scenarios/*.json` so a spec that
//! stops parsing, stops materializing, or silently drifts cannot land:
//! each file is loaded through `system::scenario`, run end-to-end
//! through the cluster layer, and reported with its per-tenant p99
//! TTFT, SLO attainment, and Jain tenant fairness. With `--json <path>`
//! the runs are recorded as a `scenarios` bench document whose rows the
//! `check_regression` gate pins against `BENCH_serving.json` — the
//! multi-tenant serving trajectory rides the same gate as the sweeps.
//!
//! Run with: `cargo run --release -p bench --bin scenario_check --
//! scenarios/*.json [--json <out.json>]`. With `--canonicalize` each
//! file is first rewritten to the serializer's canonical form (the
//! byte-for-byte round-trip the spec tests enforce) — run it after
//! adding a `PolicySpec` knob so the checked-in files pick up the new
//! key.

use bench::cli::{self, BenchArgs};
use system::Scenario;

fn main() {
    let args = BenchArgs::parse(&["--json", "--canonicalize"]);
    let files = &args.rest;
    if files.is_empty() {
        eprintln!("usage: scenario_check [--canonicalize] <scenario.json>... [--json <out.json>]");
        std::process::exit(2);
    }
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for path in files {
        if args.canonicalize {
            match Scenario::from_file(path) {
                Ok(s) => {
                    std::fs::write(path, s.to_pretty())
                        .unwrap_or_else(|e| panic!("cannot rewrite {path}: {e}"));
                    println!("canonicalized {path}");
                }
                Err(e) => {
                    eprintln!("\nFAIL {path}: {e}");
                    failures += 1;
                    continue;
                }
            }
        }
        match cli::run_scenario_file(path) {
            Ok((m, report)) => {
                rows.extend(cli::scenario_rows(&cli::file_stem(path), &m, &report));
            }
            Err(e) => {
                eprintln!("\nFAIL {path}: {e}");
                failures += 1;
            }
        }
    }
    println!("\n{} scenario(s) checked, {failures} failed", files.len());
    if let Some(path) = &args.json {
        bench::write_bench_json(path, "scenarios", rows);
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
