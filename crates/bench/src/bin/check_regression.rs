//! Bench-trajectory regression gate (offline-friendly CLI over
//! `bench::regression`).
//!
//! Two modes:
//!
//! * `check_regression --snapshot BENCH_serving.json fresh1.json ...`
//!   — compares freshly produced `--json` bench files against the
//!   checked-in snapshot. Exits nonzero if any bench's throughput
//!   dropped more than 5% or its p99 TTFT rose more than 5%, or if
//!   rows were silently added/renamed/dropped (regenerate the snapshot
//!   in that case).
//! * `check_regression --write-snapshot BENCH_serving.json fresh1.json ...`
//!   — merges per-bin bench files into a new snapshot.
//!
//! CI runs the `--tiny` serving benches with `--json` and gates on the
//! snapshot; the same two commands reproduce the gate locally with no
//! network or services. An unreadable or malformed file exits with
//! status 2, naming the file.

use bench::json::Json;
use bench::regression;

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
    match args.split_first() {
        Some((mode, rest)) if mode == "--write-snapshot" && rest.len() >= 2 => {
            let (out, inputs) = rest.split_first().expect("output path then inputs");
            let benches: Vec<Json> = inputs.iter().map(|p| read_doc(p)).collect();
            let names: Vec<&str> = benches
                .iter()
                .filter_map(|b| b.get("bench").and_then(Json::as_str))
                .collect();
            std::fs::write(out, regression::merge_snapshot(benches.clone()).to_pretty())
                .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
            println!(
                "wrote snapshot {out} ({} benches: {})",
                names.len(),
                names.join(", ")
            );
        }
        Some((mode, rest)) if mode == "--snapshot" && rest.len() >= 2 => {
            let (snap_path, inputs) = rest.split_first().expect("snapshot path then inputs");
            let snapshot = read_doc(snap_path);
            let fresh: Vec<Json> = inputs.iter().map(|p| read_doc(p)).collect();
            let (deltas, violations) = regression::compare(&snapshot, &fresh);
            println!(
                "{:<44} {:>12} {:>12} {:>10} {:>10}",
                "bench/row", "tok/s snap", "tok/s now", "p99 snap", "p99 now"
            );
            for d in &deltas {
                println!(
                    "{:<44} {:>12.3} {:>12.3} {:>10.4} {:>10.4}",
                    d.key, d.tokens_per_second.0, d.tokens_per_second.1, d.ttft_p99.0, d.ttft_p99.1,
                );
            }
            if violations.is_empty() {
                println!(
                    "\nOK: {} rows within tolerance (throughput drop < {:.0}%, p99 TTFT rise < {:.0}%)",
                    deltas.len(),
                    regression::MAX_THROUGHPUT_DROP * 100.0,
                    regression::MAX_TTFT_RISE * 100.0,
                );
            } else {
                eprintln!("\nREGRESSION GATE FAILED:");
                for v in &violations {
                    eprintln!("  - {v}");
                }
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!(
                "usage: check_regression --snapshot <BENCH_serving.json> <fresh.json>...\n\
                 \x20      check_regression --write-snapshot <out.json> <fresh.json>..."
            );
            std::process::exit(2);
        }
    }
}
