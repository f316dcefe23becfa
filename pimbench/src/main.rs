//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path pimbench/Cargo.toml -- \
//!     --workload fleet_open_loop --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the workload's metrics by name with their units, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Exits non-zero when a correctness check fails.

use pimbench::{Options, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pimbench --workload <fleet_open_loop|slo_pressure|paper_ladder> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!(
                        "--seconds must be a nonnegative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    // Next to the build outputs, which version control ignores.
    let trace_out = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("pimbench/target"), PathBuf::from)
        .join("pimbench-traces")
        .join(format!("{}-seed{seed}.json", workload.name()));
    Ok(Options {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: Size::Full,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = pimbench::run(&opts);
    println!(
        "pimbench {} seed {} ({} host threads available, {})",
        opts.workload.name(),
        opts.seed,
        pimbench::routing::host_threads(),
        if opts.trace { "traced" } else { "untraced" },
    );
    for line in &out.remarks {
        println!("  {line}");
    }
    let kind = |m: &pimbench::measure::Metric| {
        if pimbench::measure::is_host_metric(&m.name) {
            "host"
        } else {
            "simulated"
        }
    };
    for (group, metrics) in [
        ("end-to-end", &out.end_to_end),
        ("per-layer", &out.per_layer),
        ("printed only", &out.notes),
    ] {
        for m in metrics {
            println!(
                "  {group:<12} {:<9} {:<32} {:>16} {}",
                kind(m),
                m.name,
                format!("{:.6}", m.value),
                m.unit
            );
        }
    }
    if opts.trace && out.correct() {
        println!("  spans written to {}", opts.trace_out.display());
    }
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
    }
    println!("{}", out.result_line(opts.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
