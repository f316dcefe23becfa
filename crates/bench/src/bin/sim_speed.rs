//! Simulator-throughput bench: how fast the simulator itself runs.
//!
//! Times one large checked-in scenario
//! (`scenarios/perf/sim_speed_100k.json`: 100k requests over a
//! 100-replica cluster) end-to-end through the cluster layer and
//! reports **simulated requests per second** — completed requests
//! divided by the wall-clock seconds of the simulation. Wall-clock
//! alone would couple the row to the scenario size; simulated-req/s is
//! the size-independent rate the regression gate can pin.
//!
//! Switches:
//!
//! * `--scenario <file.json>` — the spec to time (default
//!   `scenarios/perf/sim_speed_100k.json`).
//! * `--json <path>` — write the timing row.
//! * `--threads N` — override the spec's simulation thread count
//!   (results are byte-identical whatever the count; only the wall
//!   clock moves).
//! * `--check-determinism` — additionally run the scenario on one
//!   thread and assert the two [`system::ServingReport`]s are equal,
//!   the acceptance check for the multi-threaded path.
//!
//! `--tiny` divides every tenant's request count by 64 (CI smoke
//! sizing) and suffixes the row name with `/tiny`, so the full-size
//! row and the CI row never collide in `BENCH_serving.json`.

use bench::cli::{file_stem, BenchArgs};
use bench::{header, push_row_field, serving_row, write_bench_json};
use std::time::Instant;
use system::{Materialized, Scenario, ServingReport};

const DEFAULT_SCENARIO: &str = "scenarios/perf/sim_speed_100k.json";
const TINY_DIVISOR: usize = 64;

fn main() {
    let args = BenchArgs::parse(&[
        "--tiny",
        "--json",
        "--scenario",
        "--threads",
        "--check-determinism",
    ]);
    let path = args
        .scenario
        .clone()
        .unwrap_or_else(|| DEFAULT_SCENARIO.to_string());
    let mut scenario = Scenario::from_file(&path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    if args.tiny {
        for t in &mut scenario.workload {
            t.requests = (t.requests / TINY_DIVISOR).max(1);
        }
    }
    if let Some(n) = args.threads {
        scenario.cluster.threads = n;
    }

    let mut m = scenario.materialize().unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let replicas: u32 = if m.pools.is_empty() {
        m.evaluator.system().replicas()
    } else {
        m.pools
            .iter()
            .map(|p| p.evaluator.system().replicas())
            .sum()
    };
    header(&format!(
        "Simulator speed: {} requests over {} replicas ({}, {} router, threads {})",
        m.trace.len(),
        replicas,
        scenario.policies.scheduling,
        m.router.label(),
        m.threads,
    ));

    let threads = m.threads;
    let (report, wall) = timed_run(&m);
    let completed = report.latency.completed;
    let sim_rps = if wall > 0.0 {
        completed as f64 / wall
    } else {
        0.0
    };
    println!(
        "{completed} requests in {wall:.2}s wall = {sim_rps:.0} simulated req/s \
         ({:.2} simulated seconds, {:.1} tok/s simulated)",
        report.seconds, report.tokens_per_second,
    );

    if args.check_determinism {
        m.threads = 1;
        let (sequential, seq_wall) = timed_run(&m);
        assert_eq!(
            sequential, report,
            "threads=1 and threads={threads} reports must be byte-identical"
        );
        println!("determinism: threads=1 ({seq_wall:.2}s) matches threads={threads} byte-for-byte");
    }

    if let Some(json_path) = &args.json {
        let stem = file_stem(&path);
        let name = if args.tiny {
            format!("{stem}/tiny")
        } else {
            stem
        };
        let rate = m.trace.offered_rate().unwrap_or(0.0);
        let mut row = serving_row(&name, rate, &report);
        push_row_field(&mut row, "wall_seconds", bench::json::Json::num(wall));
        push_row_field(
            &mut row,
            "sim_requests_per_second",
            bench::json::Json::num(sim_rps),
        );
        write_bench_json(json_path, "sim_speed", vec![row]);
    }
}

/// Runs the materialized scenario through [`Materialized::run`] on its
/// `threads`, timing only that call (trace generation and evaluator
/// compilation are outside the clock).
fn timed_run(m: &Materialized) -> (ServingReport, f64) {
    // Wall-clock timing is this binary's whole purpose.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let report = m.run();
    (report, t0.elapsed().as_secs_f64())
}
