//! Study runner: runs each `studies/*.json` grid point by point through
//! `Scenario::materialize` → `Materialized::serve` and prints one line
//! per point, with the winning (TP, PP) for best-factorization studies
//! (the format is documented in `docs/studies.md`).
//!
//! Run with: `cargo run --release -p bench --bin study --
//! studies/*.json` (`--tiny` for the CI smoke grids, `--json <dir>` to
//! write each study's rows as `<dir>/<study>.json`, the bench document
//! the `check_regression` gate reads). A study file that does not parse,
//! a pointer that resolves nowhere, or a spec the scenario codec
//! rejects is reported and exits with status 1.

use bench::cli::BenchArgs;
use bench::study::{PointRun, Study};

fn main() {
    let args = BenchArgs::parse(&["--tiny", "--json"]);
    if args.rest.is_empty() {
        eprintln!("usage: study [--tiny] [--json <dir>] <study.json>...");
        std::process::exit(2);
    }
    let mut failures = 0usize;
    for path in &args.rest {
        if let Err(e) = run(path, &args) {
            eprintln!("\nFAIL {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

fn run(path: &str, args: &BenchArgs) -> Result<(), String> {
    let study = Study::from_file(path)?;
    bench::header(&format!(
        "Study {} ({path}{})",
        study.bench,
        if args.tiny { ", tiny" } else { "" }
    ));
    println!(
        "{:<44} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6}",
        "point",
        "req/s",
        "tok/s",
        "goodput",
        "TTFT p50",
        "TTFT p99",
        "TPOT p50",
        "E2E p99",
        "shed",
        "evict"
    );
    let mut anchor = None;
    let rows = study
        .run(args.tiny, |p: &PointRun| {
            if let Some(rps) = p.anchor_rps.filter(|rps| anchor != Some(*rps)) {
                anchor = Some(rps);
                println!("  (anchor: closed-world capacity {rps:.3} req/s)");
            }
            let Some(run) = &p.run else {
                println!("{:<44} infeasible: no factorization fits", p.name);
                return;
            };
            let r = &run.report;
            let l = &r.latency;
            print!(
                "{:<44} {:>9.3} {:>9.1} {:>9.1} {:>9.3} {:>9.3} {:>9.4} {:>9.3} {:>6} {:>6}",
                p.name,
                p.rate,
                r.tokens_per_second,
                r.goodput(),
                l.ttft.p50,
                l.ttft.p99,
                l.tpot.p50,
                l.e2e.p99,
                r.shed,
                r.evictions,
            );
            if study.best_factorization {
                print!("  {}", run.materialized.evaluator.system().parallel);
            }
            println!();
        })
        .map_err(|e| format!("{path}: {e}"))?;
    if let Some(dir) = &args.json {
        let out = std::path::Path::new(dir).join(format!("{}.json", study.bench));
        bench::write_bench_json(&out.to_string_lossy(), &study.bench, rows);
    }
    Ok(())
}
