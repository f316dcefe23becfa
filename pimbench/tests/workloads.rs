//! Every workload at its tiny size: every metric `BENCHMARK.json`
//! names is emitted with its unit, every correctness check passes, the
//! traced run writes its spans, and a second seed keeps the modeled
//! metrics within the benchmark's bounds.

use jsonio::Json;
use pimbench::measure::{is_host_metric, Metric, Outcome};
use pimbench::{Options, Size, Workload};
use std::path::PathBuf;

struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<Declared> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| Declared {
            name: m.get("name").and_then(Json::as_str).unwrap().to_string(),
            unit: m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect()
}

fn opts(workload: Workload, seed: u64, trace: bool) -> Options {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{}-seed{seed}-trace.json", workload.name()));
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        trace_out: out,
    }
}

fn run_checked(o: &Options) -> Outcome {
    let out = pimbench::run(o);
    assert!(
        out.correct(),
        "{} seed {}: {:?}",
        o.workload.name(),
        o.seed,
        out.failures
    );
    assert!(out.attempted >= 1);
    assert_eq!(out.failed, 0);
    out
}

fn assert_emits(metrics: &[Metric], declared: &[Declared], what: &str) {
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{what}: emitted {:?}",
        metrics.iter().map(|m| &m.name).collect::<Vec<_>>()
    );
    for d in declared {
        let m = metrics
            .iter()
            .find(|m| m.name == d.name)
            .unwrap_or_else(|| panic!("{what}: {} not emitted", d.name));
        assert_eq!(m.unit, d.unit, "{what}: unit of {}", d.name);
        assert!(m.value.is_finite(), "{what}: {} = {}", d.name, m.value);
    }
}

fn check_workload(workload: Workload) {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");

    let first = run_checked(&opts(workload, 1, false));
    assert_emits(&first.end_to_end, &end_to_end, workload.name());
    for d in &end_to_end {
        let m = first.end_to_end.iter().find(|m| m.name == d.name).unwrap();
        assert!(m.value != 0.0, "{}: {} is zero", workload.name(), d.name);
    }
    let line = Json::parse(&first.result_line(false)).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

    // A second seed: modeled metrics may not be worse by more than the
    // bound the benchmark fixes.
    let second = run_checked(&opts(workload, 2, false));
    for d in end_to_end.iter().filter(|d| !is_host_metric(&d.name)) {
        let a = first
            .end_to_end
            .iter()
            .find(|m| m.name == d.name)
            .unwrap()
            .value;
        let b = second
            .end_to_end
            .iter()
            .find(|m| m.name == d.name)
            .unwrap()
            .value;
        let worse = if d.higher_is_better {
            (a - b) / a
        } else {
            (b - a) / a
        };
        assert!(
            worse <= d.bound,
            "{}: {} moved from {a} to {b} with the seed (bound {})",
            workload.name(),
            d.name,
            d.bound
        );
    }

    let o = opts(workload, 1, true);
    let traced = run_checked(&o);
    assert_emits(&traced.per_layer, &per_layer, workload.name());
    let spans = std::fs::read_to_string(&o.trace_out).expect("span file written");
    let spans = Json::parse(&spans).expect("span file is JSON");
    let events = spans.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("cluster.run")));
    for e in events {
        let args = e.get("args").unwrap();
        assert_eq!(
            args.get("run").and_then(Json::as_str),
            Some(o.run_id().as_str())
        );
    }
    if workload == Workload::FleetOpenLoop {
        for m in traced
            .per_layer
            .iter()
            .filter(|m| m.name.starts_with("pim-mem."))
        {
            assert_eq!(m.value, 0.0, "{} on the fleet", m.name);
        }
    }
    if workload == Workload::PaperLadder {
        let share = traced
            .per_layer
            .iter()
            .find(|m| m.name == "kernel.calibration_share")
            .unwrap();
        assert!(share.value > 0.5, "calibration share {}", share.value);
    }
}

#[test]
fn fleet_open_loop() {
    check_workload(Workload::FleetOpenLoop);
}

#[test]
fn slo_pressure() {
    check_workload(Workload::SloPressure);
}

#[test]
fn paper_ladder() {
    check_workload(Workload::PaperLadder);
}

#[test]
fn declared_workloads_match() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
