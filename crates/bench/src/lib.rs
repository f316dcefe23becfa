//! Shared helpers for the experiment binaries.
//!
//! * `src/bin/fig*.rs`, `src/bin/table*.rs` regenerate the tables and
//!   figures of the PIMphony paper (README.md lists them);
//! * `study` runs the sweeps written as data (`studies/*.json`, see
//!   [`study`] and `docs/studies.md`): every serving sweep and the
//!   Fig. 13/14/15 technique ladders;
//! * `scenario_check`, `sim_speed` and `check_regression` validate
//!   specs, time the simulator and gate fresh rows against
//!   `BENCH_serving.json`.

pub use jsonio as json;

pub mod cli;
pub mod regression;
pub mod study;

use json::Json;
use llm_model::ModelConfig;
use system::{Evaluator, ServingReport};
use workload::{Dataset, Trace, TraceBuilder};

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// One machine-readable result row for a serving run: the identifying
/// name, the offered rate, and the metrics the regression gate and the
/// perf trajectory track (throughput, latency percentiles,
/// prefill/eviction counters). Extend with `push_row_field` for
/// bench-specific columns.
pub fn serving_row(name: &str, rate: f64, r: &ServingReport) -> Json {
    let l = &r.latency;
    Json::obj([
        ("name", Json::str(name)),
        ("rate_rps", Json::num(rate)),
        ("tokens_per_second", Json::num(r.tokens_per_second)),
        ("tokens", Json::num(r.tokens as f64)),
        ("completed", Json::num(l.completed as f64)),
        ("ttft_p50", Json::num(l.ttft.p50)),
        ("ttft_p95", Json::num(l.ttft.p95)),
        ("ttft_p99", Json::num(l.ttft.p99)),
        ("tpot_p50", Json::num(l.tpot.p50)),
        ("tpot_p99", Json::num(l.tpot.p99)),
        ("e2e_p50", Json::num(l.e2e.p50)),
        ("e2e_p95", Json::num(l.e2e.p95)),
        ("e2e_p99", Json::num(l.e2e.p99)),
        ("queueing_p50", Json::num(l.queueing.p50)),
        ("prefill_p50", Json::num(l.prefill.p50)),
        ("prefill_tokens", Json::num(r.prefill_tokens as f64)),
        ("evictions", Json::num(r.evictions as f64)),
        (
            "wasted_prefill_tokens",
            Json::num(r.wasted_prefill_tokens as f64),
        ),
        (
            "wasted_decode_tokens",
            Json::num(r.wasted_decode_tokens as f64),
        ),
        ("restart_seconds", Json::num(r.restart_seconds)),
    ])
}

/// Appends a bench-specific field to a row built by [`serving_row`].
pub fn push_row_field(row: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = row {
        pairs.push((key.to_string(), value));
    }
}

/// Row collector giving any bench binary a `--json <path>` mode.
///
/// Figure/table binaries record each printed number as a named scalar
/// (`metric`); on [`MetricSink::finish`] the rows are written as the
/// standard `{"bench": ..., "rows": [...]}` document if `--json` was
/// passed, and discarded otherwise — so instrumenting a binary costs
/// nothing when the flag is absent. Scalar rows carry only
/// `name`/`value` keys; CI pins every paper binary's rows in
/// `BENCH_serving.json`, and the regression gate compares each exactly.
pub struct MetricSink {
    bench: &'static str,
    path: Option<String>,
    rows: Vec<Json>,
}

impl MetricSink {
    /// Creates a sink for `bench`, reading `--json` — the only switch
    /// the figure and table binaries accept — from the process
    /// arguments.
    pub fn new(bench: &'static str) -> Self {
        MetricSink {
            bench,
            path: cli::BenchArgs::parse(&["--json"]).json,
            rows: Vec::new(),
        }
    }

    /// Records one named scalar result.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.rows.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(name.into())),
            ("value".to_string(), Json::num(value)),
        ]));
    }

    /// Writes the collected rows if `--json` was requested.
    pub fn finish(self) {
        if let Some(path) = self.path {
            write_bench_json(&path, self.bench, self.rows);
        }
    }
}

/// Writes one bench's rows as a `{"bench": ..., "rows": [...]}` JSON
/// document (creating parent directories as needed) and reports the
/// path on stdout.
pub fn write_bench_json(path: &str, bench: &str, rows: Vec<Json>) {
    let doc = Json::obj([("bench", Json::str(bench)), ("rows", Json::Arr(rows))]);
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create --json parent directory");
        }
    }
    std::fs::write(path, doc.to_pretty()).expect("write --json output");
    println!("\nwrote {bench} results to {path}");
}

/// End-to-end serving capacity of a cluster: the closed-world (wave)
/// run of `trace` through `eval` — prefill included whenever the
/// evaluator has it enabled, so online sweeps anchored on this rate use
/// the same cost model they measure. Returns the closed-world report
/// together with the capacity in requests/second. A study's `anchor`
/// measures its load axis with it.
pub fn closed_world_capacity(eval: &Evaluator, trace: &Trace) -> (ServingReport, f64) {
    let closed = eval.run_trace(trace);
    let rps = trace.len() as f64 / closed.seconds.max(f64::MIN_POSITIVE);
    (closed, rps)
}

/// The standard evaluation trace for a dataset (small but representative;
/// seeds are fixed for reproducibility).
pub fn trace_for(dataset: Dataset, requests: usize, decode_len: u64) -> Trace {
    TraceBuilder::new(dataset)
        .seed(2026)
        .requests(requests)
        .decode_len(decode_len)
        .build()
}

/// The models the evaluation sweeps (Table I).
pub fn eval_models() -> [(ModelConfig, [Dataset; 2]); 4] {
    [
        (llm_model::LLM_7B_32K, Dataset::longbench()),
        (llm_model::LLM_72B_32K, Dataset::longbench()),
        (llm_model::LLM_7B_128K_GQA, Dataset::lv_eval()),
        (llm_model::LLM_72B_128K_GQA, Dataset::lv_eval()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_helper_is_reproducible() {
        let a = trace_for(Dataset::QmSum, 8, 16);
        let b = trace_for(Dataset::QmSum, 8, 16);
        assert_eq!(a, b);
    }
}
