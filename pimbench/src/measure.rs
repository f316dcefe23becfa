//! Metric values, the outcome of one benchmark run, and the small
//! statistics every workload shares.

use jsonio::Json;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use system::ServingReport;
use workload::Trace;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` (or a printed-only note).
    pub name: String,
    /// Unit label (`s`, `ms`, `1/s`, `count`, `ratio`, ...).
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Everything one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, measured with tracing off.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics from the traced run.
    pub per_layer: Vec<Metric>,
    /// Printed-only figures: sample counts, workload-specific headline
    /// numbers that are undefined on the other workloads.
    pub notes: Vec<Metric>,
    /// Free-form lines printed before the metrics.
    pub remarks: Vec<String>,
    /// Simulation runs performed (each a checked operation).
    pub attempted: u64,
    /// Simulation runs whose correctness check failed.
    pub failed: u64,
    /// Requests offered by the runs that were checked.
    pub offered_requests: u64,
    /// Requests of failed runs.
    pub failed_requests: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Counts one simulation run of `requests` offered requests; if
    /// `failure` is set the run failed that check.
    pub fn record(&mut self, requests: u64, failure: Option<String>) {
        self.attempted += 1;
        self.offered_requests += requests;
        if let Some(msg) = failure {
            self.failed += 1;
            self.failed_requests += requests;
            self.failures.push(msg);
        }
    }

    /// Records a check that is not tied to a single simulation run.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(msg());
        }
    }

    /// Appends an end-to-end metric.
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.end_to_end.push(metric(name, unit, value));
    }

    /// Appends a per-layer metric.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.per_layer.push(metric(name, unit, value));
    }

    /// Appends a printed-only figure.
    pub fn note(&mut self, name: &str, unit: &'static str, value: f64) {
        self.notes.push(metric(name, unit, value));
    }

    /// Fails the run if any reported value is not a finite number (the
    /// result line could not carry it).
    pub fn check_finite(&mut self) {
        let bad: Vec<String> = self
            .end_to_end
            .iter()
            .chain(&self.per_layer)
            .chain(&self.notes)
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not finite ({})", m.name, m.value))
            .collect();
        self.failures.extend(bad);
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// the metrics as `{name: {value, unit}}` — end-to-end ones untraced,
    /// per-layer ones traced.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics = metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        let doc = Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        compact(&doc)
    }
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Serializes `doc` on one line. The pretty-printer breaks lines only
/// between tokens and escapes newlines inside strings, so trimming each
/// line and joining them is exact.
pub fn compact(doc: &Json) -> String {
    doc.to_pretty().lines().map(str::trim).collect()
}

/// Starts a host-time measurement. Timing the host is this crate's
/// purpose; every wall-clock read in it goes through here.
#[allow(clippy::disallowed_methods)]
pub fn stopwatch() -> Instant {
    // simlint: allow(wall-clock): the benchmark measures host time by design
    Instant::now()
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; 0 when empty or any is not
/// positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The process's peak resident set in MiB (`VmHWM`), read from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kib / 1024.0)
}

/// Requests offered per tenant id, ascending by id.
fn offered_by_tenant(trace: &Trace) -> Vec<(u8, u64)> {
    trace
        .tenants()
        .into_iter()
        .map(|t| (t, trace.iter().filter(|r| r.tenant == t).count() as u64))
        .collect()
}

/// Checks request conservation: every offered request either completed
/// or was shed. The report splits completions by tenant but counts shed
/// requests only in total, so the check is per tenant where the report
/// allows it: no tenant completes more than it offered, tenants without
/// an SLO (never shed) complete everything, and the missing requests
/// over all tenants equal the shed count.
pub fn conservation(trace: &Trace, report: &ServingReport, slo_tenants: &[u8]) -> Option<String> {
    let mut missing = 0u64;
    for (tenant, offered) in offered_by_tenant(trace) {
        let completed = report
            .latency_by_tenant
            .iter()
            .find(|t| t.tenant == tenant)
            .map_or(0, |t| t.latency.completed);
        if completed > offered {
            return Some(format!(
                "tenant {tenant}: completed {completed} > offered {offered}"
            ));
        }
        if !slo_tenants.contains(&tenant) && completed != offered {
            return Some(format!(
                "tenant {tenant} has no SLO (never shed) but completed {completed} of {offered}"
            ));
        }
        missing += offered - completed;
    }
    if missing != report.shed {
        return Some(format!(
            "completed + shed != offered: {} missing, {} shed",
            missing, report.shed
        ));
    }
    if report.latency.completed + report.shed != trace.len() as u64 {
        return Some(format!(
            "completed {} + shed {} != offered {}",
            report.latency.completed,
            report.shed,
            trace.len()
        ));
    }
    None
}

/// Share of offered requests that completed and met their tenant's TTFT
/// SLO; shed requests count as misses, tenants without an SLO meet it
/// vacuously.
pub fn slo_attainment(report: &ServingReport, offered: u64) -> f64 {
    if offered == 0 {
        return 0.0;
    }
    let met: f64 = report
        .latency_by_tenant
        .iter()
        .map(|t| (t.slo_attainment * t.latency.completed as f64).round())
        .sum();
    met / offered as f64
}

/// Whether a metric measures the simulator's own host time (as opposed
/// to the modeled system's simulated time).
pub fn is_host_metric(name: &str) -> bool {
    name.contains("host")
        || name.starts_with("sim_req_per_s")
        || name.starts_with("setup_s")
        || matches!(
            name,
            "peak_rss_mb"
                | "timed_repetitions"
                | "cluster.route_calls"
                | "cluster.thread_speedup"
                | "kernel.calibration_share"
                | "serve.evaluators_built"
                | "pim-sim.schedule_calls"
                | "trace.overhead"
        )
}

/// Passes a timed loop keeps repeating once every pass has run, and
/// that `sim_req_per_s` is measured on: repeating few passes gives each
/// many repetitions.
pub const TIMED_PASSES: usize = 2;

/// The pass that repetition `i` of a timed loop over `passes` passes
/// runs: every pass once, then the first [`TIMED_PASSES`] in turn.
pub fn pass_of(i: usize, passes: usize) -> usize {
    if i < passes {
        i
    } else {
        (i - passes) % TIMED_PASSES.min(passes)
    }
}

/// Times set-ups between the repetitions of a timed loop, so the
/// `setup_s` samples spread over the whole run: after a repetition that
/// took `rep_secs`, `setup` runs up to ten times, stopping once the
/// set-ups took 2% of the repetition. `setup` returns its seconds, or
/// `None` when it failed.
pub fn setup_burst(rep_secs: f64, samples: &mut Vec<f64>, mut setup: impl FnMut() -> Option<f64>) {
    let mut spent = 0.0;
    for _ in 0..10 {
        let Some(secs) = setup() else {
            return;
        };
        samples.push(secs);
        spent += secs;
        if spent >= 0.02 * rep_secs {
            return;
        }
    }
}

/// Events the host-speed reference processes.
const REFERENCE_EVENTS: u32 = 1_000_000;

/// Seconds [`reference_seconds`] takes on an unloaded host (the 2-vCPU
/// VM the bounds in `BENCHMARK.json` were set on). It only scales the
/// reported host figures back to seconds on that machine.
pub const REFERENCE_NOMINAL_S: f64 = 0.07;

/// Times the host-speed reference: a fixed discrete-event loop (a
/// binary-heap calendar feeding per-queue float buffers) with the
/// instruction and memory mix of the simulator's hot paths. It shares
/// no code with the simulator, so it stays put when the simulator
/// changes, and it slows down with the machine: the host on which this
/// benchmark was tuned runs everything 1.5–2× slower for tens of seconds
/// at a time, which moved raw host times by 15–25% between runs. Do not
/// edit it; it is the benchmark's yardstick.
pub fn reference_seconds() -> f64 {
    let t0 = stopwatch();
    let mut calendar: BinaryHeap<Reverse<(u64, u32)>> = (0..1000u32)
        .map(|i| Reverse((u64::from(i), i % 100)))
        .collect();
    let mut queues: Vec<Vec<f64>> = vec![Vec::new(); 100];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..REFERENCE_EVENTS {
        let Some(Reverse((t, q))) = calendar.pop() else {
            break;
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let queue = &mut queues[q as usize];
        queue.push((x % 1000) as f64 * 0.5);
        if queue.len() > 64 {
            acc += queue.iter().sum::<f64>();
            queue.clear();
        }
        calendar.push(Reverse((t + 1 + x % 97, ((x >> 20) % 100) as u32)));
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Host timings of a timed loop, with the machine's speed measured
/// alongside: the reference loop runs before every repetition of a
/// timed pass, so both medians cover the same stretch of the run.
#[derive(Debug, Clone)]
pub struct HostLog {
    /// Per timed pass: the requests a repetition completes, and the
    /// host seconds of each repetition.
    timed: Vec<(u64, Vec<f64>)>,
    /// Seconds of each timed set-up.
    pub setups: Vec<f64>,
    /// Seconds of each reference run.
    reference: Vec<f64>,
}

impl HostLog {
    /// An empty log for a loop over `passes` passes.
    pub fn new(passes: usize) -> Self {
        HostLog {
            timed: vec![(0, Vec::new()); TIMED_PASSES.min(passes)],
            setups: Vec::new(),
            reference: Vec::new(),
        }
    }

    /// Whether repetitions of `pass` are timed; if so, times the
    /// reference loop once, to be run right before the repetition.
    pub fn prepare(&mut self, pass: usize) -> bool {
        let timed = pass < self.timed.len();
        if timed {
            self.reference.push(reference_seconds());
        }
        timed
    }

    /// Logs one repetition of timed pass `pass` that took `secs` and
    /// completed `completed` simulated requests.
    pub fn repetition(&mut self, pass: usize, secs: f64, completed: u64) {
        let (n, secs_of) = &mut self.timed[pass];
        *n = completed;
        secs_of.push(secs);
    }

    /// Reports `sim_req_per_s` (the timed passes' requests over the sum
    /// of their median repetition times) and `setup_s` (the median
    /// set-up), with host time scaled by the median reference time over
    /// [`REFERENCE_NOMINAL_S`]. The raw figures and the scale are
    /// printed beside them.
    pub fn report(&self, out: &mut Outcome) {
        let completed: u64 = self.timed.iter().map(|(n, _)| n).sum();
        let secs: f64 = self.timed.iter().map(|(_, t)| median(t)).sum();
        let raw = ratio(completed as f64, secs);
        let slowdown = median(&self.reference) / REFERENCE_NOMINAL_S;
        out.e2e("sim_req_per_s", "1/s", raw * slowdown);
        out.e2e("setup_s", "s", median(&self.setups) / slowdown);
        out.note("sim_req_per_s.raw", "1/s", raw);
        out.note("setup_s.raw", "s", median(&self.setups));
        out.note("host_slowdown", "ratio", slowdown);
        out.note("timed_repetitions", "count", self.reference.len() as f64);
    }
}

/// A metric row before combining over passes or cells.
pub type Row = (&'static str, &'static str, f64);

/// The modeled (simulated-time) end-to-end figures of one report.
/// `offered` is the requests the run was given.
pub fn modeled_e2e(r: &ServingReport, offered: u64) -> Vec<Row> {
    let l = &r.latency;
    vec![
        ("model_tok_per_s", "tok/s", r.tokens_per_second),
        ("goodput_tok_per_s", "tok/s", r.goodput()),
        ("ttft_p50_s", "s", l.ttft.p50),
        ("ttft_p99_s", "s", l.ttft.p99),
        ("tpot_p50_s", "s", l.tpot.p50),
        ("tpot_p99_s", "s", l.tpot.p99),
        ("slo_attainment", "ratio", slo_attainment(r, offered)),
        (
            "served_frac",
            "ratio",
            ratio(l.completed as f64, offered as f64),
        ),
    ]
}

/// The modeled per-layer figures of one report. `prompt_tokens` is the
/// prompt tokens the run's requests demanded.
pub fn modeled_layers(r: &ServingReport, prompt_tokens: u64) -> Vec<Row> {
    vec![
        ("kernel.attn_utilization", "ratio", r.attn_utilization),
        (
            "stage.attn_share",
            "ratio",
            ratio(r.attn_seconds, r.attn_seconds + r.fc_seconds),
        ),
        ("replica.mean_batch", "count", r.mean_batch),
        (
            "replica.capacity_utilization",
            "ratio",
            r.capacity_utilization,
        ),
        ("replica.queueing_p50_s", "s", r.latency.queueing.p50),
        ("replica.queueing_p99_s", "s", r.latency.queueing.p99),
        ("cluster.replica_fairness", "ratio", r.replica_fairness()),
        (
            "replica.prefill_share",
            "ratio",
            ratio(r.prefill_seconds, r.busy_seconds),
        ),
        ("replica.evictions", "count", r.evictions as f64),
        (
            "replica.wasted_prefill_tokens",
            "count",
            r.wasted_prefill_tokens as f64,
        ),
        ("replica.restart_s", "s", r.restart_seconds),
        ("replica.shed", "count", r.shed as f64),
        (
            "pim-mem.prefix_hit_rate",
            "ratio",
            ratio(r.prefix_hit_tokens as f64, prompt_tokens as f64),
        ),
        ("pim-mem.pages_evicted", "count", r.pages_evicted as f64),
        (
            "cluster.kv_transferred_bytes",
            "bytes",
            r.kv_transferred_bytes as f64,
        ),
        ("cluster.transfer_s", "s", r.transfer_seconds),
    ]
}

/// Combines same-shaped row sets column by column with `f` (median
/// over passes, geometric mean over ladder cells, ...).
pub fn combine(sets: &[Vec<Row>], f: fn(&[f64]) -> f64) -> Vec<Row> {
    let Some(first) = sets.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            let column: Vec<f64> = sets.iter().map(|s| s[i].2).collect();
            (name, unit, f(&column))
        })
        .collect()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Byte-level report identity: the `Debug` rendering prints every
/// float in shortest round-trip form, so equal strings mean equal bits
/// (and unlike `PartialEq`, NaN fields compare equal to themselves).
pub fn same_report(a: &ServingReport, b: &ServingReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// A stable 64-bit mix of a base seed and two indices (splitmix64
/// finalizer), for deriving per-tenant and per-pass seeds.
pub fn derive_seed(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn compact_line_round_trips() {
        let doc = Json::obj([
            ("a", Json::str("x y")),
            ("b", Json::Arr(vec![Json::num(1.5), Json::Bool(true)])),
        ]);
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn derived_seeds_differ() {
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
        assert_ne!(derive_seed(1, 0, 1), derive_seed(1, 1, 0));
        assert_eq!(derive_seed(7, 3, 4), derive_seed(7, 3, 4));
    }
}
