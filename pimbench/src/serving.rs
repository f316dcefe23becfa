//! The two open-loop serving workloads, driven through the public
//! `Scenario` → `Materialized::run` path.
//!
//! * `fleet_open_loop`: the checked-in `scenarios/perf/sim_speed_100k.json`
//!   — 100k requests over 100 TP2 replicas, JSQ routing, bursty
//!   arrivals (1200 req/s, cv 2.5), no modeled prefill, no memory
//!   pressure, no SLO.
//! * `slo_pressure`: an assistant tenant (QMSum prompts, 6144-token
//!   shared prefix, 60 s TTFT SLO) and a bursty interactive tenant
//!   (Musique prompts, 55 s SLO, higher priority) over 6 prefill + 10
//!   decode TP2 replicas, with SLO-aware routing, reject shedding,
//!   evict-pause preemption, slack-first victims, prefix caching,
//!   KV ×0.35 and 512-token chunked prefill. Prefill of a 16k-token
//!   prompt alone takes about 40 simulated seconds here, so tighter SLOs
//!   would shed requests at any load.
//!
//! A run sets up a few passes, each the base spec with tenant seeds
//! derived from the run's seed, and reports modeled metrics as the
//! median over passes and host metrics as the median over timed
//! repetitions.

use crate::measure::{
    self, combine, derive_seed, median, stopwatch, HostLog, Outcome, Row, TIMED_PASSES,
};
use crate::probes;
use crate::routing::{host_threads, run_materialized, RouteCounters};
use crate::spans::Tracer;
use crate::{Options, Size, Workload};
use std::sync::Arc;
use system::{
    ClusterSpec, Evaluator, Materialized, PagedKvConfig, PolicySpec, PoolRole, PoolSpec,
    PreemptionPolicy, PrefillConfig, RouterKind, Scenario, SchedulingPolicy, ServingReport,
    SheddingPolicy, TenantSpec, VictimOrder,
};
use workload::{ArrivalProcess, Dataset, DecodeSpec, Trace, TraceBuilder};

/// The checked-in spec `fleet_open_loop` runs, compiled in so that a
/// run reads no file.
const FLEET_SPEC: &str = include_str!("../../scenarios/perf/sim_speed_100k.json");
/// Base arrival rates of the `slo_pressure` tenants, req/s.
const ASSISTANT_RATE: f64 = 0.16;
const INTERACTIVE_RATE: f64 = 0.08;
/// TTFT SLOs of the `slo_pressure` tenants, seconds.
const ASSISTANT_SLO_S: f64 = 60.0;
const INTERACTIVE_SLO_S: f64 = 55.0;
/// The fixed rate ladder `max_rate_at_slo_rps` is read off, as
/// multipliers of the base rates.
pub const RATE_LADDER: [f64; 4] = [0.125, 0.25, 0.5, 1.0];

/// The spec text every pass of a serving workload is set up from.
fn base_spec(workload: Workload) -> String {
    match workload {
        Workload::FleetOpenLoop => FLEET_SPEC.to_string(),
        Workload::SloPressure => slo_pressure(1.0).to_pretty(),
        Workload::PaperLadder => unreachable!("the ladder is not a serving scenario"),
    }
}

/// The `slo_pressure` spec at `rate_mult` × its base rates.
pub fn slo_pressure(rate_mult: f64) -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K");
    s.cluster = ClusterSpec {
        tp: 2,
        pp: 1,
        modules: 32,
        threads: 0,
        pools: vec![
            PoolSpec::new("prefill", PoolRole::Prefill, 6).parallel(2, 1),
            PoolSpec::new("decode", PoolRole::Decode, 10).parallel(2, 1),
        ],
    };
    s.policies = PolicySpec {
        scheduling: SchedulingPolicy::Continuous,
        router: RouterKind::SloAware,
        preemption: PreemptionPolicy::EvictPause,
        prefill: PrefillConfig::chunked(512),
        kv_capacity_factor: 0.35,
        paged_kv: PagedKvConfig::paged(PagedKvConfig::DEFAULT_PAGE_BYTES),
        shedding: SheddingPolicy::Reject,
        victim_order: VictimOrder::SlackFirst,
        ..PolicySpec::default()
    };
    s.tenant(
        TenantSpec::new("assistant", Dataset::QmSum)
            .requests(1600)
            .decode(DecodeSpec::Uniform(16, 96))
            .arrivals(ArrivalProcess::Poisson {
                rate: ASSISTANT_RATE * rate_mult,
            })
            .slo_ttft_p99(ASSISTANT_SLO_S)
            .shared_prefix(6144),
    )
    .tenant(
        TenantSpec::new("interactive", Dataset::Musique)
            .requests(800)
            .decode(DecodeSpec::Uniform(16, 96))
            .arrivals(ArrivalProcess::Bursty {
                rate: INTERACTIVE_RATE * rate_mult,
                cv: 2.5,
            })
            .priority(1)
            .slo_ttft_p99(INTERACTIVE_SLO_S),
    )
}

/// What sets one pass apart from the base spec: tenant seeds derived
/// from the run's seed and the pass index, and at the tiny size fewer
/// requests.
#[derive(Debug, Clone, Copy)]
struct Pass {
    workload: Workload,
    seed: u64,
    index: u64,
    size: Size,
}

impl Pass {
    fn apply(self, s: &mut Scenario) {
        let divisor = match (self.size, self.workload) {
            (Size::Full, _) => 1,
            (Size::Tiny, Workload::FleetOpenLoop) => 64,
            (Size::Tiny, _) => 10,
        };
        for (i, t) in s.workload.iter_mut().enumerate() {
            t.seed = derive_seed(self.seed, self.index, i as u64);
            t.requests /= divisor;
        }
    }
}

/// Passes per run: each adds one more trace to the modeled medians.
fn passes(workload: Workload, size: Size) -> usize {
    match (workload, size) {
        (Workload::FleetOpenLoop, Size::Full) => 7,
        (_, Size::Tiny) => 5,
        _ => 12,
    }
}

/// One materialized pass.
struct Sim {
    scenario: Scenario,
    m: Materialized,
    slo_tenants: Vec<u8>,
    offered: u64,
    /// The pass's first report, which repeated runs must reproduce.
    report: Option<ServingReport>,
}

impl Sim {
    fn new(scenario: Scenario, m: Materialized) -> Self {
        let slo_tenants = scenario
            .workload
            .iter()
            .enumerate()
            .filter(|(_, t)| t.slo_ttft_p99.is_some())
            .map(|(i, _)| i as u8)
            .collect();
        let offered = m.trace.len() as u64;
        Sim {
            scenario,
            m,
            slo_tenants,
            offered,
            report: None,
        }
    }

    /// Conservation, and identity with this pass's first report.
    fn verify(&self, r: &ServingReport) -> Option<String> {
        measure::conservation(&self.m.trace, r, &self.slo_tenants).or_else(|| match &self.report {
            Some(first) if !measure::same_report(first, r) => {
                Some("a repeated run of the same pass gave a different report".to_string())
            }
            _ => None,
        })
    }

    /// The evaluators materializing the spec built: the flat one and
    /// each pool's.
    fn evaluators(&self) -> impl Iterator<Item = &Evaluator> {
        std::iter::once(&self.m.evaluator).chain(self.m.pools.iter().map(|p| &p.evaluator))
    }

    /// The evaluator that runs `role`'s work (the flat one when the
    /// spec has no pools).
    fn evaluator_for(&self, role: PoolRole) -> &Evaluator {
        self.m
            .pools
            .iter()
            .find(|p| p.evaluator.pool_role() == role)
            .map_or(&self.m.evaluator, |p| &p.evaluator)
    }

    /// Fresh (uncalibrated) copies of the evaluators the simulation
    /// serves with: the pools' when the spec has pools, else the flat
    /// one.
    fn fresh_evaluators(&self) -> Vec<Evaluator> {
        let model = self.scenario.resolve_model().expect("validated spec");
        if self.scenario.cluster.pools.is_empty() {
            vec![self.scenario.evaluator_for(model)]
        } else {
            self.scenario
                .cluster
                .pools
                .iter()
                .map(|p| self.scenario.pool_evaluator_for(p, model))
                .collect()
        }
    }
}

/// Spec text → runnable simulation of `pass`; returns it and the
/// seconds the set-up took. Traced, the parse and materialize steps get
/// spans of their own, and a separate span rebuilds the trace through
/// `TraceBuilder` (checked equal to the materialized one).
fn setup(spec: &str, pass: Pass, tracer: Option<&mut Tracer>) -> Result<(Sim, f64), String> {
    let Some(t) = tracer else {
        let t0 = stopwatch();
        let mut scenario = Scenario::parse(spec)?;
        pass.apply(&mut scenario);
        let m = scenario.materialize()?;
        let secs = t0.elapsed().as_secs_f64();
        return Ok((Sim::new(scenario, m), secs));
    };
    let root = t.begin("setup");
    let (scenario, _) = t.time("scenario.parse", || Scenario::parse(spec));
    let mut scenario = scenario?;
    pass.apply(&mut scenario);
    let (m, _) = t.time("scenario.materialize", || scenario.materialize());
    let m = m?;
    let secs = t.end(root);
    let (trace, _) = t.time("workload.trace_build", || build_trace(&scenario));
    if trace != m.trace {
        return Err("TraceBuilder rebuild differs from the materialized trace".to_string());
    }
    Ok((Sim::new(scenario, m), secs))
}

/// The scenario's merged trace, built tenant by tenant.
fn build_trace(s: &Scenario) -> Trace {
    Trace::merge(s.workload.iter().enumerate().map(|(i, t)| {
        TraceBuilder::new(t.dataset)
            .seed(t.seed)
            .requests(t.requests)
            .decode(t.decode)
            .arrivals(t.arrivals)
            .priority(t.priority)
            .tenant(i as u8)
            .shared_prefix(t.shared_prefix)
            .build()
    }))
}

/// The state of one run of a serving workload. Only the timed passes
/// stay materialized for the whole run; every other pass is set up when
/// it runs and dropped after, leaving its modeled rows behind.
struct Bench<'a> {
    opts: &'a Options,
    spec: String,
    passes: usize,
    threads: usize,
    out: Outcome,
    /// Modeled rows of each pass's first report.
    e2e_rows: Vec<Vec<Row>>,
    layer_rows: Vec<Vec<Row>>,
    completed: Vec<f64>,
}

impl Bench<'_> {
    fn pass(&self, index: usize) -> Pass {
        Pass {
            workload: self.opts.workload,
            seed: self.opts.seed,
            index: index as u64,
            size: self.opts.size,
        }
    }

    /// Sets up pass `index`; a failure is recorded and gives `None`.
    fn setup(&mut self, index: usize, tracer: Option<&mut Tracer>) -> Option<(Sim, f64)> {
        match setup(&self.spec, self.pass(index), tracer) {
            Ok((mut sim, secs)) => {
                sim.m.threads = self.threads;
                Some((sim, secs))
            }
            Err(e) => {
                self.out.check(false, || format!("set-up failed: {e}"));
                None
            }
        }
    }

    /// Checks `r`, a report of `sim`, and keeps the modeled rows of the
    /// pass's first report.
    fn keep(&mut self, sim: &mut Sim, r: ServingReport) {
        self.out.record(sim.offered, sim.verify(&r));
        if sim.report.is_none() {
            self.e2e_rows.push(measure::modeled_e2e(&r, sim.offered));
            self.layer_rows.push(measure::modeled_layers(
                &r,
                sim.m.trace.total_prompt_tokens(),
            ));
            self.completed.push(r.latency.completed as f64);
            sim.report = Some(r);
        }
    }

    /// Sets up pass `index`, runs it once and drops it; returns the
    /// set-up and run seconds, or `None` when the set-up failed.
    fn run_once(&mut self, index: usize, tracer: Option<&mut Tracer>) -> Option<(f64, f64)> {
        let (mut sim, setup_s) = self.setup(index, tracer)?;
        let t0 = stopwatch();
        let r = sim.m.run();
        let run_s = t0.elapsed().as_secs_f64();
        self.keep(&mut sim, r);
        Some((setup_s, run_s))
    }
}

/// Runs `fleet_open_loop` or `slo_pressure`.
pub fn run(opts: &Options) -> Outcome {
    let mut tracer = opts.trace.then(|| Tracer::new(opts.run_id()));
    let passes = passes(opts.workload, opts.size);
    let mut b = Bench {
        opts,
        spec: base_spec(opts.workload),
        passes,
        threads: host_threads(),
        out: Outcome::default(),
        e2e_rows: Vec::new(),
        layer_rows: Vec::new(),
        completed: Vec::new(),
    };

    let mut host = HostLog::new(passes);
    let mut sims: Vec<Sim> = Vec::new();
    for index in 0..TIMED_PASSES.min(passes) {
        let Some((sim, secs)) = b.setup(index, tracer.as_mut()) else {
            return b.out;
        };
        host.setups.push(secs);
        sims.push(sim);
    }
    check_first_pass(&mut b, &mut sims[0]);

    match tracer.as_mut() {
        None => {
            timed_runs(&mut b, &mut sims, &mut host);
            host.report(&mut b.out);
            report_modeled_e2e(&mut b);
            if opts.workload == Workload::SloPressure {
                rate_ladder(&mut b, &sims[0]);
            }
        }
        Some(t) => {
            traced_runs(&mut b, &mut sims, t);
            probe_layers(&mut b.out, &sims[0], t);
            for (name, unit, value) in combine(&b.layer_rows, median) {
                b.out.layer(name, unit, value);
            }
            b.out.layer(
                "scenario.materialize_host_s",
                "s",
                t.median("scenario.materialize"),
            );
            b.out.layer(
                "workload.trace_build_host_s",
                "s",
                t.median("workload.trace_build"),
            );
            if let Err(e) = t.write(&opts.trace_out) {
                b.out.check(false, || {
                    format!("writing {}: {e}", opts.trace_out.display())
                });
            }
        }
    }
    b.out
}

/// The correctness checks of every run, on the first pass: request
/// conservation, byte-identical reports at 1 and `nproc` threads, and
/// the wrapped-router path equal to `Materialized::run`.
fn check_first_pass(b: &mut Bench, sim: &mut Sim) {
    let threads = b.threads;
    sim.m.threads = 1;
    let single = sim.m.run();
    sim.m.threads = threads;
    let multi = sim.m.run();
    b.out.record(
        sim.offered,
        (!measure::same_report(&single, &multi))
            .then(|| format!("reports at 1 and {threads} threads differ")),
    );
    let wrapped = run_materialized(&sim.m, threads, &Arc::default());
    b.out.record(
        sim.offered,
        (!measure::same_report(&multi, &wrapped))
            .then(|| "the wrapped-router path differs from Materialized::run".to_string()),
    );
    b.keep(sim, multi);
}

/// Untraced `Materialized::run` repetitions for at least `--seconds`:
/// every pass once, then the timed passes in turn (each timed
/// repetition right after a run of the host-speed reference), with
/// set-ups timed in between.
fn timed_runs(b: &mut Bench, sims: &mut [Sim], host: &mut HostLog) {
    let start = stopwatch();
    let mut i = 0;
    while i < b.passes || start.elapsed().as_secs_f64() < b.opts.seconds {
        let pass = measure::pass_of(i, b.passes);
        let run_s = if let Some(sim) = sims.get_mut(pass) {
            let timed = host.prepare(pass);
            let t0 = stopwatch();
            let r = sim.m.run();
            let secs = t0.elapsed().as_secs_f64();
            if timed {
                host.repetition(pass, secs, r.latency.completed);
            }
            b.keep(sim, r);
            secs
        } else {
            let Some((setup_s, run_s)) = b.run_once(pass, None) else {
                return;
            };
            host.setups.push(setup_s);
            run_s
        };
        measure::setup_burst(run_s, &mut host.setups, || {
            b.setup(pass, None).map(|(_, secs)| secs)
        });
        i += 1;
    }
}

fn report_modeled_e2e(b: &mut Bench) {
    for (name, unit, value) in combine(&b.e2e_rows, median) {
        b.out.e2e(name, unit, value);
    }
    b.out.note("latency_samples", "count", median(&b.completed));
    let served = b
        .out
        .end_to_end
        .iter()
        .find(|m| m.name == "served_frac")
        .map_or(0.0, |m| m.value);
    let failed_runs = measure::ratio(b.out.failed_requests as f64, b.out.offered_requests as f64);
    b.out
        .note("failed_frac", "ratio", 1.0 - served * (1.0 - failed_runs));
}

/// `max_rate_at_slo_rps`: the highest offered rate on [`RATE_LADDER`]
/// at which every SLO tenant meets its TTFT p99 target and nothing is
/// shed (0 if none does). Runs pass 0 at each rate.
fn rate_ladder(b: &mut Bench, base: &Sim) {
    let mut best = 0.0f64;
    for mult in RATE_LADDER {
        let r = if mult == 1.0 {
            base.report.clone().expect("pass 0 ran")
        } else {
            let mut s = slo_pressure(mult);
            b.pass(0).apply(&mut s);
            let mut sim = match s.materialize() {
                Ok(m) => Sim::new(s, m),
                Err(e) => {
                    b.out.check(false, || format!("rate ladder ×{mult}: {e}"));
                    return;
                }
            };
            sim.m.threads = b.threads;
            let r = sim.m.run();
            b.out.record(sim.offered, sim.verify(&r));
            r
        };
        let rate: f64 = base
            .scenario
            .workload
            .iter()
            .filter_map(|t| t.arrivals.rate())
            .sum::<f64>()
            * mult;
        let meets = r.shed == 0
            && r.latency_by_tenant
                .iter()
                .all(|t| t.latency.ttft.p99 <= t.slo_ttft);
        b.out.remarks.push(format!(
            "rate ×{mult:<4} {rate:.3} req/s: ttft p99 by tenant {:?} s, shed {}, {}",
            r.latency_by_tenant
                .iter()
                .map(|t| (t.latency.ttft.p99 * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            r.shed,
            if meets { "meets SLOs" } else { "misses" }
        ));
        if meets {
            best = best.max(rate);
        }
    }
    b.out.note("max_rate_at_slo_rps", "req/s", best);
}

/// Traced repetitions: after every pass has run once, each timed pass
/// runs untraced through `Materialized::run`, then through the wrapped
/// routers at `nproc` threads and at one thread, inside `cluster.run`
/// spans.
fn traced_runs(b: &mut Bench, sims: &mut [Sim], t: &mut Tracer) {
    let threads = b.threads;
    let (mut plain, mut multi, mut single) = (Vec::new(), Vec::new(), Vec::new());
    let (mut route_s, mut route_calls) = (Vec::new(), Vec::new());
    // Every pass once, for the modeled medians; then the timed passes.
    let start = stopwatch();
    for pass in sims.len()..b.passes {
        if b.run_once(pass, Some(t)).is_none() {
            return;
        }
    }
    for sim in sims.iter_mut().filter(|s| s.report.is_none()) {
        let r = sim.m.run();
        b.keep(sim, r);
    }
    let mut i = 0;
    while i < sims.len() || start.elapsed().as_secs_f64() < b.opts.seconds {
        let sim = &mut sims[i % sims.len()];
        let t0 = stopwatch();
        let r = sim.m.run();
        plain.push(t0.elapsed().as_secs_f64());
        b.keep(sim, r);
        for (n, times) in [(threads, &mut multi), (1, &mut single)] {
            let counters = Arc::new(RouteCounters::default());
            let span = t.begin("cluster.run");
            let r = run_materialized(&sim.m, n, &counters);
            times.push(t.end(span));
            t.arg(span, "threads", n as f64);
            t.arg(span, "route_calls", counters.calls() as f64);
            t.arg(span, "route_host_s", counters.seconds());
            if n == threads {
                route_s.push(counters.seconds());
                route_calls.push(counters.calls() as f64);
            }
            b.keep(sim, r);
        }
        i += 1;
    }
    let out = &mut b.out;
    out.layer("cluster.run_host_s", "s", median(&multi));
    out.layer("cluster.route_host_s", "s", median(&route_s));
    out.layer("cluster.route_calls", "count", median(&route_calls));
    out.layer(
        "cluster.thread_speedup",
        "ratio",
        median(&single) / median(&multi),
    );
    out.layer("trace.overhead", "ratio", median(&multi) / median(&plain));
}

/// Stage, kernel-calibration and pim-sim probes on the first pass.
fn probe_layers(out: &mut Outcome, sim: &Sim, t: &mut Tracer) {
    let report = sim.report.as_ref().expect("pass 0 ran");
    let trace = &sim.m.trace;
    let batch = probes::decode_batch(trace, report.mean_batch);
    let chunks = probes::prefill_points(trace, sim.scenario.policies.prefill.chunk_tokens);

    let fresh = sim.fresh_evaluators();
    let mut calibration = 0.0;
    for eval in &fresh {
        let span = t.begin("kernel.calibrate");
        let (cold, warm) = probes::calibration(eval, &batch, chunks[0]);
        t.end(span);
        calibration += cold - warm;
    }
    let run_s = out
        .per_layer
        .iter()
        .find(|m| m.name == "cluster.run_host_s")
        .map_or(0.0, |m| m.value);
    out.layer("kernel.calibration_host_s", "s", calibration);
    out.layer(
        "kernel.calibration_share",
        "ratio",
        measure::ratio(calibration, calibration + run_s),
    );
    out.layer(
        "serve.evaluators_built",
        "count",
        sim.evaluators().count() as f64,
    );

    let decode = sim.evaluator_for(PoolRole::Decode);
    let prefill = sim.evaluator_for(PoolRole::Prefill);
    let (iter_us, _) = t.time("stage.iteration", || probes::iteration_us(decode, &batch));
    let (chunk_us, _) = t.time("stage.prefill_chunk", || {
        probes::prefill_chunk_us(prefill, &chunks)
    });
    out.layer("stage.iteration_host_us", "us", iter_us);
    out.layer("stage.prefill_chunk_host_us", "us", chunk_us);

    let configs: Vec<probes::AttnConfig> = fresh.iter().map(probes::attn_config).collect();
    let (pim, _) = t.time("pim-sim.schedule", || probes::schedule_streams(&configs));
    out.layer("pim-sim.schedule_calls", "count", pim.calls as f64);
    out.layer(
        "pim-sim.cycles_per_host_s",
        "cycles/s",
        pim.cycles as f64 / pim.seconds,
    );
}
