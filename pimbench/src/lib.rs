//! The repository benchmark: how fast the simulator runs on the host,
//! and how well the modeled PIMphony system serves, on three workloads.
//!
//! * `fleet_open_loop` — a 100-replica JSQ fleet under bursty open-loop
//!   traffic, where routing, the event calendar, replica advance and
//!   the replay merge do the host work (`serving`).
//! * `slo_pressure` — two SLO tenants over disaggregated prefill/decode
//!   pools with every serving knob armed (`serving`).
//! * `paper_ladder` — the Fig. 13/14 base → +TCP → +DCS → +DPA ladder
//!   over the Table I models and Table II datasets (`ladder`).
//!
//! Each run derives all of its inputs from one seed, measures for a set
//! number of host seconds, checks the simulator's outputs, and reports
//! end-to-end metrics (untraced) or per-layer metrics (traced, with the
//! spans written as a Chrome trace). `README.md` next to this crate maps
//! every metric to its layer and workload.

mod ladder;
pub mod measure;
mod probes;
pub mod routing;
mod serving;
mod spans;

use measure::Outcome;
use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large JSQ fleet, bursty open loop, no prefill or memory pressure.
    FleetOpenLoop,
    /// Two SLO tenants over prefill/decode pools, every knob armed.
    SloPressure,
    /// The paper's technique ladder over models, datasets and systems.
    PaperLadder,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetOpenLoop,
        Workload::SloPressure,
        Workload::PaperLadder,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetOpenLoop => "fleet_open_loop",
            Workload::SloPressure => "slo_pressure",
            Workload::PaperLadder => "paper_ladder",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?} (one of: {})", known.join(", "))
            })
    }
}

/// Input scale: the measured size, or a tiny one the crate's tests set
/// through [`Options`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size `BENCHMARK.json` is measured at.
    Full,
    /// A fast smoke size with the same structure.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Host seconds the timed loop runs for.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a span file instead of
    /// end-to-end metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Where a traced run writes its spans.
    pub trace_out: PathBuf,
}

impl Options {
    /// The id every span of this run carries.
    pub fn run_id(&self) -> String {
        format!("{}/seed-{}", self.workload.name(), self.seed)
    }
}

/// Runs one workload and returns its metrics and check results.
pub fn run(opts: &Options) -> Outcome {
    let mut out = match opts.workload {
        Workload::FleetOpenLoop | Workload::SloPressure => serving::run(opts),
        Workload::PaperLadder => ladder::run(opts),
    };
    match measure::peak_rss_mb() {
        Ok(mb) if !opts.trace => out.e2e("peak_rss_mb", "MiB", mb),
        Ok(_) => {}
        Err(e) => out.check(false, || e),
    }
    out.check_finite();
    out
}
