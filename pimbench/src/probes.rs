//! Host-time probes of single layers, called from the traced runs:
//! warm stage pricing (`Evaluator::iteration` / `prefill_chunk`), kernel
//! calibration (cold vs warm on a fresh evaluator), and exact `pim-sim`
//! scheduling of the QKT/SV streams the kernel model calibrates on.

use crate::measure::{median, stopwatch};
use pim_sim::kernels::{AttentionSpec, QktKernel, SvKernel};
use pim_sim::{schedule, Geometry, SchedulerKind, Timing};
use std::hint::black_box;
use system::{Evaluator, KernelModel, StageModel};
use workload::Trace;

/// Token counts the kernel model fits its affine attention cost on.
const CALIBRATION_TOKENS: [u32; 2] = [512, 4096];
/// Host seconds each stage probe repeats its call for.
const PROBE_SECONDS: f64 = 0.2;

/// The attention kernel configuration an evaluator prices with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttnConfig {
    scheduler: SchedulerKind,
    pimphony_buffers: bool,
    group: u32,
    row_reuse: bool,
    head_dim: u32,
}

/// The attention configuration of `eval`, as its stage model resolves
/// it.
pub fn attn_config(eval: &Evaluator) -> AttnConfig {
    let model = *eval.model();
    let kernels = KernelModel::new(Timing::aimx(), model.head_dim);
    let stage = StageModel::new(*eval.system(), model, *eval.techniques(), &kernels);
    AttnConfig {
        scheduler: stage.scheduler(),
        pimphony_buffers: eval.techniques().dcs,
        group: stage.effective_group(),
        row_reuse: stage.row_reuse(),
        head_dim: model.head_dim,
    }
}

/// Totals of the exact `pim-sim` runs a probe made.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleTotals {
    /// `pim_sim::schedule` calls.
    pub calls: u64,
    /// Simulated cycles over all calls.
    pub cycles: u64,
    /// Host seconds inside `schedule`.
    pub seconds: f64,
}

/// Schedules the QKT and SV streams of each distinct configuration at
/// both calibration sizes — the exact simulations the kernel model runs
/// to calibrate those configurations.
pub fn schedule_streams(configs: &[AttnConfig]) -> ScheduleTotals {
    let mut distinct: Vec<AttnConfig> = Vec::new();
    for c in configs {
        if !distinct.contains(c) {
            distinct.push(*c);
        }
    }
    let timing = Timing::aimx();
    let mut totals = ScheduleTotals::default();
    for c in &distinct {
        let geom = if c.pimphony_buffers {
            Geometry::pimphony()
        } else {
            Geometry::baseline()
        };
        for tokens in CALIBRATION_TOKENS {
            let spec = AttentionSpec {
                tokens,
                head_dim: c.head_dim,
                group_size: c.group,
                row_reuse: c.row_reuse,
            };
            for stream in [
                QktKernel::new(spec, geom).stream(),
                SvKernel::new(spec, geom).stream(),
            ] {
                let t0 = stopwatch();
                let report = black_box(schedule(&stream, c.scheduler, &timing, &geom));
                totals.seconds += t0.elapsed().as_secs_f64();
                totals.calls += 1;
                totals.cycles += report.cycles;
            }
        }
    }
    totals
}

/// A decode batch drawn from the trace: its first `mean_batch` requests
/// (rounded, at least one) at their mid-decode token counts.
pub fn decode_batch(trace: &Trace, mean_batch: f64) -> Vec<(u64, u64)> {
    let n = (mean_batch.round() as usize).clamp(1, trace.len().max(1));
    trace
        .iter()
        .take(n)
        .map(|r| (r.id, r.context_len + r.decode_len / 2))
        .collect()
}

/// Prefill chunks drawn from the trace: for each of its first sixteen
/// requests, the `chunk`-token step halfway through its prompt.
pub fn prefill_points(trace: &Trace, chunk: u64) -> Vec<(u64, u64)> {
    let chunk = chunk.max(1);
    let points: Vec<(u64, u64)> = trace
        .iter()
        .take(16)
        .map(|r| {
            let done = r.prompt_len() / 2 / chunk * chunk;
            (done, chunk.min(r.prompt_len() - done).max(1))
        })
        .collect();
    if points.is_empty() {
        vec![(0, chunk)]
    } else {
        points
    }
}

/// Host seconds of the first (cold: the kernel model calibrates) and a
/// repeated (warm) pricing of one decode iteration plus one prefill
/// chunk on `eval`, which must be freshly built.
pub fn calibration(eval: &Evaluator, batch: &[(u64, u64)], chunk: (u64, u64)) -> (f64, f64) {
    let price = || {
        black_box(eval.iteration(black_box(batch)));
        black_box(eval.prefill_chunk(chunk.0, chunk.1));
    };
    let t0 = stopwatch();
    price();
    let cold = t0.elapsed().as_secs_f64();
    let warm: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = stopwatch();
            price();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    (cold, median(&warm))
}

/// Median host microseconds of a warm `Evaluator::iteration` on `batch`.
pub fn iteration_us(eval: &Evaluator, batch: &[(u64, u64)]) -> f64 {
    black_box(eval.iteration(batch));
    repeat_us(|| {
        black_box(eval.iteration(black_box(batch)));
    })
}

/// Median host microseconds of a warm `Evaluator::prefill_chunk`, over
/// `points` in turn.
pub fn prefill_chunk_us(eval: &Evaluator, points: &[(u64, u64)]) -> f64 {
    for &(done, chunk) in points {
        black_box(eval.prefill_chunk(done, chunk));
    }
    let mut i = 0;
    repeat_us(|| {
        let (done, chunk) = points[i % points.len()];
        black_box(eval.prefill_chunk(black_box(done), black_box(chunk)));
        i += 1;
    })
}

/// Calls `f` for [`PROBE_SECONDS`] (at least 20 times) and returns the
/// median call time in microseconds.
fn repeat_us(mut f: impl FnMut()) -> f64 {
    let start = stopwatch();
    let mut times = Vec::new();
    while times.len() < 20 || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        let t0 = stopwatch();
        f();
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}
