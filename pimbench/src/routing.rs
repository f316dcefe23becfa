//! The traced serving path: every router the program would build is
//! wrapped in a [`TimedRouter`] that counts and times `route` calls, and
//! the wrapped routers go through the public `Cluster::run` /
//! `run_pools` entry points, mirroring `Materialized::run` exactly.

use crate::measure::stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use system::{run_pools, Cluster, Evaluator, Materialized, PoolRun, Router, RouterKind};
use system::{ReplicaLoad, ServingReport};
use workload::{Request, Trace};

/// Route-call totals shared by the wrappers of one run. The counters
/// publish no other data, so relaxed ordering suffices.
#[derive(Debug, Default)]
pub struct RouteCounters {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl RouteCounters {
    /// `route` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Host seconds spent inside `route` so far.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// A router that delegates to the program's own router and times each
/// decision.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    counters: Arc<RouteCounters>,
}

impl TimedRouter {
    /// Wraps `inner`, accumulating into `counters`.
    pub fn new(inner: Box<dyn Router>, counters: Arc<RouteCounters>) -> Self {
        TimedRouter { inner, counters }
    }
}

impl Router for TimedRouter {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn route(&mut self, req: &Request, loads: &[ReplicaLoad]) -> usize {
        let t0 = stopwatch();
        let pick = self.inner.route(req, loads);
        let nanos = t0.elapsed().as_nanos() as u64;
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        self.counters.nanos.fetch_add(nanos, Ordering::Relaxed);
        pick
    }

    fn inspects_load(&self) -> bool {
        self.inner.inspects_load()
    }
}

fn wrap(kind: RouterKind, eval: &Evaluator, counters: &Arc<RouteCounters>) -> Box<dyn Router> {
    Box::new(TimedRouter::new(kind.build_for(eval), counters.clone()))
}

/// `Materialized::run` on `threads` threads with every router wrapped.
pub fn run_materialized(
    m: &Materialized,
    threads: usize,
    counters: &Arc<RouteCounters>,
) -> ServingReport {
    if !m.pools.is_empty() {
        let mut runs: Vec<PoolRun<'_>> = m
            .pools
            .iter()
            .map(|p| PoolRun {
                name: p.name.clone(),
                eval: &p.evaluator,
                router: wrap(p.router, &p.evaluator, counters),
            })
            .collect();
        return run_pools(
            &mut runs,
            m.evaluator.scheduling_policy(),
            threads,
            &m.trace,
        );
    }
    let mut router = wrap(m.router, &m.evaluator, counters);
    Cluster::new(&m.evaluator, m.evaluator.scheduling_policy())
        .with_threads(threads)
        .run(&m.trace, router.as_mut())
}

/// `Evaluator::run_trace` (round-robin over the evaluator's replicas)
/// on `threads` threads with the router wrapped.
pub fn run_evaluator(
    eval: &Evaluator,
    trace: &Trace,
    threads: usize,
    counters: &Arc<RouteCounters>,
) -> ServingReport {
    let mut router = wrap(RouterKind::RoundRobin, eval, counters);
    Cluster::new(eval, eval.scheduling_policy())
        .with_threads(threads)
        .run(trace, router.as_mut())
}

/// Simulation threads the benchmark may use: one per available CPU.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
