//! # PIMphony — a PIM orchestrator for long-context LLM inference
//!
//! Reproduction of *"PIMphony: Overcoming Bandwidth and Capacity
//! Inefficiency in PIM-Based Long-Context LLM Inference System"* (HPCA
//! 2026). PIMphony combines three co-designed techniques:
//!
//! * **TCP** — Token-Centric PIM Partitioning: token-axis parallelism
//!   across all channels of a module, decoupling utilization from batch
//!   size ([`pim_compiler::partition`]).
//! * **DCS** — Dynamic PIM Command Scheduling: a dependency-aware PIM
//!   controller that overlaps I/O with MAC execution
//!   ([`pim_sim::sched`]).
//! * **DPA** — Dynamic PIM Access: on-module virtual-to-physical address
//!   translation enabling lazy, chunked KV-cache allocation
//!   ([`pim_mem`]).
//!
//! An experiment is a declarative [`Scenario`] ([`system::scenario`]):
//! a Table I model, a system preset (CENT-like PIM-only or NeuPIMs-like
//! xPU+PIM), a technique set, a multi-tenant workload, the cluster
//! sizing, and the serving [`PolicySpec`] — one serializable value,
//! also loadable from the checked-in `scenarios/*.json` files.
//! [`Scenario::materialize`] turns it into a [`Materialized`]
//! simulation holding the configured evaluators and the merged
//! tenant-tagged trace; [`Materialized::run`] serves that trace and
//! [`Materialized::serve`] any other, through the one path every bench
//! binary uses — pools, routers and threads included.
//!
//! The policies cover the serving line the paper's orchestrator plugs
//! into:
//!
//! * **Scheduling** — `wave` (default) is the paper's closed-world
//!   evaluation (admit a batch, decode it to completion, repeat;
//!   Figs. 13–15/17); `continuous` is event-driven continuous batching
//!   for online traffic with TTFT/TPOT/E2E percentiles in
//!   [`ServingReport::latency`](system::ServingReport::latency).
//! * **Routing** — arrivals are dispatched in global time order by a
//!   pluggable load balancer (round-robin, join-shortest-queue,
//!   least-loaded, least-prefill, SLO-aware); replica simulations run
//!   on `cluster.threads` threads with byte-identical results whatever
//!   the count, and reports carry a per-replica breakdown
//!   ([`ServingReport::per_replica`](system::ServingReport::per_replica)).
//! * **Memory pressure** — continuous batching admits in priority order
//!   and can preempt (`evict-restart` / `evict-pause`), with
//!   `kv_capacity_factor` dialing the pressure; paged KV with prefix
//!   caching, deadline-aware shedding and prefill/decode pools with a
//!   KV-transfer handoff complete the set.
//!
//! Reports of multi-tenant specs carry per-tenant latency percentiles,
//! SLO attainment, and Jain tenant fairness
//! ([`ServingReport::latency_by_tenant`](system::ServingReport::latency_by_tenant)).
//!
//! # Quickstart (paper-figure throughput)
//!
//! ```no_run
//! use pimphony::workload::{Dataset, DecodeSpec};
//! use pimphony::{Scenario, TenantSpec};
//!
//! // PIM-only sizing, all three techniques, wave scheduling.
//! let spec = Scenario::new("LLM-7B-32K").tenant(
//!     TenantSpec::new("qmsum", Dataset::QmSum)
//!         .requests(32)
//!         .decode(DecodeSpec::Fixed(64)),
//! );
//! let report = spec.materialize()?.run();
//! println!("{:.1} tok/s at batch {:.1}", report.tokens_per_second, report.mean_batch);
//! # Ok::<(), String>(())
//! ```
//!
//! # Online serving (continuous batching + latency percentiles)
//!
//! ```no_run
//! use pimphony::system::SchedulingPolicy;
//! use pimphony::workload::{ArrivalProcess, Dataset, DecodeSpec};
//! use pimphony::{PolicySpec, Scenario, TenantSpec};
//!
//! // 6 req/s Poisson arrivals with production-like response-length spread.
//! let mut spec = Scenario::new("LLM-7B-32K").tenant(
//!     TenantSpec::new("chat", Dataset::QmSum)
//!         .requests(128)
//!         .decode(DecodeSpec::Uniform(16, 128))
//!         .arrivals(ArrivalProcess::Poisson { rate: 6.0 }),
//! );
//! spec.policies = PolicySpec {
//!     scheduling: SchedulingPolicy::Continuous,
//!     ..PolicySpec::default()
//! };
//! let report = spec.materialize()?.run();
//! let l = &report.latency;
//! println!(
//!     "{:.1} tok/s | TTFT p50/p95/p99 {:.3}/{:.3}/{:.3}s | TPOT p50 {:.4}s",
//!     report.tokens_per_second, l.ttft.p50, l.ttft.p95, l.ttft.p99, l.tpot.p50,
//! );
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use llm_model;
pub use pim_compiler;
pub use pim_isa;
pub use pim_mem;
pub use pim_sim;
pub use system;
pub use workload;

/// The declarative scenario spec (re-exported from
/// [`system::scenario`]): one serializable value describing workload +
/// cluster + policy.
pub use system::scenario::{ClusterSpec, Materialized, PolicySpec, Scenario, TenantSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use system::{
        PrefillConfig, RouterKind, SchedulingPolicy, ServingReport, SystemKind, Techniques,
    };
    use workload::{ArrivalProcess, Dataset, DecodeSpec};

    /// A one-tenant LLM-7B-32K spec over `tenant`.
    fn spec(tenant: TenantSpec) -> Scenario {
        Scenario::new("LLM-7B-32K").tenant(tenant)
    }

    /// A one-tenant continuous-batching spec over `tenant`.
    fn continuous(tenant: TenantSpec) -> Scenario {
        let mut s = spec(tenant);
        s.policies.scheduling = SchedulingPolicy::Continuous;
        s
    }

    fn serve(s: &Scenario) -> ServingReport {
        s.materialize().expect("materialize").run()
    }

    #[test]
    fn baseline_vs_pimphony_end_to_end() {
        let mut base = spec(
            TenantSpec::new("t", Dataset::QmSum)
                .seed(2)
                .requests(8)
                .decode(DecodeSpec::Fixed(8)),
        );
        let full = base.clone();
        base.techniques = Techniques::baseline();
        let rb = serve(&base);
        let rf = serve(&full);
        assert!(rf.tokens_per_second > rb.tokens_per_second);
        assert!(rf.attn_utilization > rb.attn_utilization);
    }

    #[test]
    fn materialized_serves_multi_tenant_specs() {
        let mut s = Scenario::new("LLM-7B-32K");
        s.cluster.tp = 2;
        s.policies.scheduling = SchedulingPolicy::Continuous;
        s.policies.router = RouterKind::JoinShortestQueue;
        let s = s
            .tenant(
                TenantSpec::new("interactive", Dataset::QmSum)
                    .requests(8)
                    .seed(3)
                    .decode(DecodeSpec::Uniform(8, 24))
                    .arrivals(ArrivalProcess::Poisson { rate: 4.0 })
                    .priority(1)
                    .slo_ttft_p99(60.0),
            )
            .tenant(
                TenantSpec::new("batch", Dataset::QmSum)
                    .requests(6)
                    .seed(4)
                    .decode(DecodeSpec::Fixed(32)),
            );
        let m = s.materialize().expect("materialize");
        assert_eq!(m.trace.len(), 14);
        let r = m.run();
        assert_eq!(r.latency.completed, 14);
        assert_eq!(r.latency_by_tenant.len(), 2);
        assert!((0.0..=1.0).contains(&r.latency_by_tenant[0].slo_attainment));
        assert!(r.tenant_fairness() > 0.0);
        // A broken spec surfaces as an error, not a panic.
        assert!(Scenario::new("nope").materialize().is_err());
    }

    #[test]
    fn system_presets_serve() {
        for system in [SystemKind::PimOnly, SystemKind::XpuPim] {
            let mut s = spec(
                TenantSpec::new("t", Dataset::QmSum)
                    .seed(1)
                    .requests(6)
                    .decode(DecodeSpec::Fixed(8)),
            );
            s.system = system;
            assert!(serve(&s).tokens_per_second > 0.0, "{system:?}");
        }
    }

    #[test]
    fn parallel_override_applies() {
        let mut s = spec(TenantSpec::new("t", Dataset::QmSum));
        s.cluster.tp = 2;
        s.cluster.pp = 4;
        let m = s.materialize().expect("materialize");
        assert_eq!(m.evaluator.system().parallel.tp, 2);
        assert_eq!(m.evaluator.system().parallel.pp, 4);
    }

    #[test]
    fn iteration_is_exposed() {
        let m = spec(TenantSpec::new("t", Dataset::QmSum))
            .materialize()
            .unwrap();
        let it = m.evaluator.iteration(&[(0, 8192), (1, 4096)]);
        assert!(it.seconds > 0.0);
        assert!(it.attn_seconds > 0.0);
    }

    #[test]
    fn parallel_serving_matches_sequential_exactly() {
        // 4 replicas, bursty arrivals, JSQ: the report must not depend on
        // the simulation thread count.
        let mut s = continuous(
            TenantSpec::new("t", Dataset::QmSum)
                .seed(5)
                .requests(32)
                .decode(DecodeSpec::Uniform(8, 48))
                .arrivals(ArrivalProcess::Bursty { rate: 8.0, cv: 2.5 }),
        );
        s.cluster.tp = 2;
        s.policies.router = RouterKind::JoinShortestQueue;
        let sequential = serve(&s);
        s.cluster.threads = 4;
        assert_eq!(sequential, serve(&s));
    }

    #[test]
    fn chunked_prefill_dominates_ttft() {
        let decode_only = continuous(
            TenantSpec::new("t", Dataset::QmSum)
                .seed(4)
                .requests(8)
                .decode(DecodeSpec::Uniform(8, 32))
                .arrivals(ArrivalProcess::Poisson { rate: 3.0 }),
        );
        let mut end_to_end = decode_only.clone();
        end_to_end.policies.prefill = PrefillConfig::chunked(512);
        let rd = serve(&decode_only);
        let re = serve(&end_to_end);
        assert_eq!(rd.tokens, re.tokens, "same decode work");
        assert_eq!(rd.prefill_tokens, 0);
        assert!(re.prefill_tokens > 0);
        assert!(re.latency.ttft.p50 > rd.latency.ttft.p50);
        assert!(re.latency.prefill.p50 > 0.0);
    }

    #[test]
    fn continuous_batching_reports_latency_percentiles() {
        let s = continuous(
            TenantSpec::new("t", Dataset::QmSum)
                .seed(4)
                .requests(20)
                .decode(DecodeSpec::Uniform(8, 32))
                .arrivals(ArrivalProcess::Poisson { rate: 3.0 }),
        );
        let m = s.materialize().expect("materialize");
        let r = m.run();
        let trace = &m.trace;
        assert_eq!(r.latency.completed, trace.len() as u64);
        assert!(r.latency.ttft.p50 > 0.0);
        assert!(r.latency.ttft.p50 <= r.latency.ttft.p99);
        assert_eq!(r.tokens, trace.total_decode_tokens());
    }
}
