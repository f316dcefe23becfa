//! Online serving: the same open-loop bursty trace served by the
//! closed-world wave policy vs event-driven continuous batching, with
//! per-request latency percentiles — the view production deployments are
//! judged on (the paper's figures report closed-world throughput only).
//! A second table sends the traffic through a 4-replica cluster under
//! each load balancer (round-robin / join-shortest-queue / least-loaded).
//!
//! Run with: `cargo run --example online_serving`

use pimphony::system::{RouterKind, SchedulingPolicy, ServingReport, Techniques};
use pimphony::workload::{ArrivalProcess, Dataset, DecodeSpec};
use pimphony::{Scenario, TenantSpec};

/// Serves the trace `spec` describes.
fn serve(spec: &Scenario) -> Result<ServingReport, String> {
    Ok(spec.materialize()?.run())
}

fn main() -> Result<(), String> {
    // 12 req/s of bursty traffic with production-like response spread.
    let bursty = |seed, requests, rate| {
        TenantSpec::new("bursty", Dataset::QmSum)
            .seed(seed)
            .requests(requests)
            .decode(DecodeSpec::Uniform(16, 96))
            .arrivals(ArrivalProcess::Bursty { rate, cv: 2.5 })
    };
    let spec = Scenario::new("LLM-7B-32K").tenant(bursty(7, 64, 12.0));
    let trace = spec.materialize()?.trace;
    println!(
        "workload: {} requests over {:.1}s (~{:.1} req/s), mean context {:.0} tokens",
        trace.len(),
        trace.last_arrival_secs(),
        trace.offered_rate().unwrap_or(0.0),
        trace.mean_context()
    );

    println!(
        "\n{:<22} {:>9} {:>8} {:>26} {:>10}",
        "configuration", "tok/s", "batch", "TTFT p50/p95/p99 (s)", "TPOT p50"
    );
    for (name, policy, techniques) in [
        (
            "wave (closed-world)",
            SchedulingPolicy::Wave,
            Techniques::pimphony(),
        ),
        (
            "continuous, baseline",
            SchedulingPolicy::Continuous,
            Techniques::baseline(),
        ),
        (
            "continuous, PIMphony",
            SchedulingPolicy::Continuous,
            Techniques::pimphony(),
        ),
    ] {
        let mut s = spec.clone();
        s.techniques = techniques;
        s.policies.scheduling = policy;
        let r = serve(&s)?;
        let l = &r.latency;
        println!(
            "{:<22} {:>9.1} {:>8.1} {:>10.3}/{:>6.3}/{:>6.3} {:>10.4}",
            name, r.tokens_per_second, r.mean_batch, l.ttft.p50, l.ttft.p95, l.ttft.p99, l.tpot.p50
        );
    }

    println!(
        "\nThe wave row ignores arrival times (every request is assumed \
         queued at t=0), so its TTFT column measures closed-world batch \
         position, not online responsiveness."
    );

    // Heavier bursty traffic through a 4-replica cluster (TP=2 over 8
    // modules), dispatched by each load balancer — offered load just
    // past the cluster's capacity, so bursts genuinely queue. Parallel
    // replica simulation (threads) never changes the numbers, only
    // wall-clock.
    let mut cluster = Scenario::new("LLM-7B-32K").tenant(bursty(2026, 160, 16.0));
    cluster.cluster.tp = 2;
    cluster.cluster.threads = 0; // one thread per CPU; results are identical anyway
    cluster.policies.scheduling = SchedulingPolicy::Continuous;
    println!(
        "\n{:<22} {:>9} {:>26} {:>10}",
        "4-replica cluster", "tok/s", "TTFT p50/p95/p99 (s)", "fairness"
    );
    for router in RouterKind::ALL {
        cluster.policies.router = router;
        let r = serve(&cluster)?;
        let l = &r.latency;
        println!(
            "{:<22} {:>9.1} {:>10.3}/{:>6.3}/{:>6.3} {:>10.3}",
            router.label(),
            r.tokens_per_second,
            l.ttft.p50,
            l.ttft.p95,
            l.ttft.p99,
            r.replica_fairness(),
        );
    }
    println!(
        "\nRound-robin splits requests evenly but blindly; \
         join-shortest-queue and least-loaded route each arrival on live \
         replica state, which shows up in the TTFT tail on bursty traffic."
    );
    Ok(())
}
