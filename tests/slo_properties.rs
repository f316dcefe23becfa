//! SLO-native serving properties: the predictor, admission control, and
//! the checked-in `scenarios/slo/` specs.
//!
//! The [`pimphony::system::TtftPredictor`] is the single estimate shared
//! by the `SloAware` router and the `SheddingPolicy::Reject` admission
//! gate, so its contract is load-bearing twice over: (1) predicted
//! slack must be monotone in the replica's pending prefill backlog —
//! otherwise power-of-two-choices sampling could prefer the *more*
//! backlogged replica — and (2) the prediction must lower-bound the
//! realized TTFT — otherwise shedding would drop requests that could
//! still have met their deadline. The lower bound holds by
//! construction: the per-token rate is calibrated on the first prefill
//! chunk at position zero, the cheapest point of the chunked-prefill
//! cost curve, and the queueing term counts only work strictly ahead of
//! the candidate.

use pimphony::system::{
    ClusterSpec, PolicySpec, PreemptionPolicy, PrefillConfig, RouterKind, Scenario,
    SchedulingPolicy, ServingReport, SheddingPolicy, TenantSpec, TtftPredictor, VictimOrder,
};
use pimphony::workload::{ArrivalProcess, Dataset, DecodeSpec};

const PREFILL_CHUNK: u64 = 512;
/// The interactive tenant's TTFT target, matching `scenarios/slo/`.
const SLO_TTFT: f64 = 60.0;

/// The two-tenant SLO scenario shape at a given offered rate: one
/// interactive tenant with a TTFT deadline, one batch tenant without.
fn slo_scenario(requests: usize, rate: f64, shedding: SheddingPolicy) -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K");
    s.cluster = ClusterSpec {
        tp: 2,
        pp: 1,
        modules: 0,
        threads: 0,
        pools: Vec::new(),
    };
    s.policies = PolicySpec {
        scheduling: SchedulingPolicy::Continuous,
        router: RouterKind::SloAware,
        prefill: PrefillConfig::chunked(PREFILL_CHUNK),
        shedding,
        ..PolicySpec::default()
    };
    s.tenant(
        TenantSpec::new("interactive", Dataset::QmSum)
            .requests(requests)
            .seed(2026)
            .decode(DecodeSpec::Uniform(16, 96))
            .arrivals(ArrivalProcess::Bursty { rate, cv: 2.5 })
            .priority(1)
            .slo_ttft_p99(SLO_TTFT),
    )
    .tenant(
        TenantSpec::new("batch", Dataset::QmSum)
            .requests(requests)
            .seed(2027)
            .decode(DecodeSpec::Uniform(16, 96))
            .arrivals(ArrivalProcess::Poisson { rate })
            .priority(0),
    )
}

/// Predicted TTFT slack is strictly monotone (decreasing) in the
/// pending-prefill token count whenever the calibrated rate is
/// positive, and monotone in the waited time at any rate — the ordering
/// the `SloAware` router's power-of-two-choices comparison relies on.
#[test]
fn predicted_slack_is_monotone_in_pending_prefill() {
    let p = TtftPredictor::with_rate(3.5e-3);
    let mut last = f64::INFINITY;
    for tokens in [0u64, 1, 100, 512, 4096, 100_000] {
        let slack = p.slack(SLO_TTFT, 0.25, tokens);
        assert!(
            slack < last,
            "slack must strictly decrease with backlog: {slack} !< {last}"
        );
        last = slack;
    }
    // More waiting can only reduce slack, token count held fixed.
    assert!(p.slack(SLO_TTFT, 1.0, 512) < p.slack(SLO_TTFT, 0.5, 512));
    // A zero rate (prefill disabled) degenerates to waited-only slack.
    let z = TtftPredictor::with_rate(0.0);
    assert_eq!(z.slack(SLO_TTFT, 2.0, 1_000_000), SLO_TTFT - 2.0);
    // Negative rates are clamped at construction.
    assert_eq!(
        TtftPredictor::with_rate(-1.0).predict(1.0, 1000),
        1.0,
        "negative calibration must clamp to zero rate"
    );
}

/// On a seeded single-replica trace (TP spans all 8 modules) the
/// predictor's position-zero bound brackets the realized TTFT: it never
/// exceeds it (the shedding-soundness direction) and stays within a
/// small constant factor (the usefulness direction — a bound loose
/// enough to be meaningless would make the router's slack comparisons
/// vacuous).
#[test]
fn predictor_brackets_realized_ttft_on_single_replica_trace() {
    let mut s = Scenario::new("LLM-7B-32K");
    s.cluster = ClusterSpec {
        tp: 8,
        pp: 1,
        modules: 0,
        threads: 1,
        pools: Vec::new(),
    };
    s.policies = PolicySpec {
        scheduling: SchedulingPolicy::Continuous,
        prefill: PrefillConfig::chunked(PREFILL_CHUNK),
        ..PolicySpec::default()
    };
    let s = s.tenant(
        TenantSpec::new("solo", Dataset::QmSum)
            .requests(1)
            .seed(11)
            .decode(DecodeSpec::Fixed(16)),
    );
    let m = s.materialize().expect("materialize");
    assert_eq!(m.evaluator.system().replicas(), 1, "single-replica setup");
    let predictor = m.evaluator.ttft_predictor();
    let tokens = m.trace.requests()[0].context_len;
    let r = m.run();
    // One request: every TTFT percentile is that request's TTFT. It
    // arrives at t=0 on an idle replica, so waited = 0.
    let realized = r.latency.ttft.p50;
    let predicted = predictor.predict(0.0, tokens);
    assert!(predicted > 0.0, "calibration must observe a nonzero rate");
    assert!(
        predicted <= realized,
        "prediction must lower-bound realized TTFT: {predicted} > {realized}"
    );
    assert!(
        realized <= 8.0 * predicted,
        "prediction must stay within a bounded factor: {realized} vs {predicted}"
    );
}

/// Shedding never fires when capacity is ample: at a trickle of the
/// measured ~0.18 req/s capacity every request meets its SLO, so the
/// armed `Reject` gate must stay cold (`shed == 0`) and the whole
/// report must be byte-identical to the unarmed run — the
/// armed-but-unprovoked invariant the preemption layer already obeys.
#[test]
fn shedding_never_fires_under_ample_capacity() {
    let armed = slo_scenario(8, 0.01, SheddingPolicy::Reject)
        .materialize()
        .expect("materialize armed")
        .run();
    assert_eq!(armed.shed, 0, "ample capacity must never shed");
    assert_eq!(
        armed.latency.completed, 16,
        "every request completes when nothing sheds"
    );
    let unarmed = slo_scenario(8, 0.01, SheddingPolicy::None)
        .materialize()
        .expect("materialize unarmed")
        .run();
    assert_eq!(
        armed, unarmed,
        "armed-but-unprovoked must coincide with None"
    );
    // Everything met its deadline, so goodput equals throughput.
    assert_eq!(armed.goodput(), armed.tokens_per_second);
}

/// Past saturation the same gate does fire, every shed request is
/// accounted for (completed + shed covers the interactive tenant's
/// offered load), and goodput stays below throughput.
#[test]
fn shedding_fires_and_is_conserved_under_overload() {
    let r = slo_scenario(12, 0.2, SheddingPolicy::Reject)
        .materialize()
        .expect("materialize")
        .run();
    assert!(r.shed > 0, "overload at ~2.2x capacity must shed");
    assert_eq!(
        r.latency.completed + r.shed,
        24,
        "every request either completes or is counted shed"
    );
    // Shed requests serve zero tokens, so they depress goodput, never
    // raise it.
    assert!(r.goodput() <= r.tokens_per_second);
    // Only the tenant with a deadline can be shed: the batch tenant has
    // no SLO, so its 12 requests all complete.
    let batch = r
        .latency_by_tenant
        .iter()
        .find(|t| t.tenant == 1)
        .expect("batch tenant");
    assert_eq!(batch.latency.completed, 12, "no-SLO tenants are never shed");
}

/// The SLO-native knobs preserve thread-count determinism: the
/// `SloAware` router's sampling runs on the coordinator in arrival
/// order, so 1, 2, and 8 worker threads must produce byte-identical
/// reports even with shedding and slack-first eviction armed.
#[test]
fn slo_native_run_is_thread_deterministic() {
    let mut s = slo_scenario(10, 0.1, SheddingPolicy::Reject);
    s.policies.preemption = PreemptionPolicy::EvictPause;
    s.policies.victim_order = VictimOrder::SlackFirst;
    s.policies.kv_capacity_factor = 0.5;
    let runs: Vec<ServingReport> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            s.cluster.threads = threads;
            s.materialize().expect("materialize").run()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}

/// The checked-in `scenarios/slo/*.json` specs parse and actually
/// exercise the machinery they document: the SLO-aware router, a live
/// admission gate, and slack-first eviction under pressure. (Canonical
/// form is checked for every spec in `tests/entry_points.rs`.)
#[test]
fn checked_in_slo_scenarios_are_canonical_and_exercise_the_knobs() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/slo");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/slo/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "expected checked-in SLO specs");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let scenario = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(scenario.policies.router, RouterKind::SloAware);
        assert_eq!(scenario.policies.shedding, SheddingPolicy::Reject);
        assert_eq!(scenario.policies.victim_order, VictimOrder::SlackFirst);
        let m = scenario
            .materialize()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let r = m.run();
        assert!(r.shed > 0, "{}: spec must provoke shedding", path.display());
        assert!(
            r.evictions > 0,
            "{}: spec must provoke slack-first eviction",
            path.display()
        );
        assert!(
            r.goodput() > 0.0 && r.goodput() <= r.tokens_per_second,
            "{}: goodput must be positive and below throughput",
            path.display()
        );
    }
}
