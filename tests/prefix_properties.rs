//! Paged-KV / prefix-caching serving properties: with caching **off**
//! the page knobs must change *nothing* (byte-identical reports — the
//! golden pins in `scenario_properties.rs` and
//! `preemption_properties.rs` already pin the default path, this file
//! pins the knob itself), and with caching **on** the shared-prefix
//! acceptance claims of ISSUE 7 must hold: a positive hit rate with a
//! TTFT reduction for the shared tenant, and less wasted prefill than
//! whole-request evict-restart at matched KV pressure. The checked-in
//! `scenarios/cache/shared_prefix.json` spec is round-tripped and run
//! here so `scenario_check` and the declarative format cover the cache
//! path too.

use pimphony::system::{
    PagedKvConfig, PreemptionPolicy, PrefillConfig, RouterKind, Scenario, SchedulingPolicy,
    ServingReport, TenantSpec,
};
use pimphony::workload::{ArrivalProcess, Dataset, DecodeSpec};

const SHARED_PREFIX: u64 = 6144;

/// The `prefix_cache` study's tiny operating point: a shared-system-
/// prompt `assistant` tenant (priority 0) preempted by bursty
/// `interactive` traffic (priority 1) under a scaled KV pool.
fn shared_prefix_scenario(factor: f64, caching: bool) -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K");
    s.cluster.tp = 2;
    s.cluster.threads = 0;
    s.policies.scheduling = SchedulingPolicy::Continuous;
    s.policies.router = RouterKind::JoinShortestQueue;
    s.policies.preemption = PreemptionPolicy::EvictRestart;
    s.policies.prefill = PrefillConfig::chunked(512);
    s.policies.kv_capacity_factor = factor;
    if caching {
        s.policies.paged_kv = PagedKvConfig::paged(PagedKvConfig::DEFAULT_PAGE_BYTES);
    }
    s.tenant(
        TenantSpec::new("assistant", Dataset::QmSum)
            .requests(24)
            .seed(2026)
            .decode(DecodeSpec::Uniform(16, 96))
            .arrivals(ArrivalProcess::Poisson { rate: 0.06 })
            .slo_ttft_p99(60.0)
            .shared_prefix(SHARED_PREFIX),
    )
    .tenant(
        TenantSpec::new("interactive", Dataset::QmSum)
            .requests(16)
            .seed(2027)
            .decode(DecodeSpec::Uniform(16, 96))
            .arrivals(ArrivalProcess::Bursty {
                rate: 0.04,
                cv: 2.5,
            })
            .priority(1),
    )
}

fn run(s: &Scenario) -> ServingReport {
    s.materialize().expect("scenario materializes").run()
}

/// With `prefix_caching: false` the page-size knob is inert: reports
/// are byte-identical to the default configuration whatever
/// `page_bytes` says, even on a workload that *declares* shared
/// prefixes.
#[test]
fn caching_off_is_bit_identical_whatever_page_bytes_says() {
    let baseline = run(&shared_prefix_scenario(0.35, false));
    let mut odd_pages = shared_prefix_scenario(0.35, false);
    odd_pages.policies.paged_kv = PagedKvConfig {
        prefix_caching: false,
        page_bytes: 123 << 10,
    };
    assert_eq!(run(&odd_pages), baseline);
}

/// The two acceptance claims of ISSUE 7, at the bench's tiny operating
/// point (kv ×0.35): caching on yields a positive hit rate and a lower
/// shared-tenant p99 TTFT, and page-granular eviction wastes fewer
/// prefill tokens than whole-request evict-restart at the same
/// pressure.
#[test]
fn caching_cuts_shared_tenant_ttft_and_eviction_waste() {
    let off = run(&shared_prefix_scenario(0.35, false));
    let on = run(&shared_prefix_scenario(0.35, true));

    assert_eq!(off.prefix_cache_hits, 0, "caching off never hits");
    assert_eq!(off.prefix_hit_tokens, 0);
    assert_eq!(off.pages_evicted, 0);
    assert!(off.evictions > 0, "the operating point provokes eviction");
    assert!(off.wasted_prefill_tokens > 0);

    assert!(on.prefix_cache_hits > 0, "shared prompts hit the cache");
    assert!(on.prefix_hit_tokens > 0);
    assert!(
        on.pages_evicted > 0,
        "pressure reclaims pages instead of whole requests"
    );
    let shared = |r: &ServingReport| r.latency_by_tenant[0].latency.ttft.p99;
    assert!(
        shared(&on) < shared(&off),
        "shared-tenant TTFT p99: {} !< {}",
        shared(&on),
        shared(&off)
    );
    assert!(
        on.wasted_prefill_tokens < off.wasted_prefill_tokens,
        "wasted prefill: {} !< {}",
        on.wasted_prefill_tokens,
        off.wasted_prefill_tokens
    );
    // Same offered work either way: completion counts match.
    assert_eq!(on.latency.completed, off.latency.completed);
}

/// The checked-in cache scenario is canonical: it parses, re-serializes
/// byte-identically (so the file always matches the current format),
/// and exercises the cache (hits > 0, SLO met) when run.
#[test]
fn checked_in_shared_prefix_scenario_round_trips_and_hits() {
    let path = "scenarios/cache/shared_prefix.json";
    let text = std::fs::read_to_string(path).expect("scenario file exists");
    let s = Scenario::parse(&text).expect("parses");
    assert_eq!(
        s.to_pretty(),
        text,
        "{path} must match the serializer's canonical form"
    );
    assert!(s.policies.paged_kv.prefix_caching);
    assert_eq!(s.workload[0].shared_prefix, SHARED_PREFIX);
    let r = run(&s);
    assert!(r.prefix_cache_hits > 0);
    let assistant = &r.latency_by_tenant[0];
    assert!(
        assistant.slo_attainment == 1.0,
        "assistant meets its TTFT SLO with caching on (got {})",
        assistant.slo_attainment
    );
}
