//! Preemption under KV memory pressure: sweep arrival rate × KV
//! capacity × preemption policy and measure the p99-TTFT / wasted-work
//! tradeoff.
//!
//! The trace carries two priority classes (1 = interactive, 0 = batch;
//! `TraceBuilder::priority_levels`). Admission is priority-ordered
//! under every policy; what the sweep isolates is **eviction**: with
//! [`PreemptionPolicy::None`] an admitted batch request holds its KV
//! reservation to completion, so under pressure an interactive arrival
//! waits behind slow batch prefills/decodes even though it outranks
//! them (head-of-line blocking on *memory*, not on service order).
//! `EvictRestart` and `EvictPause` let the blocked interactive request
//! reclaim a batch victim's reservation immediately — `EvictRestart`
//! regenerates the victim from scratch (wasted prompt *and* decode
//! work), `EvictPause` keeps its tokens and re-prefills prompt+tokens
//! as an extended prompt on resume (wasted prompt work only).
//!
//! KV pressure is dialed in with the `kv_capacity_factor` policy (a
//! fraction of the hardware KV pool), which shrinks how many
//! worst-case reservations fit concurrently without re-sizing the
//! system. The offered rate is anchored on the full-capacity
//! closed-world (prefill-inclusive) capacity, so rows are comparable
//! across capacity factors.
//!
//! Run with: `cargo run --release -p bench --bin preemption_sweep`
//! (`-- --tiny` for the CI smoke configuration, `--json <path>` for
//! machine-readable results).

use bench::cli::{BenchArgs, DECODE_HI, DECODE_LO, SEED};
use llm_model::LLM_7B_32K;
use pim_compiler::ParallelConfig;
use system::{
    Cluster, ClusterSpec, Evaluator, PolicySpec, PreemptionPolicy, PrefillConfig, RouterKind,
    Scenario, SchedulingPolicy, ServingReport, SystemConfig, Techniques, TenantSpec,
};
use workload::{ArrivalProcess, Dataset, DecodeSpec, Trace, TraceBuilder};

const CV: f64 = 2.5;
const PREFILL_CHUNK: u64 = PrefillConfig::DEFAULT_CHUNK;
/// Interactive (1) vs batch (0) traffic mix.
const PRIORITY_LEVELS: u8 = 2;
/// The interactive tenant's TTFT target of the goodput comparison
/// (matches `studies/goodput_frontier.json` and the checked-in SLO
/// scenarios).
const SLO_TTFT: f64 = 60.0;
/// KV capacity of the goodput comparison — pressured enough that
/// eviction policy choices are visible in who meets the deadline.
const GOODPUT_KV_FACTOR: f64 = 0.5;

fn bursty_trace(requests: usize, rate: f64) -> Trace {
    TraceBuilder::new(Dataset::QmSum)
        .seed(SEED)
        .requests(requests)
        .decode_range(DECODE_LO, DECODE_HI)
        .bursty(rate, CV)
        .priority_levels(PRIORITY_LEVELS)
        .build()
}

/// The two-tenant SLO scenario of the goodput comparison (the
/// `goodput_frontier` study shape): one interactive tenant with a TTFT
/// deadline, one batch tenant without, on the same 4-replica cluster,
/// with the KV pool shrunk to [`GOODPUT_KV_FACTOR`] so the preemption
/// policy decides who holds memory when the deadline clock is running.
fn goodput_scenario(requests: usize, rate: f64, policy: PreemptionPolicy) -> Scenario {
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
        router: RouterKind::JoinShortestQueue,
        prefill: PrefillConfig::chunked(PREFILL_CHUNK),
        preemption: policy,
        kv_capacity_factor: GOODPUT_KV_FACTOR,
        ..PolicySpec::default()
    };
    s.tenant(
        TenantSpec::new("interactive", Dataset::QmSum)
            .requests(requests)
            .seed(SEED)
            .decode(DecodeSpec::Uniform(DECODE_LO, DECODE_HI))
            .arrivals(ArrivalProcess::Bursty { rate, cv: CV })
            .priority(1)
            .slo_ttft_p99(SLO_TTFT),
    )
    .tenant(
        TenantSpec::new("batch", Dataset::QmSum)
            .requests(requests)
            .seed(SEED + 1)
            .decode(DecodeSpec::Uniform(DECODE_LO, DECODE_HI))
            .arrivals(ArrivalProcess::Poisson { rate }),
    )
}

/// p99 TTFT of one priority class (0 when the class is absent).
fn class_p99(r: &ServingReport, priority: u8) -> f64 {
    r.latency_by_priority
        .iter()
        .find(|p| p.priority == priority)
        .map(|p| p.latency.ttft.p99)
        .unwrap_or(0.0)
}

fn main() {
    let args = BenchArgs::parse(&["--tiny", "--json"]);
    let tiny = args.tiny;
    let json_path = args.json;
    let model = LLM_7B_32K;
    // TP=2 over 8 modules → 4 replicas behind one cluster front-end.
    let sys = SystemConfig::cent_for(&model).with_parallel(ParallelConfig::new(2, 1));
    let requests = if tiny { 32 } else { 96 };
    let factors: &[f64] = if tiny { &[0.5] } else { &[1.0, 0.5, 0.35] };
    let load_fractions: &[f64] = if tiny { &[0.8] } else { &[0.8, 1.2] };

    // Rate axis: the full-capacity closed-world (prefill-inclusive)
    // wave capacity, shared by every row so capacity factors compare.
    let eval_anchor =
        Evaluator::new(sys, model, Techniques::pimphony()).with_policies(PolicySpec {
            prefill: PrefillConfig::chunked(PREFILL_CHUNK),
            ..PolicySpec::default()
        });
    let closed_trace = TraceBuilder::new(Dataset::QmSum)
        .seed(SEED)
        .requests(requests)
        .decode_range(DECODE_LO, DECODE_HI)
        .build();
    let (_, capacity_rps) = bench::closed_world_capacity(&eval_anchor, &closed_trace);

    bench::header(&format!(
        "Preemption sweep: {} × {} replicas, {requests} bursty requests (cv {CV}, \
         {PRIORITY_LEVELS} priority classes), chunked prefill {PREFILL_CHUNK}, \
         full-capacity anchor ≈{capacity_rps:.3} req/s",
        model.name,
        sys.replicas(),
    ));

    let mut rows = Vec::new();
    for &frac in load_fractions {
        let rate = capacity_rps * frac;
        let trace = bursty_trace(requests, rate);
        for &factor in factors {
            println!("\nKV capacity ×{factor:.2}, offered {rate:.3} req/s ({frac:.1}x anchor)");
            println!(
                "{:<14} {:>9} {:>7} {:>11} {:>11} {:>10} {:>12} {:>12} {:>12} {:>10}",
                "policy",
                "tok/s",
                "evict",
                "waste-pre",
                "waste-dec",
                "restart s",
                "TTFT99 all",
                "TTFT99 hi",
                "TTFT99 lo",
                "E2E p99"
            );
            let mut none_hi = 0.0f64;
            for policy in PreemptionPolicy::ALL {
                let eval =
                    Evaluator::new(sys, model, Techniques::pimphony()).with_policies(PolicySpec {
                        preemption: policy,
                        prefill: PrefillConfig::chunked(PREFILL_CHUNK),
                        kv_capacity_factor: factor,
                        ..PolicySpec::default()
                    });
                let r = Cluster::new(&eval, SchedulingPolicy::Continuous)
                    .with_threads(0)
                    .run(&trace, RouterKind::JoinShortestQueue.build().as_mut());
                let hi = class_p99(&r, 1);
                let lo = class_p99(&r, 0);
                if policy == PreemptionPolicy::None {
                    none_hi = hi;
                }
                let delta = if policy.evicts() && none_hi > 0.0 {
                    format!("  ({:+.1}% hi vs none)", (hi / none_hi - 1.0) * 100.0)
                } else {
                    String::new()
                };
                println!(
                    "{:<14} {:>9.1} {:>7} {:>11} {:>11} {:>10.1} {:>12.3} {:>12.3} {:>12.3} {:>10.3}{delta}",
                    policy.label(),
                    r.tokens_per_second,
                    r.evictions,
                    r.wasted_prefill_tokens,
                    r.wasted_decode_tokens,
                    r.restart_seconds,
                    r.latency.ttft.p99,
                    hi,
                    lo,
                    r.latency.e2e.p99,
                );
                let mut row =
                    bench::serving_row(&format!("{frac:.1}x/kv{factor:.2}/{policy}"), rate, &r);
                bench::push_row_field(
                    &mut row,
                    "kv_capacity_factor",
                    bench::json::Json::num(factor),
                );
                bench::push_row_field(&mut row, "ttft_p99_high", bench::json::Json::num(hi));
                bench::push_row_field(&mut row, "ttft_p99_low", bench::json::Json::num(lo));
                rows.push(row);
            }
        }
    }

    // Goodput comparison: the same three policies judged the way the
    // `goodput_frontier` study judges routers — in-SLO tokens per
    // second on a two-tenant (interactive-with-deadline + batch)
    // scenario at 1.2× capacity with the KV pool halved. The
    // wasted-work columns above say what eviction *costs*; this says
    // what it *buys*: which policy's victims were the right ones when
    // a deadline is the yardstick. Rows are new names (`goodput/...`),
    // so the historical sweep rows above stay byte-identical in the
    // snapshot.
    let goodput_rate = capacity_rps * 0.6; // ×2 tenants = 1.2× capacity
    println!(
        "\nGoodput comparison: 2 tenants × {requests} requests at 1.2x capacity, \
         interactive SLO {SLO_TTFT}s, KV ×{GOODPUT_KV_FACTOR:.2}"
    );
    println!(
        "{:<14} {:>9} {:>9} {:>12} {:>12} {:>11}",
        "policy", "tok/s", "goodput", "TTFT99 int", "int tokens", "attainment"
    );
    for policy in PreemptionPolicy::ALL {
        let m = goodput_scenario(requests, goodput_rate, policy)
            .materialize()
            .expect("goodput scenario");
        let r = m.run();
        let int = r
            .latency_by_tenant
            .iter()
            .find(|t| t.tenant == 0)
            .expect("interactive tenant completed requests");
        println!(
            "{:<14} {:>9.1} {:>9.1} {:>12.3} {:>12} {:>10.1}%",
            policy.label(),
            r.tokens_per_second,
            r.goodput(),
            int.latency.ttft.p99,
            int.tokens,
            int.slo_attainment * 100.0,
        );
        let rows_spec = bench::cli::RowSpec {
            fields: vec!["goodput".to_string(), "shed".to_string()],
            tenants: m.tenant_names.clone(),
            tenant_fields: vec!["goodput".to_string()],
            pools: false,
        };
        rows.extend(bench::cli::report_rows(
            &format!("goodput/{policy}"),
            goodput_rate * 2.0,
            &m,
            &r,
            &rows_spec,
        ));
    }

    println!(
        "\nReading the sweep: at full capacity (×1.00) reservations rarely \
         block and the three policies coincide (zero evictions — uniform \
         pressure-free traffic never evicts by construction). As the KV \
         pool shrinks, `none` makes interactive arrivals wait for batch \
         requests to *finish* before their reservation frees — the hi-class \
         p99 TTFT explodes even though admission is priority-ordered. The \
         eviction policies cap that wait at one admission sweep, paying \
         with wasted work: evict-restart re-decodes its victims \
         (waste-dec), evict-pause only re-prefills them (waste-pre, \
         restart seconds). Throughput dips by the wasted-work share — the \
         tradeoff this sweep quantifies."
    );

    if let Some(path) = json_path {
        bench::write_bench_json(&path, "preemption_sweep", rows);
    }
}
