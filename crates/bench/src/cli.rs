//! Shared command-line conventions and row emitters of the bench
//! binaries.
//!
//! [`BenchArgs::parse`] scans the switches every binary shares
//! (`--tiny` for the CI smoke configuration, `--json <path>` for
//! machine-readable rows, `--scenario`, `--threads`, ...). Each binary
//! declares the switches it accepts, so a mistyped one is an error
//! (exit 2) rather than a silently ignored argument.
//!
//! The row emitters turn one [`ServingReport`] into the
//! machine-readable rows the regression gate pins: [`report_rows`]
//! builds the aggregate, tenant and pool rows a [`RowSpec`] asks for,
//! and [`ROW_FIELDS`] / [`TENANT_FIELDS`] are the one registry of
//! derived fields (goodput, prefix hit rate, per-class TTFT, transfer
//! accounting, ...) shared by `scenario_check` ([`scenario_rows`]) and
//! the `study` runner ([`crate::study`]).

use crate::json::Json;
use crate::{push_row_field, serving_row};
use system::{
    Materialized, RouterKind, Scenario, ServingReport, SheddingPolicy, TenantLatency, VictimOrder,
};

/// The switches of the bench binaries. Each binary accepts the subset
/// it names in [`BenchArgs::parse`].
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--tiny`: the CI smoke configuration (small request counts).
    pub tiny: bool,
    /// `--json <path>`: write machine-readable result rows.
    pub json: Option<String>,
    /// `--scenario <file.json>`: the scenario spec to run.
    pub scenario: Option<String>,
    /// `--threads <n>`: override the spec's simulation thread count.
    pub threads: Option<usize>,
    /// `--check-determinism`: re-run on one thread and compare.
    pub check_determinism: bool,
    /// `--canonicalize`: rewrite spec files to their canonical form.
    pub canonicalize: bool,
    /// Positional arguments (e.g. `scenario_check`'s spec files).
    pub rest: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments, accepting only the `accepted`
    /// switches. An unknown switch, or a missing or malformed switch
    /// value, exits the process with status 2 and a message naming it.
    pub fn parse(accepted: &[&str]) -> Self {
        Self::parse_from(std::env::args().skip(1), accepted).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// [`Self::parse`] over an explicit argument list, returning the
    /// error message instead of exiting.
    fn parse_from(
        args: impl IntoIterator<Item = String>,
        accepted: &[&str],
    ) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if !a.starts_with("--") {
                out.rest.push(a);
                continue;
            }
            if !accepted.contains(&a.as_str()) {
                return Err(format!(
                    "unknown switch {a} (accepted: {})",
                    accepted.join(", ")
                ));
            }
            let mut value = || args.next().ok_or_else(|| format!("{a} requires a value"));
            match a.as_str() {
                "--tiny" => out.tiny = true,
                "--check-determinism" => out.check_determinism = true,
                "--canonicalize" => out.canonicalize = true,
                "--json" => out.json = Some(value()?),
                "--scenario" => out.scenario = Some(value()?),
                "--threads" => {
                    let v = value()?;
                    let n = v
                        .parse()
                        .map_err(|_| format!("--threads requires an integer, got {v:?}"))?;
                    out.threads = Some(n);
                }
                _ => return Err(format!("switch {a} has no parser")),
            }
        }
        Ok(out)
    }
}

/// Loads, materializes and runs one scenario spec file, printing the
/// configuration and the per-tenant report.
pub fn run_scenario_file(path: &str) -> Result<(Materialized, ServingReport), String> {
    let scenario = Scenario::from_file(path)?;
    let m = scenario.materialize()?;
    crate::header(&format!(
        "Scenario {path}: {} on {} ({}, {} tenants, {} requests)",
        scenario.model,
        scenario.system.name(),
        scenario.policies.scheduling,
        scenario.workload.len(),
        m.trace.len(),
    ));
    let report = m.run();
    print_scenario_report(&m, &report);
    Ok((m, report))
}

/// Prints the aggregate and per-tenant result tables of a scenario run.
pub fn print_scenario_report(m: &Materialized, r: &ServingReport) {
    println!(
        "\n{:.1} tok/s over {:.2}s (goodput {:.1}) | TTFT p50/p99 {:.3}/{:.3}s | \
         E2E p99 {:.3}s | evictions {} | shed {} | router {} | tenant fairness {:.3}",
        r.tokens_per_second,
        r.seconds,
        r.goodput(),
        r.latency.ttft.p50,
        r.latency.ttft.p99,
        r.latency.e2e.p99,
        r.evictions,
        r.shed,
        m.router.label(),
        r.tenant_fairness(),
    );
    println!(
        "\n{:<16} {:>9} {:>12} {:>12} {:>12} {:>10} {:>10} {:>11}",
        "tenant", "completed", "TTFT p50", "TTFT p99", "E2E p99", "tokens", "SLO (s)", "attainment"
    );
    for t in &r.latency_by_tenant {
        let slo = if t.slo_ttft.is_finite() {
            format!("{:.3}", t.slo_ttft)
        } else {
            "-".to_string()
        };
        let attainment = if t.slo_ttft.is_finite() {
            format!("{:.1}%", t.slo_attainment * 100.0)
        } else {
            "-".to_string()
        };
        println!(
            "{:<16} {:>9} {:>12.3} {:>12.3} {:>12.3} {:>10} {:>10} {:>11}",
            m.tenant_name(t.tenant),
            t.latency.completed,
            t.latency.ttft.p50,
            t.latency.ttft.p99,
            t.latency.e2e.p99,
            t.tokens,
            slo,
            attainment,
        );
    }
}

/// Which rows, and which derived fields on them, one serving run
/// emits (see [`report_rows`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowSpec {
    /// Derived fields appended to the aggregate row, in order (names
    /// from [`ROW_FIELDS`]).
    pub fields: Vec<String>,
    /// Tenants (by name) that get a tenant row.
    pub tenants: Vec<String>,
    /// Derived fields appended to each tenant row ([`TENANT_FIELDS`]).
    pub tenant_fields: Vec<String>,
    /// Whether each pool of a pooled run gets a pool row.
    pub pools: bool,
}

/// The machine-readable rows of one serving run: the aggregate
/// [`serving_row`] named `name` with the spec's derived fields, then a
/// [`tenant_row`] `name/tenant` per requested tenant (in report
/// order), then a [`pool_row`] `name/pool/pool-name` per pool if asked.
pub fn report_rows(
    name: &str,
    rate: f64,
    m: &Materialized,
    r: &ServingReport,
    spec: &RowSpec,
) -> Vec<Json> {
    let mut aggregate = serving_row(name, rate, r);
    for field in &spec.fields {
        if let Some(v) = registry_entry(ROW_FIELDS, field).and_then(|f| f(m, r)) {
            push_row_field(&mut aggregate, field, Json::num(v));
        }
    }
    let mut rows = vec![aggregate];
    for t in &r.latency_by_tenant {
        let tenant = m.tenant_name(t.tenant);
        if !spec.tenants.contains(&tenant) {
            continue;
        }
        let mut row = tenant_row(&format!("{name}/{tenant}"), t);
        for field in &spec.tenant_fields {
            if let Some(f) = registry_entry(TENANT_FIELDS, field) {
                push_row_field(&mut row, field, Json::num(f(r, t)));
            }
        }
        rows.push(row);
    }
    if spec.pools {
        for p in &r.per_pool {
            rows.push(pool_row(&format!("{name}/pool/{}", p.name), p));
        }
    }
    rows
}

/// A derived aggregate-row field: its value for a run, or `None` when
/// the run does not expose it.
pub type RowField = fn(&Materialized, &ServingReport) -> Option<f64>;

/// The registry of derived aggregate-row fields, by name. The
/// KV-transfer fields exist only when the run reports pools
/// (`per_pool` nonempty), so colocated rows stay byte-identical to the
/// pre-disaggregation snapshot; `tp`/`pp` (one replica's
/// parallelization) exist only when it does not.
pub const ROW_FIELDS: &[(&str, RowField)] = &[
    ("tp", |m, _| {
        m.pools
            .is_empty()
            .then(|| f64::from(m.evaluator.system().parallel.tp))
    }),
    ("pp", |m, _| {
        m.pools
            .is_empty()
            .then(|| f64::from(m.evaluator.system().parallel.pp))
    }),
    ("mean_batch", |_, r| Some(r.mean_batch)),
    ("attn_utilization", |_, r| Some(r.attn_utilization)),
    // Attention's share of the modeled step time (attention + FC).
    ("attn_share", |_, r| {
        let step = r.attn_seconds + r.fc_seconds;
        Some(if step > 0.0 {
            r.attn_seconds / step
        } else {
            0.0
        })
    }),
    ("goodput", |_, r| Some(r.goodput())),
    ("shed", |_, r| Some(r.shed as f64)),
    ("prefix_cache_hits", |_, r| Some(r.prefix_cache_hits as f64)),
    ("prefix_hit_tokens", |_, r| Some(r.prefix_hit_tokens as f64)),
    // Fraction of offered prompt tokens served from the prefix cache.
    ("prefix_hit_rate", |_, r| {
        Some(match r.prefill_tokens + r.prefix_hit_tokens {
            0 => 0.0,
            offered => r.prefix_hit_tokens as f64 / offered as f64,
        })
    }),
    ("pages_evicted", |_, r| Some(r.pages_evicted as f64)),
    ("kv_capacity_factor", |m, _| {
        Some(m.evaluator.policies().kv_capacity_factor)
    }),
    // p99 TTFT of priority class 1 (interactive) and class 0 (batch).
    ("ttft_p99_high", |_, r| Some(class_p99(r, 1))),
    ("ttft_p99_low", |_, r| Some(class_p99(r, 0))),
    ("kv_transferred_bytes", |_, r| {
        (!r.per_pool.is_empty()).then_some(r.kv_transferred_bytes as f64)
    }),
    ("transfer_seconds", |_, r| {
        (!r.per_pool.is_empty()).then_some(r.transfer_seconds)
    }),
];

/// p99 TTFT of one priority class of a run (0 when the class is
/// absent).
fn class_p99(r: &ServingReport, priority: u8) -> f64 {
    r.latency_by_priority
        .iter()
        .find(|p| p.priority == priority)
        .map_or(0.0, |p| p.latency.ttft.p99)
}

/// A derived tenant-row field: its value for one tenant of a run.
pub type TenantField = fn(&ServingReport, &TenantLatency) -> f64;

/// The registry of derived tenant-row fields, by name: `goodput` is
/// the tenant's in-SLO tokens per second of the run.
pub const TENANT_FIELDS: &[(&str, TenantField)] = &[("goodput", |r, t| {
    if r.seconds > 0.0 {
        t.goodput_tokens as f64 / r.seconds
    } else {
        0.0
    }
})];

/// The entry named `name` of a field registry.
fn registry_entry<F: Copy>(registry: &[(&str, F)], name: &str) -> Option<F> {
    registry.iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
}

/// Machine-readable rows of a scenario run, named by the spec's file
/// stem: the aggregate row, a row per tenant and a row per pool. The
/// optional counters ride along only when the run exercises them, so
/// rows of scenarios without the feature stay byte-identical to the
/// historical snapshot.
pub fn scenario_rows(stem: &str, m: &Materialized, r: &ServingReport) -> Vec<Json> {
    let mut fields = Vec::new();
    if r.prefix_cache_hits > 0 || r.pages_evicted > 0 {
        fields.extend(["prefix_cache_hits", "prefix_hit_tokens", "pages_evicted"]);
    }
    let policies = m.evaluator.policies();
    let slo_native = m.router == RouterKind::SloAware
        || policies.shedding != SheddingPolicy::None
        || policies.victim_order != VictimOrder::RecentFirst;
    if slo_native {
        fields.extend(["goodput", "shed"]);
    }
    fields.extend(["kv_transferred_bytes", "transfer_seconds"]);
    let spec = RowSpec {
        fields: fields.into_iter().map(String::from).collect(),
        tenants: m.tenant_names.clone(),
        tenant_fields: if slo_native {
            vec!["goodput".to_string()]
        } else {
            Vec::new()
        },
        pools: true,
    };
    report_rows(stem, m.trace.offered_rate().unwrap_or(0.0), m, r, &spec)
}

/// One machine-readable row for a pool's share of a disaggregated run.
pub fn pool_row(name: &str, p: &system::PoolBreakdown) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("role", Json::str(p.role.label())),
        ("replicas", Json::num(f64::from(p.replicas))),
        ("routed", Json::num(p.routed as f64)),
        ("served", Json::num(p.served as f64)),
        ("tokens", Json::num(p.tokens as f64)),
        ("busy_seconds", Json::num(p.busy_seconds)),
        ("evictions", Json::num(p.evictions as f64)),
        ("shed", Json::num(p.shed as f64)),
        ("handoffs", Json::num(p.handoffs as f64)),
        (
            "kv_transferred_bytes",
            Json::num(p.kv_transferred_bytes as f64),
        ),
        ("transfer_seconds", Json::num(p.transfer_seconds)),
    ])
}

/// One machine-readable row for a tenant's share of a scenario run.
pub fn tenant_row(name: &str, t: &TenantLatency) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("completed", Json::num(t.latency.completed as f64)),
        ("tokens", Json::num(t.tokens as f64)),
        ("ttft_p50", Json::num(t.latency.ttft.p50)),
        ("ttft_p95", Json::num(t.latency.ttft.p95)),
        ("ttft_p99", Json::num(t.latency.ttft.p99)),
        ("e2e_p99", Json::num(t.latency.e2e.p99)),
        (
            "slo_ttft_p99",
            if t.slo_ttft.is_finite() {
                Json::num(t.slo_ttft)
            } else {
                Json::Null
            },
        ),
        ("slo_attainment", Json::num(t.slo_attainment)),
    ])
}

/// The file stem of a path (`scenarios/two_tenant.json` →
/// `two_tenant`), used as the row-name prefix.
pub fn file_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_stem_strips_directories_and_extension() {
        assert_eq!(file_stem("scenarios/two_tenant.json"), "two_tenant");
        assert_eq!(file_stem("plain"), "plain");
    }

    #[test]
    fn bench_args_accept_only_declared_switches() {
        let parse = |args: &[&str], accepted: &[&str]| {
            BenchArgs::parse_from(args.iter().map(|a| a.to_string()), accepted)
        };
        let args = parse(
            &["--tiny", "a.json", "--threads", "4", "--json", "out"],
            &["--tiny", "--threads", "--json"],
        )
        .unwrap();
        assert!(args.tiny);
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.json.as_deref(), Some("out"));
        assert_eq!(args.rest, ["a.json"]);
        assert_eq!(
            parse(&["--tnyi"], &["--tiny"]).unwrap_err(),
            "unknown switch --tnyi (accepted: --tiny)"
        );
        assert_eq!(
            parse(&["--threads", "x"], &["--threads"]).unwrap_err(),
            "--threads requires an integer, got \"x\""
        );
        assert_eq!(
            parse(&["--json"], &["--json"]).unwrap_err(),
            "--json requires a value"
        );
    }

    #[test]
    fn tenant_row_serializes_slo_absence_as_null() {
        let t = TenantLatency {
            tenant: 3,
            slo_ttft: f64::INFINITY,
            ..TenantLatency::default()
        };
        let row = tenant_row("x/t", &t);
        assert_eq!(row.get("slo_ttft_p99"), Some(&Json::Null));
        let with = TenantLatency {
            slo_ttft: 2.5,
            slo_attainment: 0.75,
            ..t
        };
        let row = tenant_row("x/t", &with);
        assert_eq!(row.get("slo_ttft_p99").unwrap().as_f64(), Some(2.5));
        assert_eq!(row.get("slo_attainment").unwrap().as_f64(), Some(0.75));
    }
}
