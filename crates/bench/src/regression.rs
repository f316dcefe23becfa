//! Bench-trajectory regression gate: compares freshly produced
//! `--json` bench files against the checked-in `BENCH_serving.json`
//! snapshot and reports violations.
//!
//! The simulator is deterministic, so on unchanged code the fresh
//! numbers reproduce the snapshot exactly and the gate is trivially
//! green. The tolerances are meant as a margin for platform
//! differences in the trace generator's floating-point transcendentals
//! (libm), but no such difference has been measured. A real scheduling
//! or pricing change smaller than a tolerance passes the gate. The
//! logic lives in the library (unit-tested) and the `check_regression`
//! binary is a thin CLI over it, so the gate also runs offline.

use crate::json::Json;

/// Relative throughput drop that fails the gate (5%).
pub const MAX_THROUGHPUT_DROP: f64 = 0.05;
/// Relative p99-TTFT rise that fails the gate (5%).
pub const MAX_TTFT_RISE: f64 = 0.05;
/// Relative simulated-requests-per-second drop that fails the gate
/// (30%). Deliberately generous where the simulated metrics above are
/// tight: `sim_requests_per_second` measures *wall-clock* simulator
/// speed (see `bench --bin sim_speed`), which breathes with CI hardware
/// and load — the gate only catches a hot path growing dramatically
/// slower, not machine-to-machine jitter.
pub const MAX_SIM_SPEED_DROP: f64 = 0.30;
/// Relative prefix-cache hit-token drop that fails the gate (5%). The
/// simulator is deterministic, so like throughput this only moves when
/// the paged-KV/prefix-tree logic itself changes — a shrinking hit rate
/// means admissions stopped mapping pages they used to share.
pub const MAX_PREFIX_HIT_DROP: f64 = 0.05;
/// Absolute SLO-attainment drop that fails the gate (5 percentage
/// points). Attainment is a fraction in `[0, 1]`, so the gate is
/// absolute rather than relative: a relative tolerance would let an
/// already-degraded row (say 10% attainment) halve again unnoticed
/// while flagging a 0.999 → 0.94 move twice as hard as it deserves.
pub const MAX_ATTAINMENT_DROP: f64 = 0.05;
/// Relative goodput (in-SLO tokens/second) drop that fails the gate
/// (5%) — same tightness as throughput, since goodput is just
/// throughput restricted to tokens that met their tenant's TTFT SLO.
pub const MAX_GOODPUT_DROP: f64 = 0.05;
/// Relative KV-transfer-byte deviation that fails the gate (5%), in
/// *either* direction: the disaggregated handoff pipeline prices each
/// prompt deterministically, so transferred bytes only move when the
/// transfer model or the handoff routing itself changes — fewer bytes
/// means handoffs silently stopped, more means double-shipping.
pub const MAX_TRANSFER_DEVIATION: f64 = 0.05;

/// Merges per-bin bench documents into one snapshot document
/// (`{"benches": [...]}`), the on-disk format of `BENCH_serving.json`.
pub fn merge_snapshot(benches: Vec<Json>) -> Json {
    Json::obj([("benches", Json::Arr(benches))])
}

/// One row comparison: the metrics the gate guards.
#[derive(Debug, Clone, PartialEq)]
pub struct RowDelta {
    /// `bench/name` identifier of the row.
    pub key: String,
    /// Snapshot vs fresh throughput (tokens/second).
    pub tokens_per_second: (f64, f64),
    /// Snapshot vs fresh p99 TTFT seconds.
    pub ttft_p99: (f64, f64),
    /// Snapshot vs fresh simulated requests per wall-clock second —
    /// only gated when *both* rows carry the field (it exists on
    /// `sim_speed` rows alone, and an older snapshot without it must
    /// not trip on the comparison).
    pub sim_requests_per_second: Option<(f64, f64)>,
    /// Snapshot vs fresh prefix-cache hit tokens — only gated when both
    /// rows carry the field (prefix-caching benches and scenarios).
    pub prefix_hit_tokens: Option<(f64, f64)>,
    /// Snapshot vs fresh SLO attainment — only gated when both rows
    /// carry the field (per-tenant scenario rows with a TTFT SLO, and
    /// the goodput-frontier sweep).
    pub slo_attainment: Option<(f64, f64)>,
    /// Snapshot vs fresh goodput (in-SLO tokens/second) — only gated
    /// when both rows carry the field.
    pub goodput: Option<(f64, f64)>,
    /// Snapshot vs fresh KV bytes shipped across pools — only gated
    /// when both rows carry the field (disaggregated scenario and
    /// `disagg_frontier` rows).
    pub kv_transferred_bytes: Option<(f64, f64)>,
}

impl RowDelta {
    /// The violation this row trips, if any.
    pub fn violation(&self) -> Option<String> {
        let (tput_snap, tput_fresh) = self.tokens_per_second;
        if tput_snap > 0.0 && tput_fresh < tput_snap * (1.0 - MAX_THROUGHPUT_DROP) {
            return Some(format!(
                "{}: throughput dropped {:.1}% ({tput_snap:.3} -> {tput_fresh:.3} tok/s)",
                self.key,
                (1.0 - tput_fresh / tput_snap) * 100.0
            ));
        }
        let (ttft_snap, ttft_fresh) = self.ttft_p99;
        if ttft_snap > 0.0 && ttft_fresh > ttft_snap * (1.0 + MAX_TTFT_RISE) {
            return Some(format!(
                "{}: p99 TTFT rose {:.1}% ({ttft_snap:.4}s -> {ttft_fresh:.4}s)",
                self.key,
                (ttft_fresh / ttft_snap - 1.0) * 100.0
            ));
        }
        if let Some((speed_snap, speed_fresh)) = self.sim_requests_per_second {
            if speed_snap > 0.0 && speed_fresh < speed_snap * (1.0 - MAX_SIM_SPEED_DROP) {
                return Some(format!(
                    "{}: simulator speed dropped {:.1}% \
                     ({speed_snap:.0} -> {speed_fresh:.0} simulated req/s)",
                    self.key,
                    (1.0 - speed_fresh / speed_snap) * 100.0
                ));
            }
        }
        if let Some((hit_snap, hit_fresh)) = self.prefix_hit_tokens {
            if hit_snap > 0.0 && hit_fresh < hit_snap * (1.0 - MAX_PREFIX_HIT_DROP) {
                return Some(format!(
                    "{}: prefix-cache hit tokens dropped {:.1}% ({hit_snap:.0} -> {hit_fresh:.0})",
                    self.key,
                    (1.0 - hit_fresh / hit_snap) * 100.0
                ));
            }
        }
        if let Some((att_snap, att_fresh)) = self.slo_attainment {
            if att_fresh < att_snap - MAX_ATTAINMENT_DROP {
                return Some(format!(
                    "{}: SLO attainment dropped {:.1} points ({att_snap:.3} -> {att_fresh:.3})",
                    self.key,
                    (att_snap - att_fresh) * 100.0
                ));
            }
        }
        if let Some((good_snap, good_fresh)) = self.goodput {
            if good_snap > 0.0 && good_fresh < good_snap * (1.0 - MAX_GOODPUT_DROP) {
                return Some(format!(
                    "{}: goodput dropped {:.1}% ({good_snap:.3} -> {good_fresh:.3} in-SLO tok/s)",
                    self.key,
                    (1.0 - good_fresh / good_snap) * 100.0
                ));
            }
        }
        if let Some((kv_snap, kv_fresh)) = self.kv_transferred_bytes {
            if kv_snap > 0.0 && (kv_fresh - kv_snap).abs() > kv_snap * MAX_TRANSFER_DEVIATION {
                return Some(format!(
                    "{}: KV transfer bytes deviated {:.1}% ({kv_snap:.0} -> {kv_fresh:.0})",
                    self.key,
                    (kv_fresh / kv_snap - 1.0) * 100.0
                ));
            }
        }
        None
    }
}

fn rows_of(bench: &Json) -> Vec<(String, &Json)> {
    let name = bench.get("bench").and_then(Json::as_str).unwrap_or("?");
    bench
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|row| {
            let row_name = row.get("name").and_then(Json::as_str).unwrap_or("?");
            (format!("{name}/{row_name}"), row)
        })
        .collect()
}

fn metric(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The snapshot and fresh values of an optional metric, when both rows
/// carry it.
fn both(snap: &Json, fresh: &Json, key: &str) -> Option<(f64, f64)> {
    let value = |row: &Json| row.get(key).and_then(Json::as_f64);
    Some((value(snap)?, value(fresh)?))
}

/// Compares fresh bench documents against a snapshot document. Returns
/// the per-row deltas and the list of violations (empty = gate green).
/// A fresh row missing from the snapshot — or vice versa — is a
/// violation too: a silently renamed or dropped row would otherwise
/// disable its gate.
pub fn compare(snapshot: &Json, fresh: &[Json]) -> (Vec<RowDelta>, Vec<String>) {
    let snap_rows: Vec<(String, &Json)> = snapshot
        .get("benches")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .flat_map(rows_of)
        .collect();
    let fresh_rows: Vec<(String, &Json)> = fresh.iter().flat_map(rows_of).collect();

    let mut deltas = Vec::new();
    let mut violations = Vec::new();
    for (key, fresh_row) in &fresh_rows {
        let Some((_, snap_row)) = snap_rows.iter().find(|(k, _)| k == key) else {
            violations.push(format!(
                "{key}: not in snapshot — regenerate BENCH_serving.json \
                 (check_regression --write-snapshot)"
            ));
            continue;
        };
        let delta = RowDelta {
            key: key.clone(),
            tokens_per_second: (
                metric(snap_row, "tokens_per_second"),
                metric(fresh_row, "tokens_per_second"),
            ),
            ttft_p99: (metric(snap_row, "ttft_p99"), metric(fresh_row, "ttft_p99")),
            sim_requests_per_second: both(snap_row, fresh_row, "sim_requests_per_second"),
            prefix_hit_tokens: both(snap_row, fresh_row, "prefix_hit_tokens"),
            slo_attainment: both(snap_row, fresh_row, "slo_attainment"),
            goodput: both(snap_row, fresh_row, "goodput"),
            kv_transferred_bytes: both(snap_row, fresh_row, "kv_transferred_bytes"),
        };
        if let Some(v) = delta.violation() {
            violations.push(v);
        }
        deltas.push(delta);
    }
    for (key, _) in &snap_rows {
        // Only flag a dropped row when its bench was re-run at all —
        // comparing a single fresh bin against the full snapshot is a
        // supported offline workflow.
        let bench = key.split('/').next().unwrap_or("");
        let bench_present = fresh_rows
            .iter()
            .any(|(k, _)| k.split('/').next().unwrap_or("") == bench);
        if bench_present && !fresh_rows.iter().any(|(k, _)| k == key) {
            violations.push(format!("{key}: in snapshot but missing from fresh run"));
        }
    }
    (deltas, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc(bench: &str, rows: &[(&str, f64, f64)]) -> Json {
        Json::obj([
            ("bench", Json::str(bench)),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|(name, tput, ttft)| {
                            Json::obj([
                                ("name", Json::str(*name)),
                                ("tokens_per_second", Json::num(*tput)),
                                ("ttft_p99", Json::num(*ttft)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn identical_runs_pass() {
        let doc = bench_doc("lc", &[("a", 100.0, 0.5), ("b", 50.0, 1.0)]);
        let snap = merge_snapshot(vec![doc.clone()]);
        let (deltas, violations) = compare(&snap, &[doc]);
        assert_eq!(deltas.len(), 2);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let snap = merge_snapshot(vec![bench_doc("lc", &[("a", 100.0, 0.5)])]);
        let fresh = bench_doc("lc", &[("a", 96.0, 0.52)]);
        let (_, violations) = compare(&snap, &[fresh]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn throughput_drop_fails() {
        let snap = merge_snapshot(vec![bench_doc("lc", &[("a", 100.0, 0.5)])]);
        let fresh = bench_doc("lc", &[("a", 94.0, 0.5)]);
        let (_, violations) = compare(&snap, &[fresh]);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("throughput dropped"),
            "{violations:?}"
        );
    }

    #[test]
    fn ttft_rise_fails() {
        let snap = merge_snapshot(vec![bench_doc("lc", &[("a", 100.0, 0.5)])]);
        let fresh = bench_doc("lc", &[("a", 100.0, 0.53)]);
        let (_, violations) = compare(&snap, &[fresh]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("p99 TTFT rose"), "{violations:?}");
    }

    #[test]
    fn renamed_and_dropped_rows_are_flagged() {
        let snap = merge_snapshot(vec![bench_doc("lc", &[("a", 100.0, 0.5)])]);
        let fresh = bench_doc("lc", &[("renamed", 100.0, 0.5)]);
        let (_, violations) = compare(&snap, &[fresh]);
        assert_eq!(violations.len(), 2, "{violations:?}");
        // A bench absent from the fresh set entirely is fine (offline
        // single-bin comparisons are supported).
        let (_, quiet) = compare(&snap, &[bench_doc("other", &[])]);
        assert!(quiet.iter().all(|v| !v.contains("missing from fresh")));
    }

    fn sim_speed_doc(bench: &str, rows: &[(&str, f64)]) -> Json {
        Json::obj([
            ("bench", Json::str(bench)),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|(name, speed)| {
                            Json::obj([
                                ("name", Json::str(*name)),
                                ("tokens_per_second", Json::num(100.0)),
                                ("ttft_p99", Json::num(0.5)),
                                ("sim_requests_per_second", Json::num(*speed)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn sim_speed_gate_is_generous_but_real() {
        let snap = merge_snapshot(vec![sim_speed_doc("sim_speed", &[("big", 100_000.0)])]);
        // A 25% slowdown rides inside the 30% allowance (CI jitter)...
        let (_, ok) = compare(&snap, &[sim_speed_doc("sim_speed", &[("big", 75_000.0)])]);
        assert!(ok.is_empty(), "{ok:?}");
        // ...a 40% slowdown does not.
        let (deltas, bad) = compare(&snap, &[sim_speed_doc("sim_speed", &[("big", 60_000.0)])]);
        assert_eq!(
            deltas[0].sim_requests_per_second,
            Some((100_000.0, 60_000.0))
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("simulator speed dropped"), "{bad:?}");
        // Speedups always pass.
        let (_, up) = compare(&snap, &[sim_speed_doc("sim_speed", &[("big", 500_000.0)])]);
        assert!(up.is_empty(), "{up:?}");
    }

    #[test]
    fn rows_without_sim_speed_field_are_not_gated_on_it() {
        // Neither side carries the field (every non-sim_speed bench).
        let snap = merge_snapshot(vec![bench_doc("lc", &[("a", 100.0, 0.5)])]);
        let fresh = bench_doc("lc", &[("a", 100.0, 0.5)]);
        let (deltas, violations) = compare(&snap, &[fresh]);
        assert_eq!(deltas[0].sim_requests_per_second, None);
        assert!(violations.is_empty(), "{violations:?}");
        // Field on one side only (snapshot predates the metric): the
        // comparison must not invent a 100% drop.
        let snap = merge_snapshot(vec![bench_doc("sim_speed", &[("big", 100.0, 0.5)])]);
        let fresh = sim_speed_doc("sim_speed", &[("big", 100_000.0)]);
        let (deltas, violations) = compare(&snap, &[fresh]);
        assert_eq!(deltas[0].sim_requests_per_second, None);
        assert!(violations.is_empty(), "{violations:?}");
    }

    fn prefix_doc(bench: &str, rows: &[(&str, f64)]) -> Json {
        Json::obj([
            ("bench", Json::str(bench)),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|(name, hits)| {
                            Json::obj([
                                ("name", Json::str(*name)),
                                ("tokens_per_second", Json::num(100.0)),
                                ("ttft_p99", Json::num(0.5)),
                                ("prefix_hit_tokens", Json::num(*hits)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn prefix_hit_gate_trips_on_real_drops_only() {
        let snap = merge_snapshot(vec![prefix_doc("pc", &[("on", 10_000.0)])]);
        // Within tolerance and improvements pass.
        let (_, ok) = compare(&snap, &[prefix_doc("pc", &[("on", 9_600.0)])]);
        assert!(ok.is_empty(), "{ok:?}");
        let (_, up) = compare(&snap, &[prefix_doc("pc", &[("on", 20_000.0)])]);
        assert!(up.is_empty(), "{up:?}");
        // A real drop fails.
        let (deltas, bad) = compare(&snap, &[prefix_doc("pc", &[("on", 8_000.0)])]);
        assert_eq!(deltas[0].prefix_hit_tokens, Some((10_000.0, 8_000.0)));
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("prefix-cache hit tokens"), "{bad:?}");
        // Field on one side only (older snapshot) is not gated.
        let old = merge_snapshot(vec![bench_doc("pc", &[("on", 100.0, 0.5)])]);
        let (deltas, quiet) = compare(&old, &[prefix_doc("pc", &[("on", 10_000.0)])]);
        assert_eq!(deltas[0].prefix_hit_tokens, None);
        assert!(quiet.is_empty(), "{quiet:?}");
    }

    fn slo_doc(bench: &str, rows: &[(&str, f64, f64)]) -> Json {
        Json::obj([
            ("bench", Json::str(bench)),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|(name, attainment, goodput)| {
                            Json::obj([
                                ("name", Json::str(*name)),
                                ("tokens_per_second", Json::num(100.0)),
                                ("ttft_p99", Json::num(0.5)),
                                ("slo_attainment", Json::num(*attainment)),
                                ("goodput", Json::num(*goodput)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn attainment_gate_is_absolute_and_trips_on_real_drops_only() {
        let snap = merge_snapshot(vec![slo_doc("sc", &[("t", 0.98, 90.0)])]);
        // 3 points down rides inside the 5-point allowance.
        let (_, ok) = compare(&snap, &[slo_doc("sc", &[("t", 0.95, 90.0)])]);
        assert!(ok.is_empty(), "{ok:?}");
        // 8 points down does not — even though relatively it is < 10%.
        let (deltas, bad) = compare(&snap, &[slo_doc("sc", &[("t", 0.90, 90.0)])]);
        assert_eq!(deltas[0].slo_attainment, Some((0.98, 0.90)));
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("SLO attainment dropped"), "{bad:?}");
        // The absolute gate also guards already-degraded rows, where a
        // relative 5% of a small base would wave anything through.
        let low = merge_snapshot(vec![slo_doc("sc", &[("t", 0.10, 90.0)])]);
        let (_, bad) = compare(&low, &[slo_doc("sc", &[("t", 0.02, 90.0)])]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        // Improvements pass.
        let (_, up) = compare(&snap, &[slo_doc("sc", &[("t", 1.0, 90.0)])]);
        assert!(up.is_empty(), "{up:?}");
    }

    #[test]
    fn goodput_gate_trips_on_real_drops_only() {
        let snap = merge_snapshot(vec![slo_doc("sc", &[("t", 1.0, 100.0)])]);
        let (_, ok) = compare(&snap, &[slo_doc("sc", &[("t", 1.0, 96.0)])]);
        assert!(ok.is_empty(), "{ok:?}");
        let (deltas, bad) = compare(&snap, &[slo_doc("sc", &[("t", 1.0, 90.0)])]);
        assert_eq!(deltas[0].goodput, Some((100.0, 90.0)));
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("goodput dropped"), "{bad:?}");
        let (_, up) = compare(&snap, &[slo_doc("sc", &[("t", 1.0, 200.0)])]);
        assert!(up.is_empty(), "{up:?}");
    }

    #[test]
    fn rows_without_slo_fields_are_not_gated_on_them() {
        // Neither side carries the fields (single-tenant benches).
        let snap = merge_snapshot(vec![bench_doc("lc", &[("a", 100.0, 0.5)])]);
        let (deltas, violations) = compare(&snap, &[bench_doc("lc", &[("a", 100.0, 0.5)])]);
        assert_eq!(deltas[0].slo_attainment, None);
        assert_eq!(deltas[0].goodput, None);
        assert!(violations.is_empty(), "{violations:?}");
        // Field on one side only (snapshot predates the metric): the
        // comparison must not invent a drop.
        let old = merge_snapshot(vec![bench_doc("sc", &[("t", 100.0, 0.5)])]);
        let (deltas, quiet) = compare(&old, &[slo_doc("sc", &[("t", 1.0, 100.0)])]);
        assert_eq!(deltas[0].slo_attainment, None);
        assert_eq!(deltas[0].goodput, None);
        assert!(quiet.is_empty(), "{quiet:?}");
    }

    #[test]
    fn improvement_passes() {
        let snap = merge_snapshot(vec![bench_doc("lc", &[("a", 100.0, 0.5)])]);
        let fresh = bench_doc("lc", &[("a", 150.0, 0.1)]);
        let (_, violations) = compare(&snap, &[fresh]);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
