//! Bench-trajectory regression gate: compares freshly produced
//! `--json` bench documents with the checked-in `BENCH_serving.json`
//! snapshot, row by row and field by field.
//!
//! The simulator is deterministic, so a fresh row must equal its
//! snapshot row exactly: the same keys in the same order and the same
//! values. A move in either direction is a violation, since a faster
//! model is as much a change to the model as a slower one; the change
//! that makes it regenerates the snapshot. A snapshot bench or row
//! missing from the fresh set is a violation, and so is a fresh row the
//! snapshot lacks. The one exception is wall-clock time, which only the
//! `sim_speed` row records: its `wall_seconds` is not compared, and its
//! `sim_requests_per_second` may rise freely but fails when it falls by
//! more than [`MAX_SIM_SPEED_DROP`]. The logic lives in the library
//! (unit-tested); the `check_regression` binary is a thin CLI over it.

use crate::json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Relative drop in `sim_requests_per_second` that fails the gate
/// (30%). The field measures *wall-clock* simulator speed (see
/// `bench --bin sim_speed`), which breathes with the machine and its
/// load, so the bound catches a hot path growing dramatically slower,
/// not machine-to-machine jitter.
pub const MAX_SIM_SPEED_DROP: f64 = 0.30;

/// Merges per-bin bench documents into one snapshot document
/// (`{"benches": [...]}`), the on-disk format of `BENCH_serving.json`.
pub fn merge_snapshot(benches: Vec<Json>) -> Json {
    Json::obj([("benches", Json::Arr(benches))])
}

type Fields = [(String, Json)];

/// The rows of a set of bench documents, keyed by `(bench, name)`.
#[derive(Debug, Default)]
pub struct Rows<'a> {
    benches: BTreeSet<&'a str>,
    rows: BTreeMap<(&'a str, &'a str), &'a Fields>,
}

impl<'a> Rows<'a> {
    /// Indexes bench documents; see [`Rows::add`].
    pub fn of(docs: impl IntoIterator<Item = &'a Json>) -> Result<Self, String> {
        let mut rows = Rows::default();
        docs.into_iter().try_for_each(|doc| rows.add(doc))?;
        Ok(rows)
    }

    /// Adds one `{"bench": ..., "rows": [...]}` document. Fails, saying
    /// what is wrong, when it has no string `bench` or no array `rows`,
    /// when a row is not an object with a string `name`, or when a
    /// `bench/name` key is already present.
    pub fn add(&mut self, doc: &'a Json) -> Result<(), String> {
        let bench = (doc.get("bench").and_then(Json::as_str)).ok_or("no string \"bench\"")?;
        let rows = (doc.get("rows").and_then(Json::as_arr))
            .ok_or_else(|| format!("bench {bench}: no array \"rows\""))?;
        for row in rows {
            let (Json::Obj(fields), Some(name)) = (row, row.get("name").and_then(Json::as_str))
            else {
                return Err(format!(
                    "bench {bench}: a row is not an object with a string \"name\""
                ));
            };
            if self.rows.insert((bench, name), fields).is_some() {
                return Err(format!("row {bench}/{name} repeats"));
            }
        }
        self.benches.insert(bench);
        Ok(())
    }

    /// The number of rows.
    pub fn count(&self) -> usize {
        self.rows.len()
    }
}

/// Compares fresh rows with the snapshot's. Returns the violations;
/// empty means the gate is green.
pub fn compare(snapshot: &Rows, fresh: &Rows) -> Vec<String> {
    let mut violations: Vec<String> = (snapshot.benches.difference(&fresh.benches))
        .map(|bench| format!("{bench}: in the snapshot but missing from the fresh set"))
        .collect();
    for (&(bench, name), snap) in &snapshot.rows {
        match fresh.rows.get(&(bench, name)) {
            Some(row) => {
                violations.extend(drift(snap, row).map(|d| format!("{bench}/{name}: {d}")))
            }
            None if fresh.benches.contains(bench) => violations.push(format!(
                "{bench}/{name}: in the snapshot but missing from the fresh run"
            )),
            None => {}
        }
    }
    for (bench, name) in fresh.rows.keys() {
        if !snapshot.rows.contains_key(&(bench, name)) {
            violations.push(format!(
                "{bench}/{name}: not in the snapshot — regenerate BENCH_serving.json \
                 (check_regression --write-snapshot)"
            ));
        }
    }
    violations
}

/// How a fresh row differs from its snapshot row, or `None` when the
/// gate accepts it.
fn drift(snap: &Fields, fresh: &Fields) -> Option<String> {
    let keys = |fields: &Fields| fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    let (was, now) = (keys(snap), keys(fresh));
    if was != now {
        let added: Vec<_> = now.iter().filter(|k| !was.contains(k)).collect();
        let removed: Vec<_> = was.iter().filter(|k| !now.contains(k)).collect();
        return Some(if added.is_empty() && removed.is_empty() {
            format!("fields reordered to {now:?}")
        } else {
            format!("fields added {added:?}, removed {removed:?}")
        });
    }
    let moved: Vec<String> = (snap.iter().zip(fresh))
        .filter(
            |((key, a), (_, b))| match (key.as_str(), a.as_f64(), b.as_f64()) {
                ("wall_seconds", ..) => false,
                ("sim_requests_per_second", Some(a), Some(b)) => b < a * (1.0 - MAX_SIM_SPEED_DROP),
                _ => a != b,
            },
        )
        .map(|((key, a), (_, b))| format!("{key} {} -> {}", show(a), show(b)))
        .collect();
    (!moved.is_empty()).then(|| moved.join(", "))
}

fn show(value: &Json) -> String {
    value.to_pretty().trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serving(name: &str) -> Json {
        Json::obj([
            ("name", Json::str(name)),
            ("tokens_per_second", Json::num(100.0)),
            ("ttft_p99", Json::num(0.5)),
            ("completed", Json::num(10.0)),
            ("evictions", Json::num(2.0)),
            ("prefix_hit_tokens", Json::num(10_000.0)),
            ("slo_attainment", Json::num(0.98)),
            ("goodput", Json::num(90.0)),
        ])
    }

    /// A serving bench, a scalar paper bench and a `sim_speed` bench,
    /// as one array of bench documents.
    fn docs() -> Json {
        let bench = |name: &str, rows: Vec<Json>| {
            Json::obj([("bench", Json::str(name)), ("rows", Json::Arr(rows))])
        };
        Json::Arr(vec![
            bench("lc", vec![serving("a"), serving("b")]),
            bench(
                "fig16",
                vec![Json::obj([
                    ("name", Json::str("energy")),
                    ("value", Json::num(0.25)),
                ])],
            ),
            bench(
                "sim_speed",
                vec![Json::obj([
                    ("name", Json::str("big")),
                    ("completed", Json::num(1562.0)),
                    ("wall_seconds", Json::num(0.02)),
                    ("sim_requests_per_second", Json::num(100_000.0)),
                ])],
            ),
        ])
    }

    fn rows(docs: &Json) -> Rows<'_> {
        Rows::of(docs.as_arr().expect("array of bench documents")).expect("valid documents")
    }

    /// The violations of `fresh` against `docs()` as the snapshot.
    fn gate(fresh: &Json) -> Vec<String> {
        compare(&rows(&docs()), &rows(fresh))
    }

    /// `docs()` with the number at `pointer` replaced.
    fn with(pointer: &str, value: f64) -> Json {
        let mut d = docs();
        d.set_pointer(pointer, Json::num(value)).expect("pointer");
        d
    }

    fn arr(json: &mut Json) -> &mut Vec<Json> {
        match json {
            Json::Arr(items) => items,
            _ => panic!("not an array"),
        }
    }

    fn fields(json: &mut Json) -> &mut Vec<(String, Json)> {
        match json {
            Json::Obj(pairs) => pairs,
            _ => panic!("not an object"),
        }
    }

    /// `docs()` with the rows of bench `i` edited.
    fn edit_rows(i: usize, edit: impl FnOnce(&mut Vec<Json>)) -> Json {
        let mut d = docs();
        edit(arr(&mut fields(&mut arr(&mut d)[i])[1].1));
        d
    }

    /// `doc` with `keys` taken out of every row of bench `i`.
    fn without(mut doc: Json, i: usize, keys: &[&str]) -> Json {
        for row in arr(&mut fields(&mut arr(&mut doc)[i])[1].1) {
            fields(row).retain(|(key, _)| !keys.contains(&key.as_str()));
        }
        doc
    }

    #[test]
    fn every_deterministic_change_is_a_violation() {
        let cases: Vec<(&str, Json, &[&str])> =
            vec![
            ("identical", docs(), &[]),
            (
                "throughput improvement",
                with("/0/rows/0/tokens_per_second", 150.0),
                &["lc/a: tokens_per_second 100 -> 150"],
            ),
            (
                "completed",
                with("/0/rows/0/completed", 9.0),
                &["lc/a: completed 10 -> 9"],
            ),
            (
                "evictions",
                with("/0/rows/1/evictions", 3.0),
                &["lc/b: evictions 2 -> 3"],
            ),
            (
                "scalar paper value",
                with("/1/rows/0/value", 0.26),
                &["fig16/energy: value 0.25 -> 0.26"],
            ),
            (
                "added field",
                edit_rows(0, |rows| fields(&mut rows[0]).push(("x".into(), Json::num(1.0)))),
                &["lc/a: fields added [\"x\"], removed []"],
            ),
            (
                "removed field",
                edit_rows(0, |rows| drop(fields(&mut rows[0]).pop())),
                &["lc/a: fields added [], removed [\"goodput\"]"],
            ),
            (
                "reordered fields",
                edit_rows(0, |rows| fields(&mut rows[0]).swap(1, 2)),
                &["lc/a: fields reordered to [\"name\", \"ttft_p99\", \"tokens_per_second\", \
                   \"completed\", \"evictions\", \"prefix_hit_tokens\", \"slo_attainment\", \
                   \"goodput\"]"],
            ),
            (
                "missing bench",
                {
                    let mut d = docs();
                    arr(&mut d).remove(1);
                    d
                },
                &["fig16: in the snapshot but missing from the fresh set"],
            ),
            (
                "missing row",
                edit_rows(0, |rows| drop(rows.remove(1))),
                &["lc/b: in the snapshot but missing from the fresh run"],
            ),
            (
                "new row",
                edit_rows(0, |rows| rows.push(serving("c"))),
                &["lc/c: not in the snapshot — regenerate BENCH_serving.json \
                   (check_regression --write-snapshot)"],
            ),
            (
                "simulator 25% slower",
                with("/2/rows/0/sim_requests_per_second", 75_000.0),
                &[],
            ),
            (
                "simulator faster",
                with("/2/rows/0/sim_requests_per_second", 500_000.0),
                &[],
            ),
            (
                "simulator 40% slower",
                with("/2/rows/0/sim_requests_per_second", 60_000.0),
                &["sim_speed/big: sim_requests_per_second 100000 -> 60000"],
            ),
            ("wall seconds", with("/2/rows/0/wall_seconds", 9.0), &[]),
        ];
        for (case, fresh, expected) in cases {
            assert_eq!(gate(&fresh), expected, "{case}");
        }
    }

    #[test]
    fn identical_runs_pass() {
        let text = include_str!("../../../BENCH_serving.json");
        let snapshot = Json::parse(text).expect("snapshot parses");
        let benches = snapshot.get("benches").expect("benches");
        assert!(rows(benches).count() > 0);
        assert_eq!(
            compare(&rows(benches), &rows(benches)),
            Vec::<String>::new()
        );
    }

    // A deterministic model has no noise floor, so even a 1–4% move
    // in a single metric is a violation.

    #[test]
    fn throughput_drop_fails() {
        let fresh = with("/0/rows/0/tokens_per_second", 99.0);
        assert_eq!(gate(&fresh), ["lc/a: tokens_per_second 100 -> 99"]);
    }

    #[test]
    fn ttft_rise_fails() {
        let fresh = with("/0/rows/0/ttft_p99", 0.51);
        assert_eq!(gate(&fresh), ["lc/a: ttft_p99 0.5 -> 0.51"]);
    }

    #[test]
    fn prefix_hit_gate_trips_on_real_drops_only() {
        let fresh = with("/0/rows/0/prefix_hit_tokens", 9_600.0);
        assert_eq!(gate(&fresh), ["lc/a: prefix_hit_tokens 10000 -> 9600"]);
    }

    #[test]
    fn attainment_gate_is_absolute_and_trips_on_real_drops_only() {
        let fresh = with("/0/rows/0/slo_attainment", 0.95);
        assert_eq!(gate(&fresh), ["lc/a: slo_attainment 0.98 -> 0.95"]);
    }

    #[test]
    fn goodput_gate_trips_on_real_drops_only() {
        let fresh = with("/0/rows/0/goodput", 86.0);
        assert_eq!(gate(&fresh), ["lc/a: goodput 90 -> 86"]);
    }

    // The only tolerance left is on wall-clock simulator speed.

    #[test]
    fn small_drift_within_tolerance_passes() {
        let mut fresh = with("/2/rows/0/wall_seconds", 0.05);
        let inside = 100_000.0 * (1.0 - MAX_SIM_SPEED_DROP) + 1.0;
        fresh
            .set_pointer("/2/rows/0/sim_requests_per_second", Json::num(inside))
            .expect("pointer");
        assert_eq!(gate(&fresh), Vec::<String>::new());
    }

    #[test]
    fn improvement_passes() {
        // A faster simulator passes; a better simulated result does not
        // (see `every_deterministic_change_is_a_violation`).
        let fresh = with("/2/rows/0/sim_requests_per_second", 250_000.0);
        assert_eq!(gate(&fresh), Vec::<String>::new());
    }

    #[test]
    fn rows_without_sim_speed_field_are_not_gated_on_it() {
        // A sim_speed row without the wall-clock fields on either side is
        // held exactly to the fields it has.
        let strip = |doc| without(doc, 2, &["wall_seconds", "sim_requests_per_second"]);
        let snapshot = strip(docs());
        let same = strip(docs());
        assert_eq!(
            compare(&rows(&snapshot), &rows(&same)),
            Vec::<String>::new()
        );
        let fresh = strip(with("/2/rows/0/completed", 1561.0));
        assert_eq!(
            compare(&rows(&snapshot), &rows(&fresh)),
            ["sim_speed/big: completed 1562 -> 1561"]
        );
    }

    #[test]
    fn rows_without_slo_fields_are_not_gated_on_them() {
        // Serving rows without SLO fields on either side are compared on
        // the fields they have; the scalar fig16 row never has them.
        let strip = |doc| without(doc, 0, &["slo_attainment", "goodput"]);
        let snapshot = strip(docs());
        let same = strip(docs());
        assert_eq!(
            compare(&rows(&snapshot), &rows(&same)),
            Vec::<String>::new()
        );
        let fresh = strip(with("/0/rows/1/ttft_p99", 0.6));
        assert_eq!(
            compare(&rows(&snapshot), &rows(&fresh)),
            ["lc/b: ttft_p99 0.5 -> 0.6"]
        );
    }

    #[test]
    fn renamed_and_dropped_rows_are_flagged() {
        let fresh = edit_rows(0, |rows| rows[1] = serving("renamed"));
        assert_eq!(
            gate(&fresh),
            [
                "lc/b: in the snapshot but missing from the fresh run",
                "lc/renamed: not in the snapshot — regenerate BENCH_serving.json \
                 (check_regression --write-snapshot)",
            ]
        );
    }

    #[test]
    fn sim_speed_gate_is_generous_but_real() {
        // Only the wall-clock fields are loose: the sim_speed row's
        // simulated results are gated exactly like any other row.
        let mut fresh = with("/2/rows/0/wall_seconds", 0.03);
        fresh
            .set_pointer("/2/rows/0/sim_requests_per_second", Json::num(80_000.0))
            .expect("pointer");
        assert!(gate(&fresh).is_empty());
        fresh
            .set_pointer("/2/rows/0/completed", Json::num(1561.0))
            .expect("pointer");
        assert_eq!(gate(&fresh), ["sim_speed/big: completed 1562 -> 1561"]);
    }
}
