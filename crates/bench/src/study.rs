//! Serving sweeps as data: a study file (`studies/<bench>.json`) is a
//! grid of variations on one base [`Scenario`], and every grid point
//! runs through the one spec-to-report path,
//! `Scenario::materialize` → `Materialized::serve`.
//!
//! A study has five parts (the format is documented in
//! `docs/studies.md`):
//!
//! * `base` — a scenario spec, canonicalized by the scenario codec;
//! * `axes` — each value has a row-name `label`, a `set` map of JSON
//!   pointer → value applied to the base spec's canonical JSON (which
//!   the codec then parses, so any knob it knows can be swept), and
//!   optionally a `load` multiplier;
//! * `anchor` — pointer overrides turning a point's spec into the
//!   closed-world run whose capacity ([`crate::closed_world_capacity`])
//!   the `load` multipliers scale;
//! * `rows` — the derived fields, tenant rows and pool rows each point
//!   emits ([`RowSpec`]);
//! * `tiny` — pointer overrides and axis-label subsets for the CI smoke
//!   run.
//!
//! Row names are the axis labels joined by `/` in axis order.

use crate::cli::{report_rows, RowSpec, ROW_FIELDS, TENANT_FIELDS};
use crate::json::Json;
use std::collections::BTreeMap;
use system::{Materialized, Scenario, ServingReport};
use workload::ArrivalProcess;

/// JSON pointer → value assignments, in file order.
type Sets = Vec<(String, Json)>;
/// Per axis name, the labels a `--tiny` run keeps.
type TinyAxes = Vec<(String, Vec<String>)>;
/// A load multiplier and the anchor spec whose capacity it scales.
type Load = Option<(f64, Scenario)>;

/// A parsed study file.
#[derive(Debug)]
pub struct Study {
    /// The bench name the rows are written under (the file stem).
    pub bench: String,
    /// The canonical JSON of the base scenario.
    base: Json,
    axes: Vec<Axis>,
    anchor: Option<Sets>,
    rows: RowSpec,
    tiny_set: Sets,
    tiny_axes: TinyAxes,
}

#[derive(Debug)]
struct Axis {
    name: String,
    values: Vec<AxisValue>,
}

#[derive(Debug)]
struct AxisValue {
    label: String,
    set: Sets,
    load: Option<f64>,
}

/// One grid point, built and validated but not yet run.
#[derive(Debug)]
struct Point {
    /// The row name: the axis labels joined by `/`.
    name: String,
    /// The point's scenario, before any load multiplier.
    scenario: Scenario,
    /// The load multiplier and the anchor spec whose closed-world
    /// capacity it scales.
    load: Load,
}

/// One finished grid point.
#[derive(Debug)]
pub struct PointRun {
    /// The row name.
    pub name: String,
    /// The anchor capacity in requests/second, for loaded points.
    pub anchor_rps: Option<f64>,
    /// The offered rate in requests/second: the load multiplier times
    /// the anchor, or the sum of the tenants' nominal rates.
    pub rate: f64,
    /// The scenario that ran, load applied.
    pub scenario: Scenario,
    /// Its materialization.
    pub materialized: Materialized,
    /// Its serving report.
    pub report: ServingReport,
}

impl Study {
    /// Reads and parses a study file; the bench name is the file stem.
    pub fn from_file(path: &str) -> Result<Study, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&crate::cli::file_stem(path), &text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses a study document, validating everything that does not
    /// need a point built: keys, axis and label uniqueness, the load
    /// and anchor pairing, row fields, tenant names and tiny subsets.
    pub fn parse(bench: &str, text: &str) -> Result<Study, String> {
        let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        check_keys(&doc, "study", &["base", "axes", "anchor", "rows", "tiny"])?;
        let base_spec = Scenario::from_json(doc.get("base").ok_or("base: required scenario")?)
            .map_err(|e| format!("base: {e}"))?;
        let axes = doc
            .get("axes")
            .and_then(Json::as_arr)
            .ok_or("axes: required array")?
            .iter()
            .enumerate()
            .map(|(i, a)| parse_axis(a).map_err(|e| format!("axes[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        for (i, axis) in axes.iter().enumerate() {
            if axes[..i].iter().any(|a| a.name == axis.name) {
                return Err(format!("axes[{i}]: duplicate axis name {:?}", axis.name));
            }
        }
        let loaded = axes
            .iter()
            .filter(|a| a.values.iter().any(|v| v.load.is_some()))
            .count();
        if loaded > 1 {
            return Err("axes: at most one axis may carry load multipliers".to_string());
        }
        let anchor = doc
            .get("anchor")
            .map(|a| parse_sets(Some(a), "anchor"))
            .transpose()?;
        if (loaded == 1) != anchor.is_some() {
            return Err("anchor: required exactly when an axis value carries a load".to_string());
        }
        let rows = match doc.get("rows") {
            None => RowSpec::default(),
            Some(r) => parse_rows(r, &base_spec)?,
        };
        let (tiny_set, tiny_axes) = match doc.get("tiny") {
            None => (Vec::new(), Vec::new()),
            Some(t) => parse_tiny(t, &axes)?,
        };
        Ok(Study {
            bench: bench.to_string(),
            base: base_spec.to_json(),
            axes,
            anchor,
            rows,
            tiny_set,
            tiny_axes,
        })
    }

    /// Builds every grid point (first axis outermost), each spec parsed
    /// and validated by the scenario codec, so a bad pointer or knob
    /// fails before anything runs.
    fn points(&self, tiny: bool) -> Result<Vec<Point>, String> {
        let mut base = self.base.clone();
        if tiny {
            apply(&mut base, &self.tiny_set).map_err(|e| format!("tiny: {e}"))?;
        }
        let axes: Vec<Vec<&AxisValue>> = self
            .axes
            .iter()
            .map(|axis| {
                let keep = self.tiny_axes.iter().find(|(name, _)| *name == axis.name);
                axis.values
                    .iter()
                    .filter(|v| !tiny || keep.map_or(true, |(_, labels)| labels.contains(&v.label)))
                    .collect()
            })
            .collect();
        let mut grid: Vec<Vec<&AxisValue>> = vec![Vec::new()];
        for values in &axes {
            grid = grid
                .iter()
                .flat_map(|prefix| {
                    values.iter().map(move |v| {
                        let mut point = prefix.clone();
                        point.push(*v);
                        point
                    })
                })
                .collect();
        }
        grid.into_iter()
            .map(|values| {
                let name: Vec<&str> = values.iter().map(|v| v.label.as_str()).collect();
                let name = name.join("/");
                self.point(&base, &values)
                    .map(|(scenario, load)| Point {
                        name: name.clone(),
                        scenario,
                        load,
                    })
                    .map_err(|e| format!("point {name}: {e}"))
            })
            .collect()
    }

    /// One point's scenario (and, if loaded, its multiplier and anchor
    /// spec) from the base JSON and the chosen axis values.
    fn point(&self, base: &Json, values: &[&AxisValue]) -> Result<(Scenario, Load), String> {
        let mut doc = base.clone();
        for v in values {
            apply(&mut doc, &v.set)?;
        }
        let scenario = Scenario::from_json(&doc)?;
        let Some(load) = values.iter().find_map(|v| v.load) else {
            return Ok((scenario, None));
        };
        if scenario
            .workload
            .iter()
            .any(|t| matches!(t.arrivals, ArrivalProcess::Batch))
        {
            return Err("a load multiplier needs every tenant to have an arrival rate".to_string());
        }
        let sets = self.anchor.as_deref().unwrap_or_default();
        apply(&mut doc, sets).map_err(|e| format!("anchor: {e}"))?;
        let anchor = Scenario::from_json(&doc).map_err(|e| format!("anchor: {e}"))?;
        Ok((scenario, Some((load, anchor))))
    }

    /// Runs every point in grid order, calling `on_point` after each,
    /// and returns the rows of the `{"bench": ..., "rows": [...]}`
    /// document. Anchor capacities are measured once per distinct
    /// anchor spec.
    pub fn run(
        &self,
        tiny: bool,
        mut on_point: impl FnMut(&PointRun),
    ) -> Result<Vec<Json>, String> {
        let mut anchors: BTreeMap<String, f64> = BTreeMap::new();
        let mut rows = Vec::new();
        for point in self.points(tiny)? {
            let mut scenario = point.scenario;
            let mut anchor_rps = None;
            let rate = match &point.load {
                Some((load, anchor)) => {
                    let key = anchor.to_pretty();
                    let capacity = match anchors.get(&key) {
                        Some(&c) => c,
                        None => {
                            let m = anchor
                                .materialize()
                                .map_err(|e| format!("point {}: anchor: {e}", point.name))?;
                            let (_, c) = crate::closed_world_capacity(&m.evaluator, &m.trace);
                            anchors.insert(key, c);
                            c
                        }
                    };
                    anchor_rps = Some(capacity);
                    let total = load * capacity;
                    let nominal = nominal_rate(&scenario);
                    for t in &mut scenario.workload {
                        if let ArrivalProcess::Poisson { rate }
                        | ArrivalProcess::Bursty { rate, .. } = &mut t.arrivals
                        {
                            *rate = total * (*rate / nominal);
                        }
                    }
                    total
                }
                None => nominal_rate(&scenario),
            };
            let materialized = scenario
                .materialize()
                .map_err(|e| format!("point {}: {e}", point.name))?;
            let report = materialized.run();
            let run = PointRun {
                name: point.name,
                anchor_rps,
                rate,
                scenario,
                materialized,
                report,
            };
            rows.extend(report_rows(
                &run.name,
                run.rate,
                &run.materialized,
                &run.report,
                &self.rows,
            ));
            on_point(&run);
        }
        Ok(rows)
    }
}

/// The sum of the tenants' nominal arrival rates (batch tenants offer
/// none).
fn nominal_rate(s: &Scenario) -> f64 {
    s.workload
        .iter()
        .map(|t| match t.arrivals {
            ArrivalProcess::Batch => 0.0,
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Bursty { rate, .. } => rate,
        })
        .sum()
}

fn apply(doc: &mut Json, sets: &[(String, Json)]) -> Result<(), String> {
    for (pointer, value) in sets {
        doc.set_pointer(pointer, value.clone())?;
    }
    Ok(())
}

fn check_keys(obj: &Json, what: &str, known: &[&str]) -> Result<(), String> {
    let Json::Obj(pairs) = obj else {
        return Err(format!("{what}: expected an object"));
    };
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => Err(format!(
            "{what}: unknown key {k:?} (expected one of: {})",
            known.join(", ")
        )),
        None => Ok(()),
    }
}

fn parse_sets(obj: Option<&Json>, what: &str) -> Result<Sets, String> {
    match obj {
        None => Ok(Vec::new()),
        Some(Json::Obj(pairs)) => Ok(pairs.clone()),
        Some(_) => Err(format!(
            "{what}: expected an object of JSON pointer -> value"
        )),
    }
}

fn strings(v: Option<&Json>, what: &str) -> Result<Vec<String>, String> {
    let Some(v) = v else {
        return Ok(Vec::new());
    };
    v.as_arr()
        .and_then(|items| items.iter().map(|s| s.as_str().map(String::from)).collect())
        .ok_or_else(|| format!("{what}: expected an array of strings"))
}

fn parse_axis(a: &Json) -> Result<Axis, String> {
    check_keys(a, "axis", &["name", "values"])?;
    let name = a
        .get("name")
        .and_then(Json::as_str)
        .ok_or("name: required string")?
        .to_string();
    let values = a
        .get("values")
        .and_then(Json::as_arr)
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("{name}: values must be a nonempty array"))?
        .iter()
        .map(|v| {
            check_keys(v, &name, &["label", "set", "load"])?;
            let label = v
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name}: every value needs a string label"))?
                .to_string();
            let load = match v.get("load") {
                None => None,
                Some(l) => Some(
                    l.as_f64()
                        .filter(|l| *l > 0.0 && l.is_finite())
                        .ok_or_else(|| format!("{name}/{label}: load must be a positive number"))?,
                ),
            };
            let set = parse_sets(v.get("set"), &format!("{name}/{label}"))?;
            Ok(AxisValue { label, set, load })
        })
        .collect::<Result<Vec<_>, String>>()?;
    for (i, v) in values.iter().enumerate() {
        if values[..i].iter().any(|w| w.label == v.label) {
            return Err(format!("{name}: duplicate label {:?}", v.label));
        }
    }
    Ok(Axis { name, values })
}

fn parse_rows(r: &Json, base: &Scenario) -> Result<RowSpec, String> {
    check_keys(r, "rows", &["fields", "tenants", "tenant_fields", "pools"])?;
    let spec = RowSpec {
        fields: strings(r.get("fields"), "rows.fields")?,
        tenants: strings(r.get("tenants"), "rows.tenants")?,
        tenant_fields: strings(r.get("tenant_fields"), "rows.tenant_fields")?,
        pools: match r.get("pools") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("rows.pools: expected true or false".to_string()),
        },
    };
    let row_names: Vec<&str> = ROW_FIELDS.iter().map(|(n, _)| *n).collect();
    let tenant_names: Vec<&str> = TENANT_FIELDS.iter().map(|(n, _)| *n).collect();
    for (fields, known, what) in [
        (&spec.fields, row_names, "rows.fields"),
        (&spec.tenant_fields, tenant_names, "rows.tenant_fields"),
    ] {
        if let Some(f) = fields.iter().find(|f| !known.contains(&f.as_str())) {
            return Err(format!(
                "{what}: unknown field {f:?} (expected one of: {})",
                known.join(", ")
            ));
        }
    }
    if let Some(t) = spec
        .tenants
        .iter()
        .find(|t| !base.workload.iter().any(|w| w.name == **t))
    {
        return Err(format!(
            "rows.tenants: no tenant named {t:?} in the base workload"
        ));
    }
    Ok(spec)
}

fn parse_tiny(t: &Json, axes: &[Axis]) -> Result<(Sets, TinyAxes), String> {
    check_keys(t, "tiny", &["set", "axes"])?;
    let set = parse_sets(t.get("set"), "tiny.set")?;
    let keep = match t.get("axes") {
        None => Vec::new(),
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, labels)| {
                let what = format!("tiny.axes.{name}");
                let axis = axes
                    .iter()
                    .find(|a| a.name == *name)
                    .ok_or_else(|| format!("{what}: no such axis"))?;
                let labels = strings(Some(labels), &what)?;
                if let Some(l) = labels
                    .iter()
                    .find(|l| !axis.values.iter().any(|v| v.label == **l))
                {
                    return Err(format!("{what}: no value labelled {l:?}"));
                }
                Ok((name.clone(), labels))
            })
            .collect::<Result<Vec<_>, String>>()?,
        Some(_) => return Err("tiny.axes: expected an object of axis -> labels".to_string()),
    };
    Ok((set, keep))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-axis study over a one-tenant Poisson spec.
    fn study(extra: &str) -> Result<Study, String> {
        Study::parse(
            "t",
            &format!(
                r#"{{"base": {{"model": "LLM-7B-32K",
                    "policies": {{"scheduling": "continuous"}},
                    "workload": [{{"name": "a", "dataset": "QMSum", "requests": 4,
                                   "arrivals": {{"process": "poisson", "rate": 0.5}}}}]}},
                  "axes": [
                    {{"name": "router", "values": [
                      {{"label": "rr", "set": {{"/policies/router": "round-robin"}}}},
                      {{"label": "jsq", "set": {{"/policies/router": "jsq"}}}}]}},
                    {{"name": "kv", "values": [
                      {{"label": "full"}},
                      {{"label": "half", "set": {{"/policies/kv_capacity_factor": 0.5}}}}]}}
                  ]{extra}}}"#
            ),
        )
    }

    #[test]
    fn points_cross_axes_in_order_and_tiny_keeps_subsets() {
        let s =
            study(r#", "tiny": {"set": {"/workload/0/requests": 2}, "axes": {"kv": ["half"]}}"#)
                .unwrap();
        let names: Vec<String> = s
            .points(false)
            .unwrap()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, ["rr/full", "rr/half", "jsq/full", "jsq/half"]);
        let tiny = s.points(true).unwrap();
        let names: Vec<&str> = tiny.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["rr/half", "jsq/half"]);
        assert_eq!(tiny[1].scenario.workload[0].requests, 2);
        assert_eq!(tiny[1].scenario.policies.kv_capacity_factor, 0.5);
        assert_eq!(tiny[1].scenario.policies.router.label(), "jsq");
    }

    #[test]
    fn bad_pointers_and_knobs_fail_before_running() {
        let s = study(r#", "tiny": {"set": {"/polices/router": "jsq"}}"#).unwrap();
        assert_eq!(
            s.points(true).unwrap_err(),
            "tiny: JSON pointer /polices/router resolves nowhere"
        );
        let s = study(r#", "tiny": {"set": {"/policies/preemptoin": "none"}}"#).unwrap();
        let err = s.points(true).unwrap_err();
        assert!(err.contains("did you mean \"preemption\""), "{err}");
    }

    #[test]
    fn malformed_studies_are_rejected_with_the_offending_part() {
        for (extra, needle) in [
            (r#", "anchor": {}"#, "anchor: required exactly when"),
            (
                r#", "rows": {"fields": ["goodputt"]}"#,
                "unknown field \"goodputt\"",
            ),
            (r#", "rows": {"tenants": ["b"]}"#, "no tenant named \"b\""),
            (
                r#", "tiny": {"axes": {"kv": ["quarter"]}}"#,
                "no value labelled \"quarter\"",
            ),
            (r#", "extra": 1"#, "unknown key \"extra\""),
        ] {
            let err = study(extra).unwrap_err();
            assert!(err.contains(needle), "{extra}: {err}");
        }
    }

    #[test]
    fn load_scales_tenant_rates_by_their_share_of_the_anchor() {
        let s = Study::parse(
            "t",
            r#"{"base": {"model": "LLM-7B-32K",
                "workload": [
                  {"name": "a", "dataset": "QMSum", "requests": 4,
                   "arrivals": {"process": "poisson", "rate": 0.3}},
                  {"name": "b", "dataset": "QMSum", "requests": 4, "seed": 1,
                   "arrivals": {"process": "bursty", "rate": 0.1, "cv": 2}}]},
              "anchor": {"/workload/0/arrivals": {"process": "batch"}},
              "axes": [{"name": "load", "values": [{"label": "2x", "load": 2}]}]}"#,
        )
        .unwrap();
        let mut rates = Vec::new();
        s.run(false, |r| {
            let total = 2.0 * r.anchor_rps.unwrap();
            assert_eq!(r.rate, total);
            for t in &r.scenario.workload {
                if let ArrivalProcess::Poisson { rate } | ArrivalProcess::Bursty { rate, .. } =
                    t.arrivals
                {
                    rates.push(rate / total);
                }
            }
        })
        .unwrap();
        assert_eq!(rates.len(), 2);
        assert!(
            (rates[0] - 0.75).abs() < 1e-12 && (rates[1] - 0.25).abs() < 1e-12,
            "{rates:?}"
        );
    }
}
