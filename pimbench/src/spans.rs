//! In-memory spans around the benchmark's calls into each layer,
//! written out at the end of a traced run as Chrome trace-event JSON
//! (opens in `chrome://tracing` or ui.perfetto.dev).

use crate::measure::stopwatch;
use jsonio::Json;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.run`.
    pub name: &'static str,
    /// Microseconds since the tracer started.
    pub start_us: f64,
    /// Microseconds since the tracer started.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Counts recorded at the same boundary.
    pub args: Vec<(&'static str, f64)>,
}

/// Span recorder for one workload run; every span carries the run's
/// shared id.
#[derive(Debug)]
pub struct Tracer {
    run: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose spans all carry the id `run`.
    pub fn new(run: impl Into<String>) -> Self {
        Tracer {
            run: run.into(),
            origin: stopwatch(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span opened inside it and left open)
    /// and returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
        (self.spans[id].end_us - self.spans[id].start_us) / 1e6
    }

    /// Attaches a count to span `id`.
    pub fn arg(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].args.push((key, value));
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Median duration of the spans named `name`, in seconds (0 when
    /// there are none).
    pub fn median(&self, name: &str) -> f64 {
        let secs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e6)
            .collect();
        crate::measure::median(&secs)
    }

    /// The spans as a Chrome trace-event document: one complete (`X`)
    /// event per span, with the span index, parent index and run id in
    /// `args`.
    pub fn to_chrome(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("run".to_string(), Json::str(self.run.clone())),
                    ("span".to_string(), Json::num(i as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                    ),
                    ("start_us".to_string(), Json::num(s.start_us)),
                    ("end_us".to_string(), Json::num(s.end_us)),
                ];
                args.extend(s.args.iter().map(|(k, v)| (k.to_string(), Json::num(*v))));
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                    ("ph", Json::str("X")),
                    ("ts", Json::num(s.start_us)),
                    ("dur", Json::num(s.end_us - s.start_us)),
                    ("pid", Json::num(1.0)),
                    ("tid", Json::num(1.0)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([("run", Json::str(self.run.clone()))]),
            ),
        ])
    }

    /// Writes [`Self::to_chrome`] to `path`, creating parent directories.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_chrome().to_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::new("w/1");
        let outer = t.begin("scenario.materialize");
        let ((), _) = t.time("workload.trace_build", || ());
        t.arg(outer, "requests", 3.0);
        assert!(t.end(outer) >= 0.0);
        let spans = &t.spans;
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].end_us >= spans[1].end_us);
        let doc = t.to_chrome();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("run").and_then(Json::as_str), Some("w/1"));
        assert_eq!(
            events[0].get("cat").and_then(Json::as_str),
            Some("scenario")
        );
    }
}
