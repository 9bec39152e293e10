//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out as Chrome trace JSON (loadable in Perfetto) when the run
//! ends. Only the benchmark's own code records spans; the program itself
//! is not instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One closed span, times in microseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

/// Records nested spans when on. Off, it still times each interval, so
/// callers use one code path for traced and untraced runs.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span begun and not yet ended.
#[must_use = "end the span"]
#[derive(Debug)]
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span called `name` inside the innermost open one.
    pub fn begin(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_us: self.us(start),
                end_us: 0.0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    /// Closes a span (the innermost open one) and returns its length in
    /// seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
            self.open.pop();
            self.spans[idx].end_us = self.us(end);
        }
        (end - open.start).as_secs_f64()
    }

    fn us(&self, t: Instant) -> f64 {
        (t - self.origin).as_secs_f64() * 1e6
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(&s.name)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Parses spans written by [`Spans::to_json`].
pub fn from_json(v: &Json) -> Vec<Span> {
    v.as_arr()
        .iter()
        .map(|s| Span {
            name: s
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            start_us: s.get("start_us").and_then(Json::as_f64).unwrap_or(0.0),
            end_us: s.get("end_us").and_then(Json::as_f64).unwrap_or(0.0),
            parent: s.get("parent").and_then(Json::as_f64).map(|p| p as usize),
        })
        .collect()
}

/// Self time of every span in seconds — its duration minus the part its
/// child spans cover — summed by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.end_us - s.start_us;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_us) {
        *out.entry(s.name.clone()).or_insert(0.0) += (s.end_us - s.start_us - c) / 1e6;
    }
    out
}

/// Chrome trace-event JSON for the spans of several traced runs: one
/// thread per run (`tid` = rep id), complete (`X`) events with each
/// span's parent in `args`.
pub fn chrome_trace(runs: &[(String, usize, Vec<Span>)]) -> Json {
    let mut events = Vec::new();
    for (label, rep, spans) in runs {
        let tid = Json::Num(*rep as f64);
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", tid.clone()),
            (
                "args",
                Json::obj([("name", Json::str(format!("{label} rep {rep}")))]),
            ),
        ]));
        for s in spans {
            let parent = s.parent.map_or("", |p| spans[p].name.as_str());
            events.push(Json::obj([
                ("name", Json::str(&s.name)),
                ("cat", Json::str("benchmark")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.end_us - s.start_us)),
                ("pid", Json::Num(1.0)),
                ("tid", tid.clone()),
                (
                    "args",
                    Json::obj([
                        ("parent", Json::str(parent)),
                        ("rep", Json::Num(*rep as f64)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("workload", 0.0, 10e6, None),
            span("try_run", 1e6, 4e6, Some(0)),
            span("try_run", 5e6, 9e6, Some(0)),
        ];
        let t = self_times(&spans);
        assert!((t["workload"] - 3.0).abs() < 1e-9);
        assert!((t["try_run"] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_and_round_trips() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer");
        let inner = s.begin("inner");
        let inner_s = s.end(inner);
        let outer_s = s.end(outer);
        assert!(inner_s <= outer_s);
        let back = from_json(&s.to_json());
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].parent, Some(0));
        assert!(back[0].start_us <= back[1].start_us && back[1].end_us <= back[0].end_us);
        let mut off = Spans::new(false);
        let x = off.begin("x");
        assert!(off.end(x) >= 0.0);
        assert_eq!(off.to_json(), Json::Arr(Vec::new()));
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let runs = vec![("em3d-sm".to_string(), 3, vec![span("w", 0.0, 5.0, None)])];
        let t = chrome_trace(&runs);
        let events = t.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("tid").unwrap().as_f64(), Some(3.0));
    }
}
