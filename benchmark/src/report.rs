//! Turns child runs into named metrics, prints them, writes and reads
//! `metrics.json`, and compares two sets (`benchmark agree`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::calib::CALIB_REF_S;
use crate::json::Json;
use crate::spans::{self, Span};
use crate::stats::{median, quartiles, spread, tail_percentile};
use crate::workloads::{golden, Scale, Workload};

/// How `agree` judges a metric between two sets.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Gate {
    /// By the direction and bound `BENCHMARK.json` gives it.
    Benchmark,
    /// Lower is better; worse by more than this share fails.
    Within(f64),
    /// A count the simulator makes: must not change at all.
    Exact,
    /// Must stay zero.
    Zero,
    /// Context only.
    Info,
}

/// Every metric the benchmark reports: name, unit, and gate, in print
/// order. The end-to-end metrics come first.
pub const CATALOGUE: &[(&str, &str, Gate)] = &[
    ("wall_cal_s", "s", Gate::Benchmark),
    ("sim_mcycles_per_s", "Mcycles/s", Gate::Benchmark),
    ("setup_s", "s", Gate::Benchmark),
    ("peak_rss_mb", "MB", Gate::Benchmark),
    ("allocs", "count", Gate::Within(0.01)),
    ("sim_cycles", "cycles", Gate::Exact),
    ("fail_frac", "fraction", Gate::Zero),
    ("sim.events", "count", Gate::Exact),
    ("sim.ns_per_event", "ns", Gate::Info),
    ("sim.calls_boxed", "count", Gate::Exact),
    ("sim.calls_inline", "count", Gate::Exact),
    ("sim.pool_fresh", "count", Gate::Exact),
    ("mem.priv_misses", "count", Gate::Exact),
    ("mem.tlb_misses", "count", Gate::Exact),
    ("sm.shared_misses", "count", Gate::Exact),
    ("sm.write_faults", "count", Gate::Exact),
    ("sm.dir_requests", "count", Gate::Exact),
    ("sm.ns_per_shared_miss", "ns", Gate::Info),
    ("mp.packets", "count", Gate::Exact),
    ("mp.active_messages", "count", Gate::Exact),
    ("mp.channel_writes", "count", Gate::Exact),
    ("mp.ns_per_packet", "ns", Gate::Info),
    ("apps.compute_frac", "fraction", Gate::Exact),
    ("apps.events_per_host_s", "1/s", Gate::Info),
    ("core.sweep_cold_s", "s", Gate::Info),
    ("core.sweep_warm_ms", "ms", Gate::Info),
    ("core.render_ms", "ms", Gate::Info),
    ("core.cache_hits", "count", Gate::Exact),
    ("core.cache_misses", "count", Gate::Zero),
    ("store.entries", "count", Gate::Exact),
    ("store.bytes", "count", Gate::Exact),
    ("host.wall_s", "s", Gate::Info),
    ("host.calib_s", "s", Gate::Info),
    ("trace.overhead", "ratio", Gate::Info),
    ("probe.sim.ns_per_event", "ns", Gate::Info),
    ("probe.mem.ns_per_access.fit", "ns", Gate::Info),
    ("probe.mem.ns_per_access.thrash", "ns", Gate::Info),
    ("probe.sm.ns_per_transaction", "ns", Gate::Info),
    ("probe.mp.ns_per_am", "ns", Gate::Info),
    ("probe.mp.ns_per_allreduce", "ns", Gate::Info),
];

pub fn unit(name: &str) -> &'static str {
    CATALOGUE
        .iter()
        .find(|(n, ..)| *n == name)
        .map_or("?", |&(_, u, _)| u)
}

/// One child run as the parent saw it.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub rep: usize,
    pub traced: bool,
    /// From spawning the child until it reported its inputs built
    /// (host seconds, not rescaled).
    pub setup_s: f64,
    /// Median calibration unit around the batch this run was in.
    pub calib_s: f64,
    /// What the child measured; empty if it died.
    pub metrics: BTreeMap<String, f64>,
    pub failures: Vec<String>,
    pub digest: Option<u64>,
    pub spans: Vec<Span>,
}

impl Sample {
    fn get(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }

    /// Wall time rescaled to the reference host.
    fn wall_cal(&self) -> Option<f64> {
        Some(self.get("host.wall_s")? * CALIB_REF_S / self.calib_s)
    }
}

/// A metric's samples (one per run, or one in all for a value measured
/// once).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn median(&self) -> f64 {
        median(&self.samples).unwrap_or(f64::NAN)
    }
}

/// Every metric of one workload, and the verdict on its outputs.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    pub workload: Workload,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub digest: Option<u64>,
    pub golden: Option<u64>,
    pub metrics: Vec<Metric>,
    /// Self time per span name, summed over the traced runs, seconds.
    pub self_times: BTreeMap<String, f64>,
}

impl WorkloadReport {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Judges the samples of one workload and derives its metrics. A run
/// fails if the child died, a validation failed, the sweep's warm pass
/// missed or differed, or its digest differs from `golden.txt` (seed 0)
/// or from the first run's (any other seed).
pub fn workload_report(
    workload: Workload,
    scale: Scale,
    seed: u64,
    samples: &mut [Sample],
) -> WorkloadReport {
    let golden = if seed == 0 {
        golden(scale, workload)
    } else {
        samples.iter().find_map(|s| s.digest)
    };
    for s in samples.iter_mut() {
        match (s.digest, golden) {
            (Some(d), Some(g)) if d != g => s.failures.push(format!(
                "digest {d:016x} differs from {} {g:016x}",
                if seed == 0 {
                    "golden.txt"
                } else {
                    "the first run's"
                }
            )),
            (Some(_), None) => s.failures.push(format!(
                "golden.txt has no `{} {workload}` line",
                scale.name()
            )),
            _ => {}
        }
    }
    let attempted = samples.len();
    let failed = samples.iter().filter(|s| !s.failures.is_empty()).count();
    let mut counted: Vec<(&str, usize)> = Vec::new();
    for f in samples.iter().flat_map(|s| &s.failures) {
        match counted.iter_mut().find(|(m, _)| m == f) {
            Some((_, n)) => *n += 1,
            None => counted.push((f, 1)),
        }
    }
    let failures = counted
        .into_iter()
        .map(|(m, n)| format!("{m} ({n} run{})", if n == 1 { "" } else { "s" }))
        .collect();

    let untraced: Vec<&Sample> = samples
        .iter()
        .filter(|s| !s.traced && !s.metrics.is_empty())
        .collect();
    let traced: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.traced && !s.metrics.is_empty())
        .collect();
    let all: Vec<&Sample> = samples.iter().filter(|s| !s.metrics.is_empty()).collect();
    let get = |set: &[&Sample], key: &str| -> Vec<f64> {
        set.iter().filter_map(|s| s.get(key)).collect()
    };
    let med = |set: &[&Sample], key: &str| median(&get(set, key)).unwrap_or(0.0);
    // Host time per unit of simulated work, one sample per untraced run.
    let per = |count: f64, scale: f64| -> Vec<f64> {
        if count > 0.0 {
            get(&untraced, "host.wall_s")
                .iter()
                .map(|w| w * scale / count)
                .collect()
        } else {
            Vec::new()
        }
    };
    let events = med(&traced, "sim.events");
    // Rescaled times, so a host that slowed between the untraced and the
    // traced runs does not read as tracing cost.
    let wall_cal =
        |set: &[&Sample]| -> Vec<f64> { set.iter().filter_map(|s| s.wall_cal()).collect() };
    let trace_overhead = match (median(&wall_cal(&traced)), median(&wall_cal(&untraced))) {
        (Some(t), Some(u)) if u > 0.0 => vec![t / u],
        _ => Vec::new(),
    };

    let mut metrics: Vec<(&str, Vec<f64>)> = vec![
        ("wall_cal_s", wall_cal(&untraced)),
        (
            "sim_mcycles_per_s",
            untraced
                .iter()
                .filter_map(|s| Some(s.get("sim_cycles")? / s.wall_cal()? / 1e6))
                .collect(),
        ),
        (
            "setup_s",
            untraced
                .iter()
                .map(|s| s.setup_s * CALIB_REF_S / s.calib_s)
                .collect(),
        ),
        ("peak_rss_mb", get(&untraced, "host.rss_mb")),
        ("allocs", get(&traced, "allocs")),
        ("sim_cycles", get(&all, "sim_cycles")),
        ("fail_frac", vec![failed as f64 / attempted.max(1) as f64]),
        ("sim.events", get(&traced, "sim.events")),
        ("sim.ns_per_event", per(events, 1e9)),
        (
            "sm.ns_per_shared_miss",
            per(med(&all, "sm.shared_misses"), 1e9),
        ),
        ("mp.ns_per_packet", per(med(&all, "mp.packets"), 1e9)),
        (
            "apps.events_per_host_s",
            get(&untraced, "host.wall_s")
                .iter()
                .filter(|_| events > 0.0)
                .map(|w| events / w)
                .collect(),
        ),
        ("host.calib_s", samples.iter().map(|s| s.calib_s).collect()),
        ("trace.overhead", trace_overhead),
    ];
    // Registry counts exist only in traced runs; guest counts repeat in
    // every run; times come from untraced runs only.
    for key in ["sim.calls_boxed", "sim.calls_inline", "sim.pool_fresh"] {
        metrics.push((key, get(&traced, key)));
    }
    for key in [
        "mem.priv_misses",
        "mem.tlb_misses",
        "sm.shared_misses",
        "sm.write_faults",
        "sm.dir_requests",
        "mp.packets",
        "mp.active_messages",
        "mp.channel_writes",
        "apps.compute_frac",
        "core.cache_hits",
        "core.cache_misses",
        "store.entries",
        "store.bytes",
    ] {
        metrics.push((key, get(&all, key)));
    }
    for key in [
        "host.wall_s",
        "core.sweep_cold_s",
        "core.sweep_warm_ms",
        "core.render_ms",
    ] {
        metrics.push((key, get(&untraced, key)));
    }
    let mut self_times = BTreeMap::new();
    for s in &traced {
        for (name, t) in spans::self_times(&s.spans) {
            *self_times.entry(name).or_insert(0.0) += t;
        }
    }

    WorkloadReport {
        workload,
        attempted,
        failed,
        failures,
        digest: samples.iter().find_map(|s| s.digest),
        golden,
        metrics: in_catalogue_order(metrics),
        self_times,
    }
}

/// Drops empty metrics and orders the rest as [`CATALOGUE`] lists them.
fn in_catalogue_order(metrics: Vec<(&str, Vec<f64>)>) -> Vec<Metric> {
    let mut out: Vec<Metric> = metrics
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(name, samples)| Metric {
            name: name.to_string(),
            samples,
        })
        .collect();
    let pos = |n: &str| {
        CATALOGUE
            .iter()
            .position(|(c, ..)| *c == n)
            .unwrap_or(usize::MAX)
    };
    out.sort_by_key(|m| pos(&m.name));
    out
}

/// Prints a metric table: median, quartiles and sample count, plus the
/// highest percentile with ten samples beyond it where there are enough.
pub fn render_metrics(metrics: &[Metric]) -> String {
    let mut out = format!(
        "  {:<32} {:>14} {:>14} {:>14} {:>4}  {:<14} {}\n",
        "metric", "median", "q1", "q3", "n", "tail", "unit"
    );
    for m in metrics {
        let (q1, q3) = quartiles(&m.samples).unwrap_or((f64::NAN, f64::NAN));
        let tail = tail_percentile(&m.samples)
            .map(|(p, v)| format!("p{p}={}", num(v)))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {:<32} {:>14} {:>14} {:>14} {:>4}  {:<14} {}",
            m.name,
            num(m.median()),
            num(q1),
            num(q3),
            m.samples.len(),
            tail,
            unit(&m.name)
        );
    }
    out
}

/// Six significant digits, or a whole number from a million up.
fn num(x: f64) -> String {
    if !x.is_finite() || x.abs() >= 1e6 || x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        let decimals = (5 - x.abs().log10().floor() as i32).max(0) as usize;
        format!("{x:.decimals$}")
    }
}

pub fn render_workload(r: &WorkloadReport) -> String {
    let mut out = format!(
        "\n== {}: {} runs, {} failed; digest {}{}\n",
        r.workload,
        r.attempted,
        r.failed,
        r.digest.map_or("-".into(), |d| format!("{d:016x}")),
        match (r.digest, r.golden) {
            (Some(d), Some(g)) if d == g => " (matches)".to_string(),
            (_, Some(g)) => format!(" (expected {g:016x})"),
            _ => String::new(),
        }
    );
    out.push_str(&render_metrics(&r.metrics));
    if !r.self_times.is_empty() {
        out.push_str("  span self time, summed over traced runs:\n");
        for (name, t) in &r.self_times {
            let _ = writeln!(out, "    {name:<40} {t:>12.6} s");
        }
    }
    for f in &r.failures {
        let _ = writeln!(out, "  FAILED {f}");
    }
    out
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("unit", Json::str(unit(&m.name))),
                ("median", Json::Num(m.median())),
                (
                    "samples",
                    Json::Arr(m.samples.iter().map(|&x| Json::Num(x)).collect()),
                ),
            ]),
        )
    }))
}

/// The `metrics.json` document of a run or a set.
pub fn to_json(header: Json, reports: &[WorkloadReport], probes: &[Metric]) -> Json {
    let mut kv = header.as_obj().to_vec();
    kv.push((
        "workloads".into(),
        Json::obj(reports.iter().map(|r| {
            (
                r.workload.name(),
                Json::obj([
                    ("attempted", Json::Num(r.attempted as f64)),
                    ("failed", Json::Num(r.failed as f64)),
                    (
                        "failures",
                        Json::Arr(r.failures.iter().map(Json::str).collect()),
                    ),
                    (
                        "digest",
                        r.digest
                            .map_or(Json::Null, |d| Json::str(format!("{d:016x}"))),
                    ),
                    ("metrics", metrics_json(&r.metrics)),
                    (
                        "span_self_s",
                        Json::obj(r.self_times.iter().map(|(k, &v)| (k.clone(), Json::Num(v)))),
                    ),
                ]),
            )
        })),
    ));
    kv.push(("probes".into(), metrics_json(probes)));
    Json::Obj(kv)
}

/// `(name, unit, better, bound)` of each metric in a `BENCHMARK.json`
/// list (`end_to_end` or `per_layer`).
pub fn benchmark_list(bench: &Json, list: &str) -> Vec<(String, String, String, Option<f64>)> {
    bench
        .get(list)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (
                s("name"),
                s("unit"),
                s("better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

/// The repository's `BENCHMARK.json`, as built in.
pub fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON")
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// Judges set `b` against set `a` for one metric. A bounded metric is
/// the same when its median moved by no more than `floor` (in the
/// metric's unit); otherwise worse when it moved the wrong way by more
/// than `bound` of `a`'s median, and unresolved when either set's own
/// quartile spread exceeds the bound, unless every sample of `b` beats
/// or loses to every sample of `a`.
pub fn judge(
    gate: Gate,
    higher_better: bool,
    bound: f64,
    floor: f64,
    a: &[f64],
    b: &[f64],
) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    match gate {
        Gate::Info => Verdict::Same,
        Gate::Exact => {
            if a.iter().chain(b).all(|&x| x == ma) {
                Verdict::Same
            } else {
                Verdict::Worse
            }
        }
        Gate::Zero => {
            if mb == 0.0 && b.iter().all(|&x| x == 0.0) {
                Verdict::Same
            } else {
                Verdict::Worse
            }
        }
        Gate::Benchmark | Gate::Within(_) => {
            // Positive when `b` is worse.
            let worse_by = if higher_better { ma - mb } else { mb - ma };
            if worse_by.abs() <= floor {
                return Verdict::Same;
            }
            if spread(a) > bound || spread(b) > bound {
                // Too noisy to judge by medians: only a clean separation
                // counts.
                let (amin, amax) = min_max(a);
                let (bmin, bmax) = min_max(b);
                let (b_lower, b_higher) = (bmax < amin, bmin > amax);
                let (better, worse) = if higher_better {
                    (b_higher, b_lower)
                } else {
                    (b_lower, b_higher)
                };
                return if better {
                    Verdict::Better
                } else if worse {
                    Verdict::Worse
                } else {
                    Verdict::Unresolved
                };
            }
            let limit = (bound * ma.abs()).max(floor);
            if worse_by > limit {
                Verdict::Worse
            } else if -worse_by > limit {
                Verdict::Better
            } else {
                Verdict::Same
            }
        }
    }
}

fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Below this, a change in set-up time is not judged: process start
/// jitter alone moves it by a millisecond.
pub const SETUP_FLOOR_S: f64 = 0.005;

/// `benchmark agree A.json B.json`: every (workload, metric) pair both
/// documents carry, judged by its gate. Returns the printed table and
/// whether nothing got worse.
pub fn agree(a: &Json, b: &Json) -> (String, bool) {
    let bench = benchmark_json();
    let bounds = benchmark_list(&bench, "end_to_end");
    let samples = |doc: &Json, sect: &str, w: &str, m: &str| -> Option<Vec<f64>> {
        let node = if sect == "probes" {
            doc.get("probes")?.get(m)?
        } else {
            doc.get("workloads")?.get(w)?.get("metrics")?.get(m)?
        };
        Some(
            node.get("samples")?
                .as_arr()
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
        )
    };
    let mut out = format!(
        "{:<10} {:<32} {:>14} {:>14} {:>8}  {}\n",
        "workload", "metric", "A median", "B median", "delta", "verdict"
    );
    let mut ok = true;
    let workloads: Vec<&str> = a
        .get("workloads")
        .map(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let rows = workloads
        .iter()
        .map(|w| ("workloads", *w))
        .chain(std::iter::once(("probes", "-")));
    for (sect, w) in rows {
        for &(name, _, gate) in CATALOGUE {
            let (Some(sa), Some(sb)) = (samples(a, sect, w, name), samples(b, sect, w, name))
            else {
                continue;
            };
            let (higher, bound, floor) = match gate {
                Gate::Benchmark => {
                    let Some((_, _, better, Some(bound))) = bounds.iter().find(|e| e.0 == name)
                    else {
                        continue;
                    };
                    let floor = if name == "setup_s" {
                        SETUP_FLOOR_S
                    } else {
                        0.0
                    };
                    (better == "higher", *bound, floor)
                }
                Gate::Within(b) => (false, b, 0.0),
                _ => (false, 0.0, 0.0),
            };
            let v = judge(gate, higher, bound, floor, &sa, &sb);
            let (ma, mb) = (median(&sa).unwrap_or(0.0), median(&sb).unwrap_or(0.0));
            let delta = if ma != 0.0 {
                format!("{:+.2}%", 100.0 * (mb - ma) / ma.abs())
            } else {
                "-".into()
            };
            let verdict = match (gate, v) {
                (Gate::Info, _) => "info",
                (_, Verdict::Same) => "same",
                (_, Verdict::Better) => "better",
                (_, Verdict::Worse) => "WORSE",
                (_, Verdict::Unresolved) => "unresolved",
            };
            ok &= v != Verdict::Worse;
            let _ = writeln!(
                out,
                "{w:<10} {name:<32} {:>14} {:>14} {delta:>8}  {verdict}",
                num(ma),
                num(mb)
            );
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_metric_verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.00];
        let same = [1.02, 1.03, 1.01, 1.02, 1.02];
        let worse = [1.20, 1.21, 1.19, 1.20, 1.20];
        let better = [0.80, 0.81, 0.79, 0.80, 0.80];
        let g = Gate::Benchmark;
        assert_eq!(judge(g, false, 0.10, 0.0, &a, &same), Verdict::Same);
        assert_eq!(judge(g, false, 0.10, 0.0, &a, &worse), Verdict::Worse);
        assert_eq!(judge(g, false, 0.10, 0.0, &a, &better), Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(judge(g, true, 0.10, 0.0, &a, &worse), Verdict::Better);
        assert_eq!(judge(g, true, 0.10, 0.0, &a, &better), Verdict::Worse);
    }

    #[test]
    fn floor_absorbs_small_absolute_moves() {
        let a = [0.002, 0.002, 0.002];
        let b = [0.004, 0.004, 0.004];
        assert_eq!(
            judge(Gate::Benchmark, false, 0.10, 0.0, &a, &b),
            Verdict::Worse
        );
        assert_eq!(
            judge(Gate::Benchmark, false, 0.10, 0.005, &a, &b),
            Verdict::Same
        );
        // Below the floor even a noisy pair reads as the same.
        let noisy = [0.001, 0.003, 0.003, 0.005, 0.004];
        assert_eq!(
            judge(Gate::Benchmark, false, 0.10, 0.0, &a, &noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Gate::Benchmark, false, 0.10, 0.005, &a, &noisy),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_disjoint() {
        let a = [1.0, 1.5, 2.0, 1.2, 1.8];
        let b = [1.1, 1.6, 2.1, 1.3, 1.9];
        assert_eq!(
            judge(Gate::Benchmark, false, 0.10, 0.0, &a, &b),
            Verdict::Unresolved
        );
        let far = [3.0, 3.5, 4.0, 3.2, 3.8];
        assert_eq!(
            judge(Gate::Benchmark, false, 0.10, 0.0, &a, &far),
            Verdict::Worse
        );
        assert_eq!(
            judge(Gate::Benchmark, false, 0.10, 0.0, &far, &a),
            Verdict::Better
        );
    }

    #[test]
    fn exact_and_zero_gates() {
        assert_eq!(
            judge(Gate::Exact, false, 0.0, 0.0, &[5.0, 5.0], &[5.0]),
            Verdict::Same
        );
        assert_eq!(
            judge(Gate::Exact, false, 0.0, 0.0, &[5.0], &[6.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(Gate::Zero, false, 0.0, 0.0, &[0.0], &[0.0]),
            Verdict::Same
        );
        assert_eq!(
            judge(Gate::Zero, false, 0.0, 0.0, &[0.0], &[0.25]),
            Verdict::Worse
        );
        assert_eq!(
            judge(Gate::Within(0.01), false, 0.01, 0.0, &[100.0], &[100.5]),
            Verdict::Same
        );
        assert_eq!(
            judge(Gate::Within(0.01), false, 0.01, 0.0, &[100.0], &[102.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let bench = benchmark_json();
        let e2e = benchmark_list(&bench, "end_to_end");
        let gated: Vec<&str> = CATALOGUE
            .iter()
            .filter(|(_, _, g)| *g == Gate::Benchmark)
            .map(|(n, ..)| *n)
            .collect();
        assert_eq!(e2e.iter().map(|e| e.0.as_str()).collect::<Vec<_>>(), gated);
        for list in ["end_to_end", "per_layer"] {
            for (name, unit_, better, bound) in benchmark_list(&bench, list) {
                assert_eq!(unit(&name), unit_, "{name}");
                assert!(better == "lower" || better == "higher", "{name}");
                assert_eq!(bound.is_some(), list == "end_to_end", "{name}");
            }
        }
        let names: Vec<String> = bench
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    }

    fn sample(rep: usize, traced: bool, wall: f64, digest: u64) -> Sample {
        Sample {
            rep,
            traced,
            setup_s: 0.002,
            calib_s: CALIB_REF_S * 2.0,
            metrics: [
                ("host.wall_s", wall),
                ("sim_cycles", 1e6),
                ("sim.events", 1e4),
                ("host.rss_mb", 10.0),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
            failures: Vec::new(),
            digest: Some(digest),
            spans: Vec::new(),
        }
    }

    #[test]
    fn report_rescales_time_and_flags_digest_changes() {
        let mut runs = vec![
            sample(0, false, 2.0, 7),
            sample(1, false, 2.0, 7),
            sample(2, true, 3.0, 7),
        ];
        let r = workload_report(Workload::Mp, Scale::Bench, 5, &mut runs);
        assert_eq!((r.attempted, r.failed), (3, 0));
        // Twice the reference calibration time: a host half as fast.
        assert_eq!(r.metric("wall_cal_s").unwrap().samples, vec![1.0, 1.0]);
        assert_eq!(r.metric("sim_mcycles_per_s").unwrap().median(), 1.0);
        assert!((r.metric("trace.overhead").unwrap().median() - 1.5).abs() < 1e-12);
        assert_eq!(r.metric("sim.ns_per_event").unwrap().median(), 2e5);

        let mut runs = vec![sample(0, false, 2.0, 7), sample(1, false, 2.0, 8)];
        let r = workload_report(Workload::Mp, Scale::Bench, 5, &mut runs);
        assert_eq!(r.failed, 1);
        assert_eq!(r.metric("fail_frac").unwrap().samples, vec![0.5]);
    }
}
