//! `benchmark`: end-to-end and per-layer host-time benchmark of the WWT
//! simulators. See README.md for the workloads, metrics and bounds.
//!
//! A parent process runs each measured run in a fresh single-threaded
//! child (this same binary, `benchmark child ...`), brackets the children
//! with a fixed calibration loop, and turns what they report into
//! metrics.

mod alloc;
mod calib;
mod json;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use wwt_core::obs::{self, Ctr};

use crate::json::Json;
use crate::report::{Metric, Sample, WorkloadReport};
use crate::spans::Spans;
use crate::workloads::{Scale, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  benchmark run [--seed S] [--reps N] [--quick]
      every workload at paper scale (--quick: test scale), N reps each,
      round-robin, then one traced rep and the layer probes
  benchmark --workload W --seed S --seconds T --trace 0|1 [--scale small|bench|paper]
      one workload (bench scale by default) for T seconds; the last line
      of stdout is a JSON result
  benchmark agree A.json B.json
      judge two metrics.json files by the benchmark's bounds
workloads: em3d-sm, mp, mse-mp, sweep";

/// A timed run calibrates after at least this much child time.
const BATCH_S: f64 = 1.5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("agree") => cmd_agree(&args[1..]),
        Some("child") => cmd_child(&args[1..]),
        Some(a) if a.starts_with("--") => cmd_timed(&args),
        _ => Err("no command given".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// `--name value` pairs and bare `--switch`es, checked against what the
/// command accepts.
fn flags(
    args: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        if switches.contains(&name) {
            out.push((name.to_string(), String::new()));
        } else if valued.contains(&name) {
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), v.clone()));
        } else {
            return Err(format!("unknown flag `{a}`"));
        }
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn parse_num<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    flag(flags, name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{name}: `{v}` is not a valid number"))
    })
}

/// The child: builds the workload's inputs, says `ready`, runs it once,
/// and prints one JSON line of what it measured.
fn cmd_child(args: &[String]) -> Result<ExitCode, String> {
    let [w, scale, seed, traced, dir] = args else {
        return Err("child: expected WORKLOAD SCALE SEED TRACED DIR".into());
    };
    let w = Workload::parse(w).ok_or("child: unknown workload")?;
    let scale = Scale::parse(scale).ok_or("child: unknown scale")?;
    let seed: u64 = seed.parse().map_err(|_| "child: bad seed")?;
    let traced = traced == "1";
    let plan = workloads::plan(w, scale, seed, Path::new(dir));
    let mut stdout = std::io::stdout().lock();
    let report_err = |e: std::io::Error| format!("child: writing to the parent: {e}");
    writeln!(stdout, "ready")
        .and_then(|_| stdout.flush())
        .map_err(report_err)?;

    if traced {
        obs::enable();
        alloc::start();
    }
    let mut spans = Spans::new(traced);
    let out = workloads::execute(plan, &mut spans);
    let allocs = alloc::count();

    let mut metrics = out.metrics;
    metrics.push(("host.rss_mb", peak_rss_mb()));
    if traced {
        metrics.push(("allocs", allocs as f64));
        for (name, c) in [
            ("sim.calls_inline", Ctr::SimCallInline),
            ("sim.calls_boxed", Ctr::SimCallBoxed),
            ("sim.pool_fresh", Ctr::SimPoolTakeFresh),
        ] {
            metrics.push((name, obs::counter(c) as f64));
        }
    }
    let doc = Json::obj([
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        (
            "failures",
            Json::Arr(out.failures.into_iter().map(Json::Str).collect()),
        ),
        ("digest", Json::str(format!("{:016x}", out.digest))),
        ("spans", spans.to_json()),
    ]);
    writeln!(stdout, "{doc}").map_err(report_err)?;
    Ok(ExitCode::SUCCESS)
}

/// This process's peak resident set (`VmHWM`), in MB; 0 where the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Spawns children, brackets them with calibration units, and keeps
/// what they report.
struct Harness {
    exe: PathBuf,
    scale: Scale,
    seed: u64,
    /// `<target>/benchmark/<run-id>/`: metrics.json, trace.json, and the
    /// sweep's scratch run caches.
    dir: PathBuf,
    samples: Vec<(Workload, Sample)>,
    calibs: Vec<f64>,
}

impl Harness {
    fn new(scale: Scale, seed: u64, label: &str) -> Result<Self, String> {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let dir = target
            .join("benchmark")
            .join(format!("{label}-s{seed}-{ms}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        Ok(Harness {
            exe,
            scale,
            seed,
            dir,
            samples: Vec::new(),
            calibs: Vec::new(),
        })
    }

    /// Runs one child to completion. A child that dies is a failed run;
    /// only failing to start one at all is an error.
    fn spawn(&self, w: Workload, traced: bool, rep: usize) -> Result<Sample, String> {
        let cache = self.dir.join(format!("cache-{rep}"));
        let t = Instant::now();
        let mut child = Command::new(&self.exe)
            .arg("child")
            .args([
                w.name(),
                self.scale.name(),
                &self.seed.to_string(),
                if traced { "1" } else { "0" },
            ])
            .arg(&cache)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", self.exe.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut ready = String::new();
        let _ = out.read_line(&mut ready);
        let setup_s = t.elapsed().as_secs_f64();
        let mut line = String::new();
        let _ = out.read_line(&mut line);
        let status = child
            .wait()
            .map_err(|e| format!("waiting for a child: {e}"))?;
        let _ = std::fs::remove_dir_all(&cache);

        let mut s = Sample {
            rep,
            traced,
            setup_s,
            ..Sample::default()
        };
        match Json::parse(line.trim()) {
            Ok(doc) if status.success() && ready.trim() == "ready" => {
                for (k, v) in doc.get("metrics").map(Json::as_obj).unwrap_or_default() {
                    s.metrics.insert(k.clone(), v.as_f64().unwrap_or(f64::NAN));
                }
                s.failures = doc
                    .get("failures")
                    .map(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|f| f.as_str().map(String::from))
                    .collect();
                s.digest = doc
                    .get("digest")
                    .and_then(Json::as_str)
                    .and_then(|d| u64::from_str_radix(d, 16).ok());
                s.spans = doc.get("spans").map(spans::from_json).unwrap_or_default();
            }
            _ => s
                .failures
                .push(format!("{w} child exited ({status}) without a result")),
        }
        Ok(s)
    }

    /// Runs the children `next(i)` names, in batches of at least
    /// `batch_s` seconds, with `units` calibration units before the
    /// first batch and after every batch. Each run's `calib_s` is the
    /// median of the units on both sides of its batch.
    fn batches(
        &mut self,
        units: usize,
        batch_s: f64,
        mut next: impl FnMut(usize) -> Option<(Workload, bool)>,
    ) -> Result<(), String> {
        let mut before = calib::units(units);
        self.calibs.extend(&before);
        let mut i = 0;
        while let Some(first) = next(i) {
            let start = Instant::now();
            let mut batch = Vec::new();
            let mut item = Some(first);
            while let Some((w, traced)) = item {
                batch.push((w, self.spawn(w, traced, i)?));
                i += 1;
                item = if start.elapsed().as_secs_f64() < batch_s {
                    next(i)
                } else {
                    None
                };
            }
            let after = calib::units(units);
            let around: Vec<f64> = before.iter().chain(&after).copied().collect();
            let calib_s = stats::median(&around).expect("at least one unit");
            for (_, s) in &mut batch {
                s.calib_s = calib_s;
            }
            self.samples.extend(batch);
            self.calibs.extend(&after);
            before = after;
        }
        Ok(())
    }

    fn reports(&mut self) -> Vec<WorkloadReport> {
        Workload::ALL
            .into_iter()
            .filter_map(|w| {
                let mut mine: Vec<Sample> = self
                    .samples
                    .iter()
                    .filter(|(sw, _)| *sw == w)
                    .map(|(_, s)| s.clone())
                    .collect();
                (!mine.is_empty())
                    .then(|| report::workload_report(w, self.scale, self.seed, &mut mine))
            })
            .collect()
    }

    /// The calibration summary, and whether the host was too noisy or
    /// too far from the reference for the rescaling to be trusted.
    fn host(&self) -> (Json, String) {
        let med = stats::median(&self.calibs).unwrap_or(f64::NAN);
        let spread = stats::spread(&self.calibs);
        let off = (med - calib::CALIB_REF_S).abs() / calib::CALIB_REF_S;
        let unstable = spread > 0.10 || off > 0.25;
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        let line = format!(
            "host: {cpus} cpus; calibration unit median {med:.4} s over {} units (reference {} s, {:+.1}%), spread {:.1}%{}",
            self.calibs.len(),
            calib::CALIB_REF_S,
            100.0 * (med - calib::CALIB_REF_S) / calib::CALIB_REF_S,
            100.0 * spread,
            if unstable { "; host_unstable" } else { "" }
        );
        let json = Json::obj([
            ("cpus", Json::Num(cpus as f64)),
            ("calib_ref_s", Json::Num(calib::CALIB_REF_S)),
            ("calib_median_s", Json::Num(med)),
            ("calib_spread", Json::Num(spread)),
            (
                "calib_samples",
                Json::Arr(self.calibs.iter().map(|&x| Json::Num(x)).collect()),
            ),
            ("host_unstable", Json::Bool(unstable)),
        ]);
        (json, line)
    }

    /// Prints every metric, writes `metrics.json` and (when any run was
    /// traced) `trace.json`, and returns the reports.
    fn finish(
        &mut self,
        mut header: Vec<(&str, Json)>,
        probes: &[Metric],
    ) -> Result<Vec<WorkloadReport>, String> {
        let reports = self.reports();
        for r in &reports {
            print!("{}", report::render_workload(r));
        }
        if !probes.is_empty() {
            print!("\n== layer probes\n{}", report::render_metrics(probes));
        }
        let (host, line) = self.host();
        println!("\n{line}");
        header.push(("scale", Json::str(self.scale.name())));
        header.push(("seed", Json::Num(self.seed as f64)));
        header.push(("host", host));
        let doc = report::to_json(Json::obj(header), &reports, probes);
        self.write("metrics.json", &doc)?;
        let traced: Vec<(String, usize, Vec<spans::Span>)> = self
            .samples
            .iter()
            .filter(|(_, s)| s.traced)
            .map(|(w, s)| (w.name().to_string(), s.rep, s.spans.clone()))
            .collect();
        if !traced.is_empty() {
            self.write("trace.json", &spans::chrome_trace(&traced))?;
        }
        Ok(reports)
    }

    fn write(&self, name: &str, doc: &Json) -> Result<(), String> {
        let path = self.dir.join(name);
        std::fs::write(&path, format!("{doc}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    }
}

fn probe_metrics(samples: usize) -> Vec<Metric> {
    probes::run(samples)
        .into_iter()
        .map(|(name, ns)| Metric {
            name: name.to_string(),
            samples: vec![ns],
        })
        .collect()
}

/// `benchmark run`: a whole set at paper scale.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["seed", "reps"], &["quick"])?;
    let quick = flag(&f, "quick").is_some();
    let seed = parse_num(&f, "seed", 0u64)?;
    let reps = parse_num(&f, "reps", if quick { 1 } else { 5usize })?;
    let (scale, units, probe_samples) = if quick {
        (Scale::Small, 1, 3)
    } else {
        (Scale::Paper, 4, 30)
    };
    // Round-robin, so a slow spell of the host lands on every workload.
    let order: Vec<(Workload, bool)> = (0..reps)
        .flat_map(|_| Workload::ALL.map(|w| (w, false)))
        .chain(Workload::ALL.map(|w| (w, true)))
        .collect();
    let mut d = Harness::new(scale, seed, "set")?;
    println!(
        "benchmark set: {} scale, seed {seed}, {reps} reps + 1 traced rep of {} workloads",
        scale.name(),
        Workload::ALL.len()
    );
    d.batches(units, 0.0, |i| order.get(i).copied())?;
    let probes = probe_metrics(probe_samples);
    let reports = d.finish(
        vec![("mode", Json::str("set")), ("reps", Json::Num(reps as f64))],
        &probes,
    )?;
    let attempted: usize = reports.iter().map(|r| r.attempted).sum();
    let failed: usize = reports.iter().map(|r| r.failed).sum();
    println!(
        "fail_frac = {} ({failed}/{attempted} runs failed)",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The timed form: one workload for `--seconds`, ending with the JSON
/// result line.
fn cmd_timed(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(
        args,
        &["workload", "seed", "seconds", "trace", "scale"],
        &[],
    )?;
    let w = flag(&f, "workload").ok_or("--workload is required")?;
    let w = Workload::parse(w).ok_or_else(|| format!("unknown workload `{w}`"))?;
    let seed = parse_num(&f, "seed", 0u64)?;
    let seconds = parse_num(&f, "seconds", 10.0f64)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match flag(&f, "trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    let scale = match flag(&f, "scale") {
        None => Scale::Bench,
        Some(s) => Scale::parse(s).ok_or_else(|| format!("unknown scale `{s}`"))?,
    };

    let mut d = Harness::new(scale, seed, w.name())?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // A traced run alternates traced and untraced children: the traced
    // ones give the per-layer counts, the others the times they divide.
    let min_runs = if trace { 2 } else { 1 };
    d.batches(1, BATCH_S, |i| {
        (i < min_runs || Instant::now() < deadline).then_some((w, trace && i % 2 == 0))
    })?;
    let probes = if trace { probe_metrics(30) } else { Vec::new() };
    let reports = d.finish(
        vec![
            ("mode", Json::str("timed")),
            ("seconds", Json::Num(seconds)),
        ],
        &probes,
    )?;
    let r = &reports[0];

    let list = if trace { "per_layer" } else { "end_to_end" };
    let mut metrics = Vec::new();
    for (name, unit, ..) in report::benchmark_list(&report::benchmark_json(), list) {
        let m = r
            .metric(&name)
            .or_else(|| probes.iter().find(|p| p.name == name));
        match m {
            Some(m) => metrics.push((
                name,
                Json::obj([("value", Json::Num(m.median())), ("unit", Json::Str(unit))]),
            )),
            None => eprintln!("benchmark: {w} did not measure {name}"),
        }
    }
    let result = Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_agree(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("agree: expected two metrics.json files".into());
    };
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, ok) = report::agree(&load(a)?, &load(b)?);
    print!("{table}");
    println!(
        "{}",
        if ok {
            "agree: no metric got worse"
        } else {
            "agree: some metric got WORSE"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
