//! The experiment grid runner: run-once artifact derivation, experiment-
//! level parallelism, and a persistent run cache.
//!
//! Reproducing the paper means running an 18-experiment grid, and every
//! downstream consumer — the breakdown report, the activity timelines,
//! the Perfetto trace, the latency histograms, the JSON export — used to
//! re-simulate the experiment from scratch. This module fixes all three
//! costs at once:
//!
//! * **Run-once reuse.** [`run_grid`] simulates each selected experiment
//!   exactly once, with the *union* [`wwt_sim::SimConfig`] of everything
//!   requested (time-resolved profiling for timelines, structured tracing
//!   for exports), and derives every artifact from that single
//!   [`ExperimentOutput`](crate::ExperimentOutput).
//! * **Grid fan-out.** The engine is deliberately single-threaded
//!   (`Rc`/`RefCell` target tasks), so parallelism lives at the
//!   experiment level: [`RunnerConfig::jobs`] workers pull experiments
//!   from a shared queue and results are re-assembled in registry order.
//!   Because each simulation is deterministic and rendering happens from
//!   per-experiment summaries, the rendered report is **byte-identical
//!   regardless of job count**.
//! * **Run caching.** With [`RunnerConfig::cache_dir`] set, each
//!   experiment's results (never its trace exports) persist keyed by the
//!   model point (experiment, scale, fault plan, hardware base); a
//!   repeated untraced invocation on that point replays from disk without
//!   simulating when the entry holds every requested artifact. See
//!   [`crate::cache`].
//!
//! Wall-clock timing per experiment is reported in
//! [`ExperimentArtifacts::wall_secs`] so callers can surface grid timing
//! (e.g. `make_tables`' `BENCH_grid.json`) without touching the
//! deterministic report text.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wwt_arch::ArchParams;

use crate::cache;
use crate::experiment::{
    try_run_experiment_with_arch, Experiment, ExperimentSummary, Scale, ENGINE_FAILURE_PREFIX,
};
use crate::paper::{headline_checks, paper_reference};
use crate::timeline::render_timeline;

/// How [`run_grid`] executes a set of experiments.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Workload scale for every experiment.
    pub scale: Scale,
    /// Worker threads. `1` runs sequentially; values are clamped to the
    /// number of selected experiments.
    pub jobs: usize,
    /// Render a per-processor activity timeline for every experiment
    /// (enables time-resolved profiling in the engine).
    pub timeline: bool,
    /// Produce trace artifacts (Perfetto JSON, latency histograms) for
    /// every experiment. The run cache holds none, so a traced run always
    /// simulates.
    pub trace: bool,
    /// When set, persist and reuse per-experiment artifacts under this
    /// directory (created on demand).
    pub cache_dir: Option<PathBuf>,
    /// Deterministic fault-injection plan, applied to every experiment.
    /// Participates in the run-cache key, so faulted and fault-free
    /// artifacts never mix.
    pub faults: Option<wwt_sim::FaultConfig>,
    /// The hardware base every experiment runs on (the paper's Table-1
    /// machine by default). Participates in the run-cache key, so
    /// different architecture points never mix.
    pub arch: ArchParams,
    /// Record phase marks at barriers/collectives and derive a
    /// [`wwt_diff::RunProfile`] per experiment (the `--diff` input).
    pub phases: bool,
}

impl RunnerConfig {
    /// A sequential, artifact-free, uncached configuration — exactly what
    /// the plain breakdown report needs.
    pub fn new(scale: Scale) -> Self {
        RunnerConfig {
            scale,
            jobs: 1,
            timeline: false,
            trace: false,
            cache_dir: None,
            faults: None,
            arch: ArchParams::default(),
            phases: false,
        }
    }

    /// The union engine configuration: one simulation that can feed every
    /// requested artifact.
    pub(crate) fn sim_config(&self) -> wwt_sim::SimConfig {
        wwt_sim::SimConfig {
            profile_bucket: self.timeline.then(|| timeline_bucket(self.scale)),
            trace: self.trace,
            phase_marks: self.phases,
            faults: self.faults,
        }
    }
}

/// The profile bucket used for timeline rendering: a few hundred samples
/// at either scale.
pub fn timeline_bucket(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 200_000,
        Scale::Test => 2_000,
    }
}

/// Trace-derived artifacts of one experiment run (the `--trace` and
/// `--metrics` outputs of `make_tables`).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceArtifacts {
    /// Chrome trace-event / Perfetto JSON.
    pub perfetto: String,
    /// Latency histograms as JSON.
    pub metrics_json: String,
    /// Latency histograms as an ASCII table.
    pub metrics_table: String,
}

/// Everything one experiment contributes to a grid run: the reportable
/// summary plus any requested rendered artifacts, all derived from a
/// single simulation (or replayed from the run cache).
#[derive(Clone, Debug)]
pub struct ExperimentArtifacts {
    /// Which experiment.
    pub experiment: Experiment,
    /// The reportable projection of the run.
    pub summary: ExperimentSummary,
    /// The rendered timeline section, when requested.
    pub timeline: Option<String>,
    /// Trace exports, when requested (never from the run cache).
    pub trace: Option<TraceArtifacts>,
    /// The phase-structured run profile (the `--diff` input), when
    /// requested via [`RunnerConfig::phases`].
    pub phases: Option<wwt_diff::RunProfile>,
    /// Wall-clock seconds this invocation spent producing the artifacts
    /// (near zero on a cache hit).
    pub wall_secs: f64,
    /// Whether the artifacts were replayed from the run cache.
    pub from_cache: bool,
}

/// Runs one experiment and derives every requested artifact from the
/// single simulation, consulting the cache first. The job boundary is
/// where the grid's resilience lives: a panicking experiment is caught
/// and reported as a failed cell (never a dead grid). Failures are not
/// retried: the simulation is deterministic, so a re-run replays the
/// same failure at the same simulated cycle.
fn run_one(e: Experiment, cfg: &RunnerConfig) -> ExperimentArtifacts {
    let start = Instant::now();
    wwt_obs::job_enter();
    // The closure only touches `&`-captures and builds its state from
    // scratch, so `AssertUnwindSafe` is sound — nothing observable
    // survives the unwind.
    let art = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_one_inner(e, cfg, start)
    })) {
        Ok(art) => art,
        Err(payload) => {
            wwt_obs::count_always(wwt_obs::Ctr::GridJobPanics, 1);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            failed_artifacts(e, cfg, &format!("panic: {msg}"), start)
        }
    };
    wwt_obs::job_exit();
    wwt_obs::count_always(wwt_obs::Ctr::GridExperimentsRun, 1);
    if art.from_cache {
        wwt_obs::count_always(wwt_obs::Ctr::GridExperimentsCached, 1);
    }
    wwt_obs::record_wall_us(start.elapsed().as_micros() as u64);
    art
}

/// The job inside [`run_one`]'s panic boundary: cache lookup,
/// simulation, artifact derivation and cache commit.
fn run_one_inner(e: Experiment, cfg: &RunnerConfig, start: Instant) -> ExperimentArtifacts {
    // Test hook: panic inside the job for the named experiment, proving
    // the catch_unwind boundary turns panics into failed cells.
    if std::env::var("WWT_TEST_PANIC_EXPERIMENT").is_ok_and(|id| id == e.id()) {
        panic!("injected test panic in {}", e.id());
    }
    let sim = cfg.sim_config();
    if let Some(dir) = &cfg.cache_dir {
        if let Some(mut hit) = cache::load(dir, e, cfg.scale, &sim, &cfg.arch) {
            hit.wall_secs = start.elapsed().as_secs_f64();
            return hit;
        }
    }

    let out = match try_run_experiment_with_arch(e, cfg.scale, sim, cfg.arch) {
        Ok(out) => out,
        Err(err) => return failed_artifacts(e, cfg, &err.to_string(), start),
    };
    let timeline = cfg.timeline.then(|| {
        let rendered = render_timeline(&out.run.report, 100)
            .expect("run was profiled, so a timeline must render");
        format!("\n### {} — timeline\n{}", e.id(), rendered)
    });
    let trace = (cfg.trace).then(|| {
        let report = &out.run.report;
        let data = report.trace().expect("tracing was enabled");
        TraceArtifacts {
            perfetto: wwt_sim::trace::chrome_trace_json(report).expect("tracing was enabled"),
            metrics_json: wwt_sim::trace::metrics_json(&data.metrics),
            metrics_table: wwt_sim::trace::metrics_table(&data.metrics),
        }
    });
    let phases = cfg
        .phases
        .then(|| wwt_diff::RunProfile::from_report(&out.run.report));
    let art = ExperimentArtifacts {
        experiment: e,
        summary: out.summary(),
        timeline,
        trace,
        phases,
        wall_secs: start.elapsed().as_secs_f64(),
        from_cache: false,
    };
    if let Some(dir) = &cfg.cache_dir {
        // Best-effort: a full disk or read-only tree must not fail the
        // run. A racer that simulated the same key writes the same bytes,
        // and the rename is atomic, so either commit leaves a correct
        // entry.
        let _ = cache::save(dir, &art, &sim, &cfg.arch);
    }
    art
}

/// Artifacts for an experiment whose job failed — a stalled simulation
/// (deadlock, livelock, watchdog expiry) or a panic. `detail` lands in
/// `validation_detail` behind the engine-failure prefix with
/// `validation_passed = false`, so the grid can finish the remaining
/// experiments and the report shows exactly which run failed and why.
/// Never cached: a re-run after a fix must re-simulate.
fn failed_artifacts(
    e: Experiment,
    cfg: &RunnerConfig,
    detail: &str,
    start: Instant,
) -> ExperimentArtifacts {
    ExperimentArtifacts {
        experiment: e,
        summary: ExperimentSummary {
            experiment: e,
            scale: cfg.scale,
            validation_passed: false,
            validation_detail: format!("{ENGINE_FAILURE_PREFIX}{detail}"),
            stats: Vec::new(),
            imbalance: 0.0,
            wait_fraction: 0.0,
            nprocs: 0,
            elapsed_cycles: 0,
            events_processed: 0,
            tables: Vec::new(),
            events: Vec::new(),
        },
        timeline: None,
        trace: None,
        phases: None,
        wall_secs: start.elapsed().as_secs_f64(),
        from_cache: false,
    }
}

/// Runs every experiment in `experiments`, fanning out across
/// [`RunnerConfig::jobs`] worker threads, and returns the artifacts **in
/// input order** — the caller renders them without caring how the work
/// was scheduled.
pub fn run_grid(experiments: &[Experiment], cfg: &RunnerConfig) -> Vec<ExperimentArtifacts> {
    let jobs = cfg.jobs.clamp(1, experiments.len().max(1));
    let arts: Vec<ExperimentArtifacts> = if jobs == 1 {
        experiments.iter().map(|&e| run_one(e, cfg)).collect()
    } else {
        // The engine is single-threaded by design (Rc/RefCell target
        // tasks), so parallelize across experiments: a shared index is
        // the work queue, and each result lands in its input slot.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ExperimentArtifacts>>> =
            experiments.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&e) = experiments.get(i) else {
                        break;
                    };
                    let art = run_one(e, cfg);
                    *slots[i].lock().unwrap() = Some(art);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("every slot is filled before the scope joins")
            })
            .collect()
    };
    // Close the grid with a stderr summary of every failed cell — one
    // place to look instead of scrolling back through interleaved worker
    // output. Stdout stays artifact-only.
    let failed: Vec<&ExperimentArtifacts> =
        arts.iter().filter(|a| a.summary.engine_failed()).collect();
    if !failed.is_empty() {
        eprintln!("grid: {}/{} cells failed:", failed.len(), arts.len());
        for a in &failed {
            eprintln!("  {}: {}", a.experiment.id(), a.summary.validation_detail);
        }
    }
    arts
}

/// Renders one experiment's report section (validation, stats, load
/// balance, and its breakdown and event tables).
pub fn render_section(s: &ExperimentSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n### {} ({})",
        s.experiment.id(),
        s.experiment.paper_tables()
    );
    let _ = writeln!(
        out,
        "validation: {} — {}",
        if s.validation_passed { "PASS" } else { "FAIL" },
        s.validation_detail
    );
    for (name, v) in &s.stats {
        let _ = writeln!(out, "stat: {name} = {v}");
    }
    let _ = writeln!(
        out,
        "load imbalance: {:.1}%; waiting: {:.0}% of all cycles",
        100.0 * s.imbalance,
        100.0 * s.wait_fraction
    );
    for t in &s.tables {
        let _ = writeln!(out, "\n{t}");
    }
    for t in &s.events {
        let _ = writeln!(out, "\n{t}");
    }
    out
}

/// Assembles the full grid report from per-experiment artifacts: the
/// measured sections in order, the paper's published values for the
/// experiments present, and the headline shape checks. Purely a function
/// of the summaries, so the text is identical whether the artifacts came
/// from one worker, many, or the run cache.
pub fn render_report(artifacts: &[ExperimentArtifacts], scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "WWT reproduction — {} scale\n{}",
        scale.name(),
        "=".repeat(70)
    );
    let mut results: HashMap<Experiment, ExperimentSummary> = HashMap::new();
    for a in artifacts {
        out.push_str(&render_section(&a.summary));
        results.insert(a.experiment, a.summary.clone());
    }

    let _ = writeln!(
        out,
        "\n{}\nPaper-published values (for comparison)\n{0}",
        "-".repeat(70)
    );
    for t in paper_reference() {
        if results.contains_key(&t.experiment) {
            let _ = writeln!(
                out,
                "\nPaper Table {}: {} (total {:.1}M)",
                t.number, t.title, t.total
            );
            for (label, v) in t.rows {
                let _ = writeln!(out, "  {label:<28} {v:>8.1}M {:>4.0}%", 100.0 * v / t.total);
            }
        }
    }

    let _ = writeln!(out, "\n{}\nHeadline shape checks\n{0}", "-".repeat(70));
    let checks = headline_checks(&results);
    let passed = checks.iter().filter(|c| c.pass).count();
    for c in &checks {
        let _ = writeln!(out, "\n{c}");
    }
    let _ = writeln!(out, "\n{passed}/{} headline checks pass", checks.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_grid_renders_sections_in_input_order() {
        let cfg = RunnerConfig::new(Scale::Test);
        let es = [Experiment::GaussSm, Experiment::GaussMp];
        let arts = run_grid(&es, &cfg);
        assert_eq!(arts.len(), 2);
        assert_eq!(arts[0].experiment, Experiment::GaussSm);
        assert_eq!(arts[1].experiment, Experiment::GaussMp);
        let report = render_report(&arts, Scale::Test);
        let sm = report.find("### gauss-sm").unwrap();
        let mp = report.find("### gauss-mp").unwrap();
        assert!(sm < mp, "sections must follow input order");
        assert!(report.contains("Paper Table 8"));
        assert!(report.contains("headline checks pass"));
    }

    #[test]
    fn timeline_artifacts_only_appear_when_requested() {
        let mut cfg = RunnerConfig::new(Scale::Test);
        let arts = run_grid(&[Experiment::LcpMp], &cfg);
        assert!(arts[0].timeline.is_none());
        cfg.timeline = true;
        let arts = run_grid(&[Experiment::LcpMp], &cfg);
        let t = arts[0].timeline.as_deref().unwrap();
        assert!(t.contains("### lcp-mp — timeline"));
        assert!(t.contains('|'));
    }
}
