//! Regenerates every table of the paper at paper scale.
//!
//! Usage:
//!
//! ```text
//! make_tables [--test-scale] [--jobs N] [--no-cache]
//!             [--timeline] [--trace OUT.json] [--metrics OUT.json]
//!             [--json OUT.json] [--faults SPEC] [--arch SPEC]
//!             [--arch-sweep KEY=V1,V2,...] [--sweep-delta] [--diff A B]
//!             [--diff-json OUT.json] [--obs] [--obs-json OUT.json]
//!             [experiment-id ...]
//! ```
//!
//! With no experiment ids, every experiment runs. An id is either an
//! exact `Experiment::id` (`em3d-sm` — selects exactly that experiment)
//! or a group prefix at a `-` boundary (`em3d` — selects every `em3d-*`
//! experiment). Each selected experiment is simulated **exactly once**
//! with the union engine configuration for everything requested: the
//! breakdown tables, the `--timeline` activity timelines, and the
//! `--trace`/`--metrics`/`--json` exports all derive from that single
//! run.
//!
//! `--jobs N` fans the grid out over N worker threads (default: all
//! available cores). The simulator is deterministic and results are
//! reassembled in selection order, so stdout is byte-identical for any
//! job count. Per-experiment wall-clock timings go to **stderr** and to
//! `results/BENCH_grid.json` (appended per invocation) so the report
//! text stays deterministic.
//!
//! Runs are cached under `results/cache/`, keyed by the model (experiment,
//! scale, fault plan, hardware base): a repeated invocation with unchanged
//! inputs replays from disk, except that entries hold no trace exports,
//! so `--trace`/`--metrics` always simulate. `--no-cache` bypasses the
//! cache entirely. Entries live in checksummed containers published by
//! atomic rename, so a damaged entry (torn write, bit rot) is a warned
//! miss that re-simulates and overwrites it — never wrong output. The
//! end-of-run `cache:` line on stderr counts hits, misses and corrupt
//! entries recovered.
//!
//! A failed grid job — a stalled simulation or a panicking experiment —
//! is reported as a failed cell and never retried: the simulator is
//! deterministic, so a re-run fails identically. The grid always
//! finishes, summarizes the failed cells on stderr and exits 1. A cell
//! whose computed answer fails validation also exits 1, in the grid and
//! in `--arch-sweep` alike.
//!
//! `--faults SPEC` runs every experiment under a deterministic
//! fault-injection plan, e.g.
//! `--faults seed=7,drop=0.01,dup=0.001,reorder=0.005,jitter=500`,
//! optionally with `fail=PROC@FROM..UNTIL` (a processor's packets are
//! dropped in both directions inside the window) and
//! `slow=PROC@FROM..UNTILxFACTOR` (its computation runs FACTOR× slower).
//! The MP machine recovers through its reliable-delivery layer (the
//! `Retries` table row); the SM machine degrades the plan into shared-miss
//! latency jitter. The plan is part of the engine configuration, so it
//! participates in the run-cache key and identical seeds replay
//! byte-identically.
//!
//! `--arch SPEC` runs every experiment on a different hardware base:
//! a preset (`paper`, `1mb-cache`, `low-latency`, `high-latency`),
//! `key=value` overrides, or both — `--arch 1mb-cache,net_latency=50`.
//! The default (`--arch paper`) reproduces the paper's Table-1 machine
//! and its output is byte-identical to omitting the flag.
//!
//! `--arch-sweep KEY=V1,V2,...` (repeatable) runs the selected
//! experiments at every point of the axes' cross product, on top of the
//! `--arch` base, and prints one MP-vs-SM comparison row per point
//! instead of the full per-experiment report. Every point goes through
//! the parallel grid runner and the run cache under its own key, so
//! re-sweeping replays from disk and stdout is byte-identical for any
//! `--jobs` count. Sweeps produce no per-experiment artifact files, so
//! `--timeline`/`--trace`/`--metrics`/`--json` cannot combine with them.
//!
//! `--diff A B` compares two runs instead of printing the report: each
//! side is an experiment id with optional `@arch=SPEC` / `@faults=SPEC`
//! qualifiers (`em3d-mp@arch=net_latency=400`) or a path to a
//! `results/cache/*.run` entry recorded with phase profiles. Sides given
//! as experiment ids run with phase marks enabled, through the run cache
//! — a warm diff never re-simulates. Stdout carries *only* the rendered
//! diff (phase-aligned, cluster-summarized, attributing the total-cycle
//! delta to (phase, category, processor-group) entries); a self-diff
//! prints nothing, and the text is byte-identical for any `--jobs`
//! value. `--diff-json OUT.json` additionally writes the machine-readable
//! diff. `--sweep-delta` adds a delta-vs-base column to `--arch-sweep`
//! rows.
//!
//! `--trace` writes a Perfetto-loadable Chrome trace-event file per
//! experiment (the experiment id is inserted before the extension:
//! `out.json` becomes `out-em3d-mp.json`). `--metrics` writes the latency
//! histograms as JSON the same way and prints them as ASCII tables;
//! `--json` writes the result tables and run summary as JSON.
//!
//! `--obs` turns on **host**-side self-observability (`wwt_obs`): while
//! the guest flags above attribute *simulated* cycles, `--obs` profiles
//! the simulator itself — scheduler events/sec, calendar-queue depth,
//! `SmallCall` inline ratio, WaitCell pool recycling, run-cache traffic,
//! per-experiment wall time — and prints a self-profile table on
//! **stderr** (stdout stays byte-identical with or without the flag, at
//! any `--jobs`, clean or faulted). A background sampler also feeds a
//! flight recorder whose last snapshots attach to any
//! `SimError` diagnostic. `--obs-json OUT.json` writes the recorded
//! snapshots as JSON (implies `--obs`).

use std::path::PathBuf;

use wwt_bench::bench_log;
use wwt_bench::{select_experiments, timing_line, timing_total};
use wwt_core::arch::{sweep_points, ArchParams, ArchSweep, KEYS, PRESETS};
use wwt_core::{
    experiment_json, render_report, render_sweep_report, run_grid, run_sweep, Experiment,
    ExperimentSummary, RunnerConfig, Scale,
};

/// Inserts `-{id}` before the final path component's extension:
/// `out.json` + `mse-mp` becomes `out-mse-mp.json`. Dots in directory
/// names are not extensions (`results/v1.0/out` stays in
/// `results/v1.0/`), and neither is the leading dot of a hidden file.
fn with_id(path: &str, id: &str) -> String {
    let (dir, file) = match path.rsplit_once('/') {
        Some((dir, file)) => (Some(dir), file),
        None => (None, path),
    };
    let tagged = match file.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{id}.{ext}"),
        _ => format!("{file}-{id}"),
    };
    match dir {
        Some(dir) => format!("{dir}/{tagged}"),
        None => tagged,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: make_tables [--test-scale] [--jobs N] [--no-cache] [--timeline] \
         [--trace OUT.json] [--metrics OUT.json] [--json OUT.json] \
         [--faults seed=S,drop=P,dup=P,reorder=P,jitter=CYCLES,\
         fail=PROC@FROM..UNTIL,slow=PROC@FROM..UNTILxFACTOR] \
         [--arch preset[,key=value,...]] [--arch-sweep key=v1,v2,...]... \
         [--sweep-delta] [--diff A B] [--diff-json OUT.json] \
         [--obs] [--obs-json OUT.json] \
         [experiment-id ...]"
    );
    eprintln!(
        "diff sides: an experiment id with optional @arch=SPEC/@faults=SPEC \
         qualifiers, or a path to a results/cache/*.run entry"
    );
    eprintln!("experiments:");
    for e in Experiment::ALL {
        eprintln!("  {:<16} {}", e.id(), e.paper_tables());
    }
    eprintln!("arch presets:");
    for (name, what) in PRESETS {
        eprintln!("  {name:<16} {what}");
    }
    eprintln!("arch keys (for --arch overrides and --arch-sweep axes):");
    for (name, what) in KEYS {
        eprintln!("  {name:<16} {what}");
    }
    std::process::exit(2);
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves one `--diff` side into a labeled run profile.
///
/// A spec containing `/` or ending in `.run` is a cached-run path; it is
/// loaded as-is and never re-simulated. Anything else is an experiment
/// id with optional `@arch=SPEC` / `@faults=SPEC` qualifiers, run
/// through the grid runner (and the run cache) with phase marks on.
fn resolve_diff_side(
    spec: &str,
    base: &RunnerConfig,
) -> Result<(String, bool, wwt_core::diff::RunProfile), String> {
    if spec.contains('/') || spec.ends_with(".run") {
        let art = wwt_core::cache::load_path(std::path::Path::new(spec))
            .ok_or_else(|| format!("cannot load cached run '{spec}'"))?;
        let prof = art.phases.ok_or_else(|| {
            format!("cached run '{spec}' carries no phase profile; re-record it via --diff with experiment ids")
        })?;
        return Ok((format!("{spec} ({})", art.experiment.id()), true, prof));
    }
    let mut parts = spec.split('@');
    let id = parts.next().unwrap_or("");
    let e = Experiment::from_id(id)
        .ok_or_else(|| format!("unknown experiment '{id}' in diff side '{spec}'"))?;
    let mut cfg = RunnerConfig {
        phases: true,
        timeline: false,
        trace: false,
        ..base.clone()
    };
    for q in parts {
        if let Some(s) = q.strip_prefix("arch=") {
            cfg.arch = ArchParams::parse(s)
                .map_err(|err| format!("invalid arch in diff side '{spec}': {err}"))?;
        } else if let Some(s) = q.strip_prefix("faults=") {
            cfg.faults = Some(
                wwt_core::sim::FaultConfig::parse(s)
                    .map_err(|err| format!("invalid faults in diff side '{spec}': {err}"))?,
            );
        } else {
            return Err(format!(
                "unknown qualifier '@{q}' in diff side '{spec}' (use @arch=SPEC or @faults=SPEC)"
            ));
        }
    }
    let arts = run_grid(&[e], &cfg);
    let art = arts
        .into_iter()
        .next()
        .expect("one experiment in, one artifact out");
    let prof = art
        .phases
        .expect("phase profiles were requested for this run");
    Ok((spec.to_string(), art.from_cache, prof))
}

/// One-line end-of-run cache effectiveness summary on stderr
/// (always-on counters, so this works without `--obs`).
fn cache_summary() {
    let (hits, misses, bytes, corrupt) = wwt_core::cache::stats();
    eprintln!(
        "cache: {hits} hits, {misses} misses, {bytes} bytes read, {corrupt} corrupt entries recovered"
    );
}

/// Emits the end-of-run host-metrics outputs: the self-profile table on
/// stderr plus, when asked for, the recorded snapshots (the flight
/// recorder and one final snapshot) as a JSON file. Stdout is never
/// touched — simulated output must stay byte-identical under `--obs`.
fn obs_finish(obs_json_out: Option<&str>) {
    use wwt_core::obs;
    let last = obs::snapshot_now();
    eprint!("{}", obs::render_table(&last));
    if let Some(path) = obs_json_out {
        let mut snaps = obs::recent_snapshots();
        snaps.push(last);
        std::fs::write(path, obs::render_json(&snaps))
            .unwrap_or_else(|err| panic!("writing {path}: {err}"));
        eprintln!("wrote obs json {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut jobs = default_jobs();
    let mut use_cache = true;
    let mut timeline = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut faults: Option<wwt_core::sim::FaultConfig> = None;
    let mut faults_spec: Option<String> = None;
    let mut arch = ArchParams::default();
    let mut sweeps: Vec<ArchSweep> = Vec::new();
    let mut sweep_delta = false;
    let mut diff: Option<(String, String)> = None;
    let mut diff_json_out: Option<String> = None;
    let mut obs = false;
    let mut obs_json_out: Option<String> = None;
    let mut selectors: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--test-scale" => scale = Scale::Test,
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--no-cache" => use_cache = false,
            "--timeline" => timeline = true,
            "--trace" => trace_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--metrics" => metrics_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--json" => json_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--faults" => {
                let spec = it.next().unwrap_or_else(|| usage());
                match wwt_core::sim::FaultConfig::parse(spec) {
                    Ok(cfg) => {
                        faults = Some(cfg);
                        faults_spec = Some(spec.clone());
                    }
                    Err(err) => {
                        eprintln!("invalid --faults spec: {err}");
                        usage();
                    }
                }
            }
            "--arch" => {
                let spec = it.next().unwrap_or_else(|| usage());
                match ArchParams::parse(spec) {
                    Ok(a) => arch = a,
                    Err(err) => {
                        eprintln!("invalid --arch spec: {err}");
                        usage();
                    }
                }
            }
            "--arch-sweep" => {
                let spec = it.next().unwrap_or_else(|| usage());
                match ArchSweep::parse(spec) {
                    Ok(s) => sweeps.push(s),
                    Err(err) => {
                        eprintln!("invalid --arch-sweep spec: {err}");
                        usage();
                    }
                }
            }
            "--sweep-delta" => sweep_delta = true,
            "--diff" => {
                let a = it.next().cloned().unwrap_or_else(|| usage());
                let b = it.next().cloned().unwrap_or_else(|| usage());
                diff = Some((a, b));
            }
            "--diff-json" => diff_json_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--obs" => obs = true,
            "--obs-json" => {
                obs = true;
                obs_json_out = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => usage(),
            flag if flag.starts_with('-') => {
                eprintln!("unknown option '{flag}'");
                usage();
            }
            id => selectors.push(id.to_string()),
        }
    }
    let selected = select_experiments(&selectors).unwrap_or_else(|bad| {
        eprintln!("unknown experiment '{bad}' (try --help)");
        std::process::exit(2);
    });

    if obs {
        // Enable before any engine exists: the engine caches the flag at
        // construction. The sampler feeds the flight recorder that
        // SimError diagnostics attach.
        wwt_core::obs::enable();
        wwt_core::obs::start_sampler(100);
    }

    let tracing_requested = trace_out.is_some() || metrics_out.is_some();
    let exports_requested = tracing_requested || json_out.is_some();
    let cfg = RunnerConfig {
        scale,
        jobs,
        timeline,
        trace: tracing_requested,
        cache_dir: use_cache.then(|| PathBuf::from("results/cache")),
        faults,
        arch,
        phases: false,
    };

    if let Some((spec_a, spec_b)) = diff {
        // Diff mode: stdout carries only the rendered diff (a self-diff
        // prints nothing), so it stays byte-identical across job counts
        // and cache states; everything else goes to stderr.
        if !sweeps.is_empty() || timeline || exports_requested {
            eprintln!(
                "--diff cannot combine with --arch-sweep/--timeline/--trace/--metrics/--json"
            );
            std::process::exit(2);
        }
        if !selectors.is_empty() {
            eprintln!("--diff takes its experiments from its two sides; drop the extra ids");
            std::process::exit(2);
        }
        let start = std::time::Instant::now();
        let resolve = |spec: &str| {
            let side_start = std::time::Instant::now();
            let side = resolve_diff_side(spec, &cfg).unwrap_or_else(|err| {
                eprintln!("{err}");
                std::process::exit(2);
            });
            (side, side_start.elapsed().as_secs_f64())
        };
        let ((label_a, cached_a, prof_a), secs_a) = resolve(&spec_a);
        let ((label_b, cached_b, prof_b), secs_b) = resolve(&spec_b);
        let d = wwt_core::diff::diff_profiles(&prof_a, &prof_b);
        print!("{}", wwt_core::diff::render_diff(&d, &prof_a, &prof_b));
        if let Some(path) = &diff_json_out {
            let body = wwt_core::diff::diff_json(&d, &prof_a, &prof_b);
            std::fs::write(path, body).unwrap_or_else(|err| panic!("writing {path}: {err}"));
            eprintln!("wrote diff json {path}");
        }
        let cached = |c: bool| if c { " (cached)" } else { "" };
        eprintln!(
            "{}",
            timing_line(&format!("A={label_a}"), secs_a, cached(cached_a))
        );
        eprintln!(
            "{}",
            timing_line(&format!("B={label_b}"), secs_b, cached(cached_b))
        );
        eprintln!(
            "{}",
            timing_total(
                "2 diff sides",
                start.elapsed().as_secs_f64(),
                cfg.jobs,
                cached_a as usize + cached_b as usize,
                2,
            )
        );
        if use_cache {
            cache_summary();
        }
        if obs {
            obs_finish(obs_json_out.as_deref());
        }
        return;
    }

    if diff_json_out.is_some() {
        eprintln!("--diff-json requires --diff");
        std::process::exit(2);
    }

    if !sweeps.is_empty() {
        // Sweeps print one comparison row per point, not per-experiment
        // artifacts; the artifact flags have nothing to attach to.
        if timeline || exports_requested {
            eprintln!("--arch-sweep cannot combine with --timeline/--trace/--metrics/--json");
            std::process::exit(2);
        }
        let points = sweep_points(&arch, &sweeps).unwrap_or_else(|err| {
            eprintln!("invalid sweep: {err}");
            std::process::exit(2);
        });
        let start = std::time::Instant::now();
        let outcomes = run_sweep(&selected, &cfg, &points);
        let total_secs = start.elapsed().as_secs_f64();
        print!(
            "{}",
            render_sweep_report(&outcomes, scale, &arch, sweep_delta)
        );
        // Timings go to stderr, never stdout: sweep output must be
        // byte-identical across job counts and cache states.
        for o in &outcomes {
            let hits = o.artifacts.iter().filter(|a| a.from_cache).count();
            let secs: f64 = o.artifacts.iter().map(|a| a.wall_secs).sum();
            eprintln!(
                "{}",
                timing_line(
                    &o.label,
                    secs,
                    &format!(" (cache hits {hits}/{})", o.artifacts.len()),
                )
            );
        }
        let total_runs: usize = outcomes.iter().map(|o| o.artifacts.len()).sum();
        let total_hits: usize = outcomes
            .iter()
            .flat_map(|o| &o.artifacts)
            .filter(|a| a.from_cache)
            .count();
        eprintln!(
            "{}",
            timing_total(
                &format!("{} points x {} experiments", outcomes.len(), selected.len()),
                total_secs,
                cfg.jobs,
                total_hits,
                total_runs,
            )
        );
        if use_cache {
            cache_summary();
        }
        if obs {
            obs_finish(obs_json_out.as_deref());
        }
        exit_on_failures(outcomes.iter().flat_map(|o| {
            o.artifacts
                .iter()
                .map(move |a| (format!("{} at {}", a.experiment.id(), o.label), &a.summary))
        }));
        return;
    }

    let start = std::time::Instant::now();
    let artifacts = run_grid(&selected, &cfg);
    let total_secs = start.elapsed().as_secs_f64();

    // A non-default hardware base is announced above the report so its
    // numbers can never be mistaken for the paper machine's; the default
    // prints nothing, keeping `--arch paper` byte-identical to the
    // pre-sweep output.
    if !arch.is_paper() {
        println!("arch: {}", arch.canonical());
    }
    print!("{}", render_report(&artifacts, scale));
    if timeline {
        for a in &artifacts {
            if let Some(t) = &a.timeline {
                print!("{t}");
            }
        }
    }

    let export = |base: &str, id: &str, body: &str, what: &str| {
        let path = with_id(base, id);
        std::fs::write(&path, body).unwrap_or_else(|err| panic!("writing {path}: {err}"));
        eprintln!("wrote {what} {path}");
    };
    for a in &artifacts {
        let id = a.experiment.id();
        if let Some(tr) = &a.trace {
            if let Some(base) = &trace_out {
                export(base, id, &tr.perfetto, "trace");
            }
            if let Some(base) = &metrics_out {
                export(base, id, &tr.metrics_json, "metrics");
                println!("\n### {id} — {}", tr.metrics_table);
            }
        }
        // A stalled simulation has no results to export; the failure is
        // reported (and the exit code set) below.
        if let Some(base) = json_out.as_ref().filter(|_| !a.summary.engine_failed()) {
            export(base, id, &experiment_json(&a.summary), "result json");
        }
    }

    // Wall-clock timings go to stderr and BENCH_grid.json, never stdout:
    // the report text must be byte-identical across job counts and runs.
    let hits = artifacts.iter().filter(|a| a.from_cache).count();
    for a in &artifacts {
        eprintln!(
            "{}",
            timing_line(
                a.experiment.id(),
                a.wall_secs,
                if a.from_cache { " (cached)" } else { "" },
            )
        );
    }
    eprintln!(
        "{}",
        timing_total(
            &format!("{} experiments", artifacts.len()),
            total_secs,
            cfg.jobs,
            hits,
            artifacts.len(),
        )
    );
    if use_cache {
        cache_summary();
    }
    let record = bench_log::bench_record(
        scale,
        cfg.jobs,
        use_cache,
        &arch,
        faults_spec.as_deref(),
        total_secs,
        &artifacts,
    );
    if let Err(err) = bench_log::append_bench_record("results/BENCH_grid.json", &record) {
        eprintln!("could not record results/BENCH_grid.json: {err}");
    }
    if obs {
        obs_finish(obs_json_out.as_deref());
    }

    exit_on_failures(
        artifacts
            .iter()
            .map(|a| (a.experiment.id().to_string(), &a.summary)),
    );
}

/// Names every failed cell on stderr and exits 1 if there is one. A
/// stalled simulation (deadlock, livelock, watchdog expiry) and a wrong
/// answer (a cell whose validation failed) are both reported in the
/// output above and must not look like success. Called after every
/// healthy experiment has finished and every artifact is written.
fn exit_on_failures<'a>(cells: impl Iterator<Item = (String, &'a ExperimentSummary)>) {
    let (mut total, mut failed) = (0, 0);
    for (label, s) in cells {
        total += 1;
        if s.validation_passed {
            continue;
        }
        failed += 1;
        let first = s.validation_detail.lines().next();
        if s.engine_failed() {
            let why = first.unwrap_or("simulation stalled");
            eprintln!("error: {label} did not complete: {why}");
        } else {
            eprintln!("error: {label} failed validation: {}", first.unwrap_or(""));
        }
    }
    if failed > 0 {
        eprintln!("error: {failed}/{total} experiments failed (listed above)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_id_inserts_before_the_extension() {
        assert_eq!(with_id("out.json", "mse-mp"), "out-mse-mp.json");
        assert_eq!(with_id("a/b/out.json", "em3d-sm"), "a/b/out-em3d-sm.json");
    }

    #[test]
    fn with_id_ignores_dots_in_directories() {
        assert_eq!(
            with_id("results/v1.0/out", "mse-mp"),
            "results/v1.0/out-mse-mp"
        );
        assert_eq!(
            with_id("results/v1.0/out.json", "mse-mp"),
            "results/v1.0/out-mse-mp.json"
        );
    }

    #[test]
    fn with_id_handles_extensionless_and_hidden_files() {
        assert_eq!(with_id("trace", "lcp-mp"), "trace-lcp-mp");
        assert_eq!(with_id(".hidden", "lcp-mp"), ".hidden-lcp-mp");
        assert_eq!(with_id("dir/.hidden", "lcp-mp"), "dir/.hidden-lcp-mp");
        assert_eq!(
            with_id("dir/.hidden.json", "lcp-mp"),
            "dir/.hidden-lcp-mp.json"
        );
    }
}
