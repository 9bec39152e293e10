//! The grid runner's contracts: parallel fan-out is invisible in the
//! rendered report, every artifact derives from a single simulation, and
//! the run cache replays byte-identically without simulating.

use std::path::PathBuf;
use std::sync::Mutex;

use wwt::{render_report, run_grid, simulations_performed, Experiment, RunnerConfig, Scale};

/// Tests in this binary share the process-wide simulation counter, so
/// every test that runs the grid serializes on this lock.
static GRID: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GRID.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wwt-grid-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cross-section of the grid: both machine models, an ablation with
/// extra runs, and the phase-split EM3D pair.
const SUBSET: [Experiment; 5] = [
    Experiment::GaussMp,
    Experiment::GaussSm,
    Experiment::GaussAblation,
    Experiment::Em3dMp,
    Experiment::Em3dSm,
];

#[test]
fn report_is_byte_identical_for_any_job_count() {
    let _g = lock();
    let run = |jobs: usize| {
        let cfg = RunnerConfig {
            jobs,
            timeline: true,
            ..RunnerConfig::new(Scale::Test)
        };
        let artifacts = run_grid(&SUBSET, &cfg);
        let timelines: Vec<Option<String>> = artifacts.iter().map(|a| a.timeline.clone()).collect();
        (render_report(&artifacts, Scale::Test), timelines)
    };
    let (seq, seq_timelines) = run(1);
    let (par, par_timelines) = run(4);
    assert_eq!(seq, par, "report must not depend on worker count");
    assert_eq!(seq_timelines, par_timelines);
    assert!(seq.contains("### gauss-ablation"));
    assert!(seq.contains("headline checks pass"));
}

#[test]
fn combined_artifact_request_simulates_each_experiment_exactly_once() {
    let _g = lock();
    let cfg = RunnerConfig {
        timeline: true,
        trace: true,
        ..RunnerConfig::new(Scale::Test)
    };
    let es = [Experiment::LcpMp, Experiment::LcpSm];
    let before = simulations_performed();
    let artifacts = run_grid(&es, &cfg);
    let after = simulations_performed();
    assert_eq!(
        after - before,
        es.len() as u64,
        "tables + timeline + trace + metrics + json must share one simulation"
    );
    for a in &artifacts {
        assert!(!a.from_cache);
        assert!(a.timeline.is_some(), "{}: timeline missing", a.experiment);
        let tr = a.trace.as_ref().expect("trace artifacts requested");
        assert!(!tr.perfetto.is_empty());
        assert!(!tr.metrics_json.is_empty());
        assert!(!tr.metrics_table.is_empty());
        assert!(wwt::experiment_json(&a.summary)
            .contains(&format!("\"experiment\":\"{}\"", a.experiment.id())));
    }
}

#[test]
fn cache_replays_byte_identically_without_simulating() {
    let _g = lock();
    let dir = scratch_cache("replay");
    let cfg = RunnerConfig {
        timeline: true,
        cache_dir: Some(dir.clone()),
        ..RunnerConfig::new(Scale::Test)
    };
    let es = [Experiment::GaussMp, Experiment::GaussSm];

    let cold = run_grid(&es, &cfg);
    assert!(cold.iter().all(|a| !a.from_cache));

    let before = simulations_performed();
    let warm = run_grid(&es, &cfg);
    assert_eq!(
        simulations_performed() - before,
        0,
        "a warm cache must not simulate"
    );
    assert!(warm.iter().all(|a| a.from_cache));
    assert_eq!(
        render_report(&cold, Scale::Test),
        render_report(&warm, Scale::Test),
        "cached replay must render byte-identically"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.summary, w.summary);
        assert_eq!(c.timeline, w.timeline);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-process cache counters as (hits, misses).
fn cache_counts() -> (u64, u64) {
    let (hits, misses, _, _) = wwt::cache::stats();
    (hits, misses)
}

#[test]
fn changed_engine_config_misses_the_cache() {
    let _g = lock();
    let dir = scratch_cache("invalidate");
    let plain = RunnerConfig {
        cache_dir: Some(dir.clone()),
        ..RunnerConfig::new(Scale::Test)
    };
    let e = [Experiment::LcpMp];
    let cold = run_grid(&e, &plain);
    // Same model point, but now with profiling: the entry holds no
    // timeline, so the lookup misses and the runner simulates again.
    let profiled = RunnerConfig {
        timeline: true,
        ..plain.clone()
    };
    let before = simulations_performed();
    let arts = run_grid(&e, &profiled);
    assert_eq!(simulations_performed() - before, 1);
    assert!(!arts[0].from_cache);
    assert!(arts[0].timeline.is_some());
    // Observation flags do not key the entry: the timeline run's entry
    // covers a plain request, which replays without simulating.
    let before = simulations_performed();
    let (hits, _) = cache_counts();
    let warm = run_grid(&e, &plain);
    assert_eq!(simulations_performed() - before, 0);
    assert_eq!(cache_counts().0 - hits, 1);
    assert!(warm[0].from_cache);
    assert!(
        warm[0].timeline.is_none(),
        "a replay carries only requested artifacts"
    );
    assert_eq!(warm[0].summary, cold[0].summary);
    // A fault plan changes the model, so it still misses.
    let faulted = RunnerConfig {
        faults: Some(wwt::sim::FaultConfig::parse("seed=1,drop=0.01").unwrap()),
        ..plain.clone()
    };
    let before = simulations_performed();
    let arts = run_grid(&e, &faulted);
    assert_eq!(simulations_performed() - before, 1);
    assert!(!arts[0].from_cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_that_does_not_cover_the_request_is_one_miss() {
    let _g = lock();
    let dir = scratch_cache("cover");
    let phases = RunnerConfig {
        phases: true,
        cache_dir: Some(dir.clone()),
        ..RunnerConfig::new(Scale::Test)
    };
    let e = [Experiment::GaussMp];
    run_grid(&e, &phases);
    let timeline = RunnerConfig {
        timeline: true,
        phases: false,
        ..phases.clone()
    };
    let (hits, misses) = cache_counts();
    let arts = run_grid(&e, &timeline);
    assert_eq!(cache_counts(), (hits, misses + 1), "one miss, zero hits");
    assert!(!arts[0].from_cache);
    // The new entry replaced the old one; their artifact sets were not
    // merged, so the phase request now misses in turn.
    let entries = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|f| f.as_ref().unwrap().path().extension() == Some("run".as_ref()))
        .count();
    assert_eq!(entries, 1);
    let (hits, misses) = cache_counts();
    let arts = run_grid(&e, &phases);
    assert_eq!(cache_counts(), (hits, misses + 1));
    assert!(arts[0].phases.is_some());
    // No entry holds trace exports, so a traced request misses without
    // opening the warm entry (its damage goes unnoticed), simulates once,
    // and its save repairs the entry with results only.
    let traced = RunnerConfig {
        trace: true,
        phases: false,
        ..phases.clone()
    };
    let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
    std::fs::write(entry.path(), b"damaged").unwrap();
    let (hits, misses, bytes, corrupt) = wwt::cache::stats();
    let before = simulations_performed();
    let arts = run_grid(&e, &traced);
    assert_eq!(simulations_performed() - before, 1);
    assert_eq!(wwt::cache::stats(), (hits, misses + 1, bytes, corrupt));
    assert!(arts[0].trace.is_some());
    // A plain replay of that entry is one hit that reads a few hundred
    // bytes, not a copy of the trace.
    let plain = RunnerConfig {
        trace: false,
        ..traced
    };
    let warm = run_grid(&e, &plain);
    let (hits_now, misses_now, bytes_now, _) = wwt::cache::stats();
    assert_eq!((hits_now, misses_now), (hits + 1, misses + 1));
    let read = bytes_now - bytes;
    assert!(read < 4_096, "a plain replay read {read} bytes");
    assert_eq!(warm[0].summary, arts[0].summary);
    let _ = std::fs::remove_dir_all(&dir);
}
