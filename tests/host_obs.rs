//! Host-side self-observability (`wwt_obs`): enabling the metrics
//! registry never perturbs the *simulated* output — clean or faulted —
//! and the flight-recorder section
//! attached to stalled-run diagnostics keeps its pinned format.

use std::rc::Rc;
use std::sync::Mutex;

use wwt::obs;
use wwt::sim::{Engine, FaultConfig, HwBarrier, Kind, ProcId, SimConfig, SimError};
use wwt::{render_report, run_grid, Experiment, RunnerConfig, Scale};

/// The registry is process-global, so every test that toggles it
/// serializes on this lock.
static OBS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Both machine models and both communication styles.
const SUBSET: [Experiment; 4] = [
    Experiment::GaussMp,
    Experiment::GaussSm,
    Experiment::Em3dMp,
    Experiment::Em3dSm,
];

fn report(faults: Option<FaultConfig>) -> String {
    let cfg = RunnerConfig {
        faults,
        ..RunnerConfig::new(Scale::Test)
    };
    render_report(&run_grid(&SUBSET, &cfg), Scale::Test)
}

/// The acceptance gate: simulated stdout is byte-identical with and
/// without `--obs`, clean and faulted. Host metrics observe wall time
/// only; nothing in the simulation reads them back.
#[test]
fn host_metrics_never_change_simulated_output() {
    let _g = lock();
    let chaos = || FaultConfig::parse("seed=7,drop=0.01,jitter=200").expect("valid fault spec");
    for faulted in [false, true] {
        let plan = || faulted.then(chaos);
        obs::disable();
        let base = report(plan());
        obs::enable();
        obs::reset();
        let observed = report(plan());
        obs::disable();
        assert_eq!(
            base, observed,
            "--obs changed simulated output (faulted={faulted})"
        );
    }
}

/// While enabled, a run populates the engine instruments the self-profile
/// table is built from: event throughput and the queue-depth high-water
/// mark.
#[test]
fn enabled_runs_populate_the_engine_instruments() {
    let _g = lock();
    obs::enable();
    obs::reset();
    let _ = report(None);
    let snap = obs::snapshot_now();
    obs::disable();
    let popped = obs::counter(obs::Ctr::SimEventsPopped);
    let pushed = obs::counter(obs::Ctr::SimEventsPushed);
    assert!(popped > 0, "no events counted: {snap:?}");
    assert_eq!(popped, pushed, "every pushed event is eventually popped");
    let beyond_ring =
        obs::counter(obs::Ctr::SimQueueFar) + obs::counter(obs::Ctr::SimQueueOverflow);
    assert!(beyond_ring <= pushed, "{snap:?}");
    assert!(obs::queue_depth_hwm() > 0, "{snap:?}");
    let table = obs::render_table(&snap);
    assert!(table.contains("engine     events popped"), "{table}");
    assert!(table.contains("depth high-water"), "{table}");
    assert!(
        table.contains("queue      pushes to second level"),
        "{table}"
    );
    assert!(table.contains("grid       experiments"), "{table}");
}

fn one_sided_barrier_deadlock() -> SimError {
    let mut e = Engine::new(2, SimConfig::default());
    let barrier = Rc::new(HwBarrier::new(2, 100));
    let cpu = e.cpu(ProcId::new(0));
    let b = Rc::clone(&barrier);
    e.spawn(ProcId::new(0), async move {
        cpu.compute(10);
        b.wait(&cpu, Kind::BarrierWait).await;
    });
    e.spawn(ProcId::new(1), async move {});
    e.try_run().expect_err("one-sided barrier must deadlock")
}

/// With host metrics enabled, a stalled run's diagnostic carries the
/// "simulator state at failure" flight-recorder section; disabled, the
/// report is exactly the pre-obs text.
#[test]
fn deadlock_report_attaches_the_flight_recorder_only_when_enabled() {
    let _g = lock();
    obs::disable();
    let silent = one_sided_barrier_deadlock().to_string();
    assert!(!silent.contains("flight recorder"), "{silent}");

    obs::enable();
    obs::reset();
    obs::record_snapshot();
    let text = one_sided_barrier_deadlock().to_string();
    obs::disable();
    assert!(
        text.contains("simulator state at failure (flight recorder,"),
        "{text}"
    );
    assert!(text.starts_with(&silent), "obs section must only append");
}

/// Golden test pinning the `SimError` flight-recorder section format:
/// header with snapshot count, then one indented `[t+MSms]` line per
/// snapshot, oldest first, `name=value` pairs.
#[test]
fn flight_recorder_section_format_is_pinned() {
    let snaps = vec![
        obs::ObsSnapshot {
            elapsed_ms: 100,
            samples: vec![
                obs::ObsSample {
                    name: "sim_events_popped",
                    value: 1200,
                },
                obs::ObsSample {
                    name: "cache_hits",
                    value: 3,
                },
            ],
        },
        obs::ObsSnapshot {
            elapsed_ms: 200,
            samples: vec![],
        },
    ];
    assert_eq!(
        obs::render_flight_recorder(&snaps),
        "simulator state at failure (flight recorder, 2 snapshots, oldest first):\n  \
         [t+100ms] sim_events_popped=1200 cache_hits=3\n  \
         [t+200ms] (all metrics zero)"
    );
}

/// Two runs stalling in the same simulated state compare equal even when
/// their flight recorders differ — host wall time is not simulated state.
#[test]
fn stall_reports_compare_equal_across_different_flight_recorders() {
    let _g = lock();
    obs::disable();
    let SimError::Deadlock(plain) = one_sided_barrier_deadlock() else {
        panic!("expected Deadlock");
    };
    obs::enable();
    obs::reset();
    obs::record_snapshot();
    let SimError::Deadlock(with_obs) = one_sided_barrier_deadlock() else {
        panic!("expected Deadlock");
    };
    obs::disable();
    assert!(plain.obs.is_empty());
    assert!(!with_obs.obs.is_empty());
    assert_eq!(plain, with_obs, "obs snapshots must not affect equality");
}
