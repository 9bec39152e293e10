//! Structured failure diagnostics: a stalled simulation returns a typed
//! [`SimError`] whose report names every blocked processor, its wait
//! reason, and the wait-for graph — instead of panicking — and a damaged
//! run-cache entry degrades to a miss with a warning, never a crash.

use std::rc::Rc;

use wwt::mp::{MpConfig, MpMachine};
use wwt::sim::{
    Engine, FaultConfig, HwBarrier, Kind, ProcId, Sim, SimConfig, SimError, WATCHDOG_CYCLES,
};
use wwt::{run_grid, Experiment, RunnerConfig, Scale};

#[test]
fn barrier_deadlock_reports_the_blocked_processor_and_reason() {
    let mut e = Engine::new(2, SimConfig::default());
    let barrier = Rc::new(HwBarrier::new(2, 100));
    // Only P0 arrives at the two-party barrier; P1 exits immediately.
    let cpu = e.cpu(ProcId::new(0));
    let b = Rc::clone(&barrier);
    e.spawn(ProcId::new(0), async move {
        cpu.compute(10);
        b.wait(&cpu, Kind::BarrierWait).await;
    });
    e.spawn(ProcId::new(1), async move {});
    let err = e.try_run().expect_err("one-sided barrier must deadlock");
    let SimError::Deadlock(report) = &err else {
        panic!("expected Deadlock, got {err}");
    };
    assert_eq!(report.nprocs, 2);
    assert_eq!(report.blocked.len(), 1);
    assert_eq!(report.blocked[0].proc, ProcId::new(0));
    assert_eq!(report.blocked[0].reason, "barrier release");
    // The golden shape of the rendered diagnostic.
    let text = err.to_string();
    assert!(text.contains("deadlock"), "{text}");
    assert!(text.contains("P0 blocked"), "{text}");
    assert!(text.contains("barrier release"), "{text}");
    assert!(text.contains("barrier (all processors)"), "{text}");
}

#[test]
fn mp_receiver_starvation_reports_its_wait_reason() {
    let mut e = Engine::new(2, SimConfig::default());
    let m = MpMachine::new(&e, MpConfig::default());
    // P0 waits for a message nobody ever sends; P1 exits immediately.
    let cpu = e.cpu(ProcId::new(0));
    let m0 = Rc::clone(&m);
    e.spawn(ProcId::new(0), async move {
        m0.poll_until(&cpu, |n| n >= 1).await;
    });
    e.spawn(ProcId::new(1), async move {});
    let err = e.try_run().expect_err("starved receiver must deadlock");
    let text = err.to_string();
    assert!(text.contains("deadlock"), "{text}");
    assert!(text.contains("P0 blocked"), "{text}");
    assert!(text.contains("message receive"), "{text}");
    match err {
        SimError::Deadlock(report) => {
            assert_eq!(report.blocked.len(), 1);
            assert_eq!(report.blocked[0].proc, ProcId::new(0));
        }
        other => panic!("expected Deadlock, got {other}"),
    }
}

#[test]
fn watchdog_reports_livelock_with_the_parked_processor() {
    fn rearm(sim: Rc<Sim>, at: u64) {
        let next = Rc::clone(&sim);
        sim.call_at(at, move || rearm(next, at + 100))
            .expect("rearm schedules forward");
    }
    let mut e = Engine::new(
        1,
        SimConfig {
            faults: Some(FaultConfig::default()),
            ..SimConfig::default()
        },
    );
    // P0 parks on a cell nobody completes while callback events churn
    // forever without committing any processor progress.
    let cpu = e.cpu(ProcId::new(0));
    let cell = wwt::sim::WaitCell::new();
    let parked = cell.clone();
    e.spawn(ProcId::new(0), async move {
        parked.wait(&cpu, Kind::Wait).await;
    });
    rearm(Rc::clone(e.sim()), 100);
    let err = e.try_run().expect_err("event churn without progress");
    match &err {
        SimError::Livelock(report) => {
            assert_eq!(report.now, WATCHDOG_CYCLES + 100);
            assert_eq!(report.blocked.len(), 1);
            assert_eq!(report.blocked[0].proc, ProcId::new(0));
        }
        other => panic!("expected Livelock, got {other}"),
    }
    let text = err.to_string();
    assert!(
        text.contains(&format!(
            "livelock: no processor resumed for {WATCHDOG_CYCLES} simulated cycles"
        )),
        "{text}"
    );
    assert!(text.contains("P0 blocked"), "{text}");
    drop(cell);
}

#[test]
fn scheduling_into_the_past_is_a_typed_error() {
    let e = Engine::new(1, SimConfig::default());
    let sim = Rc::clone(e.sim());
    sim.call_at(50, move || {}).unwrap();
    // Drain to t=50, then try to schedule behind the clock.
    let sim = Rc::clone(e.sim());
    let mut engine = e;
    let cpu = engine.cpu(ProcId::new(0));
    engine.spawn(ProcId::new(0), async move {
        cpu.compute(100);
        cpu.resync().await;
        let err = sim.call_at(10, move || {}).expect_err("10 is in the past");
        assert!(matches!(err, SimError::PastEvent { at: 10, .. }));
        assert!(err.to_string().contains("scheduled in the past"));
    });
    engine.run();
}

#[test]
fn corrupt_cache_entries_degrade_to_a_recomputed_run() {
    let dir = std::env::temp_dir().join(format!("wwt-diag-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RunnerConfig {
        cache_dir: Some(dir.clone()),
        ..RunnerConfig::new(Scale::Test)
    };
    let es = [Experiment::GaussMp];
    let cold = run_grid(&es, &cfg);
    assert!(!cold[0].from_cache);

    // Sanity: an intact entry replays from disk.
    let warm = run_grid(&es, &cfg);
    assert!(warm[0].from_cache);

    // Damage every cache entry in place; the next run must fall back to
    // simulation (with a stderr warning) instead of panicking, and must
    // produce the same report section.
    for f in std::fs::read_dir(&dir).unwrap() {
        let path = f.unwrap().path();
        let text = std::fs::read(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    }
    let repaired = run_grid(&es, &cfg);
    assert!(!repaired[0].from_cache, "corrupt entry must miss");
    assert_eq!(repaired[0].summary, cold[0].summary);
    let _ = std::fs::remove_dir_all(&dir);
}
