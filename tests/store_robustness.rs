//! Host-fault robustness of the result store and the grid runner: every
//! injected IO fault mode must degrade to a warned miss plus
//! re-simulation producing a byte-identical report, a panicking
//! experiment must become a failed cell instead of a dead grid, and
//! concurrent runners racing one store key must simulate it exactly
//! once.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;

use wwt::store::{self, Store, StoreConfig, StoreFaults};
use wwt::{render_report, run_grid, simulations_performed, Experiment, RunnerConfig, Scale};

/// Tests in this binary share the process-wide simulation counter, the
/// global store-fault plan, and the warning dedup registry, so every
/// test serializes on this lock.
static GRID: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GRID.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wwt-store-rob-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One experiment per machine model keeps each grid pass cheap while
/// still exercising both cache-entry shapes.
const PAIR: [Experiment; 2] = [Experiment::GaussMp, Experiment::GaussSm];

fn cached_cfg(dir: &Path) -> RunnerConfig {
    RunnerConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..RunnerConfig::new(Scale::Test)
    }
}

/// Runs the pair through the grid (cache under `dir`) and renders the
/// report — the stdout a `make_tables` invocation would print.
fn report_for(dir: &Path) -> String {
    render_report(&run_grid(&PAIR, &cached_cfg(dir)), Scale::Test)
}

/// The fault-free reference report, computed once (uncached grid run).
fn baseline() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        render_report(
            &run_grid(&PAIR, &RunnerConfig::new(Scale::Test)),
            Scale::Test,
        )
    })
}

proptest! {
    // Each case runs ~20 grid passes; a few seeds buy fault-plan
    // diversity without minutes of wall clock.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The acceptance property: for every `StoreFaults` mode injected
    /// across a grid run — torn write, bit flip, transient EIO, rename
    /// failure, and all four at once — the rendered report is
    /// byte-identical to the fault-free run (cold, re-run over the
    /// damaged store, and after repair), no panic escapes a job thread,
    /// and `--fsck` afterward reports a clean store.
    #[test]
    fn every_fault_mode_degrades_to_byte_identical_reports(seed in 0u64..1_000_000) {
        let _g = lock();
        let reference = baseline();
        for (tag, spec) in [
            ("torn", "torn=1"),
            ("flip", "flip=1"),
            ("eio", "eio=1"),
            ("rename", "rename=1"),
            ("mixed", "torn=0.5,flip=0.5,eio=0.5,rename=0.5"),
        ] {
            let dir = scratch_cache(tag);
            store::reset_fault_state();
            let plan = StoreFaults::parse(&format!("seed={seed},{spec}")).unwrap();
            store::set_global_faults(Some(plan));
            let cold = report_for(&dir);
            let rerun = report_for(&dir); // reads back whatever the faults left
            store::set_global_faults(None);
            store::reset_fault_state();
            prop_assert_eq!(&cold, reference, "{}: faulted cold run diverged", tag);
            prop_assert_eq!(&rerun, reference, "{}: re-run over faulted store diverged", tag);

            // fsck sees the real disk (no fault plan): quarantine
            // whatever the faults corrupted, then a second pass must be
            // clean.
            let repair = Store::with_config(&dir, StoreConfig::default()).fsck();
            let second = Store::with_config(&dir, StoreConfig::default()).fsck();
            prop_assert!(second.clean(), "{}: store dirty after fsck: {}", tag, second);

            // A final fault-free run over the repaired store still
            // matches, and recommits anything fsck quarantined.
            let healed = report_for(&dir);
            prop_assert_eq!(&healed, reference, "{}: post-fsck run diverged", tag);
            let _ = repair; // quarantine counts vary by seed; cleanliness is the contract
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_panicking_experiment_is_a_failed_cell_not_a_dead_grid() {
    let _g = lock();
    std::env::set_var("WWT_TEST_PANIC_EXPERIMENT", Experiment::GaussMp.id());
    let arts = run_grid(&PAIR, &RunnerConfig::new(Scale::Test));
    std::env::remove_var("WWT_TEST_PANIC_EXPERIMENT");
    assert_eq!(arts.len(), 2, "the grid must finish despite the panic");
    assert!(
        arts[0].summary.engine_failed(),
        "the panicking cell must report failure: {}",
        arts[0].summary.validation_detail
    );
    assert!(
        arts[0]
            .summary
            .validation_detail
            .contains("panic: injected test panic"),
        "{}",
        arts[0].summary.validation_detail
    );
    assert!(
        !arts[1].summary.engine_failed(),
        "the healthy cell must be unaffected"
    );
    // The failed cell flows through rendering like any stalled run.
    let report = render_report(&arts, Scale::Test);
    assert!(report.contains("validation: FAIL — engine failure: panic:"));
}

#[test]
fn a_panicking_job_never_caches_its_cell() {
    let _g = lock();
    let dir = scratch_cache("panic-cache");
    std::env::set_var("WWT_TEST_PANIC_EXPERIMENT", Experiment::GaussMp.id());
    let poisoned = run_grid(&[Experiment::GaussMp], &cached_cfg(&dir));
    std::env::remove_var("WWT_TEST_PANIC_EXPERIMENT");
    assert!(poisoned[0].summary.engine_failed());
    // With the panic gone the same key must re-simulate (nothing was
    // committed) and succeed.
    let healthy = run_grid(&[Experiment::GaussMp], &cached_cfg(&dir));
    assert!(!healthy[0].summary.engine_failed());
    assert!(!healthy[0].from_cache, "a failed cell must not be replayed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_threads_racing_one_key_simulate_exactly_once() {
    let _g = lock();
    let dir = scratch_cache("thread-race");
    let cfg = cached_cfg(&dir);
    let before = simulations_performed();
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| run_grid(&[Experiment::LcpMp], &cfg));
        let hb = s.spawn(|| run_grid(&[Experiment::LcpMp], &cfg));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(
        simulations_performed() - before,
        1,
        "the entry lock must make the racers simulate the key once"
    );
    // Both racers read identical results — the loser replays the
    // winner's committed bytes.
    assert_eq!(a[0].summary, b[0].summary);
    assert!(
        a[0].from_cache != b[0].from_cache,
        "exactly one racer simulates, the other replays"
    );
    // And the store they leave behind is healthy: one valid entry, no
    // leftover temp or lock files.
    let fsck = Store::with_config(&dir, StoreConfig::default()).fsck();
    assert!(fsck.clean(), "{fsck}");
    assert_eq!(fsck.scanned, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_warn_once_per_path_and_are_counted() {
    let _g = lock();
    let dir = scratch_cache("warn-dedup");
    let cfg = cached_cfg(&dir);
    run_grid(&[Experiment::LcpSm], &cfg);
    // Flip a payload byte in the committed entry.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".run"))
        .expect("the run must have committed an entry");
    let mut bytes = std::fs::read(entry.path()).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(entry.path(), &bytes).unwrap();

    let (_, _, _, corrupt_before) = wwt::cache::stats();
    // The recovery run re-reads the damaged entry (miss check plus the
    // post-lock re-check): the first read prints, the repeat is only
    // counted, and the pair counts as one corrupt-recovered event.
    run_grid(&[Experiment::LcpSm], &cfg);
    let (_, _, _, corrupt_after) = wwt::cache::stats();
    assert_eq!(
        corrupt_after - corrupt_before,
        1,
        "the damaged entry must be counted as corrupt-recovered once"
    );
    let suppressed_after_recovery = store::suppressed_warnings();
    let replay = run_grid(&[Experiment::LcpSm], &cfg);
    assert!(
        replay[0].from_cache,
        "the recommit must have healed the entry"
    );
    assert_eq!(
        store::suppressed_warnings(),
        suppressed_after_recovery,
        "a healed entry must not keep warning"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_cell_is_attempted_exactly_once() {
    // The grid never re-runs a failed cell: the simulator is
    // deterministic, so a second attempt would fail the same way. A
    // panicking cell goes through the job boundary exactly once.
    let _g = lock();
    let panics_before = wwt::obs::counter(wwt::obs::Ctr::GridJobPanics);
    std::env::set_var("WWT_TEST_PANIC_EXPERIMENT", Experiment::LcpMp.id());
    let arts = run_grid(&[Experiment::LcpMp], &RunnerConfig::new(Scale::Test));
    std::env::remove_var("WWT_TEST_PANIC_EXPERIMENT");
    assert!(arts[0].summary.engine_failed());
    assert_eq!(
        wwt::obs::counter(wwt::obs::Ctr::GridJobPanics) - panics_before,
        1,
        "one attempt, no re-run"
    );
}
