//! Robustness of the run cache and the grid runner: every host fault a
//! cache entry can suffer must degrade to a miss plus re-simulation
//! producing a byte-identical report, a damaged entry must warn and
//! count once, concurrent runners racing one key must leave
//! one valid entry, and a panicking experiment must become a failed cell
//! instead of a dead grid.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;

use wwt::{render_report, run_grid, Experiment, RunnerConfig, Scale};

/// Tests in this binary share the process-wide cache counters and the
/// panic-injection environment variable, so every test serializes on
/// this lock.
static GRID: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GRID.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wwt-cache-rob-{name}-{}", std::process::id()));
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

/// The names in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
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

/// Damages the committed entry at `path` the way one host fault would.
/// `seed` picks the truncation point and the flipped bit.
fn damage(path: &Path, mode: &str, seed: u64) {
    let bytes = std::fs::read(path).unwrap();
    match mode {
        // A torn write: the header promises more payload than is there.
        "torn" => std::fs::write(path, &bytes[..seed as usize % bytes.len()]).unwrap(),
        // Bit rot anywhere in the file: header, checksum or payload.
        "flip" => {
            let mut bytes = bytes;
            let at = seed as usize % bytes.len();
            bytes[at] ^= 1 << (seed % 8);
            std::fs::write(path, &bytes).unwrap();
        }
        // A read error: the entry path is a directory, which no read
        // and no rename onto it can get past.
        "eio" => {
            std::fs::remove_file(path).unwrap();
            std::fs::create_dir(path).unwrap();
        }
        // A writer that died between write and rename: no entry, only
        // its full temp file.
        "rename" => {
            let mut tmp = path.as_os_str().to_owned();
            tmp.push(format!(".tmp.{}.{seed}", u32::MAX));
            std::fs::rename(path, PathBuf::from(tmp)).unwrap();
        }
        _ => unreachable!("unknown fault mode {mode}"),
    }
}

proptest! {
    // Each case runs 15 grid passes; a few seeds vary where the damage
    // lands without minutes of wall clock.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// For every host fault mode a cache entry can suffer — torn write,
    /// bit flip, unreadable entry, lost rename — the report is
    /// byte-identical to an uncached run on the cold run, on the re-run
    /// over the damaged cache, and after it.
    #[test]
    fn every_fault_mode_degrades_to_byte_identical_reports(seed in 0u64..1_000_000) {
        let _g = lock();
        let reference = baseline();
        for mode in ["torn", "flip", "eio", "rename"] {
            let dir = scratch_cache(mode);
            let cfg = cached_cfg(&dir);
            let cold = render_report(&run_grid(&PAIR, &cfg), Scale::Test);
            prop_assert_eq!(&cold, reference, "{}: cold run diverged", mode);
            let entries = file_names(&dir);
            prop_assert_eq!(entries.len(), 2, "{}: {:?}", mode, entries);
            for name in &entries {
                damage(&dir.join(name), mode, seed);
            }

            let rerun = run_grid(&PAIR, &cfg);
            prop_assert!(rerun.iter().all(|a| !a.from_cache), "{}: damage replayed", mode);
            prop_assert_eq!(&render_report(&rerun, Scale::Test), reference, "{}: re-run diverged", mode);

            // The re-run recommitted every entry it could: all but an
            // entry path blocked by a directory replay from now on.
            let healed = run_grid(&PAIR, &cfg);
            let replays = mode != "eio";
            prop_assert!(healed.iter().all(|a| a.from_cache == replays), "{}: healed run", mode);
            prop_assert_eq!(&render_report(&healed, Scale::Test), reference, "{}: healed run diverged", mode);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn corrupt_entries_warn_once_per_path_and_are_counted() {
    let _g = lock();
    let dir = scratch_cache("damage");
    let cfg = cached_cfg(&dir);
    run_grid(&PAIR, &cfg);
    let entries = file_names(&dir);
    assert_eq!(entries.len(), 2, "one entry per experiment: {entries:?}");

    // Truncate one entry and bit-flip the other.
    let torn = dir.join(&entries[0]);
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    let flipped = dir.join(&entries[1]);
    let mut bytes = std::fs::read(&flipped).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&flipped, &bytes).unwrap();

    // A damaged entry prints its warning where it counts as
    // corrupt-recovered, so the counters stand for the warnings: one
    // read, one warning and one miss per damaged path.
    let (_, misses_before, _, corrupt_before) = wwt::cache::stats();
    let recovered = run_grid(&PAIR, &cfg);
    let (_, misses_after, _, corrupt_after) = wwt::cache::stats();
    assert!(recovered.iter().all(|a| !a.from_cache), "both re-simulate");
    assert_eq!(render_report(&recovered, Scale::Test), baseline());
    assert_eq!(
        corrupt_after - corrupt_before,
        2,
        "each damaged entry counts once as corrupt-recovered"
    );
    assert_eq!(misses_after - misses_before, 2, "one lookup per cell");

    // The re-simulation overwrote both entries: a third run replays them.
    let replay = run_grid(&PAIR, &cfg);
    assert!(replay.iter().all(|a| a.from_cache), "healed entries replay");
    assert_eq!(render_report(&replay, Scale::Test), baseline());
    let (_, _, _, corrupt_final) = wwt::cache::stats();
    assert_eq!(corrupt_final, corrupt_after, "healed entries never warn");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_threads_racing_one_cold_key_leave_one_valid_entry() {
    let _g = lock();
    let dir = scratch_cache("thread-race");
    let cfg = cached_cfg(&dir);
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| run_grid(&[Experiment::LcpMp], &cfg));
        let hb = s.spawn(|| run_grid(&[Experiment::LcpMp], &cfg));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    // Entries are deterministic: whether both racers simulated or one
    // replayed the other's entry, they agree.
    assert_eq!(a[0].summary, b[0].summary);
    // Either rename leaves the same correct entry, and no temp file
    // survives.
    let names = file_names(&dir);
    assert_eq!(names.len(), 1, "one entry, no temp leftovers: {names:?}");
    assert!(names[0].ends_with(".run"), "{names:?}");
    let entry = wwt::cache::load_path(&dir.join(&names[0])).expect("the entry decodes");
    assert_eq!(entry.summary, a[0].summary);
    let _ = std::fs::remove_dir_all(&dir);
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
