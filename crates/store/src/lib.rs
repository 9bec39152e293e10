//! Crash-safe content-addressed result store.
//!
//! The run cache under `results/cache/` replays simulation points from
//! disk, so the store underneath it must survive crashes, torn writes,
//! bit rot, and concurrent writers **without ever emitting a wrong
//! table**. This crate is that store, factored out of `wwt-core`'s cache
//! so the discipline is reusable and testable in isolation:
//!
//! * **Self-validating entries.** Every entry is wrapped in a versioned
//!   header carrying the payload length and an FNV-1a checksum
//!   ([`entry`]), verified on every read. Damage of any kind surfaces as
//!   a typed [`ReadError::Corrupt`], never as garbage payload.
//! * **Atomic commits.** [`Store::commit`] writes a `*.tmp.<pid>.<seq>`
//!   sibling, renames it over the entry, and fsyncs the directory, so a
//!   concurrent reader (or a crash) never observes a half-written entry.
//!   A failed write removes its temp file instead of leaking it.
//! * **Single-writer discipline.** [`Store::lock`] takes a per-entry
//!   `*.lock` file so two processes racing the same key simulate once:
//!   the loser blocks, then reads the winner's bytes. Locks left behind
//!   by a crashed writer are taken over once they go stale.
//! * **fsck.** [`Store::fsck`] scans the store, verifies every entry,
//!   quarantines corrupt ones (into `quarantine/`, with an obs counter),
//!   and garbage-collects orphaned temp and stale lock files.
//! * **Host-fault injection.** A seeded, deterministic [`StoreFaults`]
//!   plan (per store, or process-wide via [`set_global_faults`]) tears
//!   commits at byte N, flips bits, injects transient `EIO`s, and fails
//!   renames, so tests can prove every failure mode degrades to a warned
//!   miss plus re-simulation producing byte-identical output.
//!
//! Nothing in this crate interprets payloads; `wwt-core`'s cache keeps
//! the (de)serialization and keying, and everything else that wants
//! atomic file publication (the bench log, obs snapshots) shares
//! [`atomic_write`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod entry;
pub mod faults;

pub use entry::{decode, encode, fnv1a, DecodeError, ENTRY_MAGIC, ENTRY_VERSION};
pub use faults::{global_faults, reset_fault_state, set_global_faults, StoreFaults};

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

use wwt_obs::{count_always, Ctr};

/// File-name suffix of store entries (what [`Store::fsck`] verifies).
pub const ENTRY_SUFFIX: &str = ".run";

/// Subdirectory corrupt entries are quarantined into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// How a [`Store`] behaves: fault plan and lock timing.
#[derive(Copy, Clone, Debug)]
pub struct StoreConfig {
    /// Host-fault plan applied to this store's IO (`None` injects
    /// nothing).
    pub faults: Option<StoreFaults>,
    /// Age after which a lock file is presumed abandoned by a crashed
    /// writer and taken over.
    pub lock_stale: Duration,
    /// Poll interval while waiting for a contended lock.
    pub lock_poll: Duration,
    /// Longest a [`Store::lock`] call blocks before giving up and
    /// returning an unacquired guard (the caller proceeds best-effort —
    /// the store must never wedge its caller forever).
    pub lock_wait: Duration,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            faults: None,
            // A stale threshold must outlast the longest legitimate hold:
            // a paper-scale simulation takes minutes, so be generous.
            lock_stale: Duration::from_secs(600),
            lock_poll: Duration::from_millis(25),
            lock_wait: Duration::from_secs(660),
        }
    }
}

/// Why a [`Store::read`] returned no payload.
#[derive(Debug)]
pub enum ReadError {
    /// No entry under that name — a plain miss.
    NotFound,
    /// The entry exists but failed validation; the reason is the decode
    /// diagnostic.
    Corrupt(DecodeError),
    /// The underlying IO failed (includes injected transient `EIO`s).
    Io(io::Error),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::NotFound => f.write_str("not found"),
            ReadError::Corrupt(why) => write!(f, "corrupt: {why}"),
            ReadError::Io(err) => write!(f, "io error: {err}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A content-addressed store rooted at one directory. Cheap to construct
/// (no IO until an operation); every operation takes the entry *name*
/// (its file name within the root), which the caller derives from its
/// content hash.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    cfg: StoreConfig,
}

/// Per-process uniquifier for temp-file names, so two threads committing
/// the same entry without a lock can never collide on one temp path.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Store {
    /// Opens the store at `root` with the process-global fault plan (set
    /// via [`set_global_faults`]) and default lock timing.
    pub fn open(root: impl Into<PathBuf>) -> Store {
        Store::with_config(
            root,
            StoreConfig {
                faults: global_faults(),
                ..StoreConfig::default()
            },
        )
    }

    /// Opens the store at `root` with an explicit configuration.
    pub fn with_config(root: impl Into<PathBuf>, cfg: StoreConfig) -> Store {
        Store {
            root: root.into(),
            cfg,
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of an entry name.
    pub fn entry_path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Reads and verifies one entry, returning its payload.
    pub fn read(&self, name: &str) -> Result<Vec<u8>, ReadError> {
        let path = self.entry_path(name);
        if let Some(f) = &self.cfg.faults {
            if f.read_eio(&path.to_string_lossy()) {
                count_always(Ctr::StoreFaultsInjected, 1);
                return Err(ReadError::Io(io::Error::other("injected transient EIO")));
            }
        }
        let bytes = fs::read(&path).map_err(|err| {
            if err.kind() == io::ErrorKind::NotFound {
                ReadError::NotFound
            } else {
                ReadError::Io(err)
            }
        })?;
        decode(&bytes).map_err(ReadError::Corrupt)
    }

    /// Atomically publishes one entry: checksummed container, temp write,
    /// rename, directory fsync. Under an active fault plan the commit may
    /// be deliberately torn, bit-flipped, or rename-failed — each a
    /// failure mode the *reader* must survive.
    pub fn commit(&self, name: &str, payload: &[u8]) -> io::Result<()> {
        fs::create_dir_all(&self.root)?;
        let mut bytes = encode(payload);
        if let Some(f) = &self.cfg.faults {
            if let Some((byte, bit)) = f.flip_at(name, bytes.len()) {
                count_always(Ctr::StoreFaultsInjected, 1);
                bytes[byte] ^= 1 << bit;
            }
            if let Some(keep) = f.torn_len(name, bytes.len()) {
                count_always(Ctr::StoreFaultsInjected, 1);
                bytes.truncate(keep);
            }
        }
        let path = self.entry_path(name);
        let tmp = self.root.join(format!(
            "{name}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(err) = fs::write(&tmp, &bytes) {
            // Never leak the temp file: a failed write must leave the
            // store exactly as it was.
            let _ = fs::remove_file(&tmp);
            return Err(err);
        }
        if let Some(f) = &self.cfg.faults {
            if f.rename_fails(name) {
                count_always(Ctr::StoreFaultsInjected, 1);
                let _ = fs::remove_file(&tmp);
                return Err(io::Error::other("injected rename failure"));
            }
        }
        if let Err(err) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(err);
        }
        // Make the rename durable: fsync the directory so a crash after
        // commit cannot un-publish the entry. Best-effort — some
        // filesystems refuse directory fsync, and an entry that merely
        // *might* vanish on power loss is still a safe cache miss.
        let _ = fs::File::open(&self.root).and_then(|d| d.sync_all());
        Ok(())
    }

    /// Takes the per-entry writer lock, blocking (with polling) while
    /// another writer holds it. A lock older than
    /// [`StoreConfig::lock_stale`] is presumed abandoned by a crashed
    /// writer and taken over. If the lock cannot be acquired within
    /// [`StoreConfig::lock_wait`] — or lock-file IO fails outright (a
    /// read-only store) — the returned guard is *unacquired* and the
    /// caller proceeds without mutual exclusion: commits are idempotent
    /// (same key, same bytes), so the discipline is an optimization
    /// against duplicate work, never a correctness gate.
    pub fn lock(&self, name: &str) -> LockGuard {
        let path = self.root.join(format!("{name}.lock"));
        if fs::create_dir_all(&self.root).is_err() {
            return LockGuard { path: None };
        }
        let start = Instant::now();
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use io::Write as _;
                    let _ = writeln!(f, "pid {}", std::process::id());
                    return LockGuard { path: Some(path) };
                }
                Err(err) if err.kind() == io::ErrorKind::AlreadyExists => {
                    if lock_age(&path).is_some_and(|age| age >= self.cfg.lock_stale) {
                        // Abandoned by a crashed writer: break it and
                        // retry the create (a racing breaker is fine —
                        // only one create_new wins).
                        count_always(Ctr::StoreLockTakeovers, 1);
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    if start.elapsed() >= self.cfg.lock_wait {
                        return LockGuard { path: None };
                    }
                    std::thread::sleep(self.cfg.lock_poll);
                }
                Err(_) => return LockGuard { path: None },
            }
        }
    }

    /// Scans the store: verifies every `*.run` entry, moves corrupt ones
    /// into `quarantine/`, and garbage-collects orphaned `*.tmp.*` files
    /// and stale `*.lock` files. Reads bypass any fault plan — fsck
    /// reports what is really on disk. Returns what it found; an absent
    /// root is an empty, clean store.
    pub fn fsck(&self) -> FsckReport {
        let mut report = FsckReport::default();
        let entries = match fs::read_dir(&self.root) {
            Ok(it) => it,
            Err(_) => return report,
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort(); // deterministic report order
        for name in names {
            let path = self.root.join(&name);
            if name.contains(".tmp.") {
                // A temp file only exists inside a commit's write-rename
                // window; one found by fsck is a crash leftover.
                if fs::remove_file(&path).is_ok() {
                    report.swept_tmp += 1;
                    count_always(Ctr::StoreFsckSwept, 1);
                }
            } else if name.ends_with(".lock") {
                if lock_age(&path).is_some_and(|age| age >= self.cfg.lock_stale)
                    && fs::remove_file(&path).is_ok()
                {
                    report.swept_locks += 1;
                    count_always(Ctr::StoreFsckSwept, 1);
                }
            } else if name.ends_with(ENTRY_SUFFIX) {
                report.scanned += 1;
                let verdict = fs::read(&path)
                    .map_err(|err| format!("unreadable: {err}"))
                    .and_then(|bytes| decode(&bytes).map(|_| ()).map_err(|e| e.to_string()));
                match verdict {
                    Ok(()) => report.valid += 1,
                    Err(why) => {
                        let qdir = self.root.join(QUARANTINE_DIR);
                        let _ = fs::create_dir_all(&qdir);
                        if fs::rename(&path, qdir.join(&name)).is_err() {
                            // Quarantine dir unwritable: deleting the
                            // corpse still heals the store.
                            let _ = fs::remove_file(&path);
                        }
                        count_always(Ctr::StoreFsckQuarantined, 1);
                        report.quarantined.push((name, why));
                    }
                }
            }
        }
        report
    }
}

/// Age of a lock file, by modification time. `None` when the file is
/// gone or the clock is unreadable (then it is never considered stale).
fn lock_age(path: &Path) -> Option<Duration> {
    let mtime = fs::metadata(path).ok()?.modified().ok()?;
    SystemTime::now().duration_since(mtime).ok()
}

/// Holds (or records the failure to hold) one entry's writer lock; the
/// lock file is removed on drop.
#[derive(Debug)]
pub struct LockGuard {
    /// The lock file to remove on drop; `None` when the lock was not
    /// acquired (contention timeout or IO failure) and the caller is
    /// proceeding best-effort.
    path: Option<PathBuf>,
}

impl LockGuard {
    /// Whether the lock was actually acquired.
    pub fn acquired(&self) -> bool {
        self.path.is_some()
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            let _ = fs::remove_file(path);
        }
    }
}

/// What one [`Store::fsck`] pass found and repaired.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Entries examined.
    pub scanned: usize,
    /// Entries that verified clean.
    pub valid: usize,
    /// Corrupt entries moved to `quarantine/`, with the decode
    /// diagnostic for each.
    pub quarantined: Vec<(String, String)>,
    /// Orphaned `*.tmp.*` files removed.
    pub swept_tmp: usize,
    /// Stale `*.lock` files removed.
    pub swept_locks: usize,
}

impl FsckReport {
    /// A clean pass: every entry valid, nothing quarantined or swept.
    pub fn clean(&self) -> bool {
        self.valid == self.scanned
            && self.quarantined.is_empty()
            && self.swept_tmp == 0
            && self.swept_locks == 0
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fsck: {} entries scanned, {} valid, {} quarantined, {} tmp + {} stale lock files swept",
            self.scanned,
            self.valid,
            self.quarantined.len(),
            self.swept_tmp,
            self.swept_locks
        )?;
        for (name, why) in &self.quarantined {
            write!(f, "\n  quarantined {name}: {why}")?;
        }
        Ok(())
    }
}

/// Atomically replaces `path` with `bytes`: temp-file write + rename +
/// directory fsync, cleaning the temp file up on failure. For plain
/// files that want crash-safe publication without the store's checksum
/// container (the bench log, obs snapshots).
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    if let Err(err) = fs::write(&tmp, bytes) {
        let _ = fs::remove_file(&tmp);
        return Err(err);
    }
    if let Err(err) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(err);
    }
    if let Some(dir) = dir {
        let _ = fs::File::open(dir).and_then(|d| d.sync_all());
    }
    Ok(())
}

/// Reads and verifies a store entry by direct path (outside any [`Store`]
/// root — the `--diff results/cache/x.run` form). `None` on any damage.
pub fn read_entry_file(path: &Path) -> Option<Vec<u8>> {
    decode(&fs::read(path).ok()?).ok()
}

/// Deduplicated stderr warnings: the first warning for a key prints (with
/// a note that repeats are suppressed); repeats only count. A grid run
/// over a faulted store warns once per damaged entry instead of once per
/// lookup, keeping stderr readable.
static WARNED: Mutex<Option<HashMap<String, u64>>> = Mutex::new(None);

/// Prints `warning: {msg}` for this key at most once per process;
/// repeats increment a counter surfaced by [`suppressed_warnings`].
/// Returns `true` when this call printed (the first sighting of the
/// key), so callers can tie once-per-path side effects to it.
pub fn warn_once(key: &str, msg: &str) -> bool {
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    let counts = warned.get_or_insert_with(HashMap::new);
    match counts.get_mut(key) {
        Some(n) => {
            *n += 1;
            false
        }
        None => {
            counts.insert(key.to_string(), 0);
            eprintln!("warning: {msg} (repeats for this path suppressed)");
            true
        }
    }
}

/// Total warnings suppressed by [`warn_once`] so far (repeats beyond the
/// first, summed over every key).
pub fn suppressed_warnings() -> u64 {
    WARNED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map_or(0, |m| m.values().sum())
}

/// Forgets every warned key (tests).
pub fn reset_warnings() {
    *WARNED.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wwt-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quick_locks() -> StoreConfig {
        StoreConfig {
            lock_stale: Duration::from_millis(200),
            lock_poll: Duration::from_millis(5),
            lock_wait: Duration::from_millis(500),
            ..StoreConfig::default()
        }
    }

    #[test]
    fn commit_then_read_round_trips() {
        let dir = scratch("roundtrip");
        let store = Store::with_config(&dir, StoreConfig::default());
        assert!(matches!(store.read("a.run"), Err(ReadError::NotFound)));
        store.commit("a.run", b"payload bytes").unwrap();
        assert_eq!(store.read("a.run").unwrap(), b"payload bytes");
        // Overwrite is atomic replacement.
        store.commit("a.run", b"new bytes").unwrap();
        assert_eq!(store.read("a.run").unwrap(), b"new bytes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hand_damage_reads_as_corrupt_not_garbage() {
        let dir = scratch("damage");
        let store = Store::with_config(&dir, StoreConfig::default());
        store.commit("a.run", b"some healthy payload").unwrap();
        let path = store.entry_path("a.run");
        let bytes = fs::read(&path).unwrap();
        // Truncate.
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(store.read("a.run"), Err(ReadError::Corrupt(_))));
        // Flip one payload bit.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            store.read("a.run"),
            Err(ReadError::Corrupt(DecodeError::Checksum))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_and_flip_commits_are_caught_on_read() {
        let dir = scratch("faulted");
        let torn = Store::with_config(
            &dir,
            StoreConfig {
                faults: Some(StoreFaults::parse("seed=1,torn=1").unwrap()),
                ..StoreConfig::default()
            },
        );
        torn.commit("t.run", b"will be torn somewhere").unwrap();
        let clean = Store::with_config(&dir, StoreConfig::default());
        assert!(matches!(clean.read("t.run"), Err(ReadError::Corrupt(_))));

        let flip = Store::with_config(
            &dir,
            StoreConfig {
                faults: Some(StoreFaults::parse("seed=1,flip=1").unwrap()),
                ..StoreConfig::default()
            },
        );
        flip.commit("f.run", b"one bit will flip").unwrap();
        assert!(matches!(clean.read("f.run"), Err(ReadError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_rename_failure_publishes_nothing_and_leaks_nothing() {
        let dir = scratch("rename-fault");
        let store = Store::with_config(
            &dir,
            StoreConfig {
                faults: Some(StoreFaults::parse("seed=2,rename=1").unwrap()),
                ..StoreConfig::default()
            },
        );
        assert!(store.commit("r.run", b"never lands").is_err());
        assert!(matches!(
            Store::with_config(&dir, StoreConfig::default()).read("r.run"),
            Err(ReadError::NotFound)
        ));
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .collect();
        assert!(leftovers.is_empty(), "leaked: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_transient_eio_clears_on_retry() {
        faults::reset_fault_state();
        let dir = scratch("eio");
        let store = Store::with_config(
            &dir,
            StoreConfig {
                faults: Some(StoreFaults::parse("seed=3,eio=1").unwrap()),
                ..StoreConfig::default()
            },
        );
        store.commit("e.run", b"payload").unwrap();
        assert!(matches!(store.read("e.run"), Err(ReadError::Io(_))));
        assert_eq!(store.read("e.run").unwrap(), b"payload", "EIO is transient");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_excludes_a_second_holder_until_drop() {
        let dir = scratch("lock");
        let store = Store::with_config(&dir, quick_locks());
        let g1 = store.lock("k.run");
        assert!(g1.acquired());
        // A second locker with a tiny wait budget times out unacquired.
        let impatient = Store::with_config(
            &dir,
            StoreConfig {
                lock_wait: Duration::from_millis(30),
                lock_stale: Duration::from_secs(60),
                ..quick_locks()
            },
        );
        assert!(!impatient.lock("k.run").acquired());
        drop(g1);
        assert!(store.lock("k.run").acquired(), "released on drop");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_locks_are_taken_over() {
        let dir = scratch("stale-lock");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("k.run.lock"), b"pid 999999\n").unwrap();
        let store = Store::with_config(&dir, quick_locks());
        std::thread::sleep(Duration::from_millis(250)); // outlive lock_stale
        let g = store.lock("k.run");
        assert!(g.acquired(), "stale lock must be broken");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_quarantines_corrupt_sweeps_orphans_and_reports_clean_after() {
        let dir = scratch("fsck");
        let store = Store::with_config(&dir, quick_locks());
        store.commit("good.run", b"healthy").unwrap();
        store.commit("bad.run", b"will be truncated").unwrap();
        let bad = store.entry_path("bad.run");
        let bytes = fs::read(&bad).unwrap();
        fs::write(&bad, &bytes[..bytes.len() / 2]).unwrap();
        fs::write(dir.join("good.run.tmp.1234.0"), b"orphan").unwrap();
        fs::write(dir.join("other.run.lock"), b"pid 1\n").unwrap();
        fs::write(dir.join("unrelated.txt"), b"leave me alone").unwrap();
        std::thread::sleep(Duration::from_millis(250)); // lock goes stale

        let report = store.fsck();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.valid, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, "bad.run");
        assert_eq!(report.swept_tmp, 1);
        assert_eq!(report.swept_locks, 1);
        assert!(!report.clean());
        let line = report.to_string();
        assert!(line.contains("2 entries scanned"), "{line}");
        assert!(line.contains("quarantined bad.run:"), "{line}");

        // The corpse moved to quarantine/, the good entry still reads,
        // the unrelated file survived.
        assert!(dir.join(QUARANTINE_DIR).join("bad.run").exists());
        assert!(matches!(store.read("bad.run"), Err(ReadError::NotFound)));
        assert_eq!(store.read("good.run").unwrap(), b"healthy");
        assert!(dir.join("unrelated.txt").exists());

        // A second pass finds nothing left to repair.
        let second = store.fsck();
        assert!(second.clean(), "{second}");
        assert_eq!(second.scanned, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reads_bypass_the_fault_plan() {
        faults::reset_fault_state();
        let dir = scratch("fsck-faults");
        let clean = Store::with_config(&dir, StoreConfig::default());
        clean.commit("good.run", b"healthy").unwrap();
        // An EIO-everything plan must not make fsck quarantine a healthy
        // entry: fsck reports what is really on disk.
        let faulted = Store::with_config(
            &dir,
            StoreConfig {
                faults: Some(StoreFaults::parse("seed=4,eio=1").unwrap()),
                ..StoreConfig::default()
            },
        );
        let report = faulted.fsck();
        assert!(report.clean(), "{report}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = scratch("atomic");
        let path = dir.join("sub").join("file.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let siblings: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .collect();
        assert_eq!(siblings.len(), 1, "no temp leftovers: {siblings:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_entry_file_verifies_by_direct_path() {
        let dir = scratch("by-path");
        let store = Store::with_config(&dir, StoreConfig::default());
        store.commit("x.run", b"direct").unwrap();
        let path = store.entry_path("x.run");
        assert_eq!(read_entry_file(&path).unwrap(), b"direct");
        fs::write(&path, b"not a container").unwrap();
        assert!(read_entry_file(&path).is_none());
        assert!(read_entry_file(&dir.join("missing.run")).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warnings_print_once_and_count_repeats() {
        reset_warnings();
        let before = suppressed_warnings();
        warn_once("warn-test-key-a", "entry damaged");
        warn_once("warn-test-key-a", "entry damaged");
        warn_once("warn-test-key-a", "entry damaged");
        warn_once("warn-test-key-b", "entry damaged");
        assert_eq!(suppressed_warnings() - before, 2);
        reset_warnings();
    }
}
