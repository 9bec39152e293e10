//! Host-side self-observability: what is the **simulator** doing, in wall
//! time, while it simulates?
//!
//! The guest side of the reproduction is thoroughly instrumented —
//! `wwt-sim`'s cycle accounting and trace attribute every simulated
//! cycle — but the simulator itself was a black box: no events/sec, no
//! calendar-queue depth, no run-cache hit rates. This crate is the
//! process-global metrics registry those numbers live in, plus the
//! machinery to get them out:
//!
//! * **Instruments.** Named counters ([`Ctr`]), one calendar-queue depth
//!   high-water gauge, and one log2 [`Histogram`] of per-experiment wall
//!   time (the same type `wwt-sim` uses for guest latencies). Counters
//!   and the gauge are plain `AtomicU64`s updated with `Relaxed`
//!   ordering — no locks anywhere near an engine hot path; the histogram
//!   sits behind a mutex, written once per experiment.
//! * **Gating.** The registry is off by default. Gated update paths load
//!   one `AtomicBool` and branch — the same zero-cost-when-disabled
//!   discipline as `SimConfig::trace`. The run-cache counters are the one
//!   deliberate exception ([`count_always`]): they tick a handful of
//!   times per experiment, and the grid runner's end-of-run cache summary
//!   must work without `--obs`.
//! * **Flight recorder.** A periodic sampler snapshots the registry into
//!   a bounded ring buffer; the last few snapshots are attached to every
//!   `SimError` diagnostic so a deadlocked run carries "what was the
//!   simulator doing just before it died".
//! * **Exporters.** A human-readable self-profile table
//!   ([`render_table`]) and machine-readable JSON snapshots
//!   ([`render_json`]).
//!
//! Host metrics are strictly off the determinism path: nothing in the
//! simulation ever *reads* this registry, so simulated output is
//! byte-identical whether observability is enabled or not, clean or
//! faulted.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod histogram;

pub use histogram::{Histogram, HISTOGRAM_BUCKETS};

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Snapshots the flight recorder retains (oldest evicted first).
pub const FLIGHT_RECORDER_CAP: usize = 8;

/// Process-global scalar counters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Ctr {
    /// Events pushed onto the engine's calendar queue.
    SimEventsPushed,
    /// Events popped from the engine's calendar queue.
    SimEventsPopped,
    /// Pushes that landed in the calendar queue's second level (beyond
    /// the ring, within its 64 blocks).
    SimQueueFar,
    /// Pushes that landed in the calendar queue's overflow heap (beyond
    /// the second level).
    SimQueueOverflow,
    /// Scheduled callbacks whose captures fit `SmallCall`'s inline buffer.
    SimCallInline,
    /// Scheduled callbacks that fell back to a boxed closure.
    SimCallBoxed,
    /// `CellPool::take` calls served from a recycled allocation.
    SimPoolTakeRecycled,
    /// `CellPool::take` calls that had to allocate a fresh cell.
    SimPoolTakeFresh,
    /// `CellPool::put` calls that recycled the cell.
    SimPoolPutRecycled,
    /// `CellPool::put` calls that dropped an escaped cell instead.
    SimPoolPutDropped,
    /// Run-cache lookups served from disk.
    CacheHits,
    /// Run-cache lookups that missed (absent entry or damage).
    CacheMisses,
    /// Bytes of cache entries read (hits only).
    CacheBytesRead,
    /// Damaged (unreadable/truncated/corrupt) entries recovered by
    /// re-simulation.
    CacheCorruptRecovered,
    /// Experiments the grid runner produced artifacts for.
    GridExperimentsRun,
    /// Of those, how many replayed from the run cache.
    GridExperimentsCached,
    /// Grid jobs whose experiment panicked (caught at the job boundary
    /// and reported as a failed cell).
    GridJobPanics,
}

impl Ctr {
    /// Every counter, in index order.
    pub const ALL: [Ctr; 17] = [
        Ctr::SimEventsPushed,
        Ctr::SimEventsPopped,
        Ctr::SimQueueFar,
        Ctr::SimQueueOverflow,
        Ctr::SimCallInline,
        Ctr::SimCallBoxed,
        Ctr::SimPoolTakeRecycled,
        Ctr::SimPoolTakeFresh,
        Ctr::SimPoolPutRecycled,
        Ctr::SimPoolPutDropped,
        Ctr::CacheHits,
        Ctr::CacheMisses,
        Ctr::CacheBytesRead,
        Ctr::CacheCorruptRecovered,
        Ctr::GridExperimentsRun,
        Ctr::GridExperimentsCached,
        Ctr::GridJobPanics,
    ];

    /// Stable snake_case name (the JSON/Prometheus key).
    pub fn label(&self) -> &'static str {
        match self {
            Ctr::SimEventsPushed => "sim_events_pushed",
            Ctr::SimEventsPopped => "sim_events_popped",
            Ctr::SimQueueFar => "sim_queue_far",
            Ctr::SimQueueOverflow => "sim_queue_overflow",
            Ctr::SimCallInline => "sim_call_inline",
            Ctr::SimCallBoxed => "sim_call_boxed",
            Ctr::SimPoolTakeRecycled => "sim_pool_take_recycled",
            Ctr::SimPoolTakeFresh => "sim_pool_take_fresh",
            Ctr::SimPoolPutRecycled => "sim_pool_put_recycled",
            Ctr::SimPoolPutDropped => "sim_pool_put_dropped",
            Ctr::CacheHits => "cache_hits",
            Ctr::CacheMisses => "cache_misses",
            Ctr::CacheBytesRead => "cache_bytes_read",
            Ctr::CacheCorruptRecovered => "cache_corrupt_recovered",
            Ctr::GridExperimentsRun => "grid_experiments_run",
            Ctr::GridExperimentsCached => "grid_experiments_cached",
            Ctr::GridJobPanics => "grid_job_panics",
        }
    }
}

// Deliberately `const`, not `static`: this exists only as a repeatable
// array initializer for the registry below — each use site gets its own
// fresh atomic, which is exactly the semantics clippy warns about.
#[allow(clippy::declare_interior_mutable_const)]
const Z: AtomicU64 = AtomicU64::new(0);

struct Registry {
    enabled: AtomicBool,
    started: Mutex<Option<Instant>>,
    counters: [AtomicU64; Ctr::ALL.len()],
    /// Calendar-queue depth high-water mark.
    queue_depth_hwm: AtomicU64,
    /// Grid runner: workers currently inside an experiment, and the peak.
    jobs_active: AtomicU64,
    jobs_peak: AtomicU64,
    /// Per-experiment wall time, in microseconds.
    wall_us: Mutex<Histogram>,
}

static REGISTRY: Registry = Registry {
    enabled: AtomicBool::new(false),
    started: Mutex::new(None),
    counters: [Z; Ctr::ALL.len()],
    queue_depth_hwm: AtomicU64::new(0),
    jobs_active: AtomicU64::new(0),
    jobs_peak: AtomicU64::new(0),
    wall_us: Mutex::new(Histogram::new()),
};

static RECORDER: Mutex<Vec<ObsSnapshot>> = Mutex::new(Vec::new());

/// Turns host metrics collection on for the rest of the process (or until
/// [`disable`]). Idempotent; the first call anchors the elapsed-time
/// origin that snapshots report against.
pub fn enable() {
    let mut started = REGISTRY.started.lock().unwrap();
    if started.is_none() {
        *started = Some(Instant::now());
    }
    REGISTRY.enabled.store(true, Ordering::Relaxed);
}

/// Turns gated collection back off (tests use this to compare disabled
/// and enabled runs in one process). Accumulated values are kept; see
/// [`reset`].
pub fn disable() {
    REGISTRY.enabled.store(false, Ordering::Relaxed);
}

/// Whether gated instruments are live. One `Relaxed` load — hot paths
/// that cannot cache the flag call this directly.
#[inline]
pub fn enabled() -> bool {
    REGISTRY.enabled.load(Ordering::Relaxed)
}

/// Zeroes every instrument, clears the flight recorder, and re-anchors
/// the elapsed-time origin. For tests and long-lived processes that want
/// per-phase profiles; the enabled flag is left as-is.
pub fn reset() {
    for c in &REGISTRY.counters {
        c.store(0, Ordering::Relaxed);
    }
    REGISTRY.queue_depth_hwm.store(0, Ordering::Relaxed);
    REGISTRY.jobs_active.store(0, Ordering::Relaxed);
    REGISTRY.jobs_peak.store(0, Ordering::Relaxed);
    *REGISTRY.wall_us.lock().unwrap() = Histogram::new();
    RECORDER.lock().unwrap().clear();
    *REGISTRY.started.lock().unwrap() = Some(Instant::now());
}

/// Milliseconds since [`enable`] (or the last [`reset`]); zero before
/// either.
pub fn elapsed_ms() -> u64 {
    REGISTRY
        .started
        .lock()
        .unwrap()
        .map_or(0, |t| t.elapsed().as_millis() as u64)
}

/// Adds `n` to a counter. No-op while disabled.
#[inline]
pub fn count(c: Ctr, n: u64) {
    if enabled() {
        REGISTRY.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Adds `n` to a counter **regardless of the enabled flag**. Reserved for
/// cold, per-experiment events (the run-cache stats behind the grid
/// runner's always-on summary) — never call this from an engine hot path.
#[inline]
pub fn count_always(c: Ctr, n: u64) {
    REGISTRY.counters[c as usize].fetch_add(n, Ordering::Relaxed);
}

/// Current value of a counter.
pub fn counter(c: Ctr) -> u64 {
    REGISTRY.counters[c as usize].load(Ordering::Relaxed)
}

/// Raises the calendar-queue depth high-water mark to at least `depth`.
/// No-op while disabled.
#[inline]
pub fn max_queue_depth(depth: u64) {
    if enabled() {
        REGISTRY.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }
}

/// Current calendar-queue depth high-water mark.
pub fn queue_depth_hwm() -> u64 {
    REGISTRY.queue_depth_hwm.load(Ordering::Relaxed)
}

/// Marks a grid worker as inside an experiment, maintaining the
/// occupancy high-water mark. No-op while disabled.
pub fn job_enter() {
    if enabled() {
        let now = REGISTRY.jobs_active.fetch_add(1, Ordering::Relaxed) + 1;
        REGISTRY.jobs_peak.fetch_max(now, Ordering::Relaxed);
    }
}

/// Marks a grid worker as done with an experiment. No-op while disabled.
pub fn job_exit() {
    if enabled() {
        // Saturating: an enable() racing a grid in flight may see an exit
        // without its enter.
        let _ = REGISTRY
            .jobs_active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }
}

/// Records one per-experiment wall time, in microseconds. No-op while
/// disabled.
pub fn record_wall_us(v: u64) {
    if enabled() {
        REGISTRY.wall_us.lock().unwrap().record(v);
    }
}

/// One metric in a snapshot: a stable name and its value at snapshot
/// time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsSample {
    /// Stable snake_case metric name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// A point-in-time copy of every **nonzero** instrument.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Milliseconds since [`enable`] when the snapshot was taken.
    pub elapsed_ms: u64,
    /// Nonzero instruments, in registry order (counters, then the queue
    /// depth gauge, then derived occupancy and histogram stats).
    pub samples: Vec<ObsSample>,
}

/// Takes a snapshot of the registry right now (without recording it into
/// the flight recorder — see [`record_snapshot`]).
pub fn snapshot_now() -> ObsSnapshot {
    let mut samples = Vec::new();
    let mut push = |name: &'static str, value: u64| {
        if value != 0 {
            samples.push(ObsSample { name, value });
        }
    };
    for c in Ctr::ALL {
        push(c.label(), counter(c));
    }
    push("sim_queue_depth_hwm", queue_depth_hwm());
    push("grid_jobs_peak", REGISTRY.jobs_peak.load(Ordering::Relaxed));
    let wall = REGISTRY.wall_us.lock().unwrap().clone();
    push("grid_exp_wall_us_count", wall.count());
    if wall.count() > 0 {
        push("grid_exp_wall_us_sum", wall.sum());
        push("grid_exp_wall_us_p50", wall.percentile(0.5).round() as u64);
        push("grid_exp_wall_us_p90", wall.percentile(0.9).round() as u64);
        push("grid_exp_wall_us_max", wall.max());
    }
    ObsSnapshot {
        elapsed_ms: elapsed_ms(),
        samples,
    }
}

/// Takes a snapshot and appends it to the flight recorder ring (evicting
/// the oldest past [`FLIGHT_RECORDER_CAP`]).
pub fn record_snapshot() {
    let snap = snapshot_now();
    let mut ring = RECORDER.lock().unwrap();
    if ring.len() == FLIGHT_RECORDER_CAP {
        ring.remove(0);
    }
    ring.push(snap);
}

/// The flight recorder's current contents, oldest first.
pub fn recent_snapshots() -> Vec<ObsSnapshot> {
    RECORDER.lock().unwrap().clone()
}

/// The snapshots a failure diagnostic should carry: the flight recorder's
/// contents plus one fresh snapshot taken now. Empty while disabled, so
/// error paths can attach this unconditionally.
pub fn failure_snapshots() -> Vec<ObsSnapshot> {
    if !enabled() {
        return Vec::new();
    }
    let mut snaps = recent_snapshots();
    snaps.push(snapshot_now());
    snaps
}

/// Spawns a detached sampler thread that records a flight-recorder
/// snapshot every `period_ms` until the registry is disabled (or the
/// process exits). Call after [`enable`].
pub fn start_sampler(period_ms: u64) {
    std::thread::Builder::new()
        .name("wwt-obs-sampler".into())
        .spawn(move || {
            while enabled() {
                std::thread::sleep(std::time::Duration::from_millis(period_ms));
                if !enabled() {
                    break;
                }
                record_snapshot();
            }
        })
        .expect("spawning the obs sampler thread");
}

/// Renders one snapshot as the single flight-recorder line:
/// `[t+MSms] name=value ...` (nonzero metrics only).
pub fn render_snapshot_line(s: &ObsSnapshot) -> String {
    let mut out = format!("[t+{}ms]", s.elapsed_ms);
    for smp in &s.samples {
        let _ = write!(out, " {}={}", smp.name, smp.value);
    }
    if s.samples.is_empty() {
        out.push_str(" (all metrics zero)");
    }
    out
}

/// Renders the "simulator state at failure" section attached to stalled
/// runs: a header plus one indented [`render_snapshot_line`] per
/// snapshot, oldest first. No trailing newline. The format is pinned by
/// a golden test — change it deliberately.
pub fn render_flight_recorder(snaps: &[ObsSnapshot]) -> String {
    let mut out = format!(
        "simulator state at failure (flight recorder, {} snapshot{}, oldest first):",
        snaps.len(),
        if snaps.len() == 1 { "" } else { "s" }
    );
    for s in snaps {
        let _ = write!(out, "\n  {}", render_snapshot_line(s));
    }
    out
}

/// Value of `name` in a snapshot; zero if absent.
fn get(s: &ObsSnapshot, name: &str) -> u64 {
    s.samples
        .iter()
        .find(|m| m.name == name)
        .map_or(0, |m| m.value)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders the human-readable self-profile table (`make_tables --obs`).
/// Sections whose instruments never fired are omitted.
pub fn render_table(s: &ObsSnapshot) -> String {
    let mut out = String::new();
    let secs = (s.elapsed_ms.max(1)) as f64 / 1000.0;
    let _ = writeln!(
        out,
        "simulator self-profile (host wall-time metrics, t+{}ms)",
        s.elapsed_ms
    );

    let popped = get(s, "sim_events_popped");
    let pushed = get(s, "sim_events_pushed");
    if popped + pushed > 0 {
        let _ = writeln!(
            out,
            "  engine     events popped {popped} ({:.0}/s), pushed {pushed}, depth high-water {}",
            popped as f64 / secs,
            get(s, "sim_queue_depth_hwm")
        );
        let far = get(s, "sim_queue_far");
        let overflow = get(s, "sim_queue_overflow");
        let _ = writeln!(
            out,
            "  queue      pushes to second level {far} ({:.1}%), to overflow heap {overflow} ({:.1}%)",
            pct(far, pushed),
            pct(overflow, pushed)
        );
    }

    let inline = get(s, "sim_call_inline");
    let boxed = get(s, "sim_call_boxed");
    if inline + boxed > 0 {
        let _ = writeln!(
            out,
            "  calls      inline {inline} ({:.1}%), boxed {boxed}",
            pct(inline, inline + boxed)
        );
    }

    let take_r = get(s, "sim_pool_take_recycled");
    let take_f = get(s, "sim_pool_take_fresh");
    let put_r = get(s, "sim_pool_put_recycled");
    let put_d = get(s, "sim_pool_put_dropped");
    if take_r + take_f + put_r + put_d > 0 {
        let _ = writeln!(
            out,
            "  pool       takes {} ({:.1}% recycled), puts {} ({:.1}% recycled)",
            take_r + take_f,
            pct(take_r, take_r + take_f),
            put_r + put_d,
            pct(put_r, put_r + put_d)
        );
    }

    let hits = get(s, "cache_hits");
    let misses = get(s, "cache_misses");
    if hits + misses > 0 {
        let _ = writeln!(
            out,
            "  cache      hits {hits}, misses {misses}, bytes read {}, corrupt recovered {}",
            get(s, "cache_bytes_read"),
            get(s, "cache_corrupt_recovered")
        );
    }

    let runs = get(s, "grid_experiments_run");
    if runs > 0 {
        let _ = writeln!(
            out,
            "  grid       experiments {runs} (cached {}), peak jobs {}, wall/exp p50 {}us p90 {}us max {}us",
            get(s, "grid_experiments_cached"),
            get(s, "grid_jobs_peak"),
            get(s, "grid_exp_wall_us_p50"),
            get(s, "grid_exp_wall_us_p90"),
            get(s, "grid_exp_wall_us_max")
        );
    }
    out
}

/// Renders flight-recorder snapshots as machine-readable JSON:
/// `{"snapshots":[{"elapsed_ms":N,"samples":[{"name":..,"value":..},..]},..]}`.
pub fn render_json(snaps: &[ObsSnapshot]) -> String {
    let mut out = String::from("{\"snapshots\":[");
    for (i, s) in snaps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"elapsed_ms\":{},\"samples\":[", s.elapsed_ms);
        for (j, m) in s.samples.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"value\":{}}}", m.name, m.value);
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that reset or toggle the global registry.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_gated_updates_are_dropped() {
        let _g = LOCK.lock().unwrap();
        disable();
        let before = counter(Ctr::SimCallInline);
        let popped = counter(Ctr::SimEventsPopped);
        let hwm = queue_depth_hwm();
        count(Ctr::SimCallInline, 5);
        count(Ctr::SimEventsPopped, 5);
        max_queue_depth(999_999);
        record_wall_us(123);
        assert_eq!(counter(Ctr::SimCallInline), before);
        assert_eq!(counter(Ctr::SimEventsPopped), popped);
        assert_eq!(queue_depth_hwm(), hwm);
        // Ungated cache counters tick anyway.
        let cb = counter(Ctr::CacheHits);
        count_always(Ctr::CacheHits, 2);
        assert_eq!(counter(Ctr::CacheHits), cb + 2);
    }

    #[test]
    fn enabled_counters_and_gauges_accumulate() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        count(Ctr::SimCallBoxed, 3);
        count(Ctr::SimEventsPushed, 7);
        max_queue_depth(40);
        max_queue_depth(10); // below HWM: no-op
        assert_eq!(counter(Ctr::SimCallBoxed), 3);
        assert_eq!(counter(Ctr::SimEventsPushed), 7);
        assert_eq!(queue_depth_hwm(), 40);
        disable();
    }

    #[test]
    fn snapshot_carries_only_nonzero_samples() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        count(Ctr::SimCallInline, 10);
        count(Ctr::SimEventsPopped, 4);
        let s = snapshot_now();
        assert!(s.samples.iter().all(|m| m.value != 0), "{s:?}");
        assert_eq!(get(&s, "sim_call_inline"), 10);
        assert_eq!(get(&s, "sim_events_popped"), 4);
        assert_eq!(
            s.samples
                .iter()
                .filter(|m| m.name == "sim_events_popped")
                .count(),
            1,
            "one sample per metric: {s:?}"
        );
        disable();
    }

    #[test]
    fn flight_recorder_is_a_bounded_ring() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        for i in 0..(FLIGHT_RECORDER_CAP + 3) {
            count(Ctr::GridExperimentsRun, 1);
            record_snapshot();
            let snaps = recent_snapshots();
            assert!(snaps.len() <= FLIGHT_RECORDER_CAP, "round {i}");
        }
        let snaps = recent_snapshots();
        assert_eq!(snaps.len(), FLIGHT_RECORDER_CAP);
        // Oldest first: the retained run counts are the *last* N.
        let runs: Vec<u64> = snaps
            .iter()
            .map(|s| get(s, "grid_experiments_run"))
            .collect();
        assert!(runs.windows(2).all(|w| w[0] < w[1]), "{runs:?}");
        assert_eq!(*runs.last().unwrap(), (FLIGHT_RECORDER_CAP + 3) as u64);
        disable();
    }

    #[test]
    fn failure_snapshots_empty_when_disabled() {
        let _g = LOCK.lock().unwrap();
        disable();
        assert!(failure_snapshots().is_empty());
        enable();
        reset();
        count(Ctr::SimCallInline, 1);
        let snaps = failure_snapshots();
        assert_eq!(snaps.len(), 1, "recorder empty: just the fresh snapshot");
        record_snapshot();
        assert_eq!(failure_snapshots().len(), 2);
        disable();
    }

    #[test]
    fn snapshot_line_format_is_stable() {
        let s = ObsSnapshot {
            elapsed_ms: 120,
            samples: vec![
                ObsSample {
                    name: "sim_events_popped",
                    value: 42,
                },
                ObsSample {
                    name: "cache_hits",
                    value: 3,
                },
            ],
        };
        assert_eq!(
            render_snapshot_line(&s),
            "[t+120ms] sim_events_popped=42 cache_hits=3"
        );
        assert_eq!(
            render_snapshot_line(&ObsSnapshot::default()),
            "[t+0ms] (all metrics zero)"
        );
    }

    #[test]
    fn self_profile_shows_queue_tiers() {
        let s = ObsSnapshot {
            elapsed_ms: 1000,
            samples: vec![
                ObsSample {
                    name: "sim_events_pushed",
                    value: 200,
                },
                ObsSample {
                    name: "sim_queue_far",
                    value: 50,
                },
                ObsSample {
                    name: "sim_queue_overflow",
                    value: 1,
                },
            ],
        };
        let table = render_table(&s);
        assert!(
            table.contains(
                "  queue      pushes to second level 50 (25.0%), to overflow heap 1 (0.5%)\n"
            ),
            "{table}"
        );
    }

    #[test]
    fn exporters_render_valid_shapes() {
        let s = ObsSnapshot {
            elapsed_ms: 5,
            samples: vec![
                ObsSample {
                    name: "cache_hits",
                    value: 3,
                },
                ObsSample {
                    name: "sim_events_popped",
                    value: 9,
                },
            ],
        };
        let json = render_json(std::slice::from_ref(&s));
        assert!(json.starts_with("{\"snapshots\":["));
        assert!(json.contains("{\"name\":\"sim_events_popped\",\"value\":9}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn wall_histogram_percentiles_are_monotone() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        for v in [100u64, 200, 400, 800, 100_000] {
            record_wall_us(v);
        }
        let s = snapshot_now();
        let (p50, p90) = (
            get(&s, "grid_exp_wall_us_p50"),
            get(&s, "grid_exp_wall_us_p90"),
        );
        assert!(p50 > 0 && p50 <= p90, "p50={p50} p90={p90}");
        assert_eq!(get(&s, "grid_exp_wall_us_count"), 5);
        assert_eq!(get(&s, "grid_exp_wall_us_sum"), 101_500);
        assert_eq!(get(&s, "grid_exp_wall_us_max"), 100_000);
        assert!(p90 <= 100_000, "a percentile never exceeds the max");
        disable();
    }

    #[test]
    fn jobs_occupancy_tracks_the_peak() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        job_enter();
        job_enter();
        job_exit();
        job_enter();
        let s = snapshot_now();
        assert_eq!(get(&s, "grid_jobs_peak"), 2);
        job_exit();
        job_exit();
        job_exit(); // extra exits saturate at zero
        disable();
    }
}
