//! Pinned work counts for small runs of every program version: events
//! the engine processes, heap allocations made inside `try_run`, and the
//! peak live heap bytes inside `try_run` above the level at entry, all
//! exact.
//!
//! Wall time and RSS on a shared host drift; these counts do not. A
//! schedule-preserving change (queue internals, allocation reuse, host
//! tables) must leave `events` unchanged, and one that moves `allocs` or
//! `peak_bytes` updates the pin and says why in CHANGES.md.
//!
//! The engine's inline and boxed callback counts are not pinned: they
//! live in the process-global `wwt_obs` registry, which the harness's
//! parallel tests would race on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wwt::apps::{em3d, gauss, lcp, mse, AppRun};
use wwt::mp::{MpConfig, TreeShape};
use wwt::sim::SimError;
use wwt::sm::SmConfig;

thread_local! {
    /// Allocations made on this thread. Per thread, so the test harness's
    /// parallel tests never count each other's work.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` has been since `measure` last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting calls that hand out a block (`alloc`,
/// `alloc_zeroed`, `realloc`) and tracking live bytes on the calling
/// thread.
struct Counting;

impl Counting {
    /// Records one call that moved this thread's live bytes by `delta`
    /// (`new` says whether it handed out a block).
    fn note(delta: i64, new: bool) {
        // `try_with`: a thread's last frees can run after its locals are
        // torn down.
        if new {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + delta);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; counting touches only
// thread-local `Cell`s with no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size() as i64, true);
        // SAFETY: forwarded; the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size() as i64, true);
        // SAFETY: forwarded; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size as i64 - layout.size() as i64, true);
        // SAFETY: forwarded; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::note(-(layout.size() as i64), false);
        // SAFETY: forwarded; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Work one run did: events processed, allocations, and peak live heap
/// bytes above the level at entry, inside `try_run`.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    events: u64,
    allocs: u64,
    peak_bytes: u64,
}

fn measure(run: impl FnOnce() -> Result<AppRun, SimError>) -> Work {
    let before = ALLOCS.with(Cell::get);
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    let result = run();
    let allocs = ALLOCS.with(Cell::get) - before;
    let peak_bytes = (PEAK.with(Cell::get) - live) as u64;
    let run = result.expect("run completes");
    assert!(run.validation.passed, "{}", run.validation.detail);
    Work {
        events: run.report.events_processed(),
        allocs,
        peak_bytes,
    }
}

/// A `peak_bytes` pin whose release and debug builds differ: the SM
/// programs' boxed task futures are larger without optimization.
fn by_profile(release: u64, debug: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// Gauss-MP at small scale, configured as in the Section 5.2 ablation:
/// flat and binary trees at the CMMD-level per-message overhead,
/// lop-sided with active messages.
fn gauss_work(shape: TreeShape) -> Work {
    let cfg = match shape {
        TreeShape::Lopsided => MpConfig::default(),
        TreeShape::Flat | TreeShape::Binary => MpConfig {
            collective_msg_overhead: 250,
            ..MpConfig::default()
        },
    };
    measure(|| gauss::mp::try_run(&gauss::GaussParams::small(), cfg, shape))
}

#[test]
fn gauss_mp_flat_work_is_pinned() {
    assert_eq!(
        gauss_work(TreeShape::Flat),
        Work {
            events: 21067,
            allocs: 682,
            peak_bytes: 729408
        }
    );
}

#[test]
fn gauss_mp_binary_work_is_pinned() {
    assert_eq!(
        gauss_work(TreeShape::Binary),
        Work {
            events: 19747,
            allocs: 528,
            peak_bytes: 697368
        }
    );
}

#[test]
fn gauss_mp_lopsided_work_is_pinned() {
    assert_eq!(
        gauss_work(TreeShape::Lopsided),
        Work {
            events: 19156,
            allocs: 516,
            peak_bytes: 693848
        }
    );
}

#[test]
fn lcp_mp_async_work_is_pinned() {
    let work = measure(|| {
        lcp::mp::try_run(
            &lcp::LcpParams::small(),
            MpConfig::default(),
            lcp::LcpMode::Asynchronous,
        )
    });
    assert_eq!(
        work,
        Work {
            events: 24270,
            allocs: 1032,
            peak_bytes: 520716
        }
    );
}

#[test]
fn gauss_sm_work_is_pinned() {
    let work = measure(|| gauss::sm::try_run(&gauss::GaussParams::small(), SmConfig::default()));
    assert_eq!(
        work,
        Work {
            events: 15473,
            allocs: 2779,
            peak_bytes: by_profile(642496, 642560)
        }
    );
}

#[test]
fn em3d_sm_work_is_pinned() {
    let work = measure(|| em3d::sm::try_run(&em3d::Em3dParams::small(), SmConfig::default()));
    assert_eq!(
        work,
        Work {
            events: 10797,
            allocs: 313,
            peak_bytes: 485213
        }
    );
}

#[test]
fn em3d_mp_work_is_pinned() {
    let work = measure(|| em3d::mp::try_run(&em3d::Em3dParams::small(), MpConfig::default()));
    assert_eq!(
        work,
        Work {
            events: 2380,
            allocs: 480,
            peak_bytes: 524117
        }
    );
}

#[test]
fn mse_mp_work_is_pinned() {
    let work = measure(|| mse::mp::try_run(&mse::MseParams::small(), MpConfig::default()));
    assert_eq!(
        work,
        Work {
            events: 1752,
            allocs: 522,
            peak_bytes: 374428
        }
    );
}

#[test]
fn mse_sm_work_is_pinned() {
    let work = measure(|| mse::sm::try_run(&mse::MseParams::small(), SmConfig::default()));
    assert_eq!(
        work,
        Work {
            events: 2503,
            allocs: 361,
            peak_bytes: by_profile(355104, 355136)
        }
    );
}

#[test]
fn lcp_mp_sync_work_is_pinned() {
    let work = measure(|| {
        lcp::mp::try_run(
            &lcp::LcpParams::small(),
            MpConfig::default(),
            lcp::LcpMode::Synchronous,
        )
    });
    assert_eq!(
        work,
        Work {
            events: 18537,
            allocs: 1073,
            peak_bytes: 510156
        }
    );
}

#[test]
fn lcp_sm_sync_work_is_pinned() {
    let work = measure(|| {
        lcp::sm::try_run(
            &lcp::LcpParams::small(),
            SmConfig::default(),
            lcp::LcpMode::Synchronous,
        )
    });
    assert_eq!(
        work,
        Work {
            events: 12767,
            allocs: 1633,
            peak_bytes: by_profile(468916, 468948)
        }
    );
}

#[test]
fn lcp_sm_async_work_is_pinned() {
    let work = measure(|| {
        lcp::sm::try_run(
            &lcp::LcpParams::small(),
            SmConfig::default(),
            lcp::LcpMode::Asynchronous,
        )
    });
    assert_eq!(
        work,
        Work {
            events: 25060,
            allocs: 7490,
            peak_bytes: by_profile(464676, 464708)
        }
    );
}
