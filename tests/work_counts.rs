//! Pinned work counts for the message-passing runs and the shared-memory
//! Gauss and EM3D runs: events the engine processes and heap allocations
//! made inside `try_run`, exact, at small scale.
//!
//! Wall time on a shared host drifts by ±20%; these counts do not. A
//! schedule-preserving change (queue internals, allocation reuse) must
//! leave `events` unchanged, and one that moves `allocs` updates the pin
//! and says why in CHANGES.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wwt::apps::{em3d, gauss, lcp, AppRun};
use wwt::mp::{MpConfig, TreeShape};
use wwt::sim::SimError;
use wwt::sm::SmConfig;

thread_local! {
    /// Allocations made on this thread. Per thread, so the test harness's
    /// parallel tests never count each other's work.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls that hand out a block (`alloc`,
/// `alloc_zeroed`, `realloc`) on the calling thread.
struct Counting;

impl Counting {
    fn tick() {
        // `try_with`: a thread's last frees can run after its locals are
        // torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; counting touches only a
// thread-local `Cell` with no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        // SAFETY: forwarded; the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        // SAFETY: forwarded; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tick();
        // SAFETY: forwarded; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Work one run did: events processed and allocations inside `try_run`.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    events: u64,
    allocs: u64,
}

fn measure(run: impl FnOnce() -> Result<AppRun, SimError>) -> Work {
    let before = ALLOCS.with(Cell::get);
    let result = run();
    let allocs = ALLOCS.with(Cell::get) - before;
    let run = result.expect("run completes");
    assert!(run.validation.passed, "{}", run.validation.detail);
    Work {
        events: run.report.events_processed(),
        allocs,
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
            allocs: 690
        }
    );
}

#[test]
fn gauss_mp_binary_work_is_pinned() {
    assert_eq!(
        gauss_work(TreeShape::Binary),
        Work {
            events: 19747,
            allocs: 536
        }
    );
}

#[test]
fn gauss_mp_lopsided_work_is_pinned() {
    assert_eq!(
        gauss_work(TreeShape::Lopsided),
        Work {
            events: 19156,
            allocs: 524
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
            allocs: 1036
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
            allocs: 2787
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
            allocs: 861
        }
    );
}
