//! Deterministic discrete-event simulation engine for the WWT reproduction.
//!
//! This crate is the substrate that both simulated machines (the
//! message-passing machine in `wwt-mp` and the shared-memory machine in
//! `wwt-sm`) are built on. It plays the role of the Wisconsin Wind Tunnel's
//! direct-execution + discrete-event core:
//!
//! * each simulated processor runs a *target program* written as a Rust
//!   `async` task over a [`Cpu`] handle,
//! * pure computation is charged to the processor's local clock without any
//!   global coordination ([`Cpu::compute`]),
//! * every interaction between processors (a cache-coherence transaction, a
//!   message send, a barrier, a lock) is re-synchronized through a global
//!   event queue so that interactions are processed in global timestamp
//!   order,
//! * execution-time charges are recorded in a per-processor
//!   [`account::CycleMatrix`] of (attribution scope, cost kind)
//!   cells, from which the paper's per-table breakdowns are derived.
//!
//! The cooperative engine is single-threaded and fully deterministic: the
//! same program and seed produce bit-identical cycle counts and event
//! traces.
//!
//! # Example
//!
//! ```
//! use wwt_sim::{Engine, SimConfig, Kind};
//!
//! let mut engine = Engine::new(2, SimConfig::default());
//! for p in engine.proc_ids() {
//!     let cpu = engine.cpu(p);
//!     engine.spawn(p, async move {
//!         cpu.compute(100);          // 100 cycles of computation
//!         cpu.charge(Kind::PrivMiss, 21); // a private cache miss
//!     });
//! }
//! let report = engine.run();
//! assert_eq!(report.proc(0.into()).clock, 121);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod account;
pub mod barrier;
pub mod callback;
pub mod cpu;
pub mod engine;
pub mod error;
pub mod event;
pub mod fault;
pub mod hash;
pub mod prefetch;
pub mod report;
pub mod time;
pub mod trace;
pub mod wait;

pub use account::{Counter, Counters, CycleMatrix, Kind, Scope};
pub use barrier::HwBarrier;
pub use callback::SmallCall;
pub use cpu::{Cpu, ScopeGuard};
pub use engine::{Engine, Sim, SimConfig, ENGINE_SEED, QUANTUM, WATCHDOG_CYCLES};
pub use error::{BlockedProc, SimError, StallReport, WaitTarget};
pub use fault::{FaultConfig, FaultPlan, PacketFate, ProcWindow, SlowWindow};
pub use hash::{FastMap, FastSet};
pub use prefetch::prefetch;
pub use report::{PhaseMark, ProcReport, SimReport};
pub use time::{Cycles, ProcId};
pub use trace::{
    Histogram, Mark, Metric, MetricsRegistry, TraceData, TraceEvent, TraceWhat, HISTOGRAM_BUCKETS,
};
pub use wait::{CellPool, WaitCell};

/// Host-side self-observability (re-exported from `wwt-obs`): the metrics
/// registry the engine hot paths report into, plus the flight recorder
/// attached to [`StallReport::obs`].
pub use wwt_obs as obs;
