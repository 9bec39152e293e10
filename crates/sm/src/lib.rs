//! Dir_nNB cache-coherent shared-memory machine model.
//!
//! This crate reproduces the shared-memory side of the paper's paired
//! simulators (Section 4.2):
//!
//! * a full-map, write-invalidate **directory protocol** (`Dir_nNB`,
//!   Agarwal et al.) providing sequentially consistent shared memory, with
//!   the per-operation costs of Table 3 and *directory occupancy* so that
//!   contention queues requests (the paper measures ~200-cycle queueing
//!   delays in Gauss),
//! * a **parmacs-style programming layer**: `gmalloc` with round-robin or
//!   local allocation (the EM3D Table-17 ablation), a start-up gate
//!   matching `create(f)`, MCS locks, MCS-style software reductions and
//!   flag-based broadcast, and the CM-5-style hardware barrier,
//! * an optional **bulk-update protocol** mode (the Section 5.3.4
//!   extension from Falsafi et al.) that replaces invalidations with data
//!   updates for producer–consumer sharing.
//!
//! Accesses to shared data run through a local cache model; misses become
//! protocol transactions simulated message-by-message on the event queue,
//! and the requesting processor stalls for the transaction latency
//! (sequential consistency). All costs land in the paper's breakdown
//! categories: shared misses (local/remote), write faults, TLB misses,
//! locks, barriers, reductions, and start-up wait.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use wwt_sim::{Engine, SimConfig};
//! use wwt_sm::{SmConfig, SmMachine};
//!
//! let mut engine = Engine::new(2, SimConfig::default());
//! let m = SmMachine::new(&engine, SmConfig::default());
//! let x = m.gmalloc_on(0, 8, 8); // one shared f64 homed on node 0
//! let m0 = Rc::clone(&m);
//! let c0 = engine.cpu(0.into());
//! engine.spawn(0.into(), async move {
//!     m0.write_f64(&c0, x, 41.0).await;
//!     m0.barrier(&c0).await;
//! });
//! let m1 = Rc::clone(&m);
//! let c1 = engine.cpu(1.into());
//! engine.spawn(1.into(), async move {
//!     m1.barrier(&c1).await;
//!     let v = m1.read_f64(&c1, x).await;
//!     assert_eq!(v, 41.0);
//! });
//! engine.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod machine;
pub mod parmacs;
pub mod protocol;

pub use config::{AllocPolicy, ProtocolMode, SmConfig, SmCosts, COSTS};
pub use machine::SmMachine;
pub use parmacs::{CreateGate, McsLock, SmCollectives};
pub use wwt_arch::ArchParams;
