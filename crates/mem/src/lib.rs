//! Memory-hierarchy substrate for the WWT reproduction.
//!
//! This crate models the *state* of each node's memory system — backing
//! store, set-associative cache tags, TLB — without charging any simulated
//! cycles. The machine models (`wwt-mp`, `wwt-sm`) wrap these structures and
//! attach the paper's cost tables (Tables 1–3) to each operation.
//!
//! Both simulated machines share the same base hardware (Table 1 of the
//! paper): 256 KB 4-way set-associative caches with random replacement,
//! 32-byte blocks, a 64-entry fully-associative FIFO TLB over 4 KB pages.
//!
//! # Example
//!
//! ```
//! use wwt_mem::{Cache, CacheGeometry, AccessKind};
//!
//! let mut cache = Cache::new(CacheGeometry::paper_default(), 1);
//! let miss = cache.access(0x1000, AccessKind::Read);
//! assert!(!miss.hit);
//! let hit = cache.access(0x1000, AccessKind::Read); // same 32-byte block
//! assert!(hit.hit);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod node;
pub mod path;
pub mod tlb;

pub use addr::{GAddr, Segment, PAGE_BYTES};
pub use cache::{AccessKind, AccessResult, Cache, CacheGeometry, Evicted, LineState};
pub use node::NodeMem;
pub use path::{blocks, touch, TouchOutcome};
pub use tlb::Tlb;
