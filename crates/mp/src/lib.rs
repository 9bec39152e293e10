//! CM-5-like message-passing machine model.
//!
//! This crate reproduces the message-passing side of the paper's paired
//! simulators:
//!
//! * a memory-mapped **network interface** with 20-byte packets, a status
//!   register, and tag-dispatched delivery (Section 4.1, Table 2 costs),
//! * an **active-message layer** (the CMAML analogue): short messages whose
//!   arrival invokes a registered handler when the destination polls,
//! * a **CMMD-like library**: virtual *channels* for repeated bulk
//!   transfers between fixed node pairs, and software **broadcast /
//!   reduction trees** (flat, binary, and LogP-style lop-sided shapes —
//!   the three implementations the paper compares for Gauss),
//! * the CM-5-style **hardware barrier**.
//!
//! All library code charges simulated cycles: computation inside the
//! library goes to the `Lib` (or `Broadcast`/`Reduction`) attribution
//! scope, loads/stores to the network interface go to `NetAccess`, and
//! local cache misses taken inside library routines are visible as
//! "Lib Misses" — exactly the breakdown rows of the paper's tables.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use wwt_sim::{Engine, SimConfig};
//! use wwt_mp::{MpConfig, MpMachine};
//!
//! let mut engine = Engine::new(2, SimConfig::default());
//! let m = MpMachine::new(&engine, MpConfig::default());
//! // Node 1 prints nothing; it just waits for one active message.
//! let got = Rc::new(std::cell::Cell::new(0u32));
//! {
//!     let got = Rc::clone(&got);
//!     m.set_handler(wwt_mp::tag::USER_BASE, move |args| {
//!         got.set(args.words[0]);
//!     });
//! }
//! let m0 = Rc::clone(&m);
//! let cpu0 = engine.cpu(0.into());
//! engine.spawn(0.into(), async move {
//!     m0.am_send(&cpu0, 1.into(), wwt_mp::tag::USER_BASE, 0, [42, 0, 0, 0]).await;
//! });
//! let m1 = Rc::clone(&m);
//! let cpu1 = engine.cpu(1.into());
//! engine.spawn(1.into(), async move {
//!     m1.poll_until(&cpu1, |n| n >= 1).await;
//! });
//! engine.run();
//! assert_eq!(got.get(), 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod collectives;
pub mod config;
pub mod machine;
pub mod packet;

pub use channel::{ChannelId, SendChannel};
pub use collectives::TreeShape;
pub use config::MpConfig;
pub use machine::{AmArgs, MpMachine};
pub use packet::{tag, Packet};
pub use wwt_arch::ArchParams;
