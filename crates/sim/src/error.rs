//! Structured simulation failures.
//!
//! The engine used to `panic!` on deadlock, livelock, and scheduling bugs.
//! Those conditions now surface as a typed [`SimError`] carrying a
//! [`StallReport`]: which processors are blocked, what each one is waiting
//! for, and the wait-for graph between them — enough to diagnose a hung
//! run without a debugger.

use std::fmt;

use crate::account::Kind;
use crate::engine::WATCHDOG_CYCLES;
use crate::time::{Cycles, ProcId};

/// What a blocked processor is waiting *on*.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WaitTarget {
    /// Any external event (a message arrival, an unspecified completion).
    Any,
    /// A specific processor (e.g. the home node of a coherence request).
    Proc(ProcId),
    /// The hardware barrier: every other processor must arrive.
    Barrier,
}

impl fmt::Display for WaitTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitTarget::Any => f.write_str("any event"),
            WaitTarget::Proc(p) => write!(f, "{p}"),
            WaitTarget::Barrier => f.write_str("barrier (all processors)"),
        }
    }
}

/// One blocked processor in a [`StallReport`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlockedProc {
    /// The blocked processor.
    pub proc: ProcId,
    /// Its local clock when the run stalled.
    pub clock: Cycles,
    /// The cost kind its stall was being charged to.
    pub kind: Kind,
    /// Human-readable description of what it was doing
    /// (e.g. `"message receive"`, `"barrier"`).
    pub reason: &'static str,
    /// What it was waiting on.
    pub target: WaitTarget,
}

impl fmt::Display for BlockedProc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blocked at clock {} waiting for {} ({}) on {}",
            self.proc, self.clock, self.reason, self.kind, self.target
        )
    }
}

/// Per-processor blocked-state snapshot taken when a run stalls.
#[derive(Clone, Debug)]
pub struct StallReport {
    /// Global simulated time when the run stalled.
    pub now: Cycles,
    /// Events the engine had processed.
    pub events_processed: u64,
    /// Total processors in the machine.
    pub nprocs: usize,
    /// Every processor whose task had not finished, with its wait state.
    pub blocked: Vec<BlockedProc>,
    /// Host-side flight-recorder snapshots taken up to the failure (see
    /// `wwt_obs`): what the *simulator* was doing just before it died.
    /// Empty unless host metrics were enabled; ignored by `PartialEq` so
    /// wall-time noise never makes equal stalls compare unequal.
    pub obs: Vec<wwt_obs::ObsSnapshot>,
}

/// Equality ignores `obs`: flight-recorder snapshots carry host wall
/// times, and two runs stalling in the same simulated state must compare
/// equal regardless of how long the simulator took to get there.
impl PartialEq for StallReport {
    fn eq(&self, other: &Self) -> bool {
        self.now == other.now
            && self.events_processed == other.events_processed
            && self.nprocs == other.nprocs
            && self.blocked == other.blocked
    }
}

impl Eq for StallReport {}

impl StallReport {
    /// The wait-for graph as `(waiter, waited-on)` edges.
    ///
    /// A processor waiting on a specific peer contributes one edge; a
    /// processor stuck at the barrier waits for every processor that has
    /// not itself arrived at the barrier; a processor waiting on "any
    /// event" contributes no edges (nothing in the machine can satisfy
    /// it).
    pub fn wait_for_edges(&self) -> Vec<(ProcId, ProcId)> {
        let at_barrier: Vec<ProcId> = self
            .blocked
            .iter()
            .filter(|b| b.target == WaitTarget::Barrier)
            .map(|b| b.proc)
            .collect();
        let mut edges = Vec::new();
        for b in &self.blocked {
            match b.target {
                WaitTarget::Any => {}
                WaitTarget::Proc(q) => edges.push((b.proc, q)),
                WaitTarget::Barrier => {
                    for i in 0..self.nprocs {
                        let q = ProcId::new(i);
                        if q != b.proc && !at_barrier.contains(&q) {
                            edges.push((b.proc, q));
                        }
                    }
                }
            }
        }
        edges
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stalled at t={} after {} events; {} of {} processors blocked:",
            self.now,
            self.events_processed,
            self.blocked.len(),
            self.nprocs
        )?;
        for b in &self.blocked {
            writeln!(f, "  {b}")?;
        }
        let edges = self.wait_for_edges();
        if edges.is_empty() {
            write!(f, "wait-for graph: (no resolvable edges)")?;
        } else {
            write!(f, "wait-for graph:")?;
            for (p, q) in edges {
                write!(f, "\n  {p} -> {q}")?;
            }
        }
        if !self.obs.is_empty() {
            write!(f, "\n{}", wwt_obs::render_flight_recorder(&self.obs))?;
        }
        Ok(())
    }
}

/// A structured simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while some processor tasks were still
    /// blocked: a true deadlock.
    Deadlock(StallReport),
    /// The progress watchdog of a faulted run fired: events kept flowing
    /// but no processor task was resumed for [`WATCHDOG_CYCLES`] simulated
    /// cycles. The report is the blocked-state snapshot at that time.
    Livelock(StallReport),
    /// An event was scheduled before the current global time (a machine
    /// model bug: causality would be violated).
    PastEvent {
        /// The requested (past) event time.
        at: Cycles,
        /// The global time when the request was made.
        now: Cycles,
    },
    /// Invalid user-supplied configuration (e.g. a channel capacity that
    /// overflows the packet index field).
    Config(String),
}

impl SimError {
    /// The stall report attached to deadlock and livelock errors.
    pub fn report(&self) -> Option<&StallReport> {
        match self {
            SimError::Deadlock(r) | SimError::Livelock(r) => Some(r),
            SimError::PastEvent { .. } | SimError::Config(_) => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(report) => {
                write!(
                    f,
                    "deadlock: event queue empty but processors are still blocked\n{report}"
                )
            }
            SimError::Livelock(report) => {
                write!(
                    f,
                    "livelock: no processor resumed for {WATCHDOG_CYCLES} simulated cycles\n{report}"
                )
            }
            SimError::PastEvent { at, now } => {
                write!(f, "event scheduled in the past: at={at} now={now}")
            }
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked(p: usize, reason: &'static str, target: WaitTarget) -> BlockedProc {
        BlockedProc {
            proc: ProcId::new(p),
            clock: 100 * p as u64,
            kind: Kind::Wait,
            reason,
            target,
        }
    }

    #[test]
    fn report_names_processors_and_reasons() {
        let report = StallReport {
            now: 700,
            events_processed: 42,
            nprocs: 3,
            blocked: vec![
                blocked(0, "message receive", WaitTarget::Any),
                blocked(2, "coherence reply", WaitTarget::Proc(ProcId::new(1))),
            ],
            obs: vec![],
        };
        let s = SimError::Deadlock(report).to_string();
        assert!(s.contains("deadlock"), "{s}");
        assert!(
            s.contains("P0 blocked at clock 0 waiting for message receive"),
            "{s}"
        );
        assert!(
            s.contains("P2 blocked at clock 200 waiting for coherence reply"),
            "{s}"
        );
        assert!(s.contains("P2 -> P1"), "{s}");
    }

    #[test]
    fn barrier_waits_point_at_absent_processors() {
        let report = StallReport {
            now: 0,
            events_processed: 0,
            nprocs: 3,
            blocked: vec![
                blocked(0, "barrier", WaitTarget::Barrier),
                blocked(1, "barrier", WaitTarget::Barrier),
            ],
            obs: vec![],
        };
        // P2 never arrived, so both barrier waiters wait on it alone.
        assert_eq!(
            report.wait_for_edges(),
            vec![
                (ProcId::new(0), ProcId::new(2)),
                (ProcId::new(1), ProcId::new(2)),
            ]
        );
    }

    #[test]
    fn display_keeps_legacy_substrings() {
        assert!(SimError::PastEvent { at: 10, now: 50 }
            .to_string()
            .contains("scheduled in the past"));
    }
}
