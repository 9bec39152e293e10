//! Execution-time accounting: where does each cycle go?
//!
//! The paper's central methodological contribution is a fine-grained
//! breakdown of execution time (computation, local misses, library
//! computation, network access, shared misses, write faults, TLB misses,
//! barriers, locks, start-up wait, ...). We record charges in a small
//! two-dimensional matrix indexed by an *attribution scope* (what code was
//! running: application, messaging library, a reduction, ...) and a *cost
//! kind* (what the cycles were spent on: computing, a private miss, waiting
//! at a barrier, ...).
//!
//! The per-table row sets of the paper (Tables 4–21) are all projections of
//! this matrix; `wwt-core` performs the projections.

use std::fmt;

use crate::time::Cycles;

/// Attribution scope: which layer of the target software was executing when
/// a cost was incurred.
///
/// Scopes nest (each [`ScopeGuard`](crate::ScopeGuard) saves the scope it
/// replaces); charges always go to the innermost scope.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scope {
    /// Application code proper.
    App,
    /// Message-passing communication library code (CMAML / CMMD analogue).
    Lib,
    /// A software broadcast (either machine).
    Broadcast,
    /// A software reduction (either machine).
    Reduction,
    /// Lock acquire/release code (MCS locks on the shared-memory machine).
    Lock,
    /// Other explicit synchronization glue (e.g. flag waits, update copies).
    Sync,
    /// Start-up: waiting for node 0 to finish serial initialization.
    Startup,
}

impl Scope {
    /// All scopes, in matrix order.
    pub const ALL: [Scope; 7] = [
        Scope::App,
        Scope::Lib,
        Scope::Broadcast,
        Scope::Reduction,
        Scope::Lock,
        Scope::Sync,
        Scope::Startup,
    ];

    /// Dense index of this scope into a [`CycleMatrix`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Scope::App => "app",
            Scope::Lib => "lib",
            Scope::Broadcast => "broadcast",
            Scope::Reduction => "reduction",
            Scope::Lock => "lock",
            Scope::Sync => "sync",
            Scope::Startup => "startup",
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cost kind: what a processor's cycles were spent on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// Instruction execution (useful work, buffer management, address
    /// arithmetic — anything that is not a stall).
    Compute,
    /// Servicing a miss to private (per-node) data.
    PrivMiss,
    /// Servicing a miss to shared data whose home is the local node.
    ShMissLocal,
    /// Servicing a miss to shared data homed on a remote node.
    ShMissRemote,
    /// Stall upgrading a read-only cache block for writing (write fault).
    WriteFault,
    /// TLB refill.
    TlbMiss,
    /// Loads/stores to the memory-mapped network interface.
    NetAccess,
    /// Waiting at a barrier (hardware barrier on both machines).
    BarrierWait,
    /// Waiting to acquire a lock.
    LockWait,
    /// Other waiting (spinning on a flag, waiting for a message or a
    /// channel completion).
    Wait,
    /// Reliable-delivery recovery: retransmitting lost packets and
    /// generating/handling acknowledgements. Only nonzero when fault
    /// injection forces the protocol to do work.
    Retry,
}

impl Kind {
    /// Number of kinds (the length of [`Kind::ALL`]).
    pub const COUNT: usize = 11;

    /// All kinds, in matrix order.
    pub const ALL: [Kind; Kind::COUNT] = [
        Kind::Compute,
        Kind::PrivMiss,
        Kind::ShMissLocal,
        Kind::ShMissRemote,
        Kind::WriteFault,
        Kind::TlbMiss,
        Kind::NetAccess,
        Kind::BarrierWait,
        Kind::LockWait,
        Kind::Wait,
        Kind::Retry,
    ];

    /// Dense index of this kind into a [`CycleMatrix`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Compute => "compute",
            Kind::PrivMiss => "private miss",
            Kind::ShMissLocal => "shared miss (local)",
            Kind::ShMissRemote => "shared miss (remote)",
            Kind::WriteFault => "write fault",
            Kind::TlbMiss => "tlb miss",
            Kind::NetAccess => "network access",
            Kind::BarrierWait => "barrier",
            Kind::LockWait => "lock wait",
            Kind::Wait => "wait",
            Kind::Retry => "retry",
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

const SCOPES: usize = Scope::ALL.len();
const KINDS: usize = Kind::ALL.len();

/// A (scope × kind) matrix of cycle charges for one processor.
///
/// # Example
///
/// ```
/// use wwt_sim::{CycleMatrix, Scope, Kind};
/// let mut m = CycleMatrix::new();
/// m.add(Scope::Lib, Kind::Compute, 250);
/// m.add(Scope::App, Kind::Compute, 1_000);
/// assert_eq!(m.get(Scope::Lib, Kind::Compute), 250);
/// assert_eq!(m.by_kind(Kind::Compute), 1_250);
/// assert_eq!(m.total(), 1_250);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CycleMatrix {
    cells: [[Cycles; KINDS]; SCOPES],
}

impl CycleMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to the (`scope`, `kind`) cell.
    pub fn add(&mut self, scope: Scope, kind: Kind, cycles: Cycles) {
        self.cells[scope.index()][kind.index()] += cycles;
    }

    /// Returns the charge in the (`scope`, `kind`) cell.
    pub fn get(&self, scope: Scope, kind: Kind) -> Cycles {
        self.cells[scope.index()][kind.index()]
    }

    /// Total cycles charged across all cells.
    pub fn total(&self) -> Cycles {
        self.cells.iter().flatten().sum()
    }

    /// Total cycles of a given kind across all scopes.
    pub fn by_kind(&self, kind: Kind) -> Cycles {
        self.cells.iter().map(|row| row[kind.index()]).sum()
    }

    /// Total cycles in a given scope across all kinds.
    pub fn by_scope(&self, scope: Scope) -> Cycles {
        self.cells[scope.index()].iter().sum()
    }

    /// The per-kind totals across all scopes, as a dense vector in
    /// [`Kind::ALL`] order — the "breakdown category" view the phase
    /// profiler and the diff engine consume.
    pub fn kind_totals(&self) -> [Cycles; Kind::COUNT] {
        let mut out = [0; Kind::COUNT];
        for row in &self.cells {
            for (k, &c) in row.iter().enumerate() {
                out[k] += c;
            }
        }
        out
    }

    /// Adds every cell of `other` into this matrix.
    pub fn merge(&mut self, other: &CycleMatrix) {
        for (s, row) in other.cells.iter().enumerate() {
            for (k, &c) in row.iter().enumerate() {
                self.cells[s][k] += c;
            }
        }
    }

    /// Iterates over all non-zero cells.
    pub fn iter(&self) -> impl Iterator<Item = (Scope, Kind, Cycles)> + '_ {
        Scope::ALL.into_iter().flat_map(move |s| {
            Kind::ALL
                .into_iter()
                .map(move |k| (s, k, self.get(s, k)))
                .filter(|&(_, _, c)| c != 0)
        })
    }
}

impl fmt::Debug for CycleMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (s, k, c) in self.iter() {
            map.entry(&format_args!("{s}/{k}"), &c);
        }
        map.finish()
    }
}

/// Per-processor event counters (messages, bytes, misses, ...).
///
/// These back the paper's per-processor event-count tables
/// (Tables 6, 7, 10, 11, 13, 15, 22, 23).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Counter {
    /// Logical message sends (one per application-level transfer).
    MessagesSent,
    /// CMMD channel writes (bulk transfers over a pre-negotiated channel).
    ChannelWrites,
    /// Active messages sent.
    ActiveMessages,
    /// Raw 20-byte network packets injected.
    PacketsSent,
    /// Payload bytes transmitted.
    BytesData,
    /// Header/protocol bytes transmitted.
    BytesControl,
    /// Misses to private data.
    PrivMisses,
    /// Misses to shared data homed locally.
    ShMissesLocal,
    /// Misses to shared data homed remotely.
    ShMissesRemote,
    /// Write faults (upgrade of a read-only block).
    WriteFaults,
    /// TLB refills.
    TlbMisses,
    /// Lock acquisitions.
    LockAcquires,
    /// Barrier episodes crossed.
    Barriers,
    /// Software reductions participated in.
    Reductions,
    /// Software broadcasts participated in.
    Broadcasts,
    /// Cache-coherence protocol messages handled by this node's directory.
    DirRequests,
    /// Packets retransmitted by the reliable-delivery layer.
    Retransmits,
    /// Acknowledgement packets sent by the reliable-delivery layer.
    AcksSent,
    /// Negative acknowledgements (gap reports) sent.
    NacksSent,
}

impl Counter {
    /// All counters, in storage order.
    pub const ALL: [Counter; 19] = [
        Counter::MessagesSent,
        Counter::ChannelWrites,
        Counter::ActiveMessages,
        Counter::PacketsSent,
        Counter::BytesData,
        Counter::BytesControl,
        Counter::PrivMisses,
        Counter::ShMissesLocal,
        Counter::ShMissesRemote,
        Counter::WriteFaults,
        Counter::TlbMisses,
        Counter::LockAcquires,
        Counter::Barriers,
        Counter::Reductions,
        Counter::Broadcasts,
        Counter::DirRequests,
        Counter::Retransmits,
        Counter::AcksSent,
        Counter::NacksSent,
    ];

    /// Dense index of this counter.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Counter::MessagesSent => "messages sent",
            Counter::ChannelWrites => "channel writes",
            Counter::ActiveMessages => "active messages",
            Counter::PacketsSent => "packets sent",
            Counter::BytesData => "bytes (data)",
            Counter::BytesControl => "bytes (control)",
            Counter::PrivMisses => "private misses",
            Counter::ShMissesLocal => "shared misses (local)",
            Counter::ShMissesRemote => "shared misses (remote)",
            Counter::WriteFaults => "write faults",
            Counter::TlbMisses => "tlb misses",
            Counter::LockAcquires => "lock acquires",
            Counter::Barriers => "barriers",
            Counter::Reductions => "reductions",
            Counter::Broadcasts => "broadcasts",
            Counter::DirRequests => "directory requests",
            Counter::Retransmits => "retransmits",
            Counter::AcksSent => "acks sent",
            Counter::NacksSent => "nacks sent",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

const COUNTERS: usize = Counter::ALL.len();

/// A fixed-size bag of per-processor event counters.
///
/// # Example
///
/// ```
/// use wwt_sim::{Counters, Counter};
/// let mut c = Counters::new();
/// c.add(Counter::BytesData, 16);
/// c.add(Counter::BytesData, 16);
/// assert_eq!(c.get(Counter::BytesData), 32);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Counters {
    values: [u64; COUNTERS],
}

impl Counters {
    /// Creates an empty counter bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `counter`.
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.values[counter.index()] += n;
    }

    /// Returns the current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    /// Adds every counter of `other` into this bag.
    pub fn merge(&mut self, other: &Counters) {
        for (i, &v) in other.values.iter().enumerate() {
            self.values[i] += v;
        }
    }

    /// Iterates over all non-zero counters.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .into_iter()
            .map(move |c| (c, self.get(c)))
            .filter(|&(_, n)| n != 0)
    }
}

impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (c, n) in self.iter() {
            map.entry(&c.label(), &n);
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_add_and_project() {
        let mut m = CycleMatrix::new();
        m.add(Scope::App, Kind::Compute, 10);
        m.add(Scope::Lib, Kind::Compute, 5);
        m.add(Scope::Lib, Kind::NetAccess, 7);
        assert_eq!(m.by_kind(Kind::Compute), 15);
        assert_eq!(m.by_scope(Scope::Lib), 12);
        assert_eq!(m.total(), 22);
    }

    #[test]
    fn matrix_sum_is_cellwise() {
        let mut a = CycleMatrix::new();
        a.add(Scope::App, Kind::Compute, 1);
        #[allow(unused_mut)]
        let mut b = CycleMatrix::new();
        b.add(Scope::App, Kind::Compute, 2);
        b.add(Scope::Lock, Kind::LockWait, 3);
        a.merge(&b);
        assert_eq!(a.get(Scope::App, Kind::Compute), 3);
        assert_eq!(a.get(Scope::Lock, Kind::LockWait), 3);
    }

    #[test]
    fn kind_totals_project_across_scopes() {
        let mut m = CycleMatrix::new();
        m.add(Scope::App, Kind::Compute, 10);
        m.add(Scope::Lib, Kind::Compute, 5);
        m.add(Scope::Sync, Kind::Wait, 3);
        let v = m.kind_totals();
        assert_eq!(v[Kind::Compute.index()], 15);
        assert_eq!(v[Kind::Wait.index()], 3);
        assert_eq!(v.iter().sum::<Cycles>(), m.total());
    }

    #[test]
    fn matrix_iter_skips_zero_cells() {
        let mut m = CycleMatrix::new();
        m.add(Scope::Sync, Kind::Wait, 9);
        let cells: Vec<_> = m.iter().collect();
        assert_eq!(cells, vec![(Scope::Sync, Kind::Wait, 9)]);
    }

    #[test]
    fn scope_and_kind_indices_are_dense() {
        for (i, s) in Scope::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, k) in Kind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.add(Counter::PacketsSent, 3);
        c.add(Counter::PacketsSent, 4);
        let mut d = Counters::new();
        d.add(Counter::PacketsSent, 1);
        c.merge(&d);
        assert_eq!(c.get(Counter::PacketsSent), 8);
    }

    #[test]
    fn labels_are_nonempty_and_unique() {
        let mut labels: Vec<&str> = Scope::ALL.iter().map(|s| s.label()).collect();
        labels.extend(Kind::ALL.iter().map(|k| k.label()));
        labels.extend(Counter::ALL.iter().map(|c| c.label()));
        for l in &labels {
            assert!(!l.is_empty());
        }
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len(), "duplicate label");
    }
}
