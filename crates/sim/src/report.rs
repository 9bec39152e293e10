//! Measurement reports produced by a simulation run.

use crate::account::{Counter, Counters, CycleMatrix, Kind, Scope};
use crate::time::{Cycles, ProcId};
use crate::trace::TraceData;

/// A cumulative per-kind cycle snapshot taken at a phase boundary
/// (a barrier crossing or a collective completion).
///
/// Recorded per processor when
/// [`SimConfig::phase_marks`](crate::SimConfig) is set. Marks are
/// cumulative: the cycles *inside* the k-th segment of a processor's run
/// are the difference between its k-th and (k-1)-th marks. Every
/// processor participates in the same sequence of global synchronization
/// operations in an SPMD program, so the k-th mark on every processor
/// describes the same program point.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PhaseMark {
    /// The processor's local clock at the boundary.
    pub at: Cycles,
    /// Cumulative cycles by cost kind ([`Kind::ALL`] order).
    pub by_kind: [Cycles; Kind::COUNT],
}

/// Per-processor measurements.
#[derive(Clone, Debug)]
pub struct ProcReport {
    /// Which processor.
    pub id: ProcId,
    /// Final local clock (the processor's elapsed time).
    pub clock: Cycles,
    /// Cycle charges by (scope, kind).
    pub matrix: CycleMatrix,
    /// Event counters.
    pub counters: Counters,
    /// Time-resolved profile (one matrix per
    /// [`SimConfig::profile_bucket`](crate::SimConfig) bucket); empty
    /// unless profiling was enabled.
    pub profile: Vec<CycleMatrix>,
    /// Phase-boundary snapshots, in crossing order; empty unless
    /// [`SimConfig::phase_marks`](crate::SimConfig) was enabled.
    pub phase_log: Vec<PhaseMark>,
}

/// The full report of a simulation run.
///
/// The paper reports cycle breakdowns as *averages over all processors* and
/// event counts *per processor*; the helpers here compute both.
#[derive(Clone, Debug)]
pub struct SimReport {
    procs: Vec<ProcReport>,
    events_processed: u64,
    profile_bucket: Option<Cycles>,
    trace: Option<TraceData>,
}

impl SimReport {
    pub(crate) fn new(
        procs: Vec<ProcReport>,
        events_processed: u64,
        profile_bucket: Option<Cycles>,
        trace: Option<TraceData>,
    ) -> Self {
        SimReport {
            procs,
            events_processed,
            profile_bucket,
            trace,
        }
    }

    /// The run's [`SimConfig::profile_bucket`](crate::SimConfig): the width
    /// of each [`ProcReport::profile`] bucket, `None` if not profiled.
    pub fn profile_bucket(&self) -> Option<Cycles> {
        self.profile_bucket
    }

    /// The structured trace and metrics collected by this run, if tracing
    /// was enabled ([`SimConfig::trace`](crate::SimConfig)).
    pub fn trace(&self) -> Option<&TraceData> {
        self.trace.as_ref()
    }

    /// Number of processors in the run.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// The report for one processor.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn proc(&self, p: ProcId) -> &ProcReport {
        &self.procs[p.index()]
    }

    /// Iterates over all per-processor reports.
    pub fn procs(&self) -> impl Iterator<Item = &ProcReport> {
        self.procs.iter()
    }

    /// Total number of discrete events the engine processed.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Elapsed target time: the maximum final clock across processors.
    pub fn elapsed(&self) -> Cycles {
        self.procs.iter().map(|p| p.clock).max().unwrap_or(0)
    }

    /// Load imbalance: how much longer the slowest processor ran than the
    /// average, as a fraction (0.0 = perfectly balanced). The paper traces
    /// several costs — MSE's barrier, MP library waiting — to exactly
    /// this quantity.
    pub fn imbalance(&self) -> f64 {
        if self.procs.is_empty() {
            return 0.0;
        }
        let max = self.elapsed() as f64;
        let avg = self.procs.iter().map(|p| p.clock as f64).sum::<f64>() / self.procs.len() as f64;
        if avg == 0.0 {
            0.0
        } else {
            max / avg - 1.0
        }
    }

    /// The fraction of total cycles spent *waiting* (barrier, lock, and
    /// generic waits), across all processors — the aggregate
    /// synchronization overhead.
    pub fn wait_fraction(&self) -> f64 {
        let total: u64 = self.procs.iter().map(|p| p.matrix.total()).sum();
        if total == 0 {
            return 0.0;
        }
        let waits: u64 = self
            .procs
            .iter()
            .map(|p| {
                p.matrix.by_kind(Kind::Wait)
                    + p.matrix.by_kind(Kind::BarrierWait)
                    + p.matrix.by_kind(Kind::LockWait)
            })
            .sum();
        waits as f64 / total as f64
    }

    /// Cell-wise *average* cycle matrix across processors (the paper's
    /// "average over all processors" presentation).
    pub fn avg_matrix(&self) -> CycleMatrix {
        let n = self.procs.len().max(1) as u64;
        let mut avg = CycleMatrix::new();
        for p in &self.procs {
            for (s, k, c) in p.matrix.iter() {
                avg.add(s, k, c);
            }
        }
        let mut out = CycleMatrix::new();
        for s in Scope::ALL {
            for k in Kind::ALL {
                out.add(s, k, avg.get(s, k) / n);
            }
        }
        out
    }

    /// Cell-wise *summed* cycle matrix across processors.
    pub fn sum_matrix(&self) -> CycleMatrix {
        let mut sum = CycleMatrix::new();
        for p in &self.procs {
            sum.merge(&p.matrix);
        }
        sum
    }

    /// Average of a counter across processors (per-processor counts in the
    /// paper's event tables).
    pub fn avg_counter(&self, c: Counter) -> f64 {
        let n = self.procs.len().max(1) as f64;
        self.total_counter(c) as f64 / n
    }

    /// Sum of a counter across processors.
    pub fn total_counter(&self, c: Counter) -> u64 {
        self.procs.iter().map(|p| p.counters.get(c)).sum()
    }

    /// Merges another report's processors into this one (used for phase
    /// splits: init vs main loop).
    pub fn counters_merged(&self) -> Counters {
        let mut out = Counters::new();
        for p in &self.procs {
            out.merge(&p.counters);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_report() -> SimReport {
        let mut p0 = ProcReport {
            id: ProcId::new(0),
            clock: 100,
            matrix: CycleMatrix::new(),
            counters: Counters::new(),
            profile: Vec::new(),
            phase_log: Vec::new(),
        };
        p0.matrix.add(Scope::App, Kind::Compute, 80);
        p0.counters.add(Counter::PacketsSent, 4);
        let mut p1 = ProcReport {
            id: ProcId::new(1),
            clock: 120,
            matrix: CycleMatrix::new(),
            counters: Counters::new(),
            profile: Vec::new(),
            phase_log: Vec::new(),
        };
        p1.matrix.add(Scope::App, Kind::Compute, 120);
        p1.counters.add(Counter::PacketsSent, 8);
        SimReport::new(vec![p0, p1], 42, None, None)
    }

    #[test]
    fn elapsed_is_max_clock() {
        assert_eq!(demo_report().elapsed(), 120);
    }

    #[test]
    fn avg_matrix_divides_by_nprocs() {
        let avg = demo_report().avg_matrix();
        assert_eq!(avg.get(Scope::App, Kind::Compute), 100);
    }

    #[test]
    fn imbalance_measures_skew() {
        let r = demo_report();
        // clocks 100 and 120: max 120, avg 110 -> 120/110 - 1.
        assert!((r.imbalance() - (120.0 / 110.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn wait_fraction_is_zero_without_waits() {
        assert_eq!(demo_report().wait_fraction(), 0.0);
    }

    #[test]
    fn counter_aggregation() {
        let r = demo_report();
        assert_eq!(r.total_counter(Counter::PacketsSent), 12);
        assert!((r.avg_counter(Counter::PacketsSent) - 6.0).abs() < 1e-9);
    }
}
