//! Structured tracing, latency metrics, and their exporters.
//!
//! When [`SimConfig::trace`](crate::SimConfig) is set, the engine collects
//! a [`TraceData`] holding:
//!
//! * **span events** — every attribution-scope push/pop
//!   ([`Cpu::scope`](crate::Cpu::scope)) becomes a
//!   [`TraceWhat::SpanBegin`]/[`TraceWhat::SpanEnd`] pair on the owning
//!   processor's track, timestamped with its local clock, and
//! * **instant events** ([`Mark`]) — packet sends/receives/dispatches,
//!   coherence-miss service windows, barrier arrivals and releases, lock
//!   acquire/release,
//!
//! plus **latency samples** ([`Metric`]) aggregated into log2-bucketed
//! [`Histogram`]s: message end-to-end latency, shared-miss service time,
//! barrier wait, and lock wait/hold. The histogram type lives in
//! `wwt-obs`, which uses it for host wall times too.
//!
//! The collected data leaves through three submodules:
//!
//! * [`perfetto`] — Chrome trace-event / Perfetto JSON: one track per
//!   simulated processor, spans from scope nesting, instants for packets,
//!   misses, barriers, and locks. Load the file at <https://ui.perfetto.dev>
//!   or `chrome://tracing`.
//! * [`metrics`] — the latency histograms as JSON or as an ASCII table.
//! * [`reconcile`] — recovers per-scope *self time* from the span stream
//!   and checks it against the engine's [`CycleMatrix`](crate::CycleMatrix)
//!   aggregates: the trace and the accounting must tell the same story.
//!
//! The design is zero-cost when disabled: the `trace` flag is cached as a
//! plain `bool` in every [`Cpu`](crate::Cpu) handle, so the hot charging
//! and scoping paths pay a single predictable branch and allocate nothing.

pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod reconcile;

pub use metrics::{metrics_json, metrics_table};
pub use perfetto::chrome_trace_json;
pub use reconcile::{check_against_matrix, self_times, SelfTimes};
pub use wwt_obs::{Histogram, HISTOGRAM_BUCKETS};

use crate::account::{Kind, Scope};
use crate::time::{Cycles, ProcId};

/// An instantaneous machine event (no duration).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mark {
    /// A packet entered the network (message-passing machine).
    MsgSend {
        /// Destination node.
        peer: ProcId,
        /// Packet dispatch tag.
        tag: u8,
    },
    /// A packet arrived at the destination network interface.
    MsgRecv {
        /// Source node.
        peer: ProcId,
        /// Packet dispatch tag.
        tag: u8,
    },
    /// A received packet was dispatched to its handler.
    MsgDispatch {
        /// Source node.
        peer: ProcId,
        /// Packet dispatch tag.
        tag: u8,
    },
    /// A coherence transaction (shared miss / write fault) began.
    MissStart {
        /// The cost kind the stall is charged to.
        kind: Kind,
    },
    /// The matching coherence transaction completed.
    MissEnd {
        /// The cost kind the stall was charged to.
        kind: Kind,
    },
    /// The processor arrived at a barrier.
    BarrierArrive,
    /// The processor was released from a barrier.
    BarrierRelease,
    /// The processor acquired a lock.
    LockAcquire,
    /// The processor released a lock.
    LockRelease,
    /// The fault plan dropped a packet this processor sent.
    FaultDrop {
        /// Destination node of the dropped packet.
        peer: ProcId,
        /// Packet dispatch tag.
        tag: u8,
    },
    /// The fault plan duplicated a packet this processor sent.
    FaultDup {
        /// Destination node of the duplicated packet.
        peer: ProcId,
        /// Packet dispatch tag.
        tag: u8,
    },
    /// The fault plan delayed a packet this processor sent.
    FaultDelay {
        /// Destination node of the delayed packet.
        peer: ProcId,
        /// Extra latency injected, in cycles.
        extra: Cycles,
    },
    /// The reliable-delivery layer retransmitted unacknowledged packets.
    Retransmit {
        /// Destination node being retried.
        peer: ProcId,
        /// Number of packets retransmitted in this round.
        count: u32,
    },
}

impl Mark {
    /// A short stable label (used as the Perfetto event name).
    pub fn label(&self) -> &'static str {
        match self {
            Mark::MsgSend { .. } => "msg_send",
            Mark::MsgRecv { .. } => "msg_recv",
            Mark::MsgDispatch { .. } => "msg_dispatch",
            Mark::MissStart { .. } => "miss_start",
            Mark::MissEnd { .. } => "miss_end",
            Mark::BarrierArrive => "barrier_arrive",
            Mark::BarrierRelease => "barrier_release",
            Mark::LockAcquire => "lock_acquire",
            Mark::LockRelease => "lock_release",
            Mark::FaultDrop { .. } => "fault_drop",
            Mark::FaultDup { .. } => "fault_dup",
            Mark::FaultDelay { .. } => "fault_delay",
            Mark::Retransmit { .. } => "retransmit",
        }
    }
}

/// What a [`TraceEvent`] records.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceWhat {
    /// An attribution scope was pushed; charges now go to `.0`.
    SpanBegin(Scope),
    /// The matching scope was popped.
    SpanEnd(Scope),
    /// An instantaneous event.
    Instant(Mark),
}

/// One structured trace event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The processor whose track this event belongs to.
    pub proc: ProcId,
    /// Timestamp in cycles. Span events use the processor's local clock
    /// (monotone per track); instants from machine callbacks may use
    /// global time.
    pub at: Cycles,
    /// The event itself.
    pub what: TraceWhat,
}

/// A latency distribution tracked by the metrics registry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Message end-to-end latency: send call to handler dispatch.
    MsgLatency,
    /// Shared-miss service time: coherence-transaction start to response.
    ShMissService,
    /// Barrier wait: arrival to release.
    BarrierWait,
    /// Lock wait: acquire call to lock held.
    LockWait,
    /// Lock hold: acquired to released.
    LockHold,
}

impl Metric {
    /// All metrics, in index order.
    pub const ALL: [Metric; 5] = [
        Metric::MsgLatency,
        Metric::ShMissService,
        Metric::BarrierWait,
        Metric::LockWait,
        Metric::LockHold,
    ];

    /// Number of metrics.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index of this metric.
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// Stable snake_case name (used as the JSON key).
    pub fn label(&self) -> &'static str {
        match self {
            Metric::MsgLatency => "msg_latency",
            Metric::ShMissService => "sh_miss_service",
            Metric::BarrierWait => "barrier_wait",
            Metric::LockWait => "lock_wait",
            Metric::LockHold => "lock_hold",
        }
    }
}

/// One histogram per [`Metric`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    hists: [Histogram; Metric::COUNT],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Records one sample of `m`.
    pub fn record(&mut self, m: Metric, v: Cycles) {
        self.hists[m.index()].record(v);
    }

    /// The histogram for `m`.
    pub fn get(&self, m: Metric) -> &Histogram {
        &self.hists[m.index()]
    }

    /// Iterates over metrics with at least one sample.
    pub fn nonempty(&self) -> impl Iterator<Item = (Metric, &Histogram)> + '_ {
        Metric::ALL
            .iter()
            .map(|&m| (m, self.get(m)))
            .filter(|(_, h)| h.count() > 0)
    }
}

/// Everything a trace-enabled run collected.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// All recorded events, in emission order (deterministic).
    pub events: Vec<TraceEvent>,
    /// Aggregated latency histograms.
    pub metrics: MetricsRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_routes_by_metric() {
        let mut r = MetricsRegistry::new();
        r.record(Metric::MsgLatency, 100);
        r.record(Metric::LockHold, 7);
        r.record(Metric::LockHold, 9);
        assert_eq!(r.get(Metric::MsgLatency).count(), 1);
        assert_eq!(r.get(Metric::LockHold).count(), 2);
        assert_eq!(r.get(Metric::BarrierWait).count(), 0);
        let names: Vec<_> = r.nonempty().map(|(m, _)| m.label()).collect();
        assert_eq!(names, vec!["msg_latency", "lock_hold"]);
    }

    #[test]
    fn metric_indices_are_dense_and_stable() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }
}
