//! Message-passing machine parameters (Tables 1 and 2 of the paper).

use wwt_arch::ArchParams;
use wwt_sim::{Cycles, SimConfig};

/// Configuration of the message-passing machine.
///
/// The hardware base both machines share (Table 1: cache, TLB, network,
/// barrier, DRAM) lives in [`ArchParams`]; this struct adds the
/// MP-specific network-interface costs (Table 2) and the software-cost
/// calibration constants for the re-implemented CMAML/CMMD layers (the
/// paper measures these as "Lib Comp"); they were chosen so library
/// overheads land in the paper's reported range (3–42% of program time
/// depending on communication intensity).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MpConfig {
    /// Engine-level settings (fault plan, profiling, tracing).
    pub sim: SimConfig,
    /// The shared hardware base (Table 1), common to both machines.
    pub arch: ArchParams,
    /// NI status word access (Table 2: 5).
    pub ni_status: Cycles,
    /// NI write of tag + destination (Table 2: 5).
    pub ni_tag_dest: Cycles,
    /// NI send of 5 words including the stores (Table 2: 15).
    pub ni_send: Cycles,
    /// NI receive of 5 words including the loads (Table 2: 15).
    pub ni_recv: Cycles,
    /// Library instructions to compose and launch an active message.
    pub am_send_overhead: Cycles,
    /// Library instructions to decode and dispatch a received packet.
    pub am_dispatch_overhead: Cycles,
    /// Library instructions to set up one channel write (buffer and
    /// counter management).
    pub chan_write_overhead: Cycles,
    /// Library instructions per packet inside a channel write loop.
    pub chan_packet_overhead: Cycles,
    /// Library instructions per packet on the receive side of a channel.
    pub chan_recv_packet_overhead: Cycles,
    /// Instructions per poll-loop iteration (checking completion flags).
    pub poll_overhead: Cycles,
    /// Instructions to combine two reduction operands.
    pub reduce_combine: Cycles,
    /// Extra per-message software cost inside collectives, modeling
    /// CMMD-level messaging (channel bookkeeping and handshakes per
    /// message). Zero reproduces the paper's final active-message
    /// collectives; a few hundred cycles reproduces its first two
    /// (flat and binary-tree, CMMD-level) attempts.
    pub collective_msg_overhead: Cycles,
    /// Reliable-delivery base retransmit timeout, in cycles since the last
    /// acknowledgement progress. Must comfortably exceed one round trip
    /// (2 × `net_latency` plus ACK generation) or the sender retransmits
    /// packets that were never lost. Only used when fault injection
    /// activates the reliable-delivery layer.
    pub retry_timeout: Cycles,
    /// Multiplier applied to the retransmit timeout after every expiry
    /// (exponential backoff).
    pub retry_backoff: u32,
    /// Cap on the backed-off retransmit timeout.
    pub retry_timeout_max: Cycles,
    /// NI cost charged (to the `retry` category) per retransmitted packet.
    pub retry_packet_cost: Cycles,
    /// NI cost charged (to the `retry` category) per ACK/NACK generated.
    pub ack_cost: Cycles,
}

impl Default for MpConfig {
    fn default() -> Self {
        MpConfig {
            sim: SimConfig::default(),
            arch: ArchParams::default(),
            ni_status: 5,
            ni_tag_dest: 5,
            ni_send: 15,
            ni_recv: 15,
            am_send_overhead: 60,
            am_dispatch_overhead: 60,
            chan_write_overhead: 150,
            chan_packet_overhead: 12,
            chan_recv_packet_overhead: 12,
            poll_overhead: 6,
            reduce_combine: 12,
            collective_msg_overhead: 0,
            retry_timeout: 1_000,
            retry_backoff: 2,
            retry_timeout_max: 16_000,
            retry_packet_cost: 20,
            ack_cost: 10,
        }
    }
}

impl MpConfig {
    /// The default machine on an explicit hardware base and engine
    /// configuration — the entry point for architecture sweeps.
    pub fn with_arch(arch: ArchParams, sim: SimConfig) -> Self {
        MpConfig {
            sim,
            arch,
            ..MpConfig::default()
        }
    }

    /// Full cost of a private cache miss (miss handling plus DRAM).
    pub fn priv_miss_total(&self) -> Cycles {
        self.arch.priv_miss_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_tables() {
        let c = MpConfig::default();
        assert_eq!(c.arch.net_latency, 100);
        assert_eq!(c.ni_status, 5);
        assert_eq!(c.ni_tag_dest, 5);
        assert_eq!(c.ni_send, 15);
        assert_eq!(c.ni_recv, 15);
        assert_eq!(c.priv_miss_total(), 21);
        assert_eq!(c.arch.cache.size_bytes, 256 * 1024);
        assert_eq!(c.arch.tlb_entries, 64);
    }

    #[test]
    fn with_arch_keeps_table_2_costs() {
        let arch = ArchParams {
            net_latency: 50,
            ..ArchParams::default()
        };
        let c = MpConfig::with_arch(arch, SimConfig::default());
        assert_eq!(c.arch.net_latency, 50);
        assert_eq!(c.ni_send, 15, "Table-2 costs are not part of the sweep");
    }
}
