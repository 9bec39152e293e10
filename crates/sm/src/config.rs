//! Shared-memory machine parameters (Tables 1 and 3 of the paper).

use wwt_arch::ArchParams;
use wwt_sim::{Cycles, SimConfig};

/// Shared-data allocation policy for `gmalloc`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AllocPolicy {
    /// Round-robin across nodes per allocation (the paper's default; the
    /// source of EM3D's remote-miss pathology in Table 15).
    RoundRobin,
    /// Allocate on the requesting node (the Table-17 variant that cuts
    /// EM3D-SM remote misses from 97% to 10% of misses).
    Local,
}

/// Coherence protocol variant.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolMode {
    /// Full-map write-invalidate `Dir_nNB` (the paper's machine).
    Invalidate,
    /// The Section 5.3.4 extension: writes push updates to sharers instead
    /// of invalidating them, turning the 4-message producer-consumer
    /// pattern into single update messages.
    BulkUpdate,
}

/// Configuration of the shared-memory machine.
///
/// The hardware base both machines share (Table 1: cache, TLB, network,
/// barrier, DRAM) lives in [`ArchParams`]; this struct adds the
/// SM-specific coherence-protocol costs (Table 3).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SmConfig {
    /// Engine-level settings (fault plan, profiling, tracing).
    pub sim: SimConfig,
    /// The shared hardware base (Table 1), common to both machines. The
    /// Table-16 EM3D variant sets `cache` to
    /// [`wwt_mem::CacheGeometry::one_megabyte`].
    pub arch: ArchParams,
    /// Processor-side cost of a shared cache miss, excluding the network
    /// round trip and replacement (Table 3: 19).
    pub shared_miss: Cycles,
    /// Cache-side cost of handling an invalidation (Table 3: 3).
    pub invalidate: Cycles,
    /// Replacement cost of a shared clean block (Table 3: 5).
    pub repl_shared_clean: Cycles,
    /// Replacement cost of a shared dirty block (Table 3: 13).
    pub repl_shared_dirty: Cycles,
    /// Directory occupancy base (Table 3: 10).
    pub dir_base: Cycles,
    /// Additional directory occupancy when a cache block is received
    /// (Table 3: +8).
    pub dir_recv_block: Cycles,
    /// Additional directory occupancy per protocol message sent
    /// (Table 3: +5).
    pub dir_send_msg: Cycles,
    /// Additional directory occupancy when a cache block is sent
    /// (Table 3: +8).
    pub dir_send_block: Cycles,
    /// Bytes of a protocol message without data (header only). A
    /// block-carrying message adds one cache block (`arch.cache`) of data:
    /// 8 + 32 = 40 bytes as in Section 4.
    pub ctrl_msg_bytes: u64,
    /// Allocation policy for `gmalloc`.
    pub alloc_policy: AllocPolicy,
    /// Coherence protocol variant.
    pub protocol: ProtocolMode,
    /// Enable the Stache policy (Reinhardt, Larus & Wood, cited in
    /// Section 5.3.4): shared blocks evicted from the cache are kept in
    /// local memory instead of returning to their home node, so re-misses
    /// refill at local-DRAM cost and dirty evictions send no write-back
    /// message.
    pub stache: bool,
    /// Instructions charged per software-reduction combine step.
    pub reduce_combine: Cycles,
    /// Instructions charged per lock/flag bookkeeping step.
    pub sync_overhead: Cycles,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig {
            sim: SimConfig::default(),
            arch: ArchParams::default(),
            shared_miss: 19,
            invalidate: 3,
            repl_shared_clean: 5,
            repl_shared_dirty: 13,
            dir_base: 10,
            dir_recv_block: 8,
            dir_send_msg: 5,
            dir_send_block: 8,
            ctrl_msg_bytes: 8,
            alloc_policy: AllocPolicy::RoundRobin,
            protocol: ProtocolMode::Invalidate,
            stache: false,
            reduce_combine: 12,
            sync_overhead: 10,
        }
    }
}

impl SmConfig {
    /// The default machine on an explicit hardware base and engine
    /// configuration — the entry point for architecture sweeps.
    pub fn with_arch(arch: ArchParams, sim: SimConfig) -> Self {
        SmConfig {
            sim,
            arch,
            ..SmConfig::default()
        }
    }

    /// Full cost of a private cache miss (miss handling plus DRAM).
    pub fn priv_miss_total(&self) -> Cycles {
        self.arch.priv_miss_total()
    }

    /// One-way latency between nodes `a` and `b` (delegates to the
    /// shared [`ArchParams::latency`] implementation, so the MP and SM
    /// machines can never drift on the one number the paper holds
    /// constant).
    pub fn latency(&self, a: usize, b: usize) -> Cycles {
        self.arch.latency(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table_3() {
        let c = SmConfig::default();
        assert_eq!(c.arch.msg_to_self, 10);
        assert_eq!(c.shared_miss, 19);
        assert_eq!(c.invalidate, 3);
        assert_eq!(c.arch.replacement, 1);
        assert_eq!(c.repl_shared_clean, 5);
        assert_eq!(c.repl_shared_dirty, 13);
        assert_eq!(c.dir_base, 10);
        assert_eq!(c.dir_recv_block, 8);
        assert_eq!(c.dir_send_msg, 5);
        assert_eq!(c.dir_send_block, 8);
        assert_eq!(c.ctrl_msg_bytes, 8);
        assert_eq!(c.arch.cache.block_bytes, 32);
    }

    #[test]
    fn latency_distinguishes_self_messages() {
        let c = SmConfig::default();
        assert_eq!(c.latency(3, 3), 10);
        assert_eq!(c.latency(3, 4), 100);
    }
}
