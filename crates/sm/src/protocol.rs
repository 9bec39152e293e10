//! The full-map write-invalidate directory protocol (`Dir_nNB`).
//!
//! Transactions are simulated message-by-message on the event queue with
//! the costs of Table 3: a miss sends a request to the block's home node,
//! whose directory (a server with *occupancy*, so contended requests
//! queue) possibly recalls or invalidates other caches before responding.
//! The requesting processor stalls for the whole transaction (the machine
//! is sequentially consistent).

use std::fmt;
use std::rc::Rc;

use wwt_mem::{GAddr, LineState};
use wwt_sim::{Counter, Cpu, Kind, Mark, Metric, ProcId, TraceWhat, WaitCell, WaitTarget};

use crate::machine::SmMachine;

/// A compact set of sharer processor ids (up to 128 nodes).
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash)]
pub struct Sharers(u128);

impl Sharers {
    /// The empty set.
    pub fn empty() -> Self {
        Sharers(0)
    }

    /// A singleton set.
    pub fn one(p: usize) -> Self {
        let mut s = Sharers(0);
        s.insert(p);
        s
    }

    /// Inserts a processor.
    pub fn insert(&mut self, p: usize) {
        assert!(p < 128, "Dir_nNB full map supports up to 128 nodes");
        self.0 |= 1 << p;
    }

    /// Removes a processor.
    pub fn remove(&mut self, p: usize) {
        self.0 &= !(1u128 << p);
    }

    /// Membership test.
    pub fn contains(&self, p: usize) -> bool {
        (self.0 >> p) & 1 == 1
    }

    /// Number of sharers.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let p = bits.trailing_zeros() as usize;
            bits &= bits - 1; // clear the lowest member
            Some(p)
        })
    }
}

impl fmt::Debug for Sharers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Directory state of one cache block at its home node.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum DirState {
    /// No cached copies exist.
    #[default]
    Uncached,
    /// Read-only copies exist at the given nodes.
    Shared(Sharers),
    /// One node holds the block exclusively (possibly dirty).
    Exclusive(usize),
}

/// A home node's directory: per-block [`DirState`], directly indexed by
/// block number.
///
/// Shared offsets come from a bump allocator, so a node's shared blocks
/// are dense from offset 0 — a flat vector beats a hash map on the
/// hottest path in the whole simulator (every shared cache *hit* probes
/// the directory to resolve the race with in-flight invalidations).
/// Unindexed blocks read as [`DirState::Uncached`]; the vector grows on
/// first write past its end.
pub(crate) struct Directory {
    block_shift: u32,
    states: Vec<DirState>,
}

impl Directory {
    pub(crate) fn new(block_bytes: u64) -> Self {
        Directory {
            block_shift: block_bytes.trailing_zeros(),
            states: Vec::new(),
        }
    }

    #[inline]
    fn index(&self, block: GAddr) -> usize {
        (block.offset() >> self.block_shift) as usize
    }

    #[inline]
    pub(crate) fn get(&self, block: GAddr) -> DirState {
        self.states
            .get(self.index(block))
            .copied()
            .unwrap_or_default()
    }

    pub(crate) fn set(&mut self, block: GAddr, st: DirState) {
        let idx = self.index(block);
        if idx >= self.states.len() {
            self.states.resize(idx + 1, DirState::Uncached);
        }
        self.states[idx] = st;
    }
}

impl SmMachine {
    /// Runs a coherence transaction for `block` on behalf of processor
    /// `cpu`, stalling it until the response arrives. `write` selects a
    /// read-shared or write-exclusive request. The stall is charged to
    /// `kind`.
    pub(crate) async fn transact(
        self: &Rc<Self>,
        cpu: &Cpu,
        block: GAddr,
        write: bool,
        kind: Kind,
    ) {
        cpu.resync().await;
        let p = cpu.id().index();
        let h = block.node();
        let cfg = self.config();
        let start = cpu.clock();
        if cpu.tracing() {
            cpu.trace(TraceWhat::Instant(Mark::MissStart { kind }));
        }
        // Processor-side miss handling (Table 3: 19 cycles).
        cpu.charge(kind, cfg.shared_miss);
        // Fault-plan network jitter: the SM machine has no packets to drop,
        // so perturbation degrades into extra shared-miss service latency.
        let jitter = self.sim().fault_miss_jitter();
        if jitter > 0 {
            cpu.charge(kind, jitter);
        }
        // Request message.
        cpu.count(Counter::BytesControl, cfg.ctrl_msg_bytes);
        let cell = self.cell_pool.take();
        let arrive = cpu.clock() + cfg.latency(p, h);
        let this = Rc::clone(self);
        let cell2 = cell.clone();
        self.sim()
            .call_at(arrive.max(self.sim().now()), move || {
                this.dir_service(ProcId::new(p), block, write, cell2)
            })
            .expect("arrival is clamped to the present");
        cell.wait_labeled(
            cpu,
            kind,
            "coherence reply",
            WaitTarget::Proc(ProcId::new(h)),
        )
        .await;
        self.cell_pool.put(cell);
        if cpu.tracing() {
            cpu.trace(TraceWhat::Instant(Mark::MissEnd { kind }));
            cpu.sim()
                .trace_sample(Metric::ShMissService, cpu.clock() - start);
        }
    }

    /// Directory service for one request, at the home node. Computes the
    /// full message path (occupancy, recalls, invalidations,
    /// acknowledgements) and completes `cell` at the response time.
    fn dir_service(self: &Rc<Self>, req: ProcId, block: GAddr, write: bool, cell: WaitCell) {
        let cfg = self.config();
        let p = req.index();
        let h = block.node();
        let now = self.sim().now();
        self.sim().count(ProcId::new(h), Counter::DirRequests, 1);

        let (state, busy) = self.dir_read(h, block);
        let ts = now.max(busy);

        // Helper to attribute traffic to the requester.
        let bytes = |this: &Self, data_msgs: u64, ctrl_msgs: u64| {
            this.sim()
                .count(req, Counter::BytesData, data_msgs * cfg.data_msg_bytes);
            this.sim().count(
                req,
                Counter::BytesControl,
                (data_msgs + ctrl_msgs) * cfg.ctrl_msg_bytes,
            );
        };

        match (write, state) {
            (false, DirState::Uncached) => {
                let occ = cfg.dir_base + cfg.dir_send_msg + cfg.dir_send_block;
                self.dir_write(h, block, DirState::Shared(Sharers::one(p)), ts + occ);
                bytes(self, 1, 0);
                cell.complete(self.sim(), ts + occ + cfg.latency(h, p));
            }
            (false, DirState::Shared(mut s)) => {
                let occ = cfg.dir_base + cfg.dir_send_msg + cfg.dir_send_block;
                s.insert(p);
                self.dir_write(h, block, DirState::Shared(s), ts + occ);
                bytes(self, 1, 0);
                cell.complete(self.sim(), ts + occ + cfg.latency(h, p));
            }
            (_, DirState::Exclusive(o)) if o == p => {
                // The requester re-misses on a block the directory still
                // thinks it owns (its writeback is in flight). Serve as if
                // the block were home.
                let occ = cfg.dir_base + cfg.dir_send_msg + cfg.dir_send_block;
                let st = if write {
                    DirState::Exclusive(p)
                } else {
                    DirState::Shared(Sharers::one(p))
                };
                self.dir_write(h, block, st, ts + occ);
                bytes(self, 1, 0);
                cell.complete(self.sim(), ts + occ + cfg.latency(h, p));
            }
            (_, DirState::Exclusive(o)) => {
                // 4-hop: recall from the owner, write back, then respond.
                // All state changes (cache and directory) apply now, so
                // state serialization follows directory-arrival order; the
                // message-path arithmetic below shapes only the response
                // latency and the directory's future occupancy.
                let occ1 = cfg.dir_base + cfg.dir_send_msg;
                let occ2 = cfg.dir_base + cfg.dir_recv_block + cfg.dir_send_block;
                let recall_at = ts + occ1 + cfg.latency(h, o);
                let wb_at = recall_at + cfg.invalidate + cfg.latency(o, h);
                let ts2 = wb_at.max(ts + occ1);
                if write {
                    self.cache_invalidate(o, block);
                    self.dir_write(h, block, DirState::Exclusive(p), ts2 + occ2);
                } else {
                    self.cache_downgrade(o, block);
                    let mut s = Sharers::one(p);
                    s.insert(o);
                    self.dir_write(h, block, DirState::Shared(s), ts2 + occ2);
                }
                cell.complete(self.sim(), ts2 + occ2 + cfg.latency(h, p));
                // recall (ctrl) + writeback (data) + response (data)
                bytes(self, 2, 1);
            }
            (true, DirState::Uncached) => {
                let occ = cfg.dir_base + cfg.dir_send_msg + cfg.dir_send_block;
                self.dir_write(h, block, DirState::Exclusive(p), ts + occ);
                bytes(self, 1, 0);
                cell.complete(self.sim(), ts + occ + cfg.latency(h, p));
            }
            (true, DirState::Shared(s)) => {
                let upgrade = s.contains(p);
                let k = u64::from(s.count()) - u64::from(upgrade);
                if k == 0 {
                    // Sole sharer: grant ownership without data.
                    let occ = cfg.dir_base + cfg.dir_send_msg;
                    self.dir_write(h, block, DirState::Exclusive(p), ts + occ);
                    bytes(self, 0, 1);
                    cell.complete(self.sim(), ts + occ + cfg.latency(h, p));
                } else {
                    let occ = cfg.dir_base
                        + k * cfg.dir_send_msg
                        + if upgrade {
                            cfg.dir_send_msg
                        } else {
                            cfg.dir_send_block
                        };
                    let mut last_ack = 0;
                    for (i, o) in s.iter().filter(|&o| o != p).enumerate() {
                        let inv_at = ts
                            + cfg.dir_base
                            + (i as u64 + 1) * cfg.dir_send_msg
                            + cfg.latency(h, o);
                        self.cache_invalidate(o, block);
                        last_ack = last_ack.max(inv_at + cfg.invalidate + cfg.latency(o, h));
                    }
                    self.dir_write(h, block, DirState::Exclusive(p), ts + occ);
                    // invalidations + acks (ctrl) + response
                    bytes(
                        self,
                        if upgrade { 0 } else { 1 },
                        2 * k + if upgrade { 1 } else { 0 },
                    );
                    let depart = (ts + occ).max(last_ack);
                    cell.complete(self.sim(), depart + cfg.latency(h, p));
                }
            }
        }
    }

    /// Directory service for a non-binding prefetch: identical to a read
    /// request, except nobody stalls — the line is installed in the
    /// requester's cache when the response arrives.
    pub(crate) fn dir_service_prefetch(self: &Rc<Self>, p: usize, block: GAddr, cell: WaitCell) {
        self.dir_service(ProcId::new(p), block, false, cell.clone());
        let resp = cell
            .completion_time()
            .expect("dir_service completes synchronously");
        let this = Rc::clone(self);
        self.sim()
            .call_at(resp.max(self.sim().now()), move || {
                this.install_prefetched(p, block)
            })
            .expect("response time is clamped to the present");
    }

    /// Installs a prefetched block on arrival; a displaced shared victim
    /// still notifies its home (no processor stall is charged — the
    /// replacement happens off the critical path).
    fn install_prefetched(self: &Rc<Self>, p: usize, block: GAddr) {
        self.clear_pending_prefetch(p, block);
        self.install_copy(p, block);
    }

    /// Installs a clean copy of `block` at `p`, fixing up the directory
    /// for any displaced shared victim (used by prefetch arrivals and
    /// push-broadcast updates).
    pub(crate) fn install_copy(self: &Rc<Self>, p: usize, block: GAddr) {
        let evicted = self.cache_fill_clean(p, block);
        if let Some((victim_raw, _)) = evicted {
            let victim = GAddr::from_raw(victim_raw);
            if victim.segment() == wwt_mem::Segment::Shared {
                let h = victim.node();
                let st = self.dir_state(h, victim);
                let new = match st {
                    DirState::Exclusive(o) if o == p => DirState::Uncached,
                    DirState::Shared(mut s) => {
                        s.remove(p);
                        if s.is_empty() {
                            DirState::Uncached
                        } else {
                            DirState::Shared(s)
                        }
                    }
                    other => other,
                };
                self.set_dir_state(h, victim, new);
            }
        }
    }

    /// Handles the replacement of a *shared* block evicted from processor
    /// `p`'s cache: a dirty victim is written back (data message), a clean
    /// victim sends a replacement hint so the full map stays exact.
    pub(crate) fn shared_eviction(self: &Rc<Self>, cpu: &Cpu, victim: GAddr, state: LineState) {
        let cfg = self.config();
        let p = cpu.id().index();
        let h = victim.node();
        match state {
            LineState::Dirty => {
                cpu.count(Counter::BytesData, cfg.data_msg_bytes);
                cpu.count(Counter::BytesControl, cfg.ctrl_msg_bytes);
            }
            LineState::Clean => {
                cpu.count(Counter::BytesControl, cfg.ctrl_msg_bytes);
            }
        }
        let arrive = cpu.clock() + cfg.latency(p, h);
        let this = Rc::clone(self);
        self.sim()
            .call_at(arrive.max(self.sim().now()), move || {
                let st = this.dir_state(h, victim);
                let new = match st {
                    DirState::Exclusive(o) if o == p => DirState::Uncached,
                    DirState::Shared(mut s) => {
                        s.remove(p);
                        if s.is_empty() {
                            DirState::Uncached
                        } else {
                            DirState::Shared(s)
                        }
                    }
                    other => other,
                };
                this.set_dir_state(h, victim, new);
            })
            .expect("arrival is clamped to the present");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharers_set_semantics() {
        let mut s = Sharers::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(5);
        s.insert(127);
        assert!(s.contains(5) && !s.contains(6));
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 127]);
        s.remove(5);
        assert_eq!(s.count(), 2);
        s.remove(5); // idempotent
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn sharers_iter_matches_the_naive_scan() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let naive = |s: &Sharers| (0..128).filter(|&p| s.contains(p)).collect::<Vec<_>>();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sets = vec![
            Sharers::empty(),
            Sharers::one(0),
            Sharers::one(127),
            Sharers(u128::MAX),
        ];
        for _ in 0..500 {
            // Mix dense and sparse sets, each also with both end bits set.
            let mut s =
                Sharers((u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>()));
            if rng.gen_bool(0.5) {
                s.0 &= u128::from(rng.gen::<u64>()) << rng.gen_range(0..64u32);
            }
            sets.push(s);
            s.insert(0);
            s.insert(127);
            sets.push(s);
        }
        for s in &sets {
            assert_eq!(s.iter().collect::<Vec<_>>(), naive(s), "{s:?}");
            assert_eq!(s.iter().count() as u32, s.count());
        }
    }

    #[test]
    #[should_panic(expected = "up to 128 nodes")]
    fn sharers_reject_large_ids() {
        Sharers::empty().insert(128);
    }

    #[test]
    fn dir_state_default_is_uncached() {
        assert_eq!(DirState::default(), DirState::Uncached);
    }
}
