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
use wwt_sim::{Counter, Cpu, Cycles, Kind, Mark, Metric, ProcId, TraceWhat, WaitCell, WaitTarget};

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
    /// Read-only copies exist at the given nodes (never an empty set:
    /// dropping the last sharer makes the block [`DirState::Uncached`]).
    Shared(Sharers),
    /// One node holds the block exclusively (possibly dirty).
    Exclusive(usize),
}

/// A home node's full-map directory, directly indexed by block number.
///
/// Each block is `nodes + 1` bits packed into `stride = (nodes + 1) / 64`
/// (rounded up) `u64` words: bit `p` is node `p`'s presence bit and bit
/// `nodes` is the exclusive flag. `Uncached` is all zeros, `Shared(s)` is
/// the presence bits of `s`, and `Exclusive(o)` is presence bit `o` plus
/// the flag, so "does the directory list `p`" is one bit test whatever
/// the state. The paper's 32-node machine needs one word per block.
///
/// Shared offsets come from a bump allocator, so a node's shared blocks
/// are dense from offset 0 and a flat vector beats a hash map. Blocks
/// past the end read as [`DirState::Uncached`]; the vector grows on the
/// first write past its end.
pub(crate) struct Directory {
    block_shift: u32,
    nodes: usize,
    stride: usize,
    words: Vec<u64>,
}

impl Directory {
    pub(crate) fn new(block_bytes: u64, nodes: usize) -> Self {
        assert!(nodes <= 128, "Dir_nNB full map supports up to 128 nodes");
        Directory {
            block_shift: block_bytes.trailing_zeros(),
            nodes,
            stride: (nodes + 1).div_ceil(64),
            words: Vec::new(),
        }
    }

    /// First word of `block`'s entry.
    #[inline]
    fn base(&self, block: GAddr) -> usize {
        (block.offset() >> self.block_shift) as usize * self.stride
    }

    /// Word offset and mask of the exclusive flag within an entry.
    #[inline]
    fn excl_bit(&self) -> (usize, u64) {
        (self.nodes / 64, 1 << (self.nodes % 64))
    }

    #[inline]
    pub(crate) fn get(&self, block: GAddr) -> DirState {
        let base = self.base(block);
        let Some(entry) = self.words.get(base..base + self.stride) else {
            return DirState::Uncached;
        };
        let (w, flag) = self.excl_bit();
        let exclusive = entry[w] & flag != 0;
        let lo = entry[0];
        let hi = entry.get(1).copied().unwrap_or(0);
        let mut presence = (u128::from(hi) << 64) | u128::from(lo);
        if self.nodes < 128 {
            presence &= (1u128 << self.nodes) - 1;
        }
        match (exclusive, presence) {
            (true, _) => DirState::Exclusive(presence.trailing_zeros() as usize),
            (false, 0) => DirState::Uncached,
            (false, _) => DirState::Shared(Sharers(presence)),
        }
    }

    pub(crate) fn set(&mut self, block: GAddr, st: DirState) {
        let base = self.base(block);
        if base + self.stride > self.words.len() {
            self.words.resize(base + self.stride, 0);
        }
        let (presence, exclusive) = match st {
            DirState::Uncached => (0, false),
            DirState::Shared(s) => {
                debug_assert!(!s.is_empty(), "an empty sharer set is Uncached");
                (s.0, false)
            }
            DirState::Exclusive(o) => (1u128 << o, true),
        };
        debug_assert!(
            self.nodes == 128 || presence >> self.nodes == 0,
            "{st:?} names a node beyond {}",
            self.nodes
        );
        let (w, flag) = self.excl_bit();
        let entry = &mut self.words[base..base + self.stride];
        entry.fill(0);
        entry[0] = presence as u64;
        if let Some(word) = entry.get_mut(1) {
            *word = (presence >> 64) as u64;
        }
        if exclusive {
            entry[w] |= flag;
        }
    }

    /// Whether the directory lists `p` for `block`, as a sharer or as the
    /// exclusive owner: one word load.
    #[inline]
    pub(crate) fn lists(&self, block: GAddr, p: usize) -> bool {
        debug_assert!(p < self.nodes);
        self.words
            .get(self.base(block) + p / 64)
            .is_some_and(|w| (w >> (p % 64)) & 1 == 1)
    }

    /// Host-prefetches `block`'s entry ahead of a read or update of it.
    /// Changes no state; a no-op past the end, which it never grows.
    #[inline]
    pub(crate) fn prefetch(&self, block: GAddr) {
        if let Some(word) = self.words.get(self.base(block)) {
            wwt_sim::prefetch(word);
        }
    }

    /// Drops `p`'s copy of `block` (a replacement hint or a displaced
    /// victim): `p` leaves the sharer set, and an exclusive owner leaves
    /// the block uncached. A no-op when `p` is not listed.
    pub(crate) fn drop_copy(&mut self, block: GAddr, p: usize) {
        let base = self.base(block);
        let Some(word) = self.words.get_mut(base + p / 64) else {
            return;
        };
        let bit = 1u64 << (p % 64);
        if *word & bit == 0 {
            return;
        }
        *word &= !bit;
        // Only an exclusive entry sets the flag, and it lists exactly its
        // owner, so clearing the flag is right whichever state this was.
        let (w, flag) = self.excl_bit();
        self.words[base + w] &= !flag;
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
        self.dir_prefetch(block);
        let this = Rc::clone(self);
        let cell2 = cell.clone();
        self.sim()
            .call_at(arrive.max(self.sim().now()), move || {
                let resp = this.dir_service(ProcId::new(p), block, write);
                cell2.complete(this.sim(), resp);
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
    /// acknowledgements) and returns the time the response reaches `req`.
    fn dir_service(&self, req: ProcId, block: GAddr, write: bool) -> Cycles {
        let cfg = self.config();
        let p = req.index();
        let h = block.node();
        let now = self.sim().now();
        self.sim().count(ProcId::new(h), Counter::DirRequests, 1);

        let (state, busy) = self.dir_read(h, block);
        let ts = now.max(busy);

        // Helper to attribute traffic to the requester.
        let bytes = |this: &Self, data_msgs: u64, ctrl_msgs: u64| {
            this.sim().count(
                req,
                Counter::BytesData,
                data_msgs * cfg.arch.cache.block_bytes,
            );
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
                ts + occ + cfg.latency(h, p)
            }
            (false, DirState::Shared(mut s)) => {
                let occ = cfg.dir_base + cfg.dir_send_msg + cfg.dir_send_block;
                s.insert(p);
                self.dir_write(h, block, DirState::Shared(s), ts + occ);
                bytes(self, 1, 0);
                ts + occ + cfg.latency(h, p)
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
                ts + occ + cfg.latency(h, p)
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
                // recall (ctrl) + writeback (data) + response (data)
                bytes(self, 2, 1);
                ts2 + occ2 + cfg.latency(h, p)
            }
            (true, DirState::Uncached) => {
                let occ = cfg.dir_base + cfg.dir_send_msg + cfg.dir_send_block;
                self.dir_write(h, block, DirState::Exclusive(p), ts + occ);
                bytes(self, 1, 0);
                ts + occ + cfg.latency(h, p)
            }
            (true, DirState::Shared(s)) => {
                let upgrade = s.contains(p);
                let k = u64::from(s.count()) - u64::from(upgrade);
                if k == 0 {
                    // Sole sharer: grant ownership without data.
                    let occ = cfg.dir_base + cfg.dir_send_msg;
                    self.dir_write(h, block, DirState::Exclusive(p), ts + occ);
                    bytes(self, 0, 1);
                    ts + occ + cfg.latency(h, p)
                } else {
                    let occ = cfg.dir_base
                        + k * cfg.dir_send_msg
                        + if upgrade {
                            cfg.dir_send_msg
                        } else {
                            cfg.dir_send_block
                        };
                    let mut last_ack = 0;
                    self.cache_prefetch_sharers(s, p, block);
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
                    depart + cfg.latency(h, p)
                }
            }
        }
    }

    /// Directory service for a non-binding prefetch: identical to a read
    /// request, except nobody stalls. The response arrives as one event
    /// that retires the prefetch and then wakes the demand reads merged
    /// into `cell`, so a completed cell never stays pending.
    pub(crate) fn dir_service_prefetch(self: &Rc<Self>, p: usize, block: GAddr, cell: WaitCell) {
        let resp = self.dir_service(ProcId::new(p), block, false);
        let this = Rc::clone(self);
        self.sim()
            .call_at(resp.max(self.sim().now()), move || {
                this.clear_pending_prefetch(p, block);
                this.install_copy(p, block);
                cell.complete(this.sim(), this.sim().now());
            })
            .expect("response time is clamped to the present");
    }

    /// Reconciles `p`'s cache with `block`'s home directory when a copy
    /// arrives without a transaction of its own (a prefetch response or a
    /// push-broadcast update). If the directory still lists `p`, a clean
    /// copy is installed and the directory drops `p` from any displaced
    /// shared victim. If another node's write removed `p` meanwhile, the
    /// copy is stale: nothing is installed, and any line a merged demand
    /// read filled at miss time is invalidated. Either way every valid
    /// shared line stays listed, which the hit path relies on.
    pub(crate) fn install_copy(&self, p: usize, block: GAddr) {
        if !self.dir_lists(block, p) {
            self.cache_invalidate(p, block);
            return;
        }
        if let Some((victim_raw, _)) = self.cache_fill_clean(p, block) {
            let victim = GAddr::from_raw(victim_raw);
            if victim.segment() == wwt_mem::Segment::Shared {
                self.dir_drop_copy(victim.node(), victim, p);
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
                cpu.count(Counter::BytesData, cfg.arch.cache.block_bytes);
                cpu.count(Counter::BytesControl, cfg.ctrl_msg_bytes);
            }
            LineState::Clean => {
                cpu.count(Counter::BytesControl, cfg.ctrl_msg_bytes);
            }
        }
        let arrive = cpu.clock() + cfg.latency(p, h);
        self.dir_prefetch(victim);
        let this = Rc::clone(self);
        self.sim()
            .call_at(arrive.max(self.sim().now()), move || {
                this.dir_drop_copy(h, victim, p)
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

    /// The directory's meaning, as the `match` the hit path used before
    /// the bit encoding: does `st` list `p`?
    fn lists_by_match(st: DirState, p: usize) -> bool {
        match st {
            DirState::Shared(s) => s.contains(p),
            DirState::Exclusive(o) => o == p,
            DirState::Uncached => false,
        }
    }

    /// The replacement-hint update, as a `match` over [`DirState`].
    fn drop_by_match(st: DirState, p: usize) -> DirState {
        match st {
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
        }
    }

    /// Every directory shape on an `n`-node machine worth checking: the
    /// empty state, each owner at the word edges, and sharer sets holding
    /// the edge bits plus random ones.
    fn shapes(n: usize, rng: &mut rand::rngs::SmallRng) -> Vec<DirState> {
        use rand::Rng;
        let edges: Vec<usize> = [0, 1, 31, 62, 63, 64, 65, 126, 127]
            .into_iter()
            .filter(|&p| p < n)
            .chain([n - 1])
            .collect();
        let mask = if n == 128 {
            u128::MAX
        } else {
            (1u128 << n) - 1
        };
        let mut out = vec![DirState::Uncached];
        out.extend(edges.iter().map(|&o| DirState::Exclusive(o)));
        out.extend(edges.iter().map(|&p| DirState::Shared(Sharers::one(p))));
        out.push(DirState::Shared(Sharers(mask)));
        let all_edges = edges.iter().fold(Sharers::empty(), |mut s, &p| {
            s.insert(p);
            s
        });
        out.push(DirState::Shared(all_edges));
        for _ in 0..200 {
            let bits = ((u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>())) & mask;
            if bits != 0 {
                out.push(DirState::Shared(Sharers(bits)));
            }
        }
        out
    }

    #[test]
    fn directory_bits_encode_every_state_at_every_width() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(14);
        let block = |i: u64| GAddr::new(wwt_mem::Segment::Shared, 0, i * 32);
        for n in [1, 32, 63, 64, 127, 128] {
            let mut dir = Directory::new(32, n);
            assert_eq!(dir.get(block(5)), DirState::Uncached, "lazy growth");
            assert!(!dir.lists(block(5), n - 1));
            let shapes = shapes(n, &mut rng);
            for (i, &st) in shapes.iter().enumerate() {
                // Alternate between two neighbouring entries so a write
                // that spills into the next block's words shows up.
                let (b, other) = (block(2 * i as u64 + 1), block(2 * i as u64 + 2));
                let neighbour = shapes[(i * 7 + 3) % shapes.len()];
                dir.set(other, neighbour);
                dir.set(b, st);
                assert_eq!(dir.get(b), st, "n {n}");
                assert_eq!(dir.get(other), neighbour, "n {n}: {st:?} spilled");
                for p in 0..n {
                    assert_eq!(dir.lists(b, p), lists_by_match(st, p), "n {n} {st:?} p {p}");
                    let mut dropped = Directory::new(32, n);
                    dropped.set(b, st);
                    dropped.set(other, neighbour);
                    dropped.drop_copy(b, p);
                    assert_eq!(dropped.get(b), drop_by_match(st, p), "n {n} {st:?} p {p}");
                    assert_eq!(dropped.get(other), neighbour);
                }
            }
            // Past the end: Uncached, listed nowhere, and dropping a copy
            // or prefetching the entry allocates nothing.
            let end = block(10_000);
            assert_eq!(dir.get(end), DirState::Uncached);
            assert!(!dir.lists(end, 0));
            let len = dir.words.len();
            dir.drop_copy(end, 0);
            dir.prefetch(end);
            dir.prefetch(block(1 << 30));
            assert_eq!(dir.words.len(), len);
        }
    }

    #[test]
    fn paper_machine_directory_entries_are_one_word() {
        assert_eq!(Directory::new(32, 32).stride, 1);
        assert_eq!(Directory::new(32, 63).stride, 1);
        assert_eq!(Directory::new(32, 64).stride, 2);
        assert_eq!(Directory::new(32, 128).stride, 3);
    }

    #[test]
    fn dir_state_default_is_uncached() {
        assert_eq!(DirState::default(), DirState::Uncached);
    }
}
