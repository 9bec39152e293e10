//! Event scheduling: the calendar-queue scheduler and the legacy
//! binary-heap queue it is tested against.
//!
//! Events are ordered by (timestamp, sequence number); the sequence number
//! makes processing order deterministic for simultaneous events (FIFO).
//! Two schedulers implement that contract:
//!
//! * [`CalendarQueue`] — the engine's scheduler, in three tiers. A ring
//!   of per-cycle FIFO slots holds the next 4096 cycles; a second level
//!   of 64 buckets, one per aligned block of 4096 cycles, holds
//!   the quarter million cycles after that; an overflow heap holds
//!   anything further out. Simulated events overwhelmingly land within a
//!   few network latencies of the present, and message-passing senders
//!   that run ahead of global time land within the second level, so
//!   almost every push and pop is O(1) instead of the heap's O(log n).
//!   Every payload lives in one pool of 64-byte nodes; the slots,
//!   buckets and heap hold node indices, so moving an event between
//!   tiers relinks it and never copies its action. A push builds the
//!   action straight into its node ([`CalendarQueue::push_with`]), and
//!   the engine runs it from there ([`CalendarQueue::pop_in_place`]).
//! * [`EventQueue`] — the original `BinaryHeap` scheduler, kept as the
//!   reference implementation and the baseline for the scheduler benches
//!   (`benches/scheduler.rs`).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

use crate::callback::SmallCall;
use crate::time::Cycles;

/// A scheduled simulator action.
pub enum Action {
    /// Re-poll the task of the processor with this index
    /// ([`ProcId::index`](crate::ProcId::index)). The index is widened to
    /// a whole word so every copy of an `Action` splits on word
    /// boundaries; see the assertion below.
    Resume(u64),
    /// Run an arbitrary machine-model callback (message delivery,
    /// directory processing, ...). Small captures are stored inline —
    /// see [`SmallCall`].
    Call(SmallCall),
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Resume(p) => write!(f, "Resume(P{p})"),
            Action::Call(_) => f.write_str("Call(..)"),
        }
    }
}

/// One entry in the event queue.
#[derive(Debug)]
pub struct Event {
    /// When the action fires, in target cycles.
    pub time: Cycles,
    /// Tie-breaker for events at the same time (insertion order).
    pub seq: u64,
    /// What to do.
    pub action: Action,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic min-priority queue of [`Event`]s backed by a binary
/// heap. The reference scheduler: [`CalendarQueue`] must pop in exactly
/// this order, and the scheduler benches measure one against the other.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `action` at absolute time `time`.
    pub fn push(&mut self, time: Cycles, action: Action) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, action });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Ring capacity of the calendar: events within this many cycles of the
/// cursor live in per-cycle slots. That covers dozens of network
/// latencies, which holds every SM protocol event and most MP packet
/// deliveries. Also the width of one second-level block.
const RING: usize = 4096;
const RING_BITS: u32 = RING.trailing_zeros();
const RING_MASK: u64 = (RING as u64) - 1;
/// One occupancy bit per slot, one summary bit per 64-slot word.
const WORDS: usize = RING / 64;
/// Second-level buckets, one per aligned block of `RING` cycles
/// (`time >> RING_BITS`). Message-passing senders run up to about 2^17
/// cycles ahead of global time between polls; 64 blocks cover 2^18.
const FAR: usize = 64;
/// Entries a drained bucket keeps allocated. A burst can fill one bucket
/// with thousands of events; keeping every bucket at its peak, even at
/// 16 bytes an entry, raised the benchmark's `mp` peak RSS from 8.5 to
/// 10.8 MB.
const FAR_KEEP: usize = 64;

/// End of a node list, and an empty slot's `head` and `tail`.
const NIL: u32 = u32::MAX;

// A pool node is one sequence number and one action: one 64-byte line.
const _: () = assert!(std::mem::size_of::<(u64, Action)>() == 64);
// `Resume`'s payload fills one aligned word. A 2-byte `ProcId` there made
// LLVM split every 56-byte move of an `Action` at a 2-byte boundary, and
// the pop's unaligned 16-byte reloads stalled on store forwarding.
const _: () = assert!(std::mem::size_of::<u64>() == 8 && std::mem::align_of::<u64>() == 8);

/// Which tier of a [`CalendarQueue`] a push landed in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Within 4096 cycles of the cursor: a per-cycle slot.
    Ring,
    /// Within the next 64 blocks: a second-level bucket.
    Far,
    /// Beyond the second level: the overflow heap.
    Overflow,
}

/// One calendar slot: the FIFO of pool nodes scheduled for one exact
/// cycle, linked through [`CalendarQueue::next`] in sequence order. Both
/// ends are `NIL` when the slot is empty.
#[derive(Copy, Clone)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// A calendar-queue scheduler: O(1) push and pop with the exact
/// (time, seq) pop order of [`EventQueue`].
///
/// Every pending payload lives in one node pool: `nodes` holds a
/// `(seq, Action)` per node, and the parallel `next` links each node to
/// the next one in its ring slot or in the LIFO free list. A payload is
/// built in its node on push and, on the engine's path, read or run in
/// place on pop; the tiers below only ever move node indices.
///
/// The near future — `RING` cycles from the cursor — is a ring of
/// per-cycle slots, each a `head`/`tail` list of nodes in sequence order.
/// A push appends at the tail (sequence numbers grow monotonically); a
/// two-level occupancy bitmap finds the next non-empty slot in a handful
/// of word scans.
///
/// Beyond the ring, the second level keeps one bucket of `(time, node)`
/// pairs per aligned block of `RING` cycles, for the 64 blocks after the
/// cursor's; a push appends to its block's bucket, so each bucket is in
/// sequence order. Once no ring event precedes a bucket's block, the
/// cursor moves to the block's start and the bucket's nodes are linked
/// into the ring. Events beyond the second level wait in an overflow heap
/// of `(time, seq, node)` and migrate into the ring as the cursor
/// approaches. Both pours and migrations splice into their slot's list by
/// sequence number, preserving the global FIFO tie-break.
pub struct CalendarQueue {
    /// The node pool. Free nodes hold an inert payload — a `Resume`, or a
    /// `Call` whose closure was taken out — so a push overwrites one
    /// without dropping it, and dropping the queue drops every pending
    /// `Call` exactly once.
    nodes: Vec<(u64, Action)>,
    /// Per node: the next node in its slot or in the free list, or `NIL`.
    next: Vec<u32>,
    /// Head of the free list: the node the last pop released.
    free: u32,
    slots: Vec<Slot>,
    /// Occupancy bit per slot.
    words: [u64; WORDS],
    /// Summary bit per word of `words`.
    summary: u64,
    /// Lower bound on every pending event's time; advanced by pops, pours
    /// and sparse-gap jumps. Never rewound: the ring's slot→time mapping
    /// and the buckets' block→bucket mapping are anchored to it.
    cursor: Cycles,
    /// Events in the ring.
    ring_len: usize,
    /// Second-level buckets of `(time, node)`, indexed by block modulo
    /// `FAR`. Every stored block lies in the `FAR` blocks after the
    /// cursor's, so the mapping is one to one.
    far: Vec<Vec<(Cycles, u32)>>,
    /// Occupancy bit per bucket.
    far_bits: u64,
    /// Events in the second level.
    far_len: usize,
    /// Events beyond the second level as `(time, seq, node)`, earliest on
    /// top.
    overflow: BinaryHeap<Reverse<(Cycles, u64, u32)>>,
    next_seq: u64,
}

impl fmt::Debug for CalendarQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("cursor", &self.cursor)
            .field("ring_len", &self.ring_len)
            .field("far_len", &self.far_len)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue {
            nodes: Vec::new(),
            next: Vec::new(),
            free: NIL,
            slots: vec![EMPTY; RING],
            words: [0; WORDS],
            summary: 0,
            cursor: 0,
            ring_len: 0,
            far: (0..FAR).map(|_| Vec::new()).collect(),
            far_bits: 0,
            far_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl CalendarQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.far_len + self.overflow.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `action` at absolute time `time`; see
    /// [`CalendarQueue::push_with`].
    pub fn push(&mut self, time: Cycles, action: Action) -> Tier {
        self.push_with(time, || action)
    }

    /// Schedules the action `make` builds at absolute time `time`, which
    /// must not precede the last popped event (the engine rejects past
    /// events before they get here). `make` runs once, after a node is
    /// chosen, so the action is written straight into the node rather
    /// than built on the caller's stack and copied in. Returns the tier
    /// the event landed in.
    #[inline]
    pub fn push_with(&mut self, time: Cycles, make: impl FnOnce() -> Action) -> Tier {
        debug_assert!(time >= self.cursor, "event at {time} behind the cursor");
        let seq = self.next_seq;
        self.next_seq += 1;
        let n = self.alloc();
        debug_assert!(
            match &self.nodes[n as usize].1 {
                Action::Resume(_) => true,
                Action::Call(f) => f.is_inert(),
            },
            "a freed node still holds a live `Call`, which this push would leak"
        );
        // The node's payload is inert, so it is overwritten without its
        // drop glue (an indirect call for an emptied `Call`).
        std::mem::forget(std::mem::replace(
            &mut self.nodes[n as usize],
            (seq, make()),
        ));
        self.link(time, seq, n)
    }

    /// Takes the most recently freed node, or a fresh one holding a
    /// `Resume(0)`.
    fn alloc(&mut self) -> u32 {
        let n = self.free;
        if n != NIL {
            self.free = self.next[n as usize];
            self.next[n as usize] = NIL;
            return n;
        }
        let n = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&n| n != NIL)
            .expect("fewer than 2^32 - 1 pending events");
        self.nodes.push((0, Action::Resume(0)));
        self.next.push(NIL);
        n
    }

    /// Links the pushed node `n`, whose sequence number `seq` is the
    /// newest, into the tier its `time` falls in.
    fn link(&mut self, time: Cycles, seq: u64, n: u32) -> Tier {
        if time - self.cursor < RING as u64 {
            // The newest sequence number: always the slot's last.
            let idx = (time & RING_MASK) as usize;
            match self.slots[idx].tail {
                NIL => self.link_first(idx, n),
                t => self.next[t as usize] = n,
            }
            self.slots[idx].tail = n;
            self.ring_len += 1;
            return Tier::Ring;
        }
        let block = time >> RING_BITS;
        if block - (self.cursor >> RING_BITS) <= FAR as u64 {
            let b = block as usize % FAR;
            self.far[b].push((time, n));
            self.far_bits |= 1 << b;
            self.far_len += 1;
            return Tier::Far;
        }
        self.overflow.push(Reverse((time, seq, n)));
        Tier::Overflow
    }

    /// Makes node `n` the only node of the empty slot `idx` (the caller
    /// sets `tail`) and marks the slot occupied.
    fn link_first(&mut self, idx: usize, n: u32) {
        self.slots[idx].head = n;
        self.words[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
    }

    /// Links node `n`, scheduled at `time`, into its ring slot in sequence
    /// order. Pours and migrations arrive out of order relative to direct
    /// pushes, so this walks the slot's list when `n` is not the newest.
    fn ring_link(&mut self, time: Cycles, n: u32) {
        let idx = (time & RING_MASK) as usize;
        let seq = self.nodes[n as usize].0;
        let slot = self.slots[idx];
        if slot.tail == NIL {
            self.link_first(idx, n);
            self.slots[idx].tail = n;
        } else if self.nodes[slot.tail as usize].0 < seq {
            self.next[slot.tail as usize] = n;
            self.slots[idx].tail = n;
        } else {
            // The tail's seq is larger, so the walk stops before the end.
            let (mut prev, mut cur) = (NIL, slot.head);
            while self.nodes[cur as usize].0 < seq {
                prev = cur;
                cur = self.next[cur as usize];
            }
            self.next[n as usize] = cur;
            match prev {
                NIL => self.slots[idx].head = n,
                p => self.next[p as usize] = n,
            }
        }
        self.ring_len += 1;
    }

    /// The earliest block held in the second level, if any.
    fn first_far_block(&self) -> Option<u64> {
        if self.far_bits == 0 {
            return None;
        }
        let first = (self.cursor >> RING_BITS) + 1;
        let rot = self.far_bits.rotate_right((first % FAR as u64) as u32);
        Some(first + u64::from(rot.trailing_zeros()))
    }

    /// Moves the cursor to the start of `block` and links its bucket's
    /// nodes into the ring. The caller guarantees no pending event
    /// precedes the block, so every poured event lands within the ring's
    /// reach.
    fn pour(&mut self, block: u64) {
        self.cursor = block << RING_BITS;
        let b = block as usize % FAR;
        let mut bucket = std::mem::take(&mut self.far[b]);
        self.far_len -= bucket.len();
        self.far_bits &= !(1 << b);
        for (time, n) in bucket.drain(..) {
            self.ring_link(time, n);
        }
        bucket.shrink_to(FAR_KEEP);
        self.far[b] = bucket;
    }

    /// Pulls every overflow event that now fits in the ring. When the
    /// ring is empty and the overflow minimum precedes the second level,
    /// the cursor first jumps to it, so a sparse far future costs one
    /// heap pop, not a walk of empty slots.
    fn migrate_overflow(&mut self) {
        if self.ring_len == 0 {
            if let Some(&Reverse((time, _, _))) = self.overflow.peek() {
                let far_start = self.first_far_block().map(|b| b << RING_BITS);
                if far_start.is_none_or(|s| time < s) {
                    self.cursor = time;
                }
            }
        }
        while let Some(&Reverse((time, _, n))) = self.overflow.peek() {
            if time - self.cursor >= RING as u64 {
                break;
            }
            self.overflow.pop();
            self.ring_link(time, n);
        }
    }

    /// The slot index of the next non-empty slot at or after the cursor,
    /// in circular (= time) order. `None` when the ring is empty.
    fn next_slot(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        let start = (self.cursor & RING_MASK) as usize;
        let (sw, sb) = (start / 64, start % 64);
        // First word: only bits at or after the start position.
        let first = self.words[sw] & (!0u64 << sb);
        if first != 0 {
            return Some(sw * 64 + first.trailing_zeros() as usize);
        }
        // Remaining words in circular order via the summary bitmap.
        for step in 1..=WORDS {
            let w = (sw + step) % WORDS;
            if self.summary & (1 << w) != 0 {
                let bits = if w == sw {
                    // Wrapped all the way: the bits before the start.
                    self.words[w] & !(!0u64 << sb)
                } else {
                    self.words[w]
                };
                if bits != 0 {
                    return Some(w * 64 + bits.trailing_zeros() as usize);
                }
            }
        }
        None
    }

    /// The absolute time a ring slot currently represents: the next time
    /// at or after the cursor that maps onto it.
    fn slot_time(&self, idx: usize) -> Cycles {
        let base = self.cursor & !RING_MASK;
        let t = base + idx as u64;
        if t >= self.cursor {
            t
        } else {
            t + RING as u64
        }
    }

    /// Removes and returns the earliest event, leaving a `Resume(0)` in
    /// its freed node. The reference differentials use this; the engine
    /// runs events in place with [`CalendarQueue::pop_in_place`].
    pub fn pop(&mut self) -> Option<Event> {
        let (time, n) = self.unlink_first()?;
        let (seq, action) = std::mem::replace(&mut self.nodes[n as usize], (0, Action::Resume(0)));
        Some(Event { time, seq, action })
    }

    /// Removes the earliest event and returns its time, its sequence
    /// number and its action, still in its node. The node is already back
    /// on the free list, so the caller must leave the action inert before
    /// the next push reuses the node: read a `Resume` as it is, and take a
    /// `Call`'s closure out ([`SmallCall::invoke_in_place`], or the
    /// engine's take-then-run). A `Call` left live there would be leaked
    /// by that push, which debug builds catch with an assertion.
    #[inline]
    pub fn pop_in_place(&mut self) -> Option<(Cycles, u64, &mut Action)> {
        let (time, n) = self.unlink_first()?;
        let (seq, action) = &mut self.nodes[n as usize];
        Some((time, *seq, action))
    }

    /// Number of nodes in the pool, free or holding a pending event.
    #[cfg(test)]
    pub(crate) fn pool_len(&self) -> usize {
        self.nodes.len()
    }

    /// Unlinks the earliest event's node, puts it on the free list and
    /// returns its time and index.
    #[inline]
    fn unlink_first(&mut self) -> Option<(Cycles, u32)> {
        self.migrate_overflow();
        let mut next = self.next_slot();
        if let Some(block) = self.first_far_block() {
            // Overflow events left in the heap lie beyond the ring's reach
            // (or, with the ring empty, at or after this block), so only
            // the ring can hold an event that precedes the block.
            if next.is_none_or(|idx| self.slot_time(idx) >= block << RING_BITS) {
                self.pour(block);
                self.migrate_overflow();
                next = self.next_slot();
            }
        }
        let idx = next?;
        let time = self.slot_time(idx);
        self.cursor = time;
        let n = self.slots[idx].head;
        let after = std::mem::replace(&mut self.next[n as usize], self.free);
        self.free = n;
        self.slots[idx].head = after;
        if after == NIL {
            self.slots[idx].tail = NIL;
            self.words[idx / 64] &= !(1 << (idx % 64));
            if self.words[idx / 64] == 0 {
                self.summary &= !(1 << (idx / 64));
            }
        }
        self.ring_len -= 1;
        Some((time, n))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use super::*;

    fn resume(p: u64) -> Action {
        Action::Resume(p)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, resume(0));
        q.push(10, resume(1));
        q.push(20, resume(2));
        let order: Vec<Cycles> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(100, resume(i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.action {
                Action::Resume(p) => p,
                Action::Call(_) => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, resume(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    /// A deterministic LCG for the differential tests.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// The second level's reach in cycles: 64 blocks of `RING`.
    const FAR_REACH: u64 = (FAR * RING) as u64;

    /// A calendar payload that names its own key: invoked, it writes
    /// `(time, seq)` to `log`.
    fn keyed(log: &Rc<Cell<(Cycles, u64)>>, time: Cycles, seq: u64) -> Action {
        let log = Rc::clone(log);
        Action::Call(SmallCall::new(move || log.set((time, seq))))
    }

    /// Runs `EventQueue` and `CalendarQueue` through the same schedule and
    /// asserts they pop in the same order, each calendar event carrying
    /// the payload pushed with its key. Each step pushes `pushes(rng)`
    /// events at `now + delay(rng, now)`, where `now` is the last popped
    /// time, then pops one; the queues are drained at the end. Returns how
    /// many pushes landed in each tier (ring, second level, heap).
    fn differential(
        steps: usize,
        seed: u64,
        mut pushes: impl FnMut(&mut Lcg) -> usize,
        mut delay: impl FnMut(&mut Lcg, Cycles) -> Cycles,
    ) -> [usize; 3] {
        let mut rng = Lcg(seed);
        let mut reference = EventQueue::new();
        let mut calendar = CalendarQueue::new();
        let log = Rc::new(Cell::new((0, 0)));
        let mut tiers = [0; 3];
        let mut seq = 0;
        let mut now = 0;
        for step in 0.. {
            if step < steps {
                for _ in 0..pushes(&mut rng) {
                    let at = now + delay(&mut rng, now);
                    reference.push(at, resume(0));
                    tiers[calendar.push(at, keyed(&log, at, seq)) as usize] += 1;
                    seq += 1;
                }
            }
            match (reference.pop(), calendar.pop()) {
                (None, None) if step >= steps => break,
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(
                        (a.time, a.seq),
                        (b.time, b.seq),
                        "pop order diverged at step {step}"
                    );
                    now = a.time;
                    let Action::Call(f) = b.action else {
                        panic!("calendar popped a placeholder at step {step}");
                    };
                    f.invoke();
                    assert_eq!(
                        log.get(),
                        (b.time, b.seq),
                        "payload paired with the wrong key at step {step}"
                    );
                }
                (a, b) => panic!(
                    "queues disagree on emptiness: reference={:?} calendar={:?}",
                    a.map(|e| e.time),
                    b.map(|e| e.time)
                ),
            }
            assert_eq!(reference.len(), calendar.len());
        }
        tiers
    }

    #[test]
    fn calendar_matches_heap_order() {
        // Same-cycle collisions (dt 0), ring-range delays, second-level
        // delays and far-future heap events, each relative to the last
        // popped time; two pushes per pop, like a running simulation.
        let tiers = differential(
            2_000,
            0x9e3779b97f4a7c15,
            |_| 2,
            |rng, _| {
                let r = rng.next();
                match r % 10 {
                    0 => 0,
                    1..=4 => r % 300,
                    5 | 6 => r % RING as u64,
                    7 | 8 => RING as u64 + r % FAR_REACH,
                    _ => FAR_REACH + r % 2_000_000,
                }
            },
        );
        assert!(
            tiers.iter().all(|&n| n > 100),
            "every tier exercised: {tiers:?}"
        );
    }

    /// The long differential run: 5M interleaved pushes and pops across
    /// all three tiers, with same-cycle collisions, block-edge times and a
    /// queue depth that wanders. Run with `cargo test --release -p wwt-sim
    /// -- --ignored`.
    #[test]
    #[ignore = "long; run in release with --ignored"]
    fn calendar_matches_heap_order_long() {
        // Recently scheduled absolute times, re-used for exact collisions.
        let mut recent: [Cycles; 16] = [0; 16];
        let tiers = differential(
            2_500_000,
            0x2545f4914f6cdd1d,
            |rng| (rng.next() % 3) as usize,
            |rng, now| {
                let r = rng.next();
                let dt = match r % 20 {
                    0..=2 => 0,
                    3 | 4 => {
                        let t = recent[(r / 20) as usize % recent.len()];
                        t.saturating_sub(now)
                    }
                    5..=10 => r % 300,
                    11 | 12 => r % RING as u64,
                    // The first cycle of a block a few blocks out.
                    13 => (((now >> RING_BITS) + 1 + r % FAR as u64) << RING_BITS) - now,
                    14..=17 => RING as u64 + r % FAR_REACH,
                    _ => FAR_REACH + r % 4_000_000,
                };
                recent[(r >> 7) as usize % recent.len()] = now + dt;
                dt
            },
        );
        assert!(
            tiers.iter().all(|&n| n > 10_000),
            "every tier exercised: {tiers:?}"
        );
    }

    /// How often each closure of the ownership test ran and was dropped.
    #[derive(Default)]
    struct Ledger {
        ran: RefCell<Vec<u32>>,
        dropped: RefCell<Vec<u32>>,
    }

    /// Captured by one closure; records its drop, run or not.
    struct Token {
        id: usize,
        ledger: Rc<Ledger>,
    }

    impl Drop for Token {
        fn drop(&mut self) {
            self.ledger.dropped.borrow_mut()[self.id] += 1;
        }
    }

    #[test]
    fn every_call_runs_or_drops_once_and_the_pool_reuses_nodes() {
        let ledger = Rc::new(Ledger::default());
        let mut q = CalendarQueue::new();
        let mut rng = Lcg(0x5851f42d4c957f2d);
        let (mut now, mut peak, mut invoked) = (0, 0, 0);
        let mut tiers = [0; 3];
        for step in 0..5_250 {
            // Alternate filling and draining phases, so later pushes must
            // reuse nodes that earlier pops freed. The run ends filling.
            let (pushes, pops) = if step / 500 % 2 == 0 { (2, 1) } else { (1, 2) };
            for _ in 0..pushes {
                let id = ledger.ran.borrow().len();
                ledger.ran.borrow_mut().push(0);
                ledger.dropped.borrow_mut().push(0);
                let token = Token {
                    id,
                    ledger: Rc::clone(&ledger),
                };
                let r = rng.next();
                let delay = match r % 3 {
                    0 => r % RING as u64,
                    1 => RING as u64 + r % FAR_REACH,
                    _ => FAR_REACH + r % 1_000_000,
                };
                let call = SmallCall::new(move || token.ledger.ran.borrow_mut()[token.id] += 1);
                tiers[q.push(now + delay, Action::Call(call)) as usize] += 1;
                peak = peak.max(q.len());
            }
            for k in 0..pops {
                // Invoke every other popped call and drop the rest unrun,
                // popping by value or in place by turns.
                if (step + k) % 2 == 0 {
                    let Some(e) = q.pop() else { break };
                    now = e.time;
                    if let Action::Call(f) = e.action {
                        if e.seq % 2 == 0 {
                            f.invoke();
                            invoked += 1;
                        }
                    }
                } else {
                    let Some((time, seq, action)) = q.pop_in_place() else {
                        break;
                    };
                    now = time;
                    match action {
                        // Leaves an inert `Call` in the free node.
                        Action::Call(f) if seq % 2 == 0 => {
                            f.invoke_in_place();
                            invoked += 1;
                        }
                        a => drop(std::mem::replace(a, Action::Resume(0))),
                    }
                }
            }
            assert_eq!(q.nodes.len(), peak, "the pool outgrew the peak depth");
        }
        let pushed = ledger.ran.borrow().len();
        assert!(tiers.iter().all(|&n| n > 500), "every tier used: {tiers:?}");
        assert!(pushed > 2 * peak, "{pushed} pushes fit in {peak} nodes");
        assert!(!q.is_empty(), "the queue is dropped with events pending");
        drop(q);
        assert!(ledger.dropped.borrow().iter().all(|&d| d == 1));
        assert!(ledger.ran.borrow().iter().all(|&r| r <= 1));
        assert_eq!(ledger.ran.borrow().iter().sum::<u32>(), invoked);
        assert_eq!(Rc::strong_count(&ledger), 1, "every capture released");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "still holds a live `Call`")]
    fn a_push_over_a_live_call_left_in_place_panics() {
        let mut q = CalendarQueue::new();
        q.push(1, Action::Call(SmallCall::new(|| {})));
        // Read in place without taking the closure out.
        assert!(matches!(q.pop_in_place(), Some((1, 0, Action::Call(_)))));
        q.push(2, Action::Resume(0));
    }

    #[test]
    fn calendar_handles_same_cycle_cascades() {
        // Events pushed at the exact cycle being drained must pop FIFO
        // within that cycle, like the heap.
        let mut q = CalendarQueue::new();
        q.push(100, resume(0));
        q.push(100, resume(1));
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.seq), (100, 0));
        // A cascade: while at t=100, schedule more work for t=100.
        q.push(100, resume(2));
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.seq), (100, 1));
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.seq), (100, 2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_jumps_sparse_gaps_through_overflow() {
        let mut q = CalendarQueue::new();
        q.push(7, resume(0));
        q.push(1_000_000_000, resume(1));
        assert_eq!(q.pop().unwrap().time, 7);
        assert_eq!(q.len(), 1);
        // The ring is empty: the pop jumps straight to the overflow
        // minimum, and later events near it land in the ring.
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.seq), (1_000_000_000, 1));
        q.push(1_000_000_010, resume(2));
        assert_eq!(q.pop().unwrap().time, 1_000_000_010);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_migration_preserves_seq_order_at_equal_times() {
        let mut q = CalendarQueue::new();
        // From cursor 0 every time past 2^18 is beyond the second level:
        // seqs 0, 2 and 3 park in the overflow heap.
        assert_eq!(q.push(400_000, resume(0)), Tier::Overflow);
        assert_eq!(q.push(10, resume(1)), Tier::Ring);
        assert_eq!(q.push(392_000, resume(2)), Tier::Overflow);
        assert_eq!(q.push(396_000, resume(3)), Tier::Overflow);
        assert_eq!(q.pop().unwrap().seq, 1);
        // The ring is empty: the cursor jumps to 392000 and migrates what
        // fits (seqs 2 and 3), but 400000 is still out of reach.
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 3);
        // Cursor 396000: 400000 is ring-reachable but seq 0 is still
        // parked (pushes never migrate). Append a later seq to the same
        // cycle, then let the next pop migrate: the parked event must
        // splice in *before* the resident one.
        assert_eq!(q.push(400_000, resume(4)), Tier::Ring);
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert_eq!((a.time, a.seq), (400_000, 0));
        assert_eq!((b.time, b.seq), (400_000, 4));
    }

    #[test]
    fn parked_event_pops_before_a_later_ring_push_to_its_cycle() {
        let mut q = CalendarQueue::new();
        // From cursor 0, 4096 (the first cycle of block 1) is beyond the
        // ring: seq 0 parks in that block's bucket.
        assert_eq!(q.push(4_096, resume(0)), Tier::Far);
        assert_eq!(q.push(1_000, resume(1)), Tier::Ring);
        assert_eq!(q.pop().unwrap().seq, 1);
        // Cursor 1000: the same cycle is now within the ring, so seq 2
        // goes straight into the slot while seq 0 is still parked.
        assert_eq!(q.push(4_096, resume(2)), Tier::Ring);
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert_eq!((a.time, a.seq), (4_096, 0));
        assert_eq!((b.time, b.seq), (4_096, 2));
        assert!(q.is_empty());
    }

    #[test]
    fn pour_splices_into_slots_with_pending_events() {
        let mut q = CalendarQueue::new();
        // Block 1 (cycles 4096..8192) collects seqs 0, 2 and 3.
        assert_eq!(q.push(6_000, resume(0)), Tier::Far);
        assert_eq!(q.push(10, resume(1)), Tier::Ring);
        assert_eq!(q.push(6_000, resume(2)), Tier::Far);
        assert_eq!(q.push(7_000, resume(3)), Tier::Far);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.push(2_000, resume(4)), Tier::Ring);
        assert_eq!(q.pop().unwrap().seq, 4);
        // Cursor 2000: two direct pushes fill slot 6000 before the pour.
        assert_eq!(q.push(6_000, resume(5)), Tier::Ring);
        assert_eq!(q.push(6_000, resume(6)), Tier::Ring);
        let order: Vec<(Cycles, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![(6_000, 0), (6_000, 2), (6_000, 5), (6_000, 6), (7_000, 3)]
        );
    }

    #[test]
    fn sparse_gap_jumps_over_empty_buckets_to_the_heap_minimum() {
        let mut q = CalendarQueue::new();
        // Block 73 is past the second level from cursor 0: the heap.
        assert_eq!(q.push(300_000, resume(0)), Tier::Overflow);
        assert_eq!(q.push(50_000, resume(1)), Tier::Far);
        assert_eq!(q.pop().unwrap().time, 50_000);
        // Cursor 50000 (block 12): block 75 is within the second level.
        assert_eq!(q.push(310_000, resume(2)), Tier::Far);
        // The ring is empty and the heap minimum precedes the only
        // bucket: the cursor jumps straight to it across the empty
        // buckets in between.
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.seq), (300_000, 0));
        let e = q.pop().unwrap();
        assert_eq!((e.time, e.seq), (310_000, 2));
        assert!(q.pop().is_none());
    }
}
