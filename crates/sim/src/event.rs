//! Event scheduling: the calendar-queue scheduler and the legacy
//! binary-heap queue it is tested against.
//!
//! Events are ordered by (timestamp, sequence number); the sequence number
//! makes processing order deterministic for simultaneous events (FIFO).
//! Two schedulers implement that contract:
//!
//! * [`CalendarQueue`] — the engine's scheduler. A ring of per-cycle FIFO
//!   slots covering the near future plus an overflow heap for far-future
//!   events. Simulated events overwhelmingly land within a few network
//!   latencies of the present, so push and pop are O(1) instead of the
//!   heap's O(log n).
//! * [`EventQueue`] — the original `BinaryHeap` scheduler, kept as the
//!   reference implementation and the baseline for the scheduler benches
//!   (`benches/scheduler.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::callback::SmallCall;
use crate::time::{Cycles, ProcId};

/// A scheduled simulator action.
pub enum Action {
    /// Re-poll the task of the given processor.
    Resume(ProcId),
    /// Run an arbitrary machine-model callback (message delivery,
    /// directory processing, ...). Small captures are stored inline —
    /// see [`SmallCall`].
    Call(SmallCall),
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Resume(p) => write!(f, "Resume({p})"),
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
/// cursor live in per-cycle slots; anything further sits in the overflow
/// heap until the cursor gets close. That covers dozens of network
/// latencies, which holds every SM protocol event. MP senders, though,
/// run far ahead of global time between polls, so many packet
/// deliveries land beyond the ring too: about a quarter of all pushes in
/// the benchmark's bench-scale `mp` workload overflow, besides the long
/// fault timers (retransmit deadlines, jitter tails).
const RING: usize = 4096;
const RING_MASK: u64 = (RING as u64) - 1;
/// One occupancy bit per slot, one summary bit per 64-slot word.
const WORDS: usize = RING / 64;

/// One calendar slot: the FIFO of events scheduled for one exact cycle.
/// `head` indexes the next event to pop; the vector is cleared (not
/// shifted) once fully drained, so a slot's allocation is reused across
/// laps of the ring.
#[derive(Default)]
struct Slot {
    head: usize,
    items: Vec<(u64, Action)>,
}

impl Slot {
    fn is_drained(&self) -> bool {
        self.head >= self.items.len()
    }
}

/// A calendar-queue scheduler: O(1) push and pop with the exact
/// (time, seq) pop order of [`EventQueue`].
///
/// The near future — `RING` cycles from the cursor — is a ring of
/// per-cycle slots, each a FIFO (sequence numbers within one cycle are
/// insertion-ordered, so a plain vector is already sorted). A two-level
/// occupancy bitmap finds the next non-empty slot in a handful of word
/// scans. Far-future events wait in an overflow heap and migrate into the
/// ring as the cursor approaches; migrated events splice into their
/// slot's pending region by sequence number, preserving the global FIFO
/// tie-break.
pub struct CalendarQueue {
    slots: Vec<Slot>,
    /// Occupancy bit per slot.
    words: [u64; WORDS],
    /// Summary bit per word of `words`.
    summary: u64,
    /// Lower bound on every pending event's time; advanced by pops and by
    /// sparse-gap jumps. Never rewound: the ring's slot→time mapping is
    /// anchored to it.
    cursor: Cycles,
    /// Events in the ring (excludes overflow).
    ring_len: usize,
    /// Far-future events, earliest on top.
    overflow: BinaryHeap<Event>,
    next_seq: u64,
}

impl fmt::Debug for CalendarQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("cursor", &self.cursor)
            .field("ring_len", &self.ring_len)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue {
            slots: (0..RING).map(|_| Slot::default()).collect(),
            words: [0; WORDS],
            summary: 0,
            cursor: 0,
            ring_len: 0,
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
        self.ring_len + self.overflow.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `action` at absolute time `time`, which must not precede
    /// the last popped event (the engine rejects past events before they
    /// get here).
    pub fn push(&mut self, time: Cycles, action: Action) {
        debug_assert!(time >= self.cursor, "event at {time} behind the cursor");
        let seq = self.next_seq;
        self.next_seq += 1;
        if time - self.cursor >= RING as u64 {
            self.overflow.push(Event { time, seq, action });
            return;
        }
        self.ring_insert(time, seq, action);
    }

    fn ring_insert(&mut self, time: Cycles, seq: u64, action: Action) {
        let idx = (time & RING_MASK) as usize;
        let slot = &mut self.slots[idx];
        // Fast path: sequence numbers grow monotonically, so appends are
        // already sorted. Only overflow migration can arrive out of order.
        let pending = &slot.items[slot.head.min(slot.items.len())..];
        if pending.last().is_none_or(|&(s, _)| s < seq) {
            slot.items.push((seq, action));
        } else {
            let pos = slot.head + pending.partition_point(|&(s, _)| s < seq);
            slot.items.insert(pos, (seq, action));
        }
        self.words[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
        self.ring_len += 1;
    }

    /// Pulls every overflow event that now fits in the ring. When the
    /// ring is empty the cursor first jumps to the overflow minimum, so a
    /// sparse far future costs one heap pop, not a walk of empty slots.
    fn migrate_overflow(&mut self) {
        if self.ring_len == 0 {
            if let Some(top) = self.overflow.peek() {
                self.cursor = top.time;
            }
        }
        while self
            .overflow
            .peek()
            .is_some_and(|e| e.time - self.cursor < RING as u64)
        {
            let e = self.overflow.pop().expect("peeked");
            self.ring_insert(e.time, e.seq, e.action);
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

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.migrate_overflow();
        let idx = self.next_slot()?;
        let time = self.slot_time(idx);
        self.cursor = time;
        let slot = &mut self.slots[idx];
        let (seq, action) = std::mem::replace(
            &mut slot.items[slot.head],
            (0, Action::Resume(ProcId::new(0))),
        );
        slot.head += 1;
        if slot.is_drained() {
            slot.items.clear();
            slot.head = 0;
            self.words[idx / 64] &= !(1 << (idx % 64));
            if self.words[idx / 64] == 0 {
                self.summary &= !(1 << (idx / 64));
            }
        }
        self.ring_len -= 1;
        Some(Event { time, seq, action })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resume(p: usize) -> Action {
        Action::Resume(ProcId::new(p))
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
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.action {
                Action::Resume(p) => p.index(),
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

    #[test]
    fn calendar_matches_heap_order() {
        // Deterministic pseudo-random schedule, including same-cycle
        // collisions (dt 0), ring-range delays, and far-future overflow
        // events (dt > RING), each relative to the last popped time.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let delays: Vec<Cycles> = (0..500)
            .map(|_| {
                let r = step();
                match r % 10 {
                    0 => 0,
                    1..=6 => r % 300,
                    7 | 8 => r % 4000,
                    _ => 4096 + r % 20_000,
                }
            })
            .collect();
        let mut reference = EventQueue::new();
        let mut calendar = CalendarQueue::new();
        let mut delays = delays.iter();
        let mut now = 0;
        // Interleave: two pushes, one pop, like a running simulation.
        loop {
            for dt in delays.by_ref().take(2) {
                reference.push(now + dt, resume(0));
                calendar.push(now + dt, resume(0));
            }
            match (reference.pop(), calendar.pop()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!((a.time, a.seq), (b.time, b.seq), "pop order diverged");
                    now = a.time;
                }
                (a, b) => panic!(
                    "queues disagree on emptiness: reference={:?} calendar={:?}",
                    a.map(|e| e.time),
                    b.map(|e| e.time)
                ),
            }
            assert_eq!(reference.len(), calendar.len());
        }
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
        // seq 0 parks in the overflow (8000 is beyond the ring horizon
        // from cursor 0); seqs 1 and 2 land in the ring.
        q.push(8_000, resume(0));
        q.push(10, resume(1));
        q.push(4_000, resume(2));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
        // Cursor now 4000: 8000 is ring-reachable but seq 0 is still
        // parked (pushes never migrate). Append a later seq to the same
        // future cycle, then let the next pop migrate: the parked event
        // must splice in *before* the resident one.
        q.push(8_000, resume(3));
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert_eq!((a.time, a.seq), (8_000, 0));
        assert_eq!((b.time, b.seq), (8_000, 3));
    }
}
