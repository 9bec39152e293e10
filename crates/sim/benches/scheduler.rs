//! Scheduler microbenchmarks: the legacy binary-heap [`EventQueue`]
//! against the engine's [`CalendarQueue`], driven by two event streams.
//!
//! * EM3D-like: the overwhelming majority of events land one network
//!   latency (100 cycles) ahead of the present, a few are immediate
//!   wakeups, and an occasional barrier re-arm jumps a couple of thousand
//!   cycles out — all within the calendar's ring, all `Resume`s.
//! * MP-like: message-passing senders run ahead of global time between
//!   polls, so most packet deliveries land 5k–130k cycles out, in the
//!   calendar's second level, and carry a `Call` payload; the rest are
//!   one-latency deliveries and re-polls.
//!
//! The calendar runs the engine's path: each push builds its action in
//! its pool node ([`CalendarQueue::push_with`]), and each pop frees the
//! node and runs the action from there ([`CalendarQueue::pop_in_place`]).
//! The heap moves every event in and out by value.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion};

use wwt_sim::event::{Action, CalendarQueue, EventQueue};
use wwt_sim::Cycles;
use wwt_sim::SmallCall;

const NPROCS: usize = 32;
const EVENTS: u64 = 100_000;

/// One event stream: how many event chains run at once, and each
/// chain's next delay and whether that event is a `Call`.
struct Stream {
    chains: usize,
    next: fn(&mut u64) -> (u64, bool),
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// EM3D-like: mostly the 100-cycle network latency, some immediate
/// re-polls, an occasional barrier-scale jump; one chain per processor.
const EM3D: Stream = Stream {
    chains: NPROCS,
    next: |state| {
        let delay = match xorshift(state) % 16 {
            0 => 1,
            1 => 2_500,
            _ => 100,
        };
        (delay, false)
    },
};

/// MP-like: sixteen packets in flight per processor; five in eight
/// deliveries are run-ahead sends 5k–130k cycles out, two are one network
/// latency out, and one is a re-poll.
const MP: Stream = Stream {
    chains: NPROCS * 16,
    next: |state| {
        let r = xorshift(state);
        match r % 8 {
            0 => (1, false),
            1 | 2 => (100, true),
            _ => (5_000 + (r >> 3) % 125_000, true),
        }
    },
};

/// What the churn needs of a scheduler.
trait Scheduler: Default {
    /// Schedules the action `make` builds at `time`.
    fn schedule(&mut self, time: Cycles, make: impl FnOnce() -> Action);
    /// Runs the earliest event and returns its time, its sequence number
    /// and its processor (a `Call` names its processor through `last`).
    fn run_next(&mut self, last: &Cell<u64>) -> Option<(Cycles, u64, u64)>;
}

/// The reference: every event moves in and out by value.
impl Scheduler for EventQueue {
    fn schedule(&mut self, time: Cycles, make: impl FnOnce() -> Action) {
        self.push(time, make());
    }

    fn run_next(&mut self, last: &Cell<u64>) -> Option<(Cycles, u64, u64)> {
        let ev = self.pop()?;
        let p = match ev.action {
            Action::Resume(p) => p,
            Action::Call(f) => {
                f.invoke();
                last.get()
            }
        };
        Some((ev.time, ev.seq, p))
    }
}

/// The engine's path: build in the node, run from the freed node.
impl Scheduler for CalendarQueue {
    fn schedule(&mut self, time: Cycles, make: impl FnOnce() -> Action) {
        self.push_with(time, make);
    }

    fn run_next(&mut self, last: &Cell<u64>) -> Option<(Cycles, u64, u64)> {
        let (time, seq, action) = self.pop_in_place()?;
        let p = match action {
            Action::Resume(p) => *p,
            Action::Call(f) => {
                f.invoke_in_place();
                last.get()
            }
        };
        Some((time, seq, p))
    }
}

/// Pop-schedule churn on one scheduler: each popped event runs and
/// schedules its chain's next event. Returns an order-sensitive checksum
/// of the pop sequence.
fn churn<Q: Scheduler>(stream: &Stream) -> u64 {
    let mut q = Q::default();
    let last = Rc::new(Cell::new(0));
    for c in 0..stream.chains {
        q.schedule(c as u64, || Action::Resume((c % NPROCS) as u64));
    }
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut fold = 0u64;
    for _ in 0..EVENTS {
        let (time, seq, p) = q.run_next(&last).expect("queue never drains");
        fold = fold.rotate_left(7).wrapping_add(time).wrapping_add(seq);
        let (delay, call) = (stream.next)(&mut rng);
        if call {
            let last = Rc::clone(&last);
            q.schedule(time + delay, || {
                Action::Call(SmallCall::new(move || last.set(p)))
            });
        } else {
            q.schedule(time + delay, || Action::Resume(p));
        }
    }
    fold
}

fn bench_schedulers(c: &mut Criterion) {
    for (name, stream) in [("em3d", &EM3D), ("mp", &MP)] {
        // Both schedulers implement one ordering contract: identical pop
        // sequences (and therefore identical simulations) — the bench only
        // compares their speed.
        assert_eq!(
            churn::<EventQueue>(stream),
            churn::<CalendarQueue>(stream),
            "calendar pop order diverged on the {name} stream"
        );

        let mut g = c.benchmark_group(&format!("scheduler/{name}"));
        g.sample_size(10);
        g.bench_function("binary-heap", |b| {
            b.iter(|| black_box(churn::<EventQueue>(stream)))
        });
        g.bench_function("calendar", |b| {
            b.iter(|| black_box(churn::<CalendarQueue>(stream)))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
