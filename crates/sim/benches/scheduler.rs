//! Scheduler microbenchmarks: the legacy binary-heap [`EventQueue`]
//! against the engine's [`CalendarQueue`], driven by two event streams.
//!
//! * EM3D-like: the overwhelming majority of events land one network
//!   latency (100 cycles) ahead of the present, a few are immediate
//!   wakeups, and an occasional barrier re-arm jumps a couple of thousand
//!   cycles out — all within the calendar's ring, all `Resume`s.
//! * MP-like: message-passing senders run ahead of global time between
//!   polls, so most packet deliveries land 5k–130k cycles out, in the
//!   calendar's second level, and carry a `Call` payload that must move
//!   through the queue; the rest are one-latency deliveries and re-polls.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion};

use wwt_sim::event::{Action, CalendarQueue, Event, EventQueue};
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

/// Pop-schedule churn on one scheduler (given as its empty queue and its
/// `push`/`pop` methods): each popped event runs (a `Call` names its
/// processor through `last`) and schedules its chain's next event.
/// Returns an order-sensitive checksum of the pop sequence.
fn churn<Q>(
    stream: &Stream,
    mut q: Q,
    push: impl Fn(&mut Q, u64, Action),
    pop: impl Fn(&mut Q) -> Option<Event>,
) -> u64 {
    let last = Rc::new(Cell::new(0));
    for c in 0..stream.chains {
        push(&mut q, c as u64, Action::Resume((c % NPROCS) as u64));
    }
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut fold = 0u64;
    for _ in 0..EVENTS {
        let ev = pop(&mut q).expect("queue never drains");
        fold = fold
            .rotate_left(7)
            .wrapping_add(ev.time)
            .wrapping_add(ev.seq);
        let p = match ev.action {
            Action::Resume(p) => p,
            Action::Call(f) => {
                f.invoke();
                last.get()
            }
        };
        let (delay, call) = (stream.next)(&mut rng);
        let action = if call {
            let last = Rc::clone(&last);
            Action::Call(SmallCall::new(move || last.set(p)))
        } else {
            Action::Resume(p)
        };
        push(&mut q, ev.time + delay, action);
    }
    fold
}

fn churn_heap(stream: &Stream) -> u64 {
    churn(stream, EventQueue::new(), EventQueue::push, EventQueue::pop)
}

fn churn_calendar(stream: &Stream) -> u64 {
    churn(
        stream,
        CalendarQueue::new(),
        |q, time, action| {
            q.push(time, action);
        },
        CalendarQueue::pop,
    )
}

fn bench_schedulers(c: &mut Criterion) {
    for (name, stream) in [("em3d", &EM3D), ("mp", &MP)] {
        // Both schedulers implement one ordering contract: identical pop
        // sequences (and therefore identical simulations) — the bench only
        // compares their speed.
        assert_eq!(
            churn_heap(stream),
            churn_calendar(stream),
            "calendar pop order diverged on the {name} stream"
        );

        let mut g = c.benchmark_group(&format!("scheduler/{name}"));
        g.sample_size(10);
        g.bench_function("binary-heap", |b| b.iter(|| black_box(churn_heap(stream))));
        g.bench_function("calendar", |b| b.iter(|| black_box(churn_calendar(stream))));
        g.finish();
    }
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
