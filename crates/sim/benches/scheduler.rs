//! Scheduler microbenchmarks: the legacy binary-heap [`EventQueue`]
//! against the engine's [`CalendarQueue`], driven by an EM3D-like event
//! stream.
//!
//! The event stream mirrors what the em3d experiments feed the
//! scheduler: the overwhelming majority of events land one network
//! latency (100 cycles) ahead of the present, a few are immediate
//! wakeups, and an occasional barrier re-arm jumps a couple of thousand
//! cycles out — exactly the locality the calendar queue exploits.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use wwt_sim::event::{Action, CalendarQueue, Event, EventQueue};
use wwt_sim::ProcId;

const NPROCS: usize = 32;
const EVENTS: u64 = 100_000;

/// Deterministic EM3D-like delay distribution: mostly the 100-cycle
/// network latency, some immediate re-polls, an occasional barrier-scale
/// jump.
fn next_delay(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    match *state % 16 {
        0 => 1,
        1 => 2_500,
        _ => 100,
    }
}

/// Pop-schedule churn on one scheduler (given as its empty queue and its
/// `push`/`pop` methods); returns an order-sensitive checksum of the pop
/// sequence.
fn churn<Q>(
    mut q: Q,
    push: impl Fn(&mut Q, u64, Action),
    pop: impl Fn(&mut Q) -> Option<Event>,
) -> u64 {
    for p in 0..NPROCS {
        push(&mut q, p as u64, Action::Resume(ProcId::new(p)));
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
            Action::Call(_) => unreachable!("bench schedules only resumes"),
        };
        push(&mut q, ev.time + next_delay(&mut rng), Action::Resume(p));
    }
    fold
}

fn churn_heap() -> u64 {
    churn(EventQueue::new(), EventQueue::push, EventQueue::pop)
}

fn churn_calendar() -> u64 {
    churn(
        CalendarQueue::new(),
        |q, time, action| {
            q.push(time, action);
        },
        CalendarQueue::pop,
    )
}

fn bench_schedulers(c: &mut Criterion) {
    // Both schedulers implement one ordering contract: identical pop
    // sequences (and therefore identical simulations) — the bench only
    // compares their speed.
    assert_eq!(
        churn_heap(),
        churn_calendar(),
        "calendar pop order diverged"
    );

    let mut g = c.benchmark_group("scheduler");
    g.sample_size(10);
    g.bench_function("binary-heap", |b| b.iter(|| black_box(churn_heap())));
    g.bench_function("calendar", |b| b.iter(|| black_box(churn_calendar())));
    g.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
