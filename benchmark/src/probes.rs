//! Micro-benchmarks: each calls one layer's public API in a fixed loop, so
//! a change to that layer shows up in its host cost per operation without
//! the rest of a workload around it. Each probe takes about half a second
//! over 30 samples on the reference host; the report gives the median.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use wwt_core::mem::{path::touch, AccessKind, Cache, CacheGeometry, Tlb};
use wwt_core::mp::{tag, MpConfig, MpMachine, TreeShape};
use wwt_core::sim::{Engine, Kind, ProcId, SimConfig};
use wwt_core::sm::{SmConfig, SmMachine};

use crate::stats::median;

/// Runs one micro-benchmark once and returns how many operations it did.
type Probe = fn() -> u64;

const PROBES: [(&str, Probe); 6] = [
    ("probe.sim.ns_per_event", sim_events),
    ("probe.mem.ns_per_access.fit", mem_fit),
    ("probe.mem.ns_per_access.thrash", mem_thrash),
    ("probe.sm.ns_per_transaction", sm_bounce),
    ("probe.mp.ns_per_am", mp_ping_pong),
    ("probe.mp.ns_per_allreduce", mp_allreduce),
];

/// Runs every probe `samples` times; returns each one's median host
/// nanoseconds per operation.
pub fn run(samples: usize) -> Vec<(&'static str, f64)> {
    PROBES
        .iter()
        .map(|&(name, probe)| {
            let ns: Vec<f64> = (0..samples)
                .map(|_| {
                    let t = Instant::now();
                    let ops = probe();
                    t.elapsed().as_nanos() as f64 / ops as f64
                })
                .collect();
            (name, median(&ns).expect("at least one sample"))
        })
        .collect()
}

/// Engine only: 32 processors that compute and resynchronise, one
/// scheduled event per step.
fn sim_events() -> u64 {
    let mut e = Engine::new(32, SimConfig::default());
    for p in e.proc_ids() {
        let cpu = e.cpu(p);
        e.spawn(p, async move {
            for _ in 0..6_000 {
                cpu.compute(10 + p.index() as u64);
                cpu.resync().await;
            }
        });
    }
    e.run().events_processed()
}

/// Block-by-block reads of a working set, cache and TLB together.
fn mem_sweep(bytes: u64, passes: u32) -> u64 {
    let mut cache = Cache::new(CacheGeometry::paper_default(), 1);
    let mut tlb = Tlb::paper_default();
    let mut misses = 0u64;
    for _ in 0..passes {
        for addr in (0..bytes).step_by(32) {
            misses += u64::from(touch(&mut cache, &mut tlb, addr, 8, AccessKind::Read).misses);
        }
    }
    black_box(misses);
    u64::from(passes) * (bytes / 32)
}

/// Working set half the paper's 256 KB cache: hits after the first pass.
fn mem_fit() -> u64 {
    mem_sweep(128 << 10, 650)
}

/// Working set four times the cache (and past the TLB's reach): misses
/// and replacements on nearly every access.
fn mem_thrash() -> u64 {
    mem_sweep(1 << 20, 48)
}

/// Coherence transactions: a producer and a consumer bouncing a value
/// in lockstep. Each round the producer's writes invalidate the
/// consumer's copies, the consumer re-fetches them, and its
/// acknowledgement makes the same trip back.
fn sm_bounce() -> u64 {
    const ROUNDS: u64 = 5_000;
    let mut e = Engine::new(2, SimConfig::default());
    let m = SmMachine::new(&e, SmConfig::default());
    let x = m.gmalloc_on(0, 8, 8);
    let flag = m.gmalloc_on(0, 8, 8);
    let ack = m.gmalloc_on(1, 8, 8);
    let (m0, c0) = (Rc::clone(&m), e.cpu(ProcId::new(0)));
    e.spawn(ProcId::new(0), async move {
        for k in 1..=ROUNDS {
            m0.write_f64(&c0, x, k as f64).await;
            m0.write_u64(&c0, flag, k).await;
            m0.flag_wait(&c0, ack, k, Kind::Wait).await;
        }
    });
    let (m1, c1) = (Rc::clone(&m), e.cpu(ProcId::new(1)));
    e.spawn(ProcId::new(1), async move {
        for k in 1..=ROUNDS {
            m1.flag_wait(&c1, flag, k, Kind::Wait).await;
            black_box(m1.read_f64(&c1, x).await);
            m1.write_u64(&c1, ack, k).await;
        }
    });
    black_box(e.run().elapsed());
    ROUNDS
}

/// Active messages between two nodes, strictly alternating.
fn mp_ping_pong() -> u64 {
    const ROUNDS: u32 = 16_000;
    let mut e = Engine::new(2, SimConfig::default());
    let m = MpMachine::new(&e, MpConfig::default());
    m.set_handler(tag::USER_BASE, |_| {});
    for p in e.proc_ids() {
        let (m, cpu) = (Rc::clone(&m), e.cpu(p));
        e.spawn(p, async move {
            let peer = ProcId::new(1 - p.index());
            for k in 0..ROUNDS {
                if p.index() == 1 {
                    m.poll_until(&cpu, |n| n > u64::from(k)).await;
                }
                m.am_send(&cpu, peer, tag::USER_BASE, 0, [k, 0, 0, 0]).await;
                if p.index() == 0 {
                    m.poll_until(&cpu, |n| n > u64::from(k)).await;
                }
            }
        });
    }
    black_box(e.run().elapsed());
    2 * u64::from(ROUNDS)
}

/// A lop-sided-tree reduction plus broadcast across 32 nodes.
fn mp_allreduce() -> u64 {
    const ROUNDS: usize = 300;
    let mut e = Engine::new(32, SimConfig::default());
    let m = MpMachine::new(&e, MpConfig::default());
    for p in e.proc_ids() {
        let (m, cpu) = (Rc::clone(&m), e.cpu(p));
        e.spawn(p, async move {
            for r in 0..ROUNDS {
                let v = (p.index() + r) as f64;
                let s = m
                    .reduce_sum_f64(&cpu, TreeShape::Lopsided, 0, v)
                    .await
                    .unwrap_or(0.0);
                black_box(m.bcast_f64(&cpu, TreeShape::Lopsided, 0, s).await);
            }
        });
    }
    black_box(e.run().elapsed());
    ROUNDS as u64
}
