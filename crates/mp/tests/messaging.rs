//! Integration tests of the message-passing machine: channel semantics
//! under pipelining, handler-driven replies, collective composition, and
//! cost-model arithmetic.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use wwt_mp::{tag, MpConfig, MpMachine, TreeShape};
use wwt_sim::{Counter, Cpu, Engine, Kind, ProcId, Scope, SimConfig};

fn setup(n: usize) -> (Engine, Rc<MpMachine>) {
    let e = Engine::new(n, SimConfig::default());
    let m = MpMachine::new(&e, MpConfig::default());
    (e, m)
}

#[test]
fn pipelined_channel_writes_are_consumed_in_order() {
    // The sender fires several messages back-to-back before the receiver
    // waits for any of them; each wait must observe one message, in order.
    let (mut e, m) = setup(2);
    let rounds = 8u64;
    let src = m.alloc(ProcId::new(0), 8, 8);
    let dst = m.alloc(ProcId::new(1), 8, 8);
    let seen: Rc<RefCell<Vec<f64>>> = Rc::default();
    let m0 = Rc::clone(&m);
    let c0 = e.cpu(ProcId::new(0));
    e.spawn(ProcId::new(0), async move {
        let ch = m0.channel_bind(&c0, ProcId::new(1)).await;
        for k in 0..rounds {
            m0.poke_f64(ProcId::new(0), src, k as f64);
            m0.channel_write(&c0, &ch, src, 8);
            // Long enough for each message to land before the next: the
            // receive buffer is single-entry, and the app-level contract
            // is consume-before-overwrite.
            c0.compute(10_000);
        }
    });
    let m1 = Rc::clone(&m);
    let c1 = e.cpu(ProcId::new(1));
    let seen2 = Rc::clone(&seen);
    e.spawn(ProcId::new(1), async move {
        let id = m1
            .channel_open_recv(&c1, ProcId::new(0), dst, 8)
            .expect("capacity within the channel limit");
        for _ in 0..rounds {
            m1.channel_wait(&c1, id).await;
            seen2.borrow_mut().push(m1.peek_f64(ProcId::new(1), dst));
        }
    });
    e.run();
    let got = seen.borrow().clone();
    assert_eq!(got, (0..rounds).map(|k| k as f64).collect::<Vec<_>>());
}

#[test]
fn handler_reply_round_trip() {
    // Request/response through a user handler that replies over a bound
    // channel, the structure MSE-MP uses for its solution requests.
    let (mut e, m) = setup(2);
    const REQ: u8 = tag::USER_BASE;
    let (asker, owner) = (ProcId::new(0), ProcId::new(1));
    let src = m.alloc(owner, 8, 8);
    let dst = m.alloc(asker, 8, 8);
    let reply: Rc<Cell<Option<wwt_mp::SendChannel>>> = Rc::default();
    let served: Rc<Cell<u64>> = Rc::default();
    {
        let (reply, served) = (Rc::clone(&reply), Rc::clone(&served));
        m.set_handler(REQ, move |a| {
            served.set(served.get() + 1);
            // Reply with twice the payload.
            a.machine.poke_u32(a.cpu.id(), src, a.words[0] * 2);
            let ch = reply.get().expect("reply channel bound");
            a.machine.channel_write(a.cpu, &ch, src, 4);
        });
    }
    let got: Rc<Cell<(u32, u32)>> = Rc::default();
    let m0 = Rc::clone(&m);
    let c0 = e.cpu(asker);
    let got0 = Rc::clone(&got);
    e.spawn(asker, async move {
        let id = m0
            .channel_open_recv(&c0, owner, dst, 8)
            .expect("capacity within the channel limit");
        m0.barrier(&c0).await; // the owner has bound its reply channel
        m0.am_send(&c0, owner, REQ, 0, [21, 0, 0, 0]).await;
        let len = m0.channel_wait(&c0, id).await;
        got0.set((m0.peek_u32(asker, dst), len));
    });
    let m1 = Rc::clone(&m);
    let c1 = e.cpu(owner);
    let served1 = Rc::clone(&served);
    e.spawn(owner, async move {
        reply.set(Some(m1.channel_bind(&c1, asker).await));
        m1.barrier(&c1).await;
        m1.poll_until_with(&c1, move || served1.get() >= 1).await; // serve it
    });
    e.run();
    assert_eq!(got.get(), (42, 4));
    assert_eq!(served.get(), 1);
}

#[test]
fn poll_until_with_drains_application_conditions() {
    let (mut e, m) = setup(3);
    let served: Rc<Cell<u64>> = Rc::default();
    {
        let served = Rc::clone(&served);
        m.set_handler(tag::USER_BASE, move |_| served.set(served.get() + 1));
    }
    for p in e.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = e.cpu(p);
        let served = Rc::clone(&served);
        e.spawn(p, async move {
            if p.index() == 0 {
                // Node 0 only serves: two requests will arrive.
                m.poll_until_with(&cpu, move || served.get() >= 2).await;
            } else {
                cpu.compute(1_000 * p.index() as u64);
                m.am_send(&cpu, ProcId::new(0), tag::USER_BASE, 0, [0; 4])
                    .await;
            }
        });
    }
    e.run();
    assert_eq!(served.get(), 2);
}

#[test]
fn collectives_compose_with_rotating_roots() {
    // Reduce/broadcast with a different root each round, over every shape.
    for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::Lopsided] {
        let n = 7;
        let (mut e, m) = setup(n);
        let sums: Rc<RefCell<Vec<f64>>> = Rc::default();
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let cpu = e.cpu(p);
            let sums = Rc::clone(&sums);
            e.spawn(p, async move {
                for round in 0..5usize {
                    let root = round % m.nprocs();
                    let red = m
                        .reduce_sum_f64(&cpu, shape, root, (p.index() + round) as f64)
                        .await;
                    let v = if p.index() == root { red.unwrap() } else { 0.0 };
                    let out = m.bcast_f64(&cpu, shape, root, v).await;
                    if p.index() == 0 {
                        sums.borrow_mut().push(out);
                    }
                }
            });
        }
        e.run();
        let expect: Vec<f64> = (0..5)
            .map(|r| (0..7).map(|p| (p + r) as f64).sum())
            .collect();
        assert_eq!(*sums.borrow(), expect, "{shape:?}");
    }
}

#[test]
fn send_costs_match_table_2() {
    // One active message costs exactly: send overhead (compute) plus
    // tag+destination (5) plus 5-word send (15) at the NI.
    let (mut e, m) = setup(2);
    m.set_handler(tag::USER_BASE, |_| {});
    let cfg = *m.config();
    let m0 = Rc::clone(&m);
    let c0 = e.cpu(ProcId::new(0));
    e.spawn(ProcId::new(0), async move {
        m0.am_send(&c0, ProcId::new(1), tag::USER_BASE, 0, [0; 4])
            .await;
    });
    let m1 = Rc::clone(&m);
    let c1 = e.cpu(ProcId::new(1));
    e.spawn(ProcId::new(1), async move {
        m1.poll_until(&c1, |n| n >= 1).await;
    });
    let r = e.run();
    let sender = r.proc(ProcId::new(0));
    assert_eq!(
        sender.matrix.by_kind(Kind::NetAccess),
        cfg.ni_tag_dest + cfg.ni_send
    );
    assert_eq!(
        sender.matrix.get(Scope::Lib, Kind::Compute),
        cfg.am_send_overhead
    );
    assert_eq!(
        sender.clock,
        cfg.am_send_overhead + cfg.ni_tag_dest + cfg.ni_send
    );
}

#[test]
fn barrier_and_channels_interleave_across_many_nodes() {
    // A ring: everyone sends to the right neighbor, waits for the left,
    // then barriers; values rotate all the way around.
    let n = 8;
    let rounds = n;
    let (mut e, m) = setup(n);
    let finals: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(vec![0.0; n]));
    let mut bufs = Vec::new();
    for p in 0..n {
        let src = m.alloc(ProcId::new(p), 8, 8);
        let dst = m.alloc(ProcId::new(p), 8, 8);
        bufs.push((src, dst));
    }
    for p in e.proc_ids() {
        let m = Rc::clone(&m);
        let cpu = e.cpu(p);
        let finals = Rc::clone(&finals);
        let (src, dst) = bufs[p.index()];
        e.spawn(p, async move {
            let me = p.index();
            let right = ProcId::new((me + 1) % n);
            let left = ProcId::new((me + n - 1) % n);
            let id = m
                .channel_open_recv(&cpu, left, dst, 8)
                .expect("capacity within the channel limit");
            let out = m.channel_bind(&cpu, right).await;
            let mut v = me as f64;
            for _ in 0..rounds {
                m.poke_f64(p, src, v);
                m.channel_write(&cpu, &out, src, 8);
                m.channel_wait(&cpu, id).await;
                v = m.peek_f64(p, dst);
                m.barrier(&cpu).await;
            }
            finals.borrow_mut()[me] = v;
        });
    }
    e.run();
    // After n rotations everyone holds their own original value again.
    let got = finals.borrow().clone();
    assert_eq!(got, (0..n).map(|p| p as f64).collect::<Vec<_>>());
}

#[test]
fn byte_accounting_distinguishes_data_and_control() {
    let (mut e, m) = setup(2);
    let src = m.alloc(ProcId::new(0), 160, 32);
    let dst = m.alloc(ProcId::new(1), 160, 32);
    let m0 = Rc::clone(&m);
    let c0 = e.cpu(ProcId::new(0));
    e.spawn(ProcId::new(0), async move {
        let ch = m0.channel_bind(&c0, ProcId::new(1)).await;
        m0.channel_write(&c0, &ch, src, 160); // 10 data packets + done
    });
    let m1 = Rc::clone(&m);
    let c1 = e.cpu(ProcId::new(1));
    e.spawn(ProcId::new(1), async move {
        let id = m1
            .channel_open_recv(&c1, ProcId::new(0), dst, 160)
            .expect("capacity within the channel limit");
        m1.channel_wait(&c1, id).await;
    });
    let r = e.run();
    let s = r.proc(ProcId::new(0));
    assert_eq!(s.counters.get(Counter::BytesData), 160);
    // 10 data packets x 4 header bytes + one 20-byte done marker.
    assert_eq!(s.counters.get(Counter::BytesControl), 10 * 4 + 20);
    assert_eq!(s.counters.get(Counter::PacketsSent), 11);
}

#[test]
fn deterministic_under_heavy_cross_traffic() {
    let run = || {
        let (mut e, m) = setup(6);
        m.set_handler(tag::USER_BASE, |_| {});
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let cpu: Cpu = e.cpu(p);
            e.spawn(p, async move {
                let n = m.nprocs();
                for k in 0..50u32 {
                    let dest = ProcId::new((p.index() + 1 + (k as usize % (n - 1))) % n);
                    m.am_send(&cpu, dest, tag::USER_BASE, k, [k, 1, 2, 3]).await;
                    cpu.compute((k as u64 * 13) % 97);
                }
                m.poll_until(&cpu, |got| got >= 50).await;
                m.barrier(&cpu).await;
            });
        }
        let r = e.run();
        (r.elapsed(), r.events_processed())
    };
    assert_eq!(run(), run());
}
