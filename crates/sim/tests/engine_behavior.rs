//! Integration tests of the engine's scheduling guarantees.

use std::cell::RefCell;
use std::rc::Rc;

use wwt_sim::{Counter, Cpu, Engine, HwBarrier, Kind, ProcId, Scope, SimConfig, QUANTUM};

#[test]
fn quantum_bounds_run_ahead_skew() {
    // With resync_if_ahead, a processor's observable actions never run
    // more than one quantum past global time.
    let mut e = Engine::new(2, SimConfig::default());
    let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
    for p in e.proc_ids() {
        let cpu = e.cpu(p);
        let log = Rc::clone(&log);
        e.spawn(p, async move {
            for _ in 0..20 {
                cpu.compute(377);
                cpu.resync_if_ahead().await;
                log.borrow_mut().push((cpu.clock(), cpu.now()));
            }
        });
    }
    e.run();
    for &(clock, now) in log.borrow().iter() {
        assert!(clock <= now + QUANTUM, "skew {clock} vs {now}");
    }
}

#[test]
fn nested_scopes_survive_awaits() {
    let mut e = Engine::new(2, SimConfig::default());
    let barrier = Rc::new(HwBarrier::new(2, 100));
    for p in e.proc_ids() {
        let cpu: Cpu = e.cpu(p);
        let barrier = Rc::clone(&barrier);
        e.spawn(p, async move {
            let _lib = cpu.scope(Scope::Lib);
            cpu.compute(10);
            {
                let _red = cpu.scope(Scope::Reduction);
                // The await suspends the task while both scopes are live.
                barrier.wait(&cpu, Kind::Wait).await;
                cpu.compute(3);
            }
            cpu.compute(5);
        });
    }
    let r = e.run();
    for p in 0..2 {
        let m = &r.proc(ProcId::new(p)).matrix;
        assert_eq!(m.get(Scope::Lib, Kind::Compute), 15);
        assert_eq!(m.get(Scope::Reduction, Kind::Compute), 3);
        assert!(m.get(Scope::Reduction, Kind::Wait) > 0);
    }
}

#[test]
fn snapshot_reflects_midpoint_state() {
    let mut e = Engine::new(1, SimConfig::default());
    let cpu = e.cpu(ProcId::new(0));
    let sim = Rc::clone(e.sim());
    let mid: Rc<RefCell<Option<u64>>> = Rc::default();
    let mid2 = Rc::clone(&mid);
    e.spawn(ProcId::new(0), async move {
        cpu.compute(100);
        cpu.count(Counter::PacketsSent, 1);
        *mid2.borrow_mut() = Some(sim.snapshot()[0].0);
        cpu.compute(900);
    });
    let r = e.run();
    assert_eq!(mid.borrow().unwrap(), 100);
    assert_eq!(r.proc(ProcId::new(0)).clock, 1000);
}
