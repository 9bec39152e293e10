//! The parmacs-style programming layer: start-up gate (`create`),
//! MCS locks, and MCS-style software reductions / broadcast.
//!
//! Shared-memory programs in the paper use the parmacs macros: `gmalloc`
//! for shared allocation (on [`crate::SmMachine`]), `create(f)`
//! to fork onto all nodes after node 0's serial initialization, MCS locks
//! for mutual exclusion, and the hardware barrier. Gauss-SM additionally
//! uses reductions built like the upward phase of an MCS barrier, and
//! broadcasts values by writing them and letting every processor read
//! after a barrier.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use wwt_mem::GAddr;
use wwt_sim::{Counter, Cpu, Cycles, Kind, Mark, Metric, ProcId, Scope, TraceWhat, WaitCell};

use crate::config::COSTS;
use crate::machine::SmMachine;

/// The `create(f)` start-up gate.
///
/// In the parmacs model only node 0 executes at first; after preliminary
/// serial initialization it calls `create(f)`, which starts all other
/// nodes. Time the other nodes spend blocked here is the paper's
/// "Start-up Wait" row (80M cycles in MSE-SM, Table 5).
pub struct CreateGate {
    cells: RefCell<Vec<WaitCell>>,
    released_at: Cell<Option<u64>>,
}

impl fmt::Debug for CreateGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CreateGate")
            .field("released_at", &self.released_at.get())
            .finish()
    }
}

impl Default for CreateGate {
    fn default() -> Self {
        Self::new()
    }
}

impl CreateGate {
    /// Creates an unreleased gate.
    pub fn new() -> Self {
        CreateGate {
            cells: RefCell::new(Vec::new()),
            released_at: Cell::new(None),
        }
    }

    /// Blocks a non-zero node until node 0 releases the gate; the wait is
    /// charged to the start-up scope. A node that arrives after the release
    /// still starts no earlier than the release time (in the parmacs model
    /// the other nodes do not exist before `create`).
    pub async fn wait(&self, cpu: &Cpu) {
        let _sc = cpu.scope(Scope::Startup);
        if let Some(t) = self.released_at.get() {
            cpu.wait_until(t, Kind::Wait);
            return;
        }
        let cell = WaitCell::new();
        self.cells.borrow_mut().push(cell.clone());
        cell.wait(cpu, Kind::Wait).await;
    }

    /// Releases the gate (node 0, after serial initialization).
    pub fn release(&self, m: &SmMachine, cpu: &Cpu) {
        self.released_at.set(Some(cpu.clock()));
        for c in self.cells.borrow_mut().drain(..) {
            c.complete(m.sim(), cpu.clock());
        }
    }
}

/// An MCS queue lock over shared memory.
///
/// The cost structure follows Mellor-Crummey & Scott: the tail pointer is
/// swapped remotely on acquire; a blocked acquirer spins on a *locally
/// homed* queue node, so a release performs exactly one remote write to
/// hand the lock off, and the wakeing spinner re-reads its local flag.
pub struct McsLock {
    tail: GAddr,
    qnodes: Vec<GAddr>,
    holder: Cell<Option<ProcId>>,
    queue: RefCell<VecDeque<(ProcId, WaitCell)>>,
    /// Holder's clock at acquisition (valid while `holder` is `Some`);
    /// powers the lock-hold-time histogram.
    held_since: Cell<Cycles>,
}

impl fmt::Debug for McsLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("McsLock")
            .field("holder", &self.holder.get())
            .field("waiters", &self.queue.borrow().len())
            .finish()
    }
}

impl McsLock {
    /// Allocates a lock: the tail word in shared memory (round-robin home)
    /// and one queue node per processor, homed locally.
    pub fn new(m: &SmMachine) -> Self {
        let n = m.nprocs();
        McsLock {
            tail: m.gmalloc(0, 8, 8),
            qnodes: (0..n).map(|p| m.gmalloc_on(p, 8, 8)).collect(),
            holder: Cell::new(None),
            queue: RefCell::new(VecDeque::new()),
            held_since: Cell::new(0),
        }
    }

    /// Acquires the lock, blocking (MCS-spinning) if it is held.
    pub async fn acquire(&self, m: &Rc<SmMachine>, cpu: &Cpu) {
        let _sc = cpu.scope(Scope::Lock);
        cpu.count(Counter::LockAcquires, 1);
        let entry = cpu.clock();
        cpu.compute(COSTS.sync_overhead);
        // Swap ourselves onto the tail (remote write transaction).
        let _prev = m
            .swap_u64(cpu, self.tail, cpu.id().index() as u64 + 1)
            .await;
        if self.holder.get().is_none() {
            self.holder.set(Some(cpu.id()));
            self.trace_acquired(cpu, entry);
            return;
        }
        let cell = WaitCell::new();
        self.queue.borrow_mut().push_back((cpu.id(), cell.clone()));
        cell.wait(cpu, Kind::LockWait).await;
        // Woken by the releaser's remote write to our (locally homed)
        // queue node: the spin re-read is a cheap local transaction.
        m.read_u64(cpu, self.qnodes[cpu.id().index()]).await;
        debug_assert_eq!(self.holder.get(), Some(cpu.id()));
        self.trace_acquired(cpu, entry);
    }

    fn trace_acquired(&self, cpu: &Cpu, entry: Cycles) {
        self.held_since.set(cpu.clock());
        if cpu.tracing() {
            cpu.trace(TraceWhat::Instant(Mark::LockAcquire));
            cpu.sim()
                .trace_sample(Metric::LockWait, cpu.clock() - entry);
        }
    }

    /// Releases the lock, handing it to the oldest waiter if any.
    ///
    /// # Panics
    ///
    /// Panics if the caller does not hold the lock.
    pub async fn release(&self, m: &Rc<SmMachine>, cpu: &Cpu) {
        assert_eq!(
            self.holder.get(),
            Some(cpu.id()),
            "release by non-holder {}",
            cpu.id()
        );
        let _sc = cpu.scope(Scope::Lock);
        if cpu.tracing() {
            cpu.trace(TraceWhat::Instant(Mark::LockRelease));
            cpu.sim()
                .trace_sample(Metric::LockHold, cpu.clock() - self.held_since.get());
        }
        cpu.compute(COSTS.sync_overhead);
        let next = self.queue.borrow_mut().pop_front();
        match next {
            Some((succ, cell)) => {
                self.holder.set(Some(succ));
                // Terminate the successor's spin with one remote write.
                m.write_u64(cpu, self.qnodes[succ.index()], 1).await;
                cell.complete(m.sim(), cpu.clock());
            }
            None => {
                self.holder.set(None);
                // Reset the tail (compare-and-swap in real MCS).
                m.swap_u64(cpu, self.tail, 0).await;
            }
        }
    }
}

fn binomial_children(v: usize, n: usize) -> Vec<usize> {
    let lsb = if v == 0 {
        usize::MAX
    } else {
        v & v.wrapping_neg()
    };
    let mut kids = Vec::new();
    let mut bit = 1usize;
    while bit < lsb && v + bit < n {
        kids.push(v + bit);
        bit <<= 1;
    }
    kids
}

/// Shared-memory software collectives: MCS-style tree reductions and
/// write/barrier/read broadcast.
///
/// Each processor owns a locally homed (value, tag, generation) slot; a
/// reduction walks a binomial tree rooted at node 0, parents spinning on
/// their children's generation flags (each spin terminated by the child's
/// flag write, costing the invalidate + re-read pattern).
pub struct SmCollectives {
    vals: Vec<GAddr>,
    gens: Vec<GAddr>,
    // Two broadcast slots, used alternately. The barrier inside each
    // broadcast keeps processors within one broadcast of each other, so
    // double buffering suffices to keep the next root's write from
    // clobbering a value a lagging processor has yet to read.
    bc_val: [GAddr; 2],
    my_gen: RefCell<Vec<u64>>,
    my_bc: RefCell<Vec<u64>>,
}

impl fmt::Debug for SmCollectives {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmCollectives")
            .field("parties", &self.vals.len())
            .finish()
    }
}

impl SmCollectives {
    /// Allocates the collective slots for all processors of `m`.
    pub fn new(m: &SmMachine) -> Self {
        let n = m.nprocs();
        SmCollectives {
            vals: (0..n).map(|p| m.gmalloc_on(p, 16, 32)).collect(),
            gens: (0..n).map(|p| m.gmalloc_on(p, 8, 32)).collect(),
            bc_val: [m.gmalloc_on(0, 8, 32), m.gmalloc_on(0, 8, 32)],
            my_gen: RefCell::new(vec![0; n]),
            my_bc: RefCell::new(vec![0; n]),
        }
    }

    /// MCS-style maximum reduction of `(value, rank)` pairs to node 0.
    /// Returns `Some((max, argmax_rank))` on node 0, `None` elsewhere.
    pub async fn reduce_max_f64_index(
        &self,
        m: &Rc<SmMachine>,
        cpu: &Cpu,
        value: f64,
        rank: usize,
    ) -> Option<(f64, usize)> {
        self.reduce(m, cpu, value, rank as u64, |a, b| {
            if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                b
            } else {
                a
            }
        })
        .await
    }

    /// MCS-style sum reduction to node 0.
    pub async fn reduce_sum_f64(&self, m: &Rc<SmMachine>, cpu: &Cpu, value: f64) -> Option<f64> {
        self.reduce(m, cpu, value, 0, |a, b| (a.0 + b.0, 0))
            .await
            .map(|(v, _)| v)
    }

    async fn reduce(
        &self,
        m: &Rc<SmMachine>,
        cpu: &Cpu,
        value: f64,
        tag: u64,
        combine: impl Fn((f64, u64), (f64, u64)) -> (f64, u64),
    ) -> Option<(f64, usize)> {
        let _sc = cpu.scope(Scope::Reduction);
        cpu.count(Counter::Reductions, 1);
        let me = cpu.id().index();
        let n = m.nprocs();
        let gen = {
            let mut g = self.my_gen.borrow_mut();
            g[me] += 1;
            g[me]
        };
        let mut acc = (value, tag);
        for c in binomial_children(me, n) {
            m.flag_wait(cpu, self.gens[c], gen, Kind::Wait).await;
            let v = m.read_f64(cpu, self.vals[c]).await;
            let t = m.read_u64(cpu, self.vals[c].offset_by(8)).await;
            cpu.compute(COSTS.reduce_combine);
            acc = combine(acc, (v, t));
        }
        if me == 0 {
            Some((acc.0, acc.1 as usize))
        } else {
            m.write_f64(cpu, self.vals[me], acc.0).await;
            m.write_u64(cpu, self.vals[me].offset_by(8), acc.1).await;
            m.write_u64(cpu, self.gens[me], gen).await;
            None
        }
    }

    /// The Gauss-SM broadcast idiom: `root` writes the value, everyone
    /// waits at the barrier (so the write and its invalidations complete),
    /// then everyone reads it — the reads contend at the home directory,
    /// which is exactly the effect Table 11 measures.
    pub async fn bcast_f64(&self, m: &Rc<SmMachine>, cpu: &Cpu, root: usize, value: f64) -> f64 {
        let slot = {
            let mut counts = self.my_bc.borrow_mut();
            let me = cpu.id().index();
            let c = counts[me];
            counts[me] += 1;
            self.bc_val[(c % 2) as usize]
        };
        if cpu.id().index() == root {
            m.write_f64(cpu, slot, value).await;
        }
        m.barrier(cpu).await;
        m.read_f64(cpu, slot).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmConfig;
    use wwt_sim::{Engine, SimConfig};

    #[test]
    fn create_gate_charges_startup_wait() {
        let mut e = Engine::new(3, SimConfig::default());
        let m = SmMachine::new(&e, SmConfig::default());
        let gate = Rc::new(CreateGate::new());
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let gate = Rc::clone(&gate);
            let cpu = e.cpu(p);
            e.spawn(p, async move {
                if p.index() == 0 {
                    cpu.compute(10_000); // serial init
                    gate.release(&m, &cpu);
                } else {
                    gate.wait(&cpu).await;
                    assert_eq!(cpu.clock(), 10_000);
                }
            });
        }
        let r = e.run();
        assert_eq!(
            r.proc(ProcId::new(1))
                .matrix
                .get(Scope::Startup, Kind::Wait),
            10_000
        );
        assert_eq!(r.proc(ProcId::new(0)).matrix.by_scope(Scope::Startup), 0);
    }

    #[test]
    fn mcs_lock_provides_mutual_exclusion() {
        let n = 8;
        let rounds = 5;
        let mut e = Engine::new(n, SimConfig::default());
        let m = SmMachine::new(&e, SmConfig::default());
        let lock = Rc::new(McsLock::new(&m));
        let counter = m.gmalloc_on(0, 8, 8);
        let in_cs = Rc::new(Cell::new(false));
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let lock = Rc::clone(&lock);
            let cpu = e.cpu(p);
            let in_cs = Rc::clone(&in_cs);
            e.spawn(p, async move {
                for _ in 0..rounds {
                    lock.acquire(&m, &cpu).await;
                    assert!(!in_cs.get(), "two holders in the critical section");
                    in_cs.set(true);
                    let v = m.read_u64(&cpu, counter).await;
                    cpu.compute(50);
                    m.write_u64(&cpu, counter, v + 1).await;
                    in_cs.set(false);
                    lock.release(&m, &cpu).await;
                }
            });
        }
        let r = e.run();
        assert_eq!(m.peek_u64(counter), (n * rounds) as u64);
        let total_acquires: u64 = (0..n)
            .map(|i| r.proc(ProcId::new(i)).counters.get(Counter::LockAcquires))
            .sum();
        assert_eq!(total_acquires, (n * rounds) as u64);
        // Contended acquires charge LockWait.
        let lock_wait: u64 = (0..n)
            .map(|i| r.proc(ProcId::new(i)).matrix.by_kind(Kind::LockWait))
            .sum();
        assert!(lock_wait > 0);
    }

    #[test]
    fn reduction_finds_global_max_and_rank() {
        let n = 16;
        let mut e = Engine::new(n, SimConfig::default());
        let m = SmMachine::new(&e, SmConfig::default());
        let coll = Rc::new(SmCollectives::new(&m));
        let result = Rc::new(Cell::new((0.0f64, 0usize)));
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let coll = Rc::clone(&coll);
            let cpu = e.cpu(p);
            let result = Rc::clone(&result);
            e.spawn(p, async move {
                // values 1..=n, max at rank n-1
                let v = (p.index() + 1) as f64;
                if let Some(r) = coll.reduce_max_f64_index(&m, &cpu, v, p.index()).await {
                    result.set(r);
                }
                m.barrier(&cpu).await;
            });
        }
        e.run();
        assert_eq!(result.get(), (n as f64, n - 1));
    }

    #[test]
    fn repeated_reductions_use_generations() {
        let n = 4;
        let mut e = Engine::new(n, SimConfig::default());
        let m = SmMachine::new(&e, SmConfig::default());
        let coll = Rc::new(SmCollectives::new(&m));
        let sums = Rc::new(RefCell::new(Vec::new()));
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let coll = Rc::clone(&coll);
            let cpu = e.cpu(p);
            let sums = Rc::clone(&sums);
            e.spawn(p, async move {
                for round in 0..5u64 {
                    let v = (round * n as u64) as f64 + p.index() as f64;
                    if let Some(s) = coll.reduce_sum_f64(&m, &cpu, v).await {
                        sums.borrow_mut().push(s);
                    }
                    m.barrier(&cpu).await;
                }
            });
        }
        e.run();
        let expect: Vec<f64> = (0..5u64)
            .map(|r| (0..n as u64).map(|p| (r * n as u64 + p) as f64).sum())
            .collect();
        assert_eq!(*sums.borrow(), expect);
    }

    #[test]
    fn broadcast_reaches_every_node() {
        let n = 8;
        let mut e = Engine::new(n, SimConfig::default());
        let m = SmMachine::new(&e, SmConfig::default());
        let coll = Rc::new(SmCollectives::new(&m));
        let got = Rc::new(RefCell::new(vec![0.0f64; n]));
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let coll = Rc::clone(&coll);
            let cpu = e.cpu(p);
            let got = Rc::clone(&got);
            e.spawn(p, async move {
                let v = coll
                    .bcast_f64(&m, &cpu, 3, 12.5 * ((p.index() == 3) as u64 as f64))
                    .await;
                got.borrow_mut()[p.index()] = v;
            });
        }
        e.run();
        assert!(got.borrow().iter().all(|&v| v == 12.5));
    }

    #[test]
    #[should_panic(expected = "release by non-holder")]
    fn release_by_non_holder_panics() {
        let mut e = Engine::new(2, SimConfig::default());
        let m = SmMachine::new(&e, SmConfig::default());
        let lock = Rc::new(McsLock::new(&m));
        let c0 = e.cpu(ProcId::new(0));
        let l0 = Rc::clone(&lock);
        let m0 = Rc::clone(&m);
        e.spawn(ProcId::new(0), async move {
            l0.release(&m0, &c0).await;
        });
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            let _ = c1;
        });
        e.run();
    }
}
