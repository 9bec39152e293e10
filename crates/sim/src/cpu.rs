//! The per-processor handle that target programs use to charge costs and
//! interact with the event loop.

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::account::{Counter, Kind, Scope};
use crate::engine::{Sim, QUANTUM};
use crate::fault::SlowWindow;
use crate::time::{Cycles, ProcId};
use crate::trace::TraceWhat;

/// Handle through which a target task observes and advances its simulated
/// processor.
///
/// A `Cpu` is cheap to clone and is the only way target code should touch
/// the simulator: machine models (caches, network interfaces, coherence
/// protocols) take a `&Cpu` and charge costs through it.
#[derive(Clone)]
pub struct Cpu {
    sim: Rc<Sim>,
    id: ProcId,
    // Cached from the (immutable) engine config: hot path avoidance.
    profile_bucket: Option<Cycles>,
    tracing: bool,
    phase_marks: bool,
    // The fault plan's slow window, if it targets this processor.
    slow: Option<SlowWindow>,
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cpu")
            .field("id", &self.id)
            .field("clock", &self.clock())
            .finish()
    }
}

impl Cpu {
    pub(crate) fn new(sim: Rc<Sim>, id: ProcId) -> Self {
        let config = sim.config();
        let tracing = sim.tracing();
        let slow = config
            .faults
            .and_then(|f| f.slow)
            .filter(|w| w.proc == id.index());
        let phase_marks = config.phase_marks;
        Cpu {
            sim,
            id,
            profile_bucket: config.profile_bucket,
            tracing,
            phase_marks,
            slow,
        }
    }

    /// Whether tracing is enabled for this run (cached; the single branch
    /// machine models pay on hot paths when tracing is off).
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Emits a trace event on this processor's track, timestamped with the
    /// local clock. Callers should guard with [`Cpu::tracing`].
    pub fn trace(&self, what: TraceWhat) {
        self.sim.trace(self.id, self.clock(), what);
    }

    /// Records a phase-boundary snapshot for this processor: the local
    /// clock plus the cumulative per-kind cycle totals. Synchronization
    /// primitives (barriers, collectives) call this at their completion
    /// point; it is a no-op unless
    /// [`SimConfig::phase_marks`](crate::SimConfig) is set.
    pub fn phase_mark(&self) {
        if !self.phase_marks {
            return;
        }
        self.sim.with_proc(self.id, |p| {
            let mark = crate::report::PhaseMark {
                at: p.clock,
                by_kind: p.matrix.kind_totals(),
            };
            p.phase_log.push(mark);
        });
    }

    /// The processor this handle belongs to.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The shared simulator handle (for machine models that need to
    /// schedule events).
    pub fn sim(&self) -> &Rc<Sim> {
        &self.sim
    }

    /// This processor's local clock, in cycles.
    pub fn clock(&self) -> Cycles {
        self.sim.proc_clock(self.id)
    }

    /// Current global simulation time.
    pub fn now(&self) -> Cycles {
        self.sim.now()
    }

    /// Charges `cycles` of instruction execution (computation).
    ///
    /// If the fault plan puts this processor inside a slow window, the
    /// charge is multiplied by the window's factor — the processor gets
    /// the same work done in more simulated time.
    pub fn compute(&self, cycles: Cycles) {
        let cycles = match self.slow {
            Some(w) if w.contains(self.clock()) => cycles.saturating_mul(u64::from(w.factor)),
            _ => cycles,
        };
        self.charge(Kind::Compute, cycles);
    }

    /// Charges `cycles` of the given cost kind to the innermost attribution
    /// scope (the application scope when no scope is entered).
    #[inline]
    pub fn charge(&self, kind: Kind, cycles: Cycles) {
        if cycles == 0 {
            return;
        }
        let bucket = self.profile_bucket;
        self.sim
            .with_proc(self.id, |p| p.charge(kind, cycles, bucket));
    }

    /// Advances the local clock to `t` (if it is in the future), charging
    /// the stall to `kind`. Returns the cycles charged.
    pub fn wait_until(&self, t: Cycles, kind: Kind) -> Cycles {
        let clock = self.clock();
        let stall = t.saturating_sub(clock);
        self.charge(kind, stall);
        stall
    }

    /// Enters an attribution scope; charges go to `scope` until the guard
    /// is dropped, which restores the scope it replaced. Guards nest and
    /// must drop in reverse order of creation.
    ///
    /// # Example
    ///
    /// ```
    /// # use wwt_sim::{Engine, SimConfig, Scope, Kind};
    /// # let mut e = Engine::new(1, SimConfig::default());
    /// # let cpu = e.cpu(0.into());
    /// # e.spawn(0.into(), async move {
    /// let _lib = cpu.scope(Scope::Lib);
    /// cpu.compute(40); // charged to (Lib, Compute)
    /// # });
    /// # let r = e.run();
    /// # assert_eq!(r.proc(0.into()).matrix.get(Scope::Lib, Kind::Compute), 40);
    /// ```
    pub fn scope(&self, scope: Scope) -> ScopeGuard {
        if self.tracing {
            self.trace(TraceWhat::SpanBegin(scope));
        }
        let outer = self
            .sim
            .with_proc(self.id, |p| std::mem::replace(&mut p.scope, scope));
        ScopeGuard {
            cpu: self.clone(),
            scope,
            outer,
        }
    }

    /// The innermost attribution scope currently active.
    pub fn current_scope(&self) -> Scope {
        self.sim.with_proc(self.id, |p| p.scope)
    }

    /// Increments an event counter by `n`.
    pub fn count(&self, counter: Counter, n: u64) {
        self.sim.with_proc(self.id, |p| p.counters.add(counter, n));
    }

    /// Re-synchronizes with the event loop: yields until global time has
    /// caught up with this processor's local clock.
    ///
    /// Machine models call this before any operation whose effect other
    /// processors can observe, which is what guarantees that interactions
    /// are processed in global timestamp order.
    pub fn resync(&self) -> Resync<'_> {
        Resync {
            cpu: self,
            armed: false,
        }
    }

    /// Like [`Cpu::resync`] but only yields if the processor has run more
    /// than the engine quantum ahead of global time. Used on cache *hits*
    /// to shared data, where a bounded skew is acceptable (the WWT quantum
    /// argument).
    pub fn resync_if_ahead(&self) -> Resync<'_> {
        let (clock, now) = self.sim.clock_now(self.id);
        Resync {
            cpu: self,
            // Pretend we already yielded if we are within the quantum.
            armed: clock.saturating_sub(now) <= QUANTUM,
        }
    }

    /// Clears this processor's blocked marker and advances the local clock
    /// to `t` (if in the future), charging the stall to `kind`. One borrow
    /// on the wait-completion hot path.
    pub(crate) fn unblock_until(&self, t: Cycles, kind: Kind) {
        let bucket = self.profile_bucket;
        self.sim.with_proc(self.id, |p| {
            p.blocked = None;
            let stall = t.saturating_sub(p.clock);
            if stall > 0 {
                p.charge(kind, stall, bucket);
            }
        });
    }
}

/// Guard returned by [`Cpu::scope`]; restores the enclosing scope when
/// dropped.
#[must_use = "dropping the guard immediately leaves the scope"]
pub struct ScopeGuard {
    cpu: Cpu,
    scope: Scope,
    /// The scope this guard replaced.
    outer: Scope,
}

impl fmt::Debug for ScopeGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScopeGuard")
            .field("cpu", &self.cpu.id())
            .finish()
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        self.cpu.sim.with_proc(self.cpu.id, |p| {
            // Not checked while unwinding: a panic in a drop there aborts.
            debug_assert!(
                p.scope == self.scope || std::thread::panicking(),
                "scope guards dropped out of order"
            );
            p.scope = self.outer;
        });
        if self.cpu.tracing {
            self.cpu.trace(TraceWhat::SpanEnd(self.scope));
        }
    }
}

/// Future returned by [`Cpu::resync`]. Borrows the [`Cpu`]: resyncs
/// bracket every shared access, and an owned handle would cost an `Rc`
/// clone per access.
#[derive(Debug)]
#[must_use = "futures do nothing unless awaited"]
pub struct Resync<'a> {
    cpu: &'a Cpu,
    armed: bool,
}

impl Future for Resync<'_> {
    /// Resolves to the local clock at the moment the resync was satisfied
    /// (callers on the hit path use it to avoid a redundant clock read).
    type Output = Cycles;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Cycles> {
        let (clock, now) = self.cpu.sim.clock_now(self.cpu.id);
        if self.armed || clock <= now {
            return Poll::Ready(clock);
        }
        self.cpu.sim.wake_at(self.cpu.id, clock);
        self.armed = true;
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SimConfig};
    use crate::report::SimReport;

    fn run_one(f: impl FnOnce(Cpu) -> Pin<Box<dyn Future<Output = ()>>>) -> SimReport {
        let mut e = Engine::new(1, SimConfig::default());
        let cpu = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), f(cpu));
        e.run()
    }

    #[test]
    fn charges_go_to_innermost_scope() {
        let r = run_one(|cpu| {
            Box::pin(async move {
                cpu.compute(1);
                {
                    let _lib = cpu.scope(Scope::Lib);
                    cpu.compute(2);
                    {
                        let _red = cpu.scope(Scope::Reduction);
                        cpu.charge(Kind::Wait, 4);
                    }
                    cpu.compute(8);
                }
                cpu.compute(16);
            })
        });
        let m = &r.proc(ProcId::new(0)).matrix;
        assert_eq!(m.get(Scope::App, Kind::Compute), 17);
        assert_eq!(m.get(Scope::Lib, Kind::Compute), 10);
        assert_eq!(m.get(Scope::Reduction, Kind::Wait), 4);
        assert_eq!(m.total(), 31);
    }

    #[test]
    fn wait_until_charges_only_forward() {
        let r = run_one(|cpu| {
            Box::pin(async move {
                cpu.compute(100);
                assert_eq!(cpu.wait_until(50, Kind::Wait), 0);
                assert_eq!(cpu.wait_until(130, Kind::BarrierWait), 30);
            })
        });
        let p = r.proc(ProcId::new(0));
        assert_eq!(p.clock, 130);
        assert_eq!(p.matrix.by_kind(Kind::BarrierWait), 30);
    }

    #[test]
    fn zero_charge_is_free() {
        let r = run_one(|cpu| {
            Box::pin(async move {
                cpu.charge(Kind::PrivMiss, 0);
            })
        });
        assert_eq!(r.proc(ProcId::new(0)).matrix.total(), 0);
    }

    #[test]
    fn resync_if_ahead_skips_within_quantum() {
        let mut e = Engine::new(1, SimConfig::default());
        let cpu = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            cpu.compute(99); // within the 100-cycle quantum
            cpu.resync_if_ahead().await;
            cpu.compute(5000); // far ahead: must yield
            cpu.resync_if_ahead().await;
        });
        let r = e.run();
        // initial resume + exactly one quantum resync
        assert_eq!(r.events_processed(), 2);
    }

    #[test]
    fn counters_attach_to_processor() {
        let r = run_one(|cpu| {
            Box::pin(async move {
                cpu.count(Counter::PacketsSent, 3);
                cpu.count(Counter::BytesData, 48);
            })
        });
        let c = &r.proc(ProcId::new(0)).counters;
        assert_eq!(c.get(Counter::PacketsSent), 3);
        assert_eq!(c.get(Counter::BytesData), 48);
    }
}
