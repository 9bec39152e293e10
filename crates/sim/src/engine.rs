//! The simulation engine: global clock, event loop, and cooperative
//! executor for per-processor target tasks.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, RawWaker, RawWakerVTable, Waker};

use crate::account::{Counter, Counters, CycleMatrix, Kind, Scope};
use crate::callback::SmallCall;
use crate::cpu::Cpu;
use crate::error::{BlockedProc, SimError, StallReport, WaitTarget};
use crate::event::{Action, CalendarQueue, Tier};
use crate::fault::{FaultConfig, FaultPlan, PacketFate};
use crate::report::{ProcReport, SimReport};
use crate::time::{Cycles, ProcId};
use crate::trace::{Metric, TraceData, TraceEvent, TraceWhat};

/// Maximum distance (in cycles) a processor may run ahead of global time
/// before an access to *shared* state forces a re-synchronization.
///
/// This mirrors the Wisconsin Wind Tunnel's quantum, which equals the
/// 100-cycle minimum network latency: within that window no other
/// processor's action can be observed, so local execution is safe. It is
/// a property of the simulated machine, not a run option, and it does not
/// follow a swept network latency.
pub const QUANTUM: Cycles = 100;

/// Progress watchdog of faulted runs: if no processor task is resumed for
/// this many simulated cycles while machine events keep flowing, the run
/// aborts with [`SimError::Livelock`].
///
/// Faulted runs can stall in ways fault-free runs cannot (a permanent
/// fail window silences one node, and its peers retransmit toward it
/// forever), so the engine arms the watchdog exactly when
/// [`SimConfig::faults`] is set.
pub const WATCHDOG_CYCLES: Cycles = 10_000_000;

/// Seed for all engine-level pseudo-randomness (the machines derive one
/// stream per node from it).
pub const ENGINE_SEED: u64 = 0x5eed_0001;

/// Engine-level configuration.
///
/// Machine-specific parameters (cache geometry, network latency, protocol
/// costs) live in the machine crates; this only controls the engine itself.
/// Only [`SimConfig::faults`] changes simulated numbers; every other field
/// runs or observes a simulation, so the run cache keys on `faults` alone.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SimConfig {
    /// When set, record a time-resolved profile: per processor, a
    /// [`CycleMatrix`] per bucket of this many cycles (the raw material
    /// for "where is time spent" timelines). `None` (the default) records
    /// nothing and costs nothing.
    pub profile_bucket: Option<Cycles>,
    /// When `true`, record a structured trace: scope spans, machine
    /// events, and latency histograms are collected and returned in
    /// [`SimReport::trace`]. `false` (the default) records nothing; the
    /// flag is cached in every [`Cpu`] handle so disabled tracing costs a
    /// single branch and no allocation on the hot paths.
    pub trace: bool,
    /// Optional deterministic fault injection. `None` (the default) is the
    /// perfectly reliable network of the paper; `Some` installs a seeded
    /// [`FaultPlan`] that the machine models consult at packet-delivery
    /// time. The one field that participates in the run-cache key. A
    /// fault plan also arms the progress watchdog ([`WATCHDOG_CYCLES`]).
    pub faults: Option<FaultConfig>,
    /// When `true`, record a [`PhaseMark`](crate::PhaseMark) — a cumulative
    /// per-kind cycle snapshot — on every processor each time it crosses a
    /// barrier or completes a collective. The marks segment the run into
    /// phases for the diff engine (`wwt-diff`). `false` (the default)
    /// records nothing; like tracing, the flag is cached in every [`Cpu`]
    /// handle, so disabled marking costs one branch per boundary.
    pub phase_marks: bool,
}

/// What a still-pending task is blocked on, recorded by
/// [`crate::WaitCell`] waits so stall diagnostics can name the reason.
#[derive(Copy, Clone, Debug)]
pub(crate) struct BlockInfo {
    pub(crate) kind: Kind,
    pub(crate) reason: &'static str,
    pub(crate) target: WaitTarget,
}

pub(crate) struct Proc {
    pub(crate) clock: Cycles,
    pub(crate) matrix: CycleMatrix,
    pub(crate) counters: Counters,
    pub(crate) scopes: Vec<Scope>,
    pub(crate) done: bool,
    pub(crate) profile: Vec<CycleMatrix>,
    pub(crate) blocked: Option<BlockInfo>,
    pub(crate) phase_log: Vec<crate::report::PhaseMark>,
}

impl Proc {
    fn new() -> Self {
        Proc {
            clock: 0,
            matrix: CycleMatrix::new(),
            counters: Counters::new(),
            scopes: Vec::new(),
            done: false,
            profile: Vec::new(),
            blocked: None,
            phase_log: Vec::new(),
        }
    }

    /// Charges `cycles` of `kind` to the innermost scope, maintaining the
    /// time-resolved profile and the local clock. This is the one charging
    /// path: [`Cpu::charge`] and [`Sim::charge_callback`] both land here,
    /// so span/matrix reconciliation holds no matter who charges.
    pub(crate) fn charge(&mut self, kind: Kind, cycles: Cycles, bucket: Option<Cycles>) {
        let scope = self.scopes.last().copied().unwrap_or(Scope::App);
        self.matrix.add(scope, kind, cycles);
        if let Some(b) = bucket {
            // Distribute the charge over the time buckets it spans.
            let mut t = self.clock;
            let end = self.clock + cycles;
            while t < end {
                let idx = (t / b) as usize;
                let bucket_end = (t / b + 1) * b;
                let span = bucket_end.min(end) - t;
                if self.profile.len() <= idx {
                    self.profile.resize(idx + 1, CycleMatrix::new());
                }
                self.profile[idx].add(scope, kind, span);
                t += span;
            }
        }
        self.clock += cycles;
    }
}

pub(crate) struct Inner {
    pub(crate) now: Cycles,
    pub(crate) queue: CalendarQueue,
    pub(crate) procs: Vec<Proc>,
    pub(crate) config: SimConfig,
    pub(crate) events_processed: u64,
    pub(crate) trace: Option<Box<TraceData>>,
    pub(crate) faults: Option<Box<FaultPlan>>,
    /// Host-metrics flag, cached at construction (`SimConfig::trace`
    /// discipline: one predictable branch per push/pop, no atomic load).
    obs: bool,
}

impl Inner {
    fn push(&mut self, at: Cycles, action: Action) {
        let tier = self.queue.push(at, action);
        if self.obs {
            wwt_obs::count(wwt_obs::Ctr::SimEventsPushed, 1);
            match tier {
                Tier::Ring => {}
                Tier::Far => wwt_obs::count(wwt_obs::Ctr::SimQueueFar, 1),
                Tier::Overflow => wwt_obs::count(wwt_obs::Ctr::SimQueueOverflow, 1),
            }
            wwt_obs::max_queue_depth(self.queue.len() as u64);
        }
    }
}

/// Shared simulator state, used through an `Rc<Sim>` by [`Cpu`] handles,
/// machine models, and scheduled events.
pub struct Sim {
    pub(crate) inner: RefCell<Inner>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Sim")
            .field("now", &inner.now)
            .field("pending_events", &inner.queue.len())
            .field("procs", &inner.procs.len())
            .finish()
    }
}

impl Sim {
    fn new(nprocs: usize, config: SimConfig) -> Rc<Self> {
        Rc::new(Sim {
            inner: RefCell::new(Inner {
                now: 0,
                queue: CalendarQueue::new(),
                procs: (0..nprocs).map(|_| Proc::new()).collect(),
                config,
                events_processed: 0,
                trace: config.trace.then(Box::default),
                faults: config.faults.map(|cfg| Box::new(FaultPlan::new(cfg))),
                obs: wwt_obs::enabled(),
            }),
        })
    }

    /// Current global simulation time (the timestamp of the event being
    /// processed).
    pub fn now(&self) -> Cycles {
        self.inner.borrow().now
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.inner.borrow().procs.len()
    }

    /// Engine configuration.
    pub fn config(&self) -> SimConfig {
        self.inner.borrow().config
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.inner.borrow().events_processed
    }

    /// Schedules a machine-model callback at absolute time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PastEvent`] if `at` is before the current
    /// global time: causality would be violated. Machine models that
    /// clamp `at` to the present first may safely `expect` the result.
    pub fn call_at(&self, at: Cycles, f: impl FnOnce() + 'static) -> Result<(), SimError> {
        let mut inner = self.inner.borrow_mut();
        if at < inner.now {
            return Err(SimError::PastEvent { at, now: inner.now });
        }
        inner.push(at, Action::Call(SmallCall::new(f)));
        Ok(())
    }

    /// Charges `cycles` of `kind` to processor `p` from a scheduled
    /// callback, where no [`Cpu`] handle exists. Identical accounting to
    /// [`Cpu::charge`]: innermost scope, time-resolved profile, clock.
    pub fn charge_callback(&self, p: ProcId, kind: Kind, cycles: Cycles) {
        if cycles == 0 {
            return;
        }
        let bucket = self.config().profile_bucket;
        self.with_proc(p, |pr| pr.charge(kind, cycles, bucket));
    }

    /// Asks the fault plan (if any) for the fate of a packet from `src`
    /// to `dest` injected now. Without a plan every packet is delivered
    /// untouched.
    pub fn fault_fate(&self, src: ProcId, dest: ProcId) -> PacketFate {
        let mut inner = self.inner.borrow_mut();
        let now = inner.now;
        match inner.faults.as_mut() {
            Some(plan) => plan.packet_fate(src.index(), dest.index(), now),
            None => PacketFate::Deliver { extra: 0 },
        }
    }

    /// Draws shared-miss jitter from the fault plan (zero without one or
    /// when the reorder probability is zero).
    pub fn fault_miss_jitter(&self) -> Cycles {
        self.inner
            .borrow_mut()
            .faults
            .as_mut()
            .map_or(0, |plan| plan.miss_jitter())
    }

    /// Schedules the task of processor `p` to be re-polled at time `at`.
    pub fn wake_at(&self, p: ProcId, at: Cycles) {
        let mut inner = self.inner.borrow_mut();
        let at = at.max(inner.now);
        inner.push(at, Action::Resume(p));
    }

    /// Returns the local clock of processor `p`.
    pub fn proc_clock(&self, p: ProcId) -> Cycles {
        self.inner.borrow().procs[p.index()].clock
    }

    /// Returns `(local clock of p, global now)` under a single borrow —
    /// the resync fast path reads both on every shared access.
    pub(crate) fn clock_now(&self, p: ProcId) -> (Cycles, Cycles) {
        let inner = self.inner.borrow();
        (inner.procs[p.index()].clock, inner.now)
    }

    /// Snapshots every processor's (clock, cycle matrix, counters).
    ///
    /// Applications use this at phase boundaries (for example, between
    /// initialization and the main loop, as the paper's EM3D tables
    /// require) so the harness can break measurements down per phase by
    /// subtraction.
    pub fn snapshot(&self) -> Vec<(Cycles, CycleMatrix, Counters)> {
        self.inner
            .borrow()
            .procs
            .iter()
            .map(|p| (p.clock, p.matrix.clone(), p.counters.clone()))
            .collect()
    }

    /// Adds `n` to a counter of processor `p`.
    ///
    /// Machine models use this to attribute protocol events (for example,
    /// coherence traffic) to a processor from inside a scheduled callback,
    /// where no [`crate::Cpu`] handle is available.
    pub fn count(&self, p: ProcId, counter: Counter, n: u64) {
        self.with_proc(p, |pr| pr.counters.add(counter, n));
    }

    pub(crate) fn with_proc<R>(&self, p: ProcId, f: impl FnOnce(&mut Proc) -> R) -> R {
        f(&mut self.inner.borrow_mut().procs[p.index()])
    }

    /// Whether tracing is enabled (cheap, but callers on hot paths
    /// should prefer the `bool` cached in [`Cpu`]).
    pub fn tracing(&self) -> bool {
        self.inner.borrow().trace.is_some()
    }

    /// Emits a trace event on processor `p`'s track. No-op when tracing
    /// is disabled.
    pub fn trace(&self, p: ProcId, at: Cycles, what: TraceWhat) {
        if let Some(data) = self.inner.borrow_mut().trace.as_mut() {
            data.events.push(TraceEvent { proc: p, at, what });
        }
    }

    /// Records a latency sample. No-op when tracing is disabled.
    pub fn trace_sample(&self, metric: Metric, value: Cycles) {
        if let Some(data) = self.inner.borrow_mut().trace.as_mut() {
            data.metrics.record(metric, value);
        }
    }
}

type Task = Pin<Box<dyn Future<Output = ()>>>;

/// The simulation engine: owns the per-processor tasks and drives the event
/// loop to completion.
///
/// Typical use: create the engine, build a machine model around
/// [`Engine::sim`], spawn one task per processor with [`Engine::spawn`], and
/// call [`Engine::run`].
pub struct Engine {
    sim: Rc<Sim>,
    tasks: Vec<Option<Task>>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("sim", &self.sim)
            .field("tasks", &self.tasks.iter().filter(|t| t.is_some()).count())
            .finish()
    }
}

impl Engine {
    /// Creates an engine for a machine with `nprocs` processors.
    pub fn new(nprocs: usize, config: SimConfig) -> Self {
        assert!(nprocs > 0, "machine must have at least one processor");
        Engine {
            sim: Sim::new(nprocs, config),
            tasks: (0..nprocs).map(|_| None).collect(),
        }
    }

    /// The shared simulator state handle.
    pub fn sim(&self) -> &Rc<Sim> {
        &self.sim
    }

    /// Iterator over all processor ids of this machine.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> {
        (0..self.tasks.len()).map(ProcId::new)
    }

    /// Creates a [`Cpu`] handle for processor `p` to move into its task.
    pub fn cpu(&self, p: ProcId) -> Cpu {
        Cpu::new(Rc::clone(&self.sim), p)
    }

    /// Installs the target task for processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if a task was already spawned for `p`.
    pub fn spawn(&mut self, p: ProcId, fut: impl Future<Output = ()> + 'static) {
        let slot = &mut self.tasks[p.index()];
        assert!(slot.is_none(), "task already spawned for {p}");
        *slot = Some(Box::pin(fut));
    }

    /// Runs the simulation to completion and returns the measurement report.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] diagnostic on deadlock or livelock.
    /// Use [`Engine::try_run`] to handle those conditions programmatically.
    pub fn run(self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] — the event queue drained while some
    ///   processor task was still blocked; the report names each blocked
    ///   processor, its wait reason, and the wait-for graph.
    /// * [`SimError::Livelock`] — the run has a fault plan and no
    ///   processor task was resumed for [`WATCHDOG_CYCLES`] simulated
    ///   cycles even though machine events kept flowing.
    pub fn try_run(mut self) -> Result<SimReport, SimError> {
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);

        // Kick off every spawned task at time zero.
        for (i, t) in self.tasks.iter().enumerate() {
            if t.is_some() {
                self.sim.wake_at(ProcId::new(i), 0);
            }
        }

        let watchdog = self.sim.config().faults.is_some();
        let mut last_resume: Cycles = 0;

        loop {
            let event = {
                let mut inner = self.sim.inner.borrow_mut();
                match inner.queue.pop() {
                    Some(e) => {
                        if inner.obs {
                            wwt_obs::count(wwt_obs::Ctr::SimEventsPopped, 1);
                        }
                        inner.now = e.time;
                        inner.events_processed += 1;
                        e
                    }
                    None => break,
                }
            };

            match event.action {
                Action::Resume(p) => {
                    last_resume = event.time;
                    let i = p.index();
                    let finished = match self.tasks[i].as_mut() {
                        Some(task) => task.as_mut().poll(&mut cx).is_ready(),
                        None => false,
                    };
                    if finished {
                        self.tasks[i] = None;
                        self.sim.with_proc(p, |proc| proc.done = true);
                    }
                }
                Action::Call(f) => {
                    // Machine events that never resume a task (for example
                    // a retransmit timer endlessly re-arming itself toward
                    // a dead receiver) are what the watchdog exists for.
                    if watchdog && event.time.saturating_sub(last_resume) > WATCHDOG_CYCLES {
                        return Err(SimError::Livelock(self.stall_report()));
                    }
                    f.invoke();
                }
            }
        }

        let any_stuck = self.tasks.iter().any(|t| t.is_some());
        if any_stuck {
            return Err(SimError::Deadlock(self.stall_report()));
        }

        let mut inner = self.sim.inner.borrow_mut();
        let trace = inner.trace.take().map(|data| *data);
        Ok(SimReport::new(
            inner
                .procs
                .iter()
                .enumerate()
                .map(|(i, p)| ProcReport {
                    id: ProcId::new(i),
                    clock: p.clock,
                    matrix: p.matrix.clone(),
                    counters: p.counters.clone(),
                    profile: p.profile.clone(),
                    phase_log: p.phase_log.clone(),
                })
                .collect(),
            inner.events_processed,
            trace,
        ))
    }

    /// Snapshots the blocked state of every unfinished task for a
    /// [`StallReport`]. Tasks that never registered a wait reason (a
    /// machine model blocking on an uninstrumented future) are reported
    /// as an unknown wait.
    fn stall_report(&self) -> StallReport {
        let inner = self.sim.inner.borrow();
        let blocked = self
            .tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                t.as_ref()?;
                let pr = &inner.procs[i];
                Some(match pr.blocked {
                    Some(b) => BlockedProc {
                        proc: ProcId::new(i),
                        clock: pr.clock,
                        kind: b.kind,
                        reason: b.reason,
                        target: b.target,
                    },
                    None => BlockedProc {
                        proc: ProcId::new(i),
                        clock: pr.clock,
                        kind: Kind::Wait,
                        reason: "unknown wait",
                        target: WaitTarget::Any,
                    },
                })
            })
            .collect();
        StallReport {
            now: inner.now,
            events_processed: inner.events_processed,
            nprocs: inner.procs.len(),
            blocked,
            obs: wwt_obs::failure_snapshots(),
        }
    }
}

fn noop_waker() -> Waker {
    const VTABLE: RawWakerVTable = RawWakerVTable::new(
        |_| RawWaker::new(std::ptr::null(), &VTABLE),
        |_| {},
        |_| {},
        |_| {},
    );
    // SAFETY: the vtable functions are all no-ops over a null pointer, which
    // trivially satisfies the RawWaker contract.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::Kind;

    #[test]
    fn empty_task_finishes_at_time_zero() {
        let mut e = Engine::new(1, SimConfig::default());
        let cpu = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            let _ = cpu;
        });
        let r = e.run();
        assert_eq!(r.proc(ProcId::new(0)).clock, 0);
    }

    #[test]
    fn compute_advances_local_clock_only() {
        let mut e = Engine::new(2, SimConfig::default());
        let c0 = e.cpu(ProcId::new(0));
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(0), async move { c0.compute(500) });
        e.spawn(ProcId::new(1), async move { c1.compute(7) });
        let r = e.run();
        assert_eq!(r.proc(ProcId::new(0)).clock, 500);
        assert_eq!(r.proc(ProcId::new(1)).clock, 7);
    }

    #[test]
    fn resync_orders_interactions_globally() {
        // Two processors log interaction times through resync; the log must
        // be globally time-ordered.
        use std::cell::RefCell;
        use std::rc::Rc;
        let log: Rc<RefCell<Vec<(usize, Cycles)>>> = Rc::default();
        let mut e = Engine::new(2, SimConfig::default());
        for (i, delays) in [(0usize, [300u64, 300]), (1usize, [250, 500])] {
            let cpu = e.cpu(ProcId::new(i));
            let log = Rc::clone(&log);
            e.spawn(ProcId::new(i), async move {
                for d in delays {
                    cpu.compute(d);
                    cpu.resync().await;
                    log.borrow_mut().push((i, cpu.clock()));
                }
            });
        }
        e.run();
        let log = log.borrow();
        assert_eq!(log.len(), 4);
        for w in log.windows(2) {
            assert!(w[0].1 <= w[1].1, "interactions out of order: {log:?}");
        }
    }

    #[test]
    fn call_at_runs_in_time_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let mut e = Engine::new(1, SimConfig::default());
        let cpu = e.cpu(ProcId::new(0));
        {
            let sim = Rc::clone(e.sim());
            let l1 = Rc::clone(&log);
            let l2 = Rc::clone(&log);
            sim.call_at(200, move || l1.borrow_mut().push(2)).unwrap();
            sim.call_at(100, move || l2.borrow_mut().push(1)).unwrap();
        }
        e.spawn(ProcId::new(0), async move { cpu.compute(1) });
        e.run();
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn deadlock_returns_structured_error() {
        let mut e = Engine::new(1, SimConfig::default());
        let cpu = e.cpu(ProcId::new(0));
        let cell = crate::wait::WaitCell::new();
        e.spawn(ProcId::new(0), async move {
            // Nobody ever completes this cell.
            cell.wait(&cpu, Kind::Wait).await;
        });
        let err = e.try_run().expect_err("must deadlock");
        let SimError::Deadlock(report) = &err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert_eq!(report.blocked.len(), 1);
        assert_eq!(report.blocked[0].proc, ProcId::new(0));
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn run_still_panics_on_deadlock() {
        let mut e = Engine::new(1, SimConfig::default());
        let cpu = e.cpu(ProcId::new(0));
        let cell = crate::wait::WaitCell::new();
        e.spawn(ProcId::new(0), async move {
            cell.wait(&cpu, Kind::Wait).await;
        });
        e.run();
    }

    #[test]
    fn past_events_are_rejected() {
        let e = Engine::new(1, SimConfig::default());
        let sim = Rc::clone(e.sim());
        sim.inner.borrow_mut().now = 50;
        let err = sim.call_at(10, || {}).expect_err("past event must fail");
        assert_eq!(err, SimError::PastEvent { at: 10, now: 50 });
        assert!(err.to_string().contains("scheduled in the past"));
    }

    #[test]
    fn watchdog_catches_livelock() {
        // A self-rearming machine event that never resumes any task.
        let cfg = SimConfig {
            faults: Some(FaultConfig::default()),
            ..SimConfig::default()
        };
        let mut e = Engine::new(1, cfg);
        let cpu = e.cpu(ProcId::new(0));
        let cell = crate::wait::WaitCell::new();
        fn rearm(sim: &Rc<Sim>, at: Cycles) {
            let sim2 = Rc::clone(sim);
            sim.call_at(at, move || rearm(&sim2, at + 100))
                .expect("scheduled in the future");
        }
        rearm(e.sim(), 100);
        e.spawn(ProcId::new(0), async move {
            cell.wait(&cpu, Kind::Wait).await;
        });
        let err = e.try_run().expect_err("watchdog must fire");
        let SimError::Livelock(report) = &err else {
            panic!("expected livelock, got {err:?}");
        };
        // The task last resumed at 0; the first event past the threshold
        // trips the watchdog.
        assert_eq!(report.now, WATCHDOG_CYCLES + 100);
        assert_eq!(report.blocked.len(), 1);
        assert!(err.to_string().contains("livelock"));
    }

    #[test]
    fn only_the_fault_plan_arms_the_watchdog() {
        // A task waits while a callback chain runs 200 steps of 100,000
        // cycles (twice the watchdog threshold) and then completes it.
        use crate::wait::WaitCell;
        fn step(sim: &Rc<Sim>, cell: WaitCell, at: Cycles, left: u32) {
            let sim2 = Rc::clone(sim);
            sim.call_at(at, move || {
                if left == 0 {
                    cell.complete(&sim2, at);
                } else {
                    step(&sim2, cell, at + 100_000, left - 1);
                }
            })
            .expect("scheduled in the future");
        }
        let run = |faults: Option<FaultConfig>| {
            let mut e = Engine::new(
                1,
                SimConfig {
                    faults,
                    ..SimConfig::default()
                },
            );
            let cpu = e.cpu(ProcId::new(0));
            let cell = WaitCell::new();
            step(e.sim(), cell.clone(), 100_000, 199);
            e.spawn(ProcId::new(0), async move {
                cell.wait(&cpu, Kind::Wait).await;
            });
            e.try_run()
        };
        let report = run(None).expect("a fault-free run has no watchdog");
        assert_eq!(report.proc(ProcId::new(0)).clock, 20_000_000);
        let err = run(Some(FaultConfig::default())).expect_err("a faulted run has one");
        assert!(matches!(err, SimError::Livelock(_)), "{err}");
    }

    #[test]
    fn tracing_records_spans_and_instants() {
        use crate::trace::TraceWhat;
        let cfg = SimConfig {
            trace: true,
            ..SimConfig::default()
        };
        let mut e = Engine::new(1, cfg);
        let cpu = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            cpu.compute(10);
            {
                let _lib = cpu.scope(Scope::Lib);
                cpu.compute(5);
            }
        });
        let r = e.run();
        let trace = r.trace().expect("trace enabled");
        let kinds: Vec<_> = trace.events.iter().map(|ev| ev.what).collect();
        assert_eq!(
            kinds,
            vec![
                TraceWhat::SpanBegin(Scope::Lib),
                TraceWhat::SpanEnd(Scope::Lib)
            ]
        );
        assert_eq!(trace.events[0].at, 10);
        assert_eq!(trace.events[1].at, 15);
    }

    #[test]
    fn tracing_disabled_records_nothing_and_does_not_perturb() {
        let run = |trace: bool| {
            let cfg = SimConfig {
                trace,
                ..SimConfig::default()
            };
            let mut e = Engine::new(2, cfg);
            for p in e.proc_ids() {
                let cpu = e.cpu(p);
                e.spawn(p, async move {
                    for _ in 0..10 {
                        let _lib = cpu.scope(Scope::Lib);
                        cpu.compute(7);
                        cpu.resync().await;
                    }
                });
            }
            e.run()
        };
        let off = run(false);
        let on = run(true);
        assert!(off.trace().is_none());
        assert!(on.trace().is_some());
        // Tracing must be an observer: identical clocks and event counts.
        assert_eq!(off.elapsed(), on.elapsed());
        assert_eq!(off.events_processed(), on.events_processed());
    }

    #[test]
    fn traced_run_reports_span_events_and_samples() {
        let cfg = SimConfig {
            trace: true,
            ..SimConfig::default()
        };
        let mut e = Engine::new(1, cfg);
        let cpu = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            let _lib = cpu.scope(Scope::Lib);
            cpu.compute(1);
        });
        e.sim().trace_sample(Metric::BarrierWait, 55);
        let r = e.run();
        let data = r.trace().unwrap();
        let span = |at, what| TraceEvent {
            proc: ProcId::new(0),
            at,
            what,
        };
        assert_eq!(
            data.events,
            vec![
                span(0, TraceWhat::SpanBegin(Scope::Lib)),
                span(1, TraceWhat::SpanEnd(Scope::Lib)),
            ]
        );
        assert_eq!(data.metrics.get(Metric::BarrierWait).sum(), 55);
    }

    #[test]
    fn report_counts_events() {
        let mut e = Engine::new(1, SimConfig::default());
        let cpu = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            cpu.compute(10);
            cpu.resync().await;
            cpu.compute(10);
            cpu.resync().await;
        });
        let r = e.run();
        // 1 initial resume + 2 resync resumes.
        assert_eq!(r.events_processed(), 3);
    }
}
