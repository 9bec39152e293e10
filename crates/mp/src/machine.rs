//! The message-passing machine: nodes, network interface, active-message
//! dispatch, and costed local-memory access.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use wwt_mem::{touch, AccessKind, Cache, NodeMem, Tlb, TouchOutcome};
use wwt_sim::{
    Counter, Cpu, Cycles, Engine, FastMap, HwBarrier, Kind, Mark, Metric, PacketFate, ProcId,
    Scope, ScopeGuard, Sim, TraceWhat, WaitCell, WaitTarget,
};

use crate::channel::RecvChannel;
use crate::collectives::{BulkBcastState, TreeTable};
use crate::config::MpConfig;
use crate::packet::{tag, Packet, PACKET_BYTES};

// A delivery closure (`MpMachine::inject`) captures `Rc<MpMachine>` and a
// `Packet`; while that fits `SmallCall`'s inline buffer, putting a packet
// on the wire allocates nothing.
const _: () =
    assert!(std::mem::size_of::<(Rc<MpMachine>, Packet)>() <= wwt_sim::callback::INLINE_BYTES);

/// Arguments passed to an active-message handler.
///
/// Handlers run *in the context of the receiving processor* when it polls
/// the network interface, exactly as in the polled CMAML/CMMD regime the
/// paper describes; any cycles a handler charges land on the receiver.
pub struct AmArgs<'a> {
    /// The machine (for replies, channel writes, memory access).
    pub machine: &'a Rc<MpMachine>,
    /// The receiving processor's handle.
    pub cpu: &'a Cpu,
    /// The sending node.
    pub src: ProcId,
    /// 24-bit metadata from the packet header.
    pub meta: u32,
    /// The four payload words.
    pub words: [u32; 4],
}

impl fmt::Debug for AmArgs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AmArgs")
            .field("src", &self.src)
            .field("meta", &self.meta)
            .field("words", &self.words)
            .finish()
    }
}

type HandlerFn = dyn Fn(&AmArgs<'_>);

pub(crate) struct MpNode {
    pub(crate) mem: NodeMem,
    pub(crate) cache: Cache,
    pub(crate) tlb: Tlb,
    pub(crate) rx: VecDeque<Packet>,
    /// The cell `poll_loop` blocks on when the receive queue is empty,
    /// reused for every wait, and whether a wait on it is armed.
    pub(crate) rx_cell: WaitCell,
    pub(crate) rx_armed: bool,
    pub(crate) dispatched: u64,
    // CMMD channel state.
    pub(crate) rchans: Vec<RecvChannel>,
    pub(crate) announces: Vec<VecDeque<(u32, u32)>>,
    // Software-collective state.
    pub(crate) red_inbox: FastMap<(u32, usize), [u32; 4]>,
    pub(crate) red_seq: u32,
    pub(crate) bc_inbox: FastMap<u32, [u32; 4]>,
    pub(crate) bc_seq: u32,
    pub(crate) bcb_stash: FastMap<u32, BulkBcastState>,
    /// An empty buffer kept from the last completed bulk broadcast.
    pub(crate) bcb_spare: Vec<u8>,
    pub(crate) bcb_seq: u32,
    // Reliable-delivery state (touched only when the fault plan perturbs
    // the network; all-zero otherwise).
    /// Next sequence number to stamp, per destination.
    pub(crate) tx_seq: Vec<u64>,
    /// Next sequence number expected, per source (go-back-N receiver).
    pub(crate) rx_expected: Vec<u64>,
    /// Sent-but-unacknowledged packet copies, per destination.
    pub(crate) unacked: Vec<VecDeque<Packet>>,
    /// Whether a retransmit-timer event is scheduled, per destination.
    pub(crate) rtx_armed: Vec<bool>,
    /// Current retransmit deadline, per destination.
    pub(crate) rtx_deadline: Vec<Cycles>,
    /// Current (backed-off) retransmit timeout, per destination.
    pub(crate) rtx_timeout: Vec<Cycles>,
    /// Last time a retransmission round was injected, per destination
    /// (suppresses NACK-triggered retransmit storms within a round trip).
    pub(crate) rtx_last: Vec<Cycles>,
}

impl MpNode {
    fn new(nprocs: usize, config: &MpConfig, seed: u64) -> Self {
        MpNode {
            mem: NodeMem::new(),
            cache: Cache::new(config.arch.cache, seed),
            tlb: Tlb::new(config.arch.tlb_entries),
            rx: VecDeque::new(),
            rx_cell: WaitCell::new(),
            rx_armed: false,
            dispatched: 0,
            rchans: Vec::new(),
            announces: (0..nprocs).map(|_| VecDeque::new()).collect(),
            red_inbox: FastMap::default(),
            red_seq: 0,
            bc_inbox: FastMap::default(),
            bc_seq: 0,
            bcb_stash: FastMap::default(),
            bcb_spare: Vec::new(),
            bcb_seq: 0,
            tx_seq: vec![0; nprocs],
            rx_expected: vec![0; nprocs],
            unacked: (0..nprocs).map(|_| VecDeque::new()).collect(),
            rtx_armed: vec![false; nprocs],
            rtx_deadline: vec![0; nprocs],
            rtx_timeout: vec![config.retry_timeout; nprocs],
            rtx_last: vec![0; nprocs],
        }
    }
}

/// The simulated message-passing machine.
///
/// Create one per [`Engine`], register any application active-message
/// handlers with [`MpMachine::set_handler`], and hand `Rc<MpMachine>`
/// clones plus [`Cpu`] handles to the per-processor tasks.
pub struct MpMachine {
    sim: Rc<Sim>,
    config: MpConfig,
    pub(crate) nodes: RefCell<Vec<MpNode>>,
    handlers: RefCell<FastMap<u8, Rc<HandlerFn>>>,
    barrier: HwBarrier,
    /// Collective trees over this machine's nodes.
    pub(crate) trees: TreeTable,
    /// Cached [`Sim::tracing`] (single branch on packet paths when off).
    tracing: bool,
    /// Whether the reliable-delivery layer is active: true exactly when
    /// the fault plan can perturb network traffic. When false, packets
    /// carry no sequence numbers, no ACKs flow, and no timers arm — runs
    /// are byte-identical to the pre-fault-injection machine.
    reliable: bool,
}

impl fmt::Debug for MpMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MpMachine")
            .field("nprocs", &self.nprocs())
            .field("config", &self.config)
            .finish()
    }
}

impl MpMachine {
    /// Creates a message-passing machine bound to `engine`.
    pub fn new(engine: &Engine, config: MpConfig) -> Rc<Self> {
        let sim = Rc::clone(engine.sim());
        let n = sim.nprocs();
        let seed = wwt_sim::ENGINE_SEED;
        let tracing = sim.tracing();
        let reliable = sim.config().faults.is_some_and(|f| f.perturbs_network());
        Rc::new(MpMachine {
            sim,
            nodes: RefCell::new(
                (0..n)
                    .map(|i| MpNode::new(n, &config, seed.wrapping_add(i as u64)))
                    .collect(),
            ),
            barrier: HwBarrier::new(n, config.arch.barrier_latency),
            trees: TreeTable::new(n),
            config,
            handlers: RefCell::new(FastMap::default()),
            tracing,
            reliable,
        })
    }

    /// Number of nodes.
    pub fn nprocs(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MpConfig {
        &self.config
    }

    /// The simulator handle.
    pub fn sim(&self) -> &Rc<Sim> {
        &self.sim
    }

    /// Registers the handler for an application tag
    /// (must be ≥ [`tag::USER_BASE`]).
    ///
    /// # Panics
    ///
    /// Panics if `t` is a reserved library tag.
    pub fn set_handler(&self, t: u8, f: impl Fn(&AmArgs<'_>) + 'static) {
        assert!(t >= tag::USER_BASE, "tag {t} is reserved for the library");
        self.handlers.borrow_mut().insert(t, Rc::new(f));
    }

    // ----- local memory ---------------------------------------------------

    /// Allocates `bytes` in `node`'s local memory (no simulated cost;
    /// allocation happens during setup).
    pub fn alloc(&self, node: ProcId, bytes: u64, align: u64) -> u64 {
        self.nodes.borrow_mut()[node.index()]
            .mem
            .alloc(bytes, align)
    }

    /// Reads an `f64` from `node`'s memory without simulated cost
    /// (setup/verification only).
    pub fn peek_f64(&self, node: ProcId, off: u64) -> f64 {
        self.nodes.borrow()[node.index()].mem.read_f64(off)
    }

    /// Writes an `f64` to `node`'s memory without simulated cost
    /// (setup/verification only).
    pub fn poke_f64(&self, node: ProcId, off: u64, v: f64) {
        self.nodes.borrow_mut()[node.index()].mem.write_f64(off, v)
    }

    /// Bulk-reads `f64`s from `node`'s memory without simulated cost
    /// (pair with [`MpMachine::touch_read`] for the memory-system charge).
    pub fn peek_f64s(&self, node: ProcId, off: u64, dst: &mut [f64]) {
        self.nodes.borrow()[node.index()].mem.read_f64s(off, dst)
    }

    /// Bulk-writes `f64`s to `node`'s memory without simulated cost
    /// (pair with [`MpMachine::touch_write`] for the memory-system charge).
    pub fn poke_f64s(&self, node: ProcId, off: u64, src: &[f64]) {
        self.nodes.borrow_mut()[node.index()]
            .mem
            .write_f64s(off, src)
    }

    /// Reads a `u32` from `node`'s memory without simulated cost.
    pub fn peek_u32(&self, node: ProcId, off: u64) -> u32 {
        self.nodes.borrow()[node.index()].mem.read_u32(off)
    }

    /// Writes a `u32` to `node`'s memory without simulated cost.
    pub fn poke_u32(&self, node: ProcId, off: u64, v: u32) {
        self.nodes.borrow_mut()[node.index()].mem.write_u32(off, v)
    }

    /// Charges the memory-system cost of reading `bytes` at `off` in the
    /// caller's local memory (block-granularity cache + TLB simulation).
    pub fn touch_read(&self, cpu: &Cpu, off: u64, bytes: u64) {
        self.touch_access(cpu, off, bytes, AccessKind::Read);
    }

    /// Charges the memory-system cost of writing `bytes` at `off`.
    pub fn touch_write(&self, cpu: &Cpu, off: u64, bytes: u64) {
        self.touch_access(cpu, off, bytes, AccessKind::Write);
    }

    fn touch_access(&self, cpu: &Cpu, off: u64, bytes: u64, kind: AccessKind) {
        let out = {
            let mut nodes = self.nodes.borrow_mut();
            let node = &mut nodes[cpu.id().index()];
            touch(&mut node.cache, &mut node.tlb, off, bytes, kind)
        };
        self.charge_touch(cpu, out);
    }

    pub(crate) fn charge_touch(&self, cpu: &Cpu, out: TouchOutcome) {
        if out.misses > 0 {
            cpu.charge(
                Kind::PrivMiss,
                out.misses as Cycles * self.config.priv_miss_total()
                    + (out.dirty_evictions as Cycles) * self.config.arch.replacement,
            );
            cpu.count(Counter::PrivMisses, out.misses as u64);
        }
        if out.tlb_misses > 0 {
            cpu.charge(
                Kind::TlbMiss,
                out.tlb_misses as Cycles * self.config.arch.tlb_miss,
            );
            cpu.count(Counter::TlbMisses, out.tlb_misses as u64);
        }
    }

    /// Costed read of an `f64` in local memory.
    pub fn read_f64(&self, cpu: &Cpu, off: u64) -> f64 {
        self.touch_read(cpu, off, 8);
        self.peek_f64(cpu.id(), off)
    }

    /// Costed write of an `f64` in local memory.
    pub fn write_f64(&self, cpu: &Cpu, off: u64, v: f64) {
        self.touch_write(cpu, off, 8);
        self.poke_f64(cpu.id(), off, v);
    }

    // ----- network interface ----------------------------------------------

    /// Enters the library attribution scope unless already inside a
    /// library/collective scope.
    pub(crate) fn lib_scope(&self, cpu: &Cpu) -> Option<ScopeGuard> {
        (cpu.current_scope() == Scope::App).then(|| cpu.scope(Scope::Lib))
    }

    /// Injects a packet: charges NI access at the sender and schedules
    /// delivery one network latency later. Usable from handlers.
    pub(crate) fn send_packet(self: &Rc<Self>, cpu: &Cpu, mut pkt: Packet) {
        debug_assert_eq!(pkt.src, cpu.id());
        cpu.charge(
            Kind::NetAccess,
            self.config.ni_tag_dest + self.config.ni_send,
        );
        cpu.count(Counter::PacketsSent, 1);
        cpu.count(Counter::BytesData, pkt.data_bytes as u64);
        cpu.count(Counter::BytesControl, pkt.control_bytes() as u64);
        pkt.sent_at = cpu.clock();
        if cpu.tracing() {
            cpu.trace(TraceWhat::Instant(Mark::MsgSend {
                peer: pkt.dest,
                tag: pkt.tag,
            }));
        }
        if self.reliable {
            self.track_unacked(&mut pkt, cpu.clock());
        }
        self.inject(pkt, cpu.clock());
    }

    /// Puts `pkt` on the wire at `depart`, consulting the fault plan for
    /// its fate. Computes the arrival time (the contention-free network
    /// latency) and schedules [`MpMachine::deliver`].
    fn inject(self: &Rc<Self>, pkt: Packet, depart: Cycles) {
        let mut arrival = (depart + self.config.arch.net_latency).max(self.sim.now());
        if self.reliable {
            match self.sim.fault_fate(pkt.src, pkt.dest) {
                PacketFate::Drop => {
                    if self.tracing {
                        self.sim.trace(
                            pkt.src,
                            self.sim.now(),
                            TraceWhat::Instant(Mark::FaultDrop {
                                peer: pkt.dest,
                                tag: pkt.tag,
                            }),
                        );
                    }
                    return;
                }
                PacketFate::Duplicate { extra } => {
                    if self.tracing {
                        self.sim.trace(
                            pkt.src,
                            self.sim.now(),
                            TraceWhat::Instant(Mark::FaultDup {
                                peer: pkt.dest,
                                tag: pkt.tag,
                            }),
                        );
                    }
                    let this = Rc::clone(self);
                    self.sim
                        .call_at(arrival + extra, move || this.deliver(pkt))
                        .expect("arrival is clamped to the present");
                }
                PacketFate::Deliver { extra } => {
                    if extra > 0 && self.tracing {
                        self.sim.trace(
                            pkt.src,
                            self.sim.now(),
                            TraceWhat::Instant(Mark::FaultDelay {
                                peer: pkt.dest,
                                extra,
                            }),
                        );
                    }
                    arrival += extra;
                }
            }
        }
        let this = Rc::clone(self);
        self.sim
            .call_at(arrival, move || this.deliver(pkt))
            .expect("arrival is clamped to the present");
    }

    fn deliver(self: &Rc<Self>, pkt: Packet) {
        if self.reliable {
            match pkt.tag {
                tag::ACK => return self.handle_ack(&pkt),
                tag::NACK => return self.handle_nack(&pkt),
                _ => {
                    // Go-back-N receiver: accept exactly the next expected
                    // sequence number; re-ACK duplicates, NACK gaps.
                    let expected =
                        self.nodes.borrow()[pkt.dest.index()].rx_expected[pkt.src.index()];
                    if u64::from(pkt.seq) < expected {
                        // Duplicate of something already delivered.
                        self.send_ctl(pkt.dest, pkt.src, tag::ACK, expected);
                        return;
                    }
                    if u64::from(pkt.seq) > expected {
                        // Gap: an earlier packet was lost or reordered away.
                        self.send_ctl(pkt.dest, pkt.src, tag::NACK, expected);
                        return;
                    }
                    self.nodes.borrow_mut()[pkt.dest.index()].rx_expected[pkt.src.index()] += 1;
                    self.send_ctl(pkt.dest, pkt.src, tag::ACK, u64::from(pkt.seq) + 1);
                }
            }
        }
        if self.tracing {
            self.sim.trace(
                pkt.dest,
                self.sim.now(),
                TraceWhat::Instant(Mark::MsgRecv {
                    peer: pkt.src,
                    tag: pkt.tag,
                }),
            );
        }
        let cell = {
            let mut nodes = self.nodes.borrow_mut();
            let node = &mut nodes[pkt.dest.index()];
            node.rx.push_back(pkt);
            std::mem::take(&mut node.rx_armed).then(|| node.rx_cell.clone())
        };
        if let Some(cell) = cell {
            cell.complete(&self.sim, self.sim.now());
        }
    }

    // ----- reliable delivery ------------------------------------------------

    /// Stamps `pkt` with the next sequence number for its destination,
    /// remembers a copy for retransmission, and (re)arms the per-destination
    /// retransmit timer.
    fn track_unacked(self: &Rc<Self>, pkt: &mut Packet, at: Cycles) {
        let src = pkt.src;
        let d = pkt.dest.index();
        let (arm, deadline) = {
            let mut nodes = self.nodes.borrow_mut();
            let node = &mut nodes[src.index()];
            pkt.seq = u32::try_from(node.tx_seq[d])
                .expect("fewer than 2^32 packets per (source, destination) pair");
            node.tx_seq[d] += 1;
            node.unacked[d].push_back(*pkt);
            let deadline = at.max(self.sim.now()) + node.rtx_timeout[d];
            node.rtx_deadline[d] = deadline;
            let arm = !node.rtx_armed[d];
            node.rtx_armed[d] = true;
            (arm, deadline)
        };
        if arm {
            let this = Rc::clone(self);
            let dest = pkt.dest;
            self.sim
                .call_at(deadline, move || this.retransmit_timer(src, dest))
                .expect("deadline is in the future");
        }
    }

    /// Emits a zero-payload ACK/NACK control packet carrying the cumulative
    /// next-expected sequence number. Control packets are unsequenced and
    /// themselves subject to the fault plan (a lost ACK is recovered by the
    /// sender's retransmit timer).
    fn send_ctl(self: &Rc<Self>, from: ProcId, to: ProcId, t: u8, ack: u64) {
        self.sim
            .charge_callback(from, Kind::Retry, self.config.ack_cost);
        let counter = if t == tag::ACK {
            Counter::AcksSent
        } else {
            Counter::NacksSent
        };
        self.sim.count(from, counter, 1);
        self.sim.count(from, Counter::PacketsSent, 1);
        self.sim
            .count(from, Counter::BytesControl, PACKET_BYTES as u64);
        let pkt = Packet {
            src: from,
            dest: to,
            tag: t,
            meta: 0,
            words: [(ack & 0xffff_ffff) as u32, (ack >> 32) as u32, 0, 0],
            data_bytes: 0,
            sent_at: self.sim.now(),
            seq: 0,
        };
        self.inject(pkt, self.sim.now());
    }

    /// Handles a cumulative ACK at the original sender (`pkt.dest`):
    /// everything below the carried sequence number is delivered.
    fn handle_ack(self: &Rc<Self>, pkt: &Packet) {
        let acked = (pkt.words[0] as u64) | ((pkt.words[1] as u64) << 32);
        let d = pkt.src.index();
        let mut nodes = self.nodes.borrow_mut();
        let node = &mut nodes[pkt.dest.index()];
        while node.unacked[d]
            .front()
            .is_some_and(|p| u64::from(p.seq) < acked)
        {
            node.unacked[d].pop_front();
        }
        if node.unacked[d].is_empty() {
            // Progress: reset backoff. The armed timer disarms itself at
            // its next expiry (the queue is empty).
            node.rtx_timeout[d] = self.config.retry_timeout;
        } else {
            node.rtx_deadline[d] = self.sim.now() + node.rtx_timeout[d];
        }
    }

    /// Handles a NACK at the original sender: the receiver saw a gap, so
    /// retransmit the outstanding window immediately (rate-limited to one
    /// round per round trip to avoid NACK storms).
    fn handle_nack(self: &Rc<Self>, pkt: &Packet) {
        let me = pkt.dest;
        let d = pkt.src.index();
        let want = (pkt.words[0] as u64) | ((pkt.words[1] as u64) << 32);
        let fire = {
            let mut nodes = self.nodes.borrow_mut();
            let node = &mut nodes[me.index()];
            while node.unacked[d]
                .front()
                .is_some_and(|p| u64::from(p.seq) < want)
            {
                node.unacked[d].pop_front();
            }
            !node.unacked[d].is_empty()
                && self.sim.now() >= node.rtx_last[d] + 2 * self.config.arch.net_latency
        };
        if fire {
            self.retransmit_unacked(me, pkt.src);
            let mut nodes = self.nodes.borrow_mut();
            let node = &mut nodes[me.index()];
            node.rtx_last[d] = self.sim.now();
            node.rtx_deadline[d] = self.sim.now() + node.rtx_timeout[d];
        }
    }

    /// The per-(sender, destination) retransmit timer. Fires at the armed
    /// deadline; if ACK progress pushed the deadline forward it re-arms,
    /// otherwise it retransmits the whole outstanding window and backs off
    /// exponentially. Disarms when the window is empty.
    fn retransmit_timer(self: &Rc<Self>, src: ProcId, dest: ProcId) {
        let d = dest.index();
        let now = self.sim.now();
        enum Step {
            Disarm,
            Rearm(Cycles),
            Fire(Cycles),
        }
        let step = {
            let mut nodes = self.nodes.borrow_mut();
            let node = &mut nodes[src.index()];
            if node.unacked[d].is_empty() {
                node.rtx_armed[d] = false;
                node.rtx_timeout[d] = self.config.retry_timeout;
                Step::Disarm
            } else if now < node.rtx_deadline[d] {
                Step::Rearm(node.rtx_deadline[d])
            } else {
                let next = (node.rtx_timeout[d]
                    .saturating_mul(self.config.retry_backoff as Cycles))
                .min(self.config.retry_timeout_max);
                node.rtx_timeout[d] = next;
                node.rtx_deadline[d] = now + next;
                node.rtx_last[d] = now;
                Step::Fire(now + next)
            }
        };
        match step {
            Step::Disarm => {}
            Step::Rearm(at) => {
                let this = Rc::clone(self);
                self.sim
                    .call_at(at, move || this.retransmit_timer(src, dest))
                    .expect("deadline is in the future");
            }
            Step::Fire(at) => {
                self.retransmit_unacked(src, dest);
                let this = Rc::clone(self);
                self.sim
                    .call_at(at, move || this.retransmit_timer(src, dest))
                    .expect("deadline is in the future");
            }
        }
    }

    /// Re-injects every outstanding packet for (`src` → `dest`), charging
    /// the NI cost to the `retry` category. Copies keep their original
    /// `sent_at` so end-to-end latency samples include recovery time.
    fn retransmit_unacked(self: &Rc<Self>, src: ProcId, dest: ProcId) {
        let pkts: Vec<Packet> = self.nodes.borrow()[src.index()].unacked[dest.index()]
            .iter()
            .copied()
            .collect();
        if pkts.is_empty() {
            return;
        }
        let count = pkts.len() as u64;
        self.sim.charge_callback(
            src,
            Kind::Retry,
            self.config.retry_packet_cost.saturating_mul(count),
        );
        self.sim.count(src, Counter::Retransmits, count);
        self.sim.count(src, Counter::PacketsSent, count);
        if self.tracing {
            self.sim.trace(
                src,
                self.sim.now(),
                TraceWhat::Instant(Mark::Retransmit {
                    peer: dest,
                    count: count as u32,
                }),
            );
        }
        for pkt in pkts {
            self.sim
                .count(src, Counter::BytesData, pkt.data_bytes as u64);
            self.sim
                .count(src, Counter::BytesControl, pkt.control_bytes() as u64);
            self.inject(pkt, self.sim.now());
        }
    }

    /// Sends an active message: `words` are delivered to the handler for
    /// `t` on `dest` when it next polls. `data_bytes` of the payload count
    /// as application data in the byte accounting.
    pub async fn am_send(
        self: &Rc<Self>,
        cpu: &Cpu,
        dest: ProcId,
        t: u8,
        meta: u32,
        words: [u32; 4],
    ) {
        self.am_send_data(cpu, dest, t, meta, words, 0).await;
    }

    /// [`MpMachine::am_send`] with explicit data-byte accounting.
    pub async fn am_send_data(
        self: &Rc<Self>,
        cpu: &Cpu,
        dest: ProcId,
        t: u8,
        meta: u32,
        words: [u32; 4],
        data_bytes: u16,
    ) {
        cpu.resync().await;
        let _lib = self.lib_scope(cpu);
        cpu.compute(self.config.am_send_overhead);
        cpu.count(Counter::ActiveMessages, 1);
        cpu.count(Counter::MessagesSent, 1);
        self.send_packet(
            cpu,
            Packet {
                src: cpu.id(),
                dest,
                tag: t,
                meta,
                words,
                data_bytes,
                sent_at: 0,
                seq: 0,
            },
        );
    }

    fn pop_rx(&self, p: ProcId) -> Option<Packet> {
        self.nodes.borrow_mut()[p.index()].rx.pop_front()
    }

    fn arm_rx_waiter(&self, p: ProcId) -> WaitCell {
        let mut nodes = self.nodes.borrow_mut();
        let node = &mut nodes[p.index()];
        assert!(!node.rx_armed, "{p} already blocked on the NI");
        node.rx_armed = true;
        node.rx_cell.reset();
        node.rx_cell.clone()
    }

    /// Polls once: checks the NI status register and, if a packet is
    /// queued, receives and dispatches it. Returns whether a packet was
    /// handled. Does not block.
    pub fn poll_once(self: &Rc<Self>, cpu: &Cpu) -> bool {
        let _lib = self.lib_scope(cpu);
        cpu.charge(Kind::NetAccess, self.config.ni_status);
        match self.pop_rx(cpu.id()) {
            Some(pkt) => {
                cpu.charge(Kind::NetAccess, self.config.ni_recv);
                cpu.compute(self.config.am_dispatch_overhead);
                self.dispatch(cpu, pkt);
                true
            }
            None => false,
        }
    }

    /// The CMMD dispatch loop: polls (dispatching incoming packets, which
    /// may run handlers) until `done(self)` is true, blocking on the NI
    /// when the receive queue is empty.
    pub(crate) async fn poll_loop(self: &Rc<Self>, cpu: &Cpu, mut done: impl FnMut(&Self) -> bool) {
        loop {
            cpu.resync().await;
            if done(self) {
                return;
            }
            cpu.compute(self.config.poll_overhead);
            cpu.charge(Kind::NetAccess, self.config.ni_status);
            let pkt = self.pop_rx(cpu.id());
            match pkt {
                Some(pkt) => {
                    cpu.charge(Kind::NetAccess, self.config.ni_recv);
                    cpu.compute(self.config.am_dispatch_overhead);
                    self.dispatch(cpu, pkt);
                }
                None => {
                    let cell = self.arm_rx_waiter(cpu.id());
                    cell.wait_labeled(cpu, Kind::Wait, "message receive", WaitTarget::Any)
                        .await;
                }
            }
        }
    }

    /// Polls, dispatching packets, until `pred(dispatched)` is true, where
    /// `dispatched` counts all packets this node has ever dispatched.
    pub async fn poll_until(self: &Rc<Self>, cpu: &Cpu, mut pred: impl FnMut(u64) -> bool) {
        let me = cpu.id().index();
        let _lib = self.lib_scope(cpu);
        self.poll_loop(cpu, move |m| pred(m.nodes.borrow()[me].dispatched))
            .await;
    }

    /// Polls, dispatching packets (and running their handlers), until
    /// `done()` is true. Use this to drain application-level requests whose
    /// completion the handlers record in application state.
    pub async fn poll_until_with(self: &Rc<Self>, cpu: &Cpu, mut done: impl FnMut() -> bool) {
        let _lib = self.lib_scope(cpu);
        self.poll_loop(cpu, move |_| done()).await;
    }

    pub(crate) fn dispatch(self: &Rc<Self>, cpu: &Cpu, pkt: Packet) {
        self.nodes.borrow_mut()[cpu.id().index()].dispatched += 1;
        if cpu.tracing() {
            cpu.trace(TraceWhat::Instant(Mark::MsgDispatch {
                peer: pkt.src,
                tag: pkt.tag,
            }));
            // End-to-end message latency: network injection to handler
            // dispatch (includes time queued at an unpolled NI).
            cpu.sim()
                .trace_sample(Metric::MsgLatency, cpu.clock().saturating_sub(pkt.sent_at));
        }
        match pkt.tag {
            tag::CHAN_DATA => self.handle_chan_data(cpu, &pkt),
            tag::CHAN_DONE => self.handle_chan_done(cpu, &pkt),
            tag::CHAN_ANNOUNCE => self.handle_chan_announce(cpu, &pkt),
            tag::RED_VAL => {
                cpu.compute(self.config.collective_msg_overhead);
                let me = cpu.id().index();
                self.nodes.borrow_mut()[me]
                    .red_inbox
                    .insert((pkt.meta, pkt.src.index()), pkt.words);
            }
            tag::BC_VAL => {
                cpu.compute(self.config.collective_msg_overhead);
                let me = cpu.id().index();
                self.nodes.borrow_mut()[me]
                    .bc_inbox
                    .insert(pkt.meta, pkt.words);
            }
            tag::BC_BULK => self.handle_bc_bulk(cpu, &pkt),
            t => {
                let handler = self
                    .handlers
                    .borrow()
                    .get(&t)
                    .cloned()
                    .unwrap_or_else(|| panic!("no handler registered for tag {t}"));
                handler(&AmArgs {
                    machine: self,
                    cpu,
                    src: pkt.src,
                    meta: pkt.meta,
                    words: pkt.words,
                });
            }
        }
    }

    // ----- barrier ---------------------------------------------------------

    /// Waits at the machine's hardware barrier.
    pub async fn barrier(&self, cpu: &Cpu) {
        self.barrier.wait(cpu, Kind::BarrierWait).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_sim::SimConfig;

    fn setup(n: usize) -> (Engine, Rc<MpMachine>) {
        let engine = Engine::new(n, SimConfig::default());
        let machine = MpMachine::new(&engine, MpConfig::default());
        (engine, machine)
    }

    #[test]
    fn am_round_trip_delivers_payload_and_charges_ni() {
        let (mut e, m) = setup(2);
        let got = Rc::new(std::cell::Cell::new(0u32));
        {
            let got = Rc::clone(&got);
            m.set_handler(tag::USER_BASE, move |a| {
                assert_eq!(a.src, ProcId::new(0));
                got.set(a.words[0] + a.meta);
            });
        }
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            m0.am_send(&c0, ProcId::new(1), tag::USER_BASE, 5, [37, 0, 0, 0])
                .await;
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            m1.poll_until(&c1, |n| n >= 1).await;
        });
        let r = e.run();
        assert_eq!(got.get(), 42);
        let sender = r.proc(ProcId::new(0));
        // tag+dest (5) + send 5 words (15)
        assert_eq!(sender.matrix.by_kind(Kind::NetAccess), 20);
        assert_eq!(sender.counters.get(Counter::PacketsSent), 1);
        assert_eq!(sender.counters.get(Counter::BytesControl), 20);
        let recv = r.proc(ProcId::new(1));
        // at least one status read (5) + receive (15)
        assert!(recv.matrix.by_kind(Kind::NetAccess) >= 20);
    }

    #[test]
    fn receiver_blocks_until_arrival() {
        let (mut e, m) = setup(2);
        m.set_handler(tag::USER_BASE, |_| {});
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            c0.compute(1000);
            m0.am_send(&c0, ProcId::new(1), tag::USER_BASE, 0, [0; 4])
                .await;
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            m1.poll_until(&c1, |n| n >= 1).await;
            // arrival at 1000 (compute) + 15 (am overhead) + 20 (NI) + 100
            assert!(c1.clock() >= 1135);
        });
        let r = e.run();
        // Waiting charged to the Lib scope as Wait.
        assert!(r.proc(ProcId::new(1)).matrix.get(Scope::Lib, Kind::Wait) >= 1000);
    }

    #[test]
    fn local_touch_charges_misses_and_counts() {
        let (mut e, m) = setup(1);
        let c = e.cpu(ProcId::new(0));
        let m0 = Rc::clone(&m);
        let off = m.alloc(ProcId::new(0), 4096, 32);
        e.spawn(ProcId::new(0), async move {
            m0.touch_read(&c, off, 320); // 10 blocks, all cold
            m0.touch_read(&c, off, 320); // all hits
        });
        let r = e.run();
        let p = r.proc(ProcId::new(0));
        assert_eq!(p.counters.get(Counter::PrivMisses), 10);
        // 10 misses * (11 + 10)
        assert_eq!(p.matrix.by_kind(Kind::PrivMiss), 210);
    }

    #[test]
    fn peek_poke_round_trip() {
        let (_e, m) = setup(1);
        let off = m.alloc(ProcId::new(0), 64, 8);
        m.poke_f64(ProcId::new(0), off, 2.75);
        assert_eq!(m.peek_f64(ProcId::new(0), off), 2.75);
        m.poke_u32(ProcId::new(0), off + 8, 99);
        assert_eq!(m.peek_u32(ProcId::new(0), off + 8), 99);
    }

    #[test]
    #[should_panic(expected = "reserved for the library")]
    fn reserved_tags_rejected() {
        let (_e, m) = setup(1);
        m.set_handler(tag::CHAN_DATA, |_| {});
    }

    #[test]
    fn barrier_synchronizes_all_nodes() {
        let (mut e, m) = setup(4);
        for p in e.proc_ids() {
            let cpu = e.cpu(p);
            let m = Rc::clone(&m);
            e.spawn(p, async move {
                cpu.compute(100 * (p.index() as u64 + 1));
                m.barrier(&cpu).await;
                assert_eq!(cpu.clock(), 500);
            });
        }
        e.run();
    }
}
