//! Software reductions and broadcasts over active messages.
//!
//! The CM-5 in this study has *no* broadcast/reduction hardware (the paper
//! disables it to study software implementations, Section 4). Gauss's
//! tuning story (Section 5.2) compares three software shapes:
//!
//! * **flat** — the root exchanges a message with every other node
//!   (119.3M cycles for Gauss's collectives),
//! * **binary tree** (40.9M cycles),
//! * **lop-sided tree** — a binomial tree, the LogP-optimal shape when
//!   send/receive overhead exceeds network latency (30.1M cycles).
//!
//! Scalar reductions/broadcasts ride in single active messages; bulk
//! broadcasts (Gauss's pivot rows) are store-and-forwarded down the tree a
//! packet at a time, so the pipeline overlaps levels.

use std::rc::Rc;

use wwt_sim::{Counter, Cpu, ProcId, Scope};

use crate::config::COSTS;
use crate::machine::MpMachine;
use crate::packet::{pack_f64, tag, unpack_f64, Packet};

/// Shape of a software reduction/broadcast tree.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TreeShape {
    /// Root talks to every node directly.
    Flat,
    /// Balanced binary tree.
    Binary,
    /// Binomial ("lop-sided") tree, LogP-optimal under high send overhead.
    Lopsided,
}

impl TreeShape {
    /// Parent of virtual rank `v` in a tree over `n` nodes
    /// (`None` for the root, virtual rank 0).
    pub fn parent(self, v: usize, n: usize) -> Option<usize> {
        assert!(v < n, "rank out of range");
        if v == 0 {
            return None;
        }
        Some(match self {
            TreeShape::Flat => 0,
            TreeShape::Binary => (v - 1) / 2,
            TreeShape::Lopsided => v & (v - 1),
        })
    }

    /// Children of virtual rank `v`, in send order (largest subtree first
    /// for the lop-sided shape, which is what makes it LogP-optimal).
    pub fn children(self, v: usize, n: usize) -> Vec<usize> {
        assert!(v < n, "rank out of range");
        match self {
            TreeShape::Flat => {
                if v == 0 {
                    (1..n).collect()
                } else {
                    Vec::new()
                }
            }
            TreeShape::Binary => [2 * v + 1, 2 * v + 2]
                .into_iter()
                .filter(|&c| c < n)
                .collect(),
            TreeShape::Lopsided => {
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
                kids.reverse(); // largest subtree first
                kids
            }
        }
    }

    pub(crate) fn encode(self) -> u32 {
        match self {
            TreeShape::Flat => 0,
            TreeShape::Binary => 1,
            TreeShape::Lopsided => 2,
        }
    }

    pub(crate) fn decode(v: u32) -> TreeShape {
        match v {
            0 => TreeShape::Flat,
            1 => TreeShape::Binary,
            2 => TreeShape::Lopsided,
            _ => panic!("invalid tree shape encoding {v}"),
        }
    }
}

/// Every rank's children in each [`TreeShape`] over one machine's nodes,
/// built once so that a collective step or a forwarded bulk packet looks
/// its children up instead of allocating them.
pub(crate) struct TreeTable([Vec<Vec<usize>>; 3]);

impl TreeTable {
    pub(crate) fn new(n: usize) -> Self {
        TreeTable(
            [TreeShape::Flat, TreeShape::Binary, TreeShape::Lopsided]
                .map(|shape| (0..n).map(|v| shape.children(v, n)).collect()),
        )
    }

    /// [`TreeShape::children`] of virtual rank `v`.
    pub(crate) fn children(&self, shape: TreeShape, v: usize) -> &[usize] {
        &self.0[shape.encode() as usize][v]
    }
}

/// In-flight state of a bulk broadcast on one node.
#[derive(Debug, Default)]
pub struct BulkBcastState {
    pub(crate) data: Vec<u8>,
    pub(crate) pkts: u32,
    pub(crate) total: Option<u32>,
}

impl BulkBcastState {
    fn done(&self) -> bool {
        self.total.is_some()
    }
}

const BULK_DATA_BYTES: u32 = 12;

fn vrank(me: usize, root: usize, n: usize) -> usize {
    (me + n - root) % n
}

fn abs_rank(v: usize, root: usize, n: usize) -> ProcId {
    ProcId::new((v + root) % n)
}

fn pack_subhdr(root: usize, shape: TreeShape, last: bool, nbytes: u32, idx: u32) -> u32 {
    debug_assert!(idx < (1 << 14) && nbytes <= BULK_DATA_BYTES);
    ((root as u32) << 21) | (shape.encode() << 19) | ((last as u32) << 18) | (nbytes << 14) | idx
}

fn unpack_subhdr(h: u32) -> (usize, TreeShape, bool, u32, u32) {
    (
        (h >> 21) as usize,
        TreeShape::decode((h >> 19) & 0x3),
        (h >> 18) & 1 == 1,
        (h >> 14) & 0xf,
        h & 0x3fff,
    )
}

impl MpMachine {
    /// A software reduction to `root` over raw payload words.
    ///
    /// Every node contributes `words`; interior nodes wait for their
    /// children's contributions (polling, so other traffic keeps flowing),
    /// combine with `combine`, and forward up the tree. Returns
    /// `Some(result)` on the root, `None` elsewhere.
    pub async fn reduce_raw(
        self: &Rc<Self>,
        cpu: &Cpu,
        shape: TreeShape,
        root: usize,
        words: [u32; 4],
        combine: impl Fn([u32; 4], [u32; 4]) -> [u32; 4],
    ) -> Option<[u32; 4]> {
        let _sc = cpu.scope(Scope::Reduction);
        cpu.count(Counter::Reductions, 1);
        let n = self.nprocs();
        let me = cpu.id().index();
        let v = vrank(me, root, n);
        let seq = {
            let mut nodes = self.nodes.borrow_mut();
            let s = nodes[me].red_seq;
            nodes[me].red_seq = s.wrapping_add(1) & 0xff_ffff;
            s
        };
        let mut acc = words;
        for &c in self.trees.children(shape, v) {
            let c_abs = abs_rank(c, root, n).index();
            let key = (seq, c_abs);
            self.poll_loop(cpu, move |m| {
                m.nodes.borrow()[me].red_inbox.contains_key(&key)
            })
            .await;
            let w = self.nodes.borrow_mut()[me]
                .red_inbox
                .remove(&key)
                .expect("operand must be present");
            cpu.compute(COSTS.reduce_combine);
            acc = combine(acc, w);
        }
        if v == 0 {
            cpu.phase_mark();
            Some(acc)
        } else {
            let parent = abs_rank(shape.parent(v, n).expect("non-root has a parent"), root, n);
            cpu.compute(COSTS.am_send_overhead + self.config().collective_msg_overhead);
            cpu.count(Counter::ActiveMessages, 1);
            self.send_packet(
                cpu,
                Packet {
                    src: cpu.id(),
                    dest: parent,
                    tag: tag::RED_VAL,
                    meta: seq,
                    words: acc,
                    data_bytes: 8,
                    sent_at: 0,
                    seq: 0,
                },
            );
            cpu.phase_mark();
            None
        }
    }

    /// A software broadcast of raw payload words from `root`.
    ///
    /// Non-roots wait (polling) for the value from their parent and forward
    /// it down; everyone returns the broadcast words.
    pub async fn bcast_raw(
        self: &Rc<Self>,
        cpu: &Cpu,
        shape: TreeShape,
        root: usize,
        words: [u32; 4],
    ) -> [u32; 4] {
        let _sc = cpu.scope(Scope::Broadcast);
        cpu.count(Counter::Broadcasts, 1);
        let n = self.nprocs();
        let me = cpu.id().index();
        let v = vrank(me, root, n);
        let seq = {
            let mut nodes = self.nodes.borrow_mut();
            let s = nodes[me].bc_seq;
            nodes[me].bc_seq = s.wrapping_add(1) & 0xff_ffff;
            s
        };
        let w = if v == 0 {
            words
        } else {
            self.poll_loop(cpu, move |m| {
                m.nodes.borrow()[me].bc_inbox.contains_key(&seq)
            })
            .await;
            self.nodes.borrow_mut()[me]
                .bc_inbox
                .remove(&seq)
                .expect("value must be present")
        };
        for &c in self.trees.children(shape, v) {
            cpu.compute(COSTS.am_send_overhead + self.config().collective_msg_overhead);
            cpu.count(Counter::ActiveMessages, 1);
            self.send_packet(
                cpu,
                Packet {
                    src: cpu.id(),
                    dest: abs_rank(c, root, n),
                    tag: tag::BC_VAL,
                    meta: seq,
                    words: w,
                    data_bytes: 8,
                    sent_at: 0,
                    seq: 0,
                },
            );
        }
        cpu.phase_mark();
        w
    }

    /// Reduction of an `f64` maximum, also identifying the rank holding the
    /// maximum (used by Gauss's pivot selection). Root-only result.
    pub async fn reduce_max_f64_index(
        self: &Rc<Self>,
        cpu: &Cpu,
        shape: TreeShape,
        root: usize,
        value: f64,
        rank: usize,
    ) -> Option<(f64, usize)> {
        let [lo, hi] = pack_f64(value);
        let words = [lo, hi, rank as u32, 0];
        self.reduce_raw(cpu, shape, root, words, |a, b| {
            let va = unpack_f64(a[0], a[1]);
            let vb = unpack_f64(b[0], b[1]);
            if vb > va || (vb == va && b[2] < a[2]) {
                b
            } else {
                a
            }
        })
        .await
        .map(|w| (unpack_f64(w[0], w[1]), w[2] as usize))
    }

    /// Reduction of an `f64` sum to `root`.
    pub async fn reduce_sum_f64(
        self: &Rc<Self>,
        cpu: &Cpu,
        shape: TreeShape,
        root: usize,
        value: f64,
    ) -> Option<f64> {
        let [lo, hi] = pack_f64(value);
        self.reduce_raw(cpu, shape, root, [lo, hi, 0, 0], |a, b| {
            let [lo, hi] = pack_f64(unpack_f64(a[0], a[1]) + unpack_f64(b[0], b[1]));
            [lo, hi, 0, 0]
        })
        .await
        .map(|w| unpack_f64(w[0], w[1]))
    }

    /// Broadcast of one `f64` from `root`; every node returns the value.
    pub async fn bcast_f64(
        self: &Rc<Self>,
        cpu: &Cpu,
        shape: TreeShape,
        root: usize,
        value: f64,
    ) -> f64 {
        let [lo, hi] = pack_f64(value);
        let w = self.bcast_raw(cpu, shape, root, [lo, hi, 0, 0]).await;
        unpack_f64(w[0], w[1])
    }

    /// Bulk broadcast from `root`: `bytes` bytes of `root`'s local memory
    /// at `buf_off` are store-and-forwarded down the tree a packet at a
    /// time and land at `buf_off` in every node's local memory. Returns the
    /// message length (non-roots pass `bytes = 0` and learn the length).
    ///
    /// # Panics
    ///
    /// Panics on the root if `bytes` is zero or exceeds the 14-bit packet
    /// index range (~196 KB).
    pub async fn bcast_bulk(
        self: &Rc<Self>,
        cpu: &Cpu,
        shape: TreeShape,
        root: usize,
        buf_off: u64,
        bytes: u32,
    ) -> u32 {
        let _sc = cpu.scope(Scope::Broadcast);
        cpu.count(Counter::Broadcasts, 1);
        let n = self.nprocs();
        let me = cpu.id().index();
        let v = vrank(me, root, n);
        let seq = {
            let mut nodes = self.nodes.borrow_mut();
            let s = nodes[me].bcb_seq;
            nodes[me].bcb_seq = s.wrapping_add(1) & 0xff_ffff;
            s
        };
        if v == 0 {
            assert!(bytes > 0, "root must broadcast at least one byte");
            let npkts = bytes.div_ceil(BULK_DATA_BYTES);
            assert!(
                npkts < (1 << 14),
                "bulk broadcast of {bytes} bytes too large"
            );
            self.touch_read(cpu, buf_off, bytes as u64);
            cpu.count(Counter::MessagesSent, 1);
            let children = self.trees.children(shape, 0);
            // One logical bulk transfer per child, as the paper's
            // channel-based row broadcast counts them (Table 10).
            cpu.count(Counter::ChannelWrites, children.len() as u64);
            cpu.compute(self.config().collective_msg_overhead * children.len() as u64);
            for idx in 0..npkts {
                let chunk = (bytes - idx * BULK_DATA_BYTES).min(BULK_DATA_BYTES);
                let mut words = [0u32; 4];
                words[0] = pack_subhdr(root, shape, idx == npkts - 1, chunk, idx);
                for w in 0..3u32 {
                    if w * 4 < chunk {
                        words[(w + 1) as usize] = self.peek_u32(
                            cpu.id(),
                            buf_off + (idx * BULK_DATA_BYTES) as u64 + (w * 4) as u64,
                        );
                    }
                }
                cpu.compute(COSTS.chan_packet_overhead);
                for &c in children {
                    self.send_packet(
                        cpu,
                        Packet {
                            src: cpu.id(),
                            dest: abs_rank(c, root, n),
                            tag: tag::BC_BULK,
                            meta: seq,
                            words,
                            data_bytes: u16::try_from(chunk)
                                .expect("chunks fit one packet payload"),
                            sent_at: 0,
                            seq: 0,
                        },
                    );
                }
            }
            cpu.phase_mark();
            bytes
        } else {
            self.poll_loop(cpu, move |m| {
                m.nodes.borrow()[me]
                    .bcb_stash
                    .get(&seq)
                    .is_some_and(|s| s.done())
            })
            .await;
            let st = self.nodes.borrow_mut()[me]
                .bcb_stash
                .remove(&seq)
                .expect("stash must be present");
            let total = st.total.expect("stash complete");
            // Copy the assembled message into the local buffer, then keep
            // the stash's allocation for the next broadcast.
            {
                let mut nodes = self.nodes.borrow_mut();
                let node = &mut nodes[me];
                for (i, &b) in st.data.iter().enumerate().take(total as usize) {
                    let off = buf_off + i as u64;
                    let word = node.mem.read_u32(off & !3);
                    let shift = ((off & 3) * 8) as u32;
                    let word = (word & !(0xffu32 << shift)) | ((b as u32) << shift);
                    node.mem.write_u32(off & !3, word);
                }
                let mut data = st.data;
                data.clear();
                node.bcb_spare = data;
            }
            self.touch_write(cpu, buf_off, total as u64);
            cpu.phase_mark();
            total
        }
    }

    pub(crate) fn handle_bc_bulk(self: &Rc<Self>, cpu: &Cpu, pkt: &Packet) {
        let (root, shape, last, nbytes, idx) = unpack_subhdr(pkt.words[0]);
        let n = self.nprocs();
        let me = cpu.id().index();
        cpu.compute(COSTS.chan_recv_packet_overhead);
        {
            let mut nodes = self.nodes.borrow_mut();
            let node = &mut nodes[me];
            let spare = &mut node.bcb_spare;
            let st = node
                .bcb_stash
                .entry(pkt.meta)
                .or_insert_with(|| BulkBcastState {
                    data: std::mem::take(spare),
                    ..BulkBcastState::default()
                });
            let base = (idx * BULK_DATA_BYTES) as usize;
            if st.data.len() < base + nbytes as usize {
                st.data.resize(base + nbytes as usize, 0);
            }
            for b in 0..nbytes {
                let word = pkt.words[1 + (b / 4) as usize];
                st.data[base + b as usize] = ((word >> ((b % 4) * 8)) & 0xff) as u8;
            }
            st.pkts += 1;
            if last {
                st.total = Some(idx * BULK_DATA_BYTES + nbytes);
            }
        }
        // Store-and-forward to our children in the (relabeled) tree.
        let v = vrank(me, root, n);
        let children = self.trees.children(shape, v);
        if last {
            cpu.count(Counter::ChannelWrites, children.len() as u64);
            cpu.compute(self.config().collective_msg_overhead * (children.len() as u64 + 1));
        }
        for &c in children {
            self.send_packet(
                cpu,
                Packet {
                    src: cpu.id(),
                    dest: abs_rank(c, root, n),
                    tag: tag::BC_BULK,
                    meta: pkt.meta,
                    words: pkt.words,
                    data_bytes: pkt.data_bytes,
                    sent_at: 0,
                    seq: 0,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpConfig;
    use wwt_sim::{Engine, SimConfig};

    #[test]
    fn tree_shapes_are_consistent() {
        for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::Lopsided] {
            for n in [1usize, 2, 3, 8, 17, 32] {
                let mut seen = vec![false; n];
                seen[0] = true;
                // parent/children agree and cover all ranks exactly once.
                for v in 0..n {
                    for c in shape.children(v, n) {
                        assert_eq!(shape.parent(c, n), Some(v), "{shape:?} n={n} c={c}");
                        assert!(!seen[c], "{shape:?} n={n}: rank {c} reached twice");
                        seen[c] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "{shape:?} n={n}: unreached ranks");
            }
        }
    }

    #[test]
    fn lopsided_root_sends_largest_subtree_first() {
        let kids = TreeShape::Lopsided.children(0, 32);
        assert_eq!(kids, vec![16, 8, 4, 2, 1]);
        // Node 8's children in a 32-node tree.
        assert_eq!(TreeShape::Lopsided.children(8, 32), vec![12, 10, 9]);
        assert_eq!(TreeShape::Lopsided.parent(12, 32), Some(8));
    }

    fn run_collective(n: usize, shape: TreeShape, root: usize) -> (Vec<f64>, wwt_sim::SimReport) {
        let mut e = Engine::new(n, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let results = Rc::new(std::cell::RefCell::new(vec![0.0f64; n]));
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let cpu = e.cpu(p);
            let results = Rc::clone(&results);
            e.spawn(p, async move {
                let mine = (p.index() + 1) as f64;
                // max reduction then broadcast of the result
                let red = m
                    .reduce_max_f64_index(&cpu, shape, root, mine, p.index())
                    .await;
                let val = if p.index() == root {
                    let (v, r) = red.expect("root sees the result");
                    assert_eq!(r, m.nprocs() - 1);
                    v
                } else {
                    0.0
                };
                let out = m.bcast_f64(&cpu, shape, root, val).await;
                results.borrow_mut()[p.index()] = out;
                m.barrier(&cpu).await;
            });
        }
        let r = e.run();
        let out = results.borrow().clone();
        (out, r)
    }

    #[test]
    fn reduce_then_broadcast_agrees_everywhere() {
        for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::Lopsided] {
            for root in [0usize, 3] {
                let (vals, _) = run_collective(8, shape, root);
                assert!(
                    vals.iter().all(|&v| v == 8.0),
                    "{shape:?} root={root}: {vals:?}"
                );
            }
        }
    }

    #[test]
    fn lopsided_beats_flat_broadcast_in_elapsed_time() {
        let (_, flat) = run_collective(32, TreeShape::Flat, 0);
        let (_, lop) = run_collective(32, TreeShape::Lopsided, 0);
        assert!(
            lop.elapsed() < flat.elapsed(),
            "lop-sided {} !< flat {}",
            lop.elapsed(),
            flat.elapsed()
        );
    }

    #[test]
    fn sum_reduction_is_exact_for_integers() {
        let n = 16;
        let mut e = Engine::new(n, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let total = Rc::new(std::cell::Cell::new(0.0f64));
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let cpu = e.cpu(p);
            let total = Rc::clone(&total);
            e.spawn(p, async move {
                if let Some(s) = m
                    .reduce_sum_f64(&cpu, TreeShape::Lopsided, 0, (p.index() + 1) as f64)
                    .await
                {
                    total.set(s);
                }
            });
        }
        e.run();
        assert_eq!(total.get(), (n * (n + 1) / 2) as f64);
    }

    #[test]
    fn bulk_broadcast_delivers_bytes_to_all() {
        let n = 8;
        let root = 2usize;
        let bytes = 1000u32;
        let mut e = Engine::new(n, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let mut bufs = Vec::new();
        for p in 0..n {
            bufs.push(m.alloc(ProcId::new(p), bytes as u64 + 8, 32));
        }
        // All nodes must use the same offset for this test's simplicity.
        let buf = bufs[0];
        assert!(bufs.iter().all(|&b| b == buf));
        for i in 0..bytes as u64 / 8 {
            m.poke_f64(ProcId::new(root), buf + i * 8, i as f64 * 0.5);
        }
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let cpu = e.cpu(p);
            e.spawn(p, async move {
                let b = if p.index() == root { bytes } else { 0 };
                let got = m.bcast_bulk(&cpu, TreeShape::Lopsided, root, buf, b).await;
                assert_eq!(got, bytes);
            });
        }
        e.run();
        for p in 0..n {
            for i in 0..bytes as u64 / 8 {
                assert_eq!(
                    m.peek_f64(ProcId::new(p), buf + i * 8),
                    i as f64 * 0.5,
                    "node {p} word {i}"
                );
            }
        }
    }
}
