//! CMMD-style virtual channels.
//!
//! A channel is a pre-negotiated, one-way bulk-transfer path between a
//! fixed (sender, receiver) pair. The receiver allocates the channel
//! (destination buffer + capacity) and announces it to the sender; after
//! that, every [`MpMachine::channel_write`] moves a message without any
//! per-transfer handshake — the sender initiates, data is sent in bulk,
//! and the receive side stores packets straight into the destination
//! buffer. This is the mechanism the paper credits for EM3D-MP's cheap
//! producer–consumer communication.

use std::rc::Rc;

use wwt_sim::{Counter, Cpu, ProcId, SimError};

use crate::config::COSTS;
use crate::machine::MpMachine;
use crate::packet::{tag, Packet, PACKET_PAYLOAD_BYTES};

/// Identifier of a receive channel on its owning node.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub(crate) u32);

impl ChannelId {
    /// The raw channel index on the receiving node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The sender's end of a bound channel.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SendChannel {
    /// Receiving node.
    pub dest: ProcId,
    /// Channel id on the receiving node.
    pub id: ChannelId,
    /// Maximum message size in bytes.
    pub capacity: u32,
}

pub(crate) struct RecvChannel {
    pub(crate) src: ProcId,
    pub(crate) buf_off: u64,
    pub(crate) capacity: u32,
    pub(crate) msgs_done: u64,
    pub(crate) msgs_waited: u64,
    pub(crate) last_bytes: u32,
}

const IDX_BITS: u32 = 12;
const IDX_MASK: u32 = (1 << IDX_BITS) - 1;

impl MpMachine {
    /// Opens a receive channel from `src` into `[buf_off, buf_off + capacity)`
    /// of the caller's local memory and announces it to the sender.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if `capacity` exceeds the 64 KB
    /// per-message limit implied by the packet index field.
    pub fn channel_open_recv(
        self: &Rc<Self>,
        cpu: &Cpu,
        src: ProcId,
        buf_off: u64,
        capacity: u32,
    ) -> Result<ChannelId, SimError> {
        let max = (IDX_MASK as u64 + 1) * PACKET_PAYLOAD_BYTES as u64;
        if capacity as u64 > max {
            return Err(SimError::Config(format!(
                "channel capacity {capacity} exceeds the {max}-byte \
                 per-message limit of the packet index field"
            )));
        }
        let _lib = self.lib_scope(cpu);
        cpu.compute(COSTS.chan_write_overhead);
        let id = {
            let mut nodes = self.nodes.borrow_mut();
            let node = &mut nodes[cpu.id().index()];
            node.rchans.push(RecvChannel {
                src,
                buf_off,
                capacity,
                msgs_done: 0,
                msgs_waited: 0,
                last_bytes: 0,
            });
            ChannelId((node.rchans.len() - 1) as u32)
        };
        self.send_packet(
            cpu,
            Packet {
                src: cpu.id(),
                dest: src,
                tag: tag::CHAN_ANNOUNCE,
                meta: id.0,
                words: [capacity, 0, 0, 0],
                data_bytes: 0,
                sent_at: 0,
                seq: 0,
            },
        );
        Ok(id)
    }

    /// Waits for a channel announcement from `dest` and returns the bound
    /// sender end. Announcements from the same peer bind in open order.
    pub async fn channel_bind(self: &Rc<Self>, cpu: &Cpu, dest: ProcId) -> SendChannel {
        let _lib = self.lib_scope(cpu);
        let me = cpu.id().index();
        let d = dest.index();
        self.poll_loop(cpu, move |m| !m.nodes.borrow()[me].announces[d].is_empty())
            .await;
        let (id, capacity) = self.nodes.borrow_mut()[me].announces[d]
            .pop_front()
            .expect("announcement must be present");
        SendChannel {
            dest,
            id: ChannelId(id),
            capacity,
        }
    }

    /// Writes one message of `bytes` bytes from local memory at `src_off`
    /// over the channel. The sender does not block for the receiver; the
    /// data packets are followed by an end-of-message marker that completes
    /// the receiver's matching [`MpMachine::channel_wait`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or exceeds the channel capacity.
    pub fn channel_write(self: &Rc<Self>, cpu: &Cpu, ch: &SendChannel, src_off: u64, bytes: u32) {
        assert!(bytes > 0, "empty channel write");
        assert!(
            bytes <= ch.capacity,
            "message of {bytes} bytes exceeds channel capacity {}",
            ch.capacity
        );
        let _lib = self.lib_scope(cpu);
        cpu.compute(COSTS.chan_write_overhead);
        cpu.count(Counter::ChannelWrites, 1);
        cpu.count(Counter::MessagesSent, 1);
        self.touch_read(cpu, src_off, bytes as u64);

        let payload = PACKET_PAYLOAD_BYTES;
        let npkts = bytes.div_ceil(payload);
        for idx in 0..npkts {
            let chunk = (bytes - idx * payload).min(payload);
            let mut words = [0u32; 4];
            for (w, word) in words.iter_mut().enumerate() {
                let off = src_off + (idx * payload) as u64 + (w as u64) * 4;
                if (w as u32) * 4 < chunk {
                    *word = self.peek_u32(cpu.id(), off);
                }
            }
            cpu.compute(COSTS.chan_packet_overhead);
            self.send_packet(
                cpu,
                Packet {
                    src: cpu.id(),
                    dest: ch.dest,
                    tag: tag::CHAN_DATA,
                    meta: (ch.id.0 << IDX_BITS) | idx,
                    words,
                    data_bytes: u16::try_from(chunk).expect("chunks fit one packet payload"),
                    sent_at: 0,
                    seq: 0,
                },
            );
        }
        self.send_packet(
            cpu,
            Packet {
                src: cpu.id(),
                dest: ch.dest,
                tag: tag::CHAN_DONE,
                meta: ch.id.0,
                words: [bytes, 0, 0, 0],
                data_bytes: 0,
                sent_at: 0,
                seq: 0,
            },
        );
    }

    /// Waits (polling and dispatching) for the next message on the receive
    /// channel `id`, returning its length in bytes.
    pub async fn channel_wait(self: &Rc<Self>, cpu: &Cpu, id: ChannelId) -> u32 {
        let _lib = self.lib_scope(cpu);
        let me = cpu.id().index();
        let target = {
            let mut nodes = self.nodes.borrow_mut();
            let ch = &mut nodes[me].rchans[id.index()];
            ch.msgs_waited += 1;
            ch.msgs_waited
        };
        self.poll_loop(cpu, move |m| {
            m.nodes.borrow()[me].rchans[id.index()].msgs_done >= target
        })
        .await;
        self.nodes.borrow()[me].rchans[id.index()].last_bytes
    }

    pub(crate) fn handle_chan_announce(&self, cpu: &Cpu, pkt: &Packet) {
        let me = cpu.id().index();
        self.nodes.borrow_mut()[me].announces[pkt.src.index()].push_back((pkt.meta, pkt.words[0]));
    }

    pub(crate) fn handle_chan_data(self: &Rc<Self>, cpu: &Cpu, pkt: &Packet) {
        cpu.compute(COSTS.chan_recv_packet_overhead);
        let idx = pkt.meta & IDX_MASK;
        let id = (pkt.meta >> IDX_BITS) as usize;
        let (buf_off, capacity) = {
            let nodes = self.nodes.borrow();
            let ch = &nodes[cpu.id().index()].rchans[id];
            debug_assert_eq!(ch.src, pkt.src, "channel data from unexpected source");
            (ch.buf_off, ch.capacity)
        };
        let base = buf_off + (idx * PACKET_PAYLOAD_BYTES) as u64;
        let chunk =
            u32::from(pkt.data_bytes).min(capacity - (idx * PACKET_PAYLOAD_BYTES).min(capacity));
        // Store the payload into the destination buffer.
        for w in 0..4u32 {
            if w * 4 < chunk {
                self.poke_u32(cpu.id(), base + (w as u64) * 4, pkt.words[w as usize]);
            }
        }
        self.touch_write(cpu, base, chunk.max(1) as u64);
    }

    pub(crate) fn handle_chan_done(&self, cpu: &Cpu, pkt: &Packet) {
        let mut nodes = self.nodes.borrow_mut();
        let ch = &mut nodes[cpu.id().index()].rchans[pkt.meta as usize];
        ch.msgs_done += 1;
        ch.last_bytes = pkt.words[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpConfig;
    use wwt_sim::{Engine, SimConfig};

    #[test]
    fn channel_transfers_message_bytes_exactly() {
        let mut e = Engine::new(2, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let n = 100usize; // 800 bytes -> 50 data packets
        let src_buf = m.alloc(ProcId::new(0), (n * 8) as u64, 32);
        let dst_buf = m.alloc(ProcId::new(1), (n * 8) as u64, 32);
        for i in 0..n {
            m.poke_f64(ProcId::new(0), src_buf + (i * 8) as u64, i as f64 * 1.5);
        }
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            let ch = m0.channel_bind(&c0, ProcId::new(1)).await;
            m0.channel_write(&c0, &ch, src_buf, (n * 8) as u32);
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            let id = m1
                .channel_open_recv(&c1, ProcId::new(0), dst_buf, (n * 8) as u32)
                .expect("capacity within the channel limit");
            let got = m1.channel_wait(&c1, id).await;
            assert_eq!(got, (n * 8) as u32);
        });
        let r = e.run();
        for i in 0..n {
            assert_eq!(
                m.peek_f64(ProcId::new(1), dst_buf + (i * 8) as u64),
                i as f64 * 1.5
            );
        }
        let sender = r.proc(ProcId::new(0));
        // 50 data packets + 1 done + (1 announce from the receiver side).
        assert_eq!(sender.counters.get(Counter::PacketsSent), 51);
        assert_eq!(sender.counters.get(Counter::BytesData), 800);
        assert_eq!(sender.counters.get(Counter::BytesControl), 50 * 4 + 20);
        assert_eq!(sender.counters.get(Counter::ChannelWrites), 1);
    }

    #[test]
    fn channel_is_reusable_for_repeated_messages() {
        let mut e = Engine::new(2, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let src_buf = m.alloc(ProcId::new(0), 64, 32);
        let dst_buf = m.alloc(ProcId::new(1), 64, 32);
        let rounds = 5;
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            let ch = m0.channel_bind(&c0, ProcId::new(1)).await;
            for k in 0..rounds {
                m0.poke_f64(ProcId::new(0), src_buf, k as f64);
                m0.channel_write(&c0, &ch, src_buf, 64);
            }
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            let id = m1
                .channel_open_recv(&c1, ProcId::new(0), dst_buf, 64)
                .expect("capacity within the channel limit");
            for _ in 0..rounds {
                assert_eq!(m1.channel_wait(&c1, id).await, 64);
            }
        });
        e.run();
        assert_eq!(m.peek_f64(ProcId::new(1), dst_buf), (rounds - 1) as f64);
    }

    #[test]
    fn short_message_single_packet() {
        let mut e = Engine::new(2, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let src_buf = m.alloc(ProcId::new(0), 8, 8);
        let dst_buf = m.alloc(ProcId::new(1), 8, 8);
        m.poke_f64(ProcId::new(0), src_buf, 7.25);
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            let ch = m0.channel_bind(&c0, ProcId::new(1)).await;
            m0.channel_write(&c0, &ch, src_buf, 8);
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            let id = m1
                .channel_open_recv(&c1, ProcId::new(0), dst_buf, 8)
                .expect("capacity within the channel limit");
            assert_eq!(m1.channel_wait(&c1, id).await, 8);
        });
        let r = e.run();
        assert_eq!(m.peek_f64(ProcId::new(1), dst_buf), 7.25);
        // 1 data packet carrying 8 data bytes.
        assert_eq!(r.proc(ProcId::new(0)).counters.get(Counter::BytesData), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds channel capacity")]
    fn oversized_write_panics() {
        let mut e = Engine::new(2, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let src_buf = m.alloc(ProcId::new(0), 128, 32);
        let dst_buf = m.alloc(ProcId::new(1), 64, 32);
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            let ch = m0.channel_bind(&c0, ProcId::new(1)).await;
            m0.channel_write(&c0, &ch, src_buf, 128);
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            let id = m1
                .channel_open_recv(&c1, ProcId::new(0), dst_buf, 64)
                .expect("capacity within the channel limit");
            m1.channel_wait(&c1, id).await;
        });
        e.run();
    }
}
