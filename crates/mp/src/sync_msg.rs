//! CMMD-style synchronous (handshaking) sends and receives.
//!
//! The CMMD library's "commonly-used synchronous and asynchronous message
//! sends and receives" rendezvous before transferring: the sender
//! announces (tag, size), the receiver posts a matching receive and
//! returns its buffer's channel, and the data then streams in bulk. The
//! handshake is exactly the overhead the paper's channels amortize away
//! for repeated transfers — these calls exist for one-shot messages.

use std::rc::Rc;

use wwt_sim::{Counter, Cpu, ProcId, WaitCell};

use crate::machine::MpMachine;
use crate::packet::{tag, Packet};

/// A send request waiting for its matching receive.
#[derive(Debug)]
pub(crate) struct PendingSend {
    pub(crate) src: ProcId,
    pub(crate) msg_tag: u32,
    pub(crate) bytes: u32,
}

/// A posted receive waiting for its matching send request.
pub(crate) struct PendingRecv {
    pub(crate) src: ProcId,
    pub(crate) msg_tag: u32,
    pub(crate) buf_off: u64,
    pub(crate) max_bytes: u32,
    /// Completed when the transfer finishes.
    pub(crate) done: WaitCell,
    /// Filled with the message length at match time.
    pub(crate) len_slot: Rc<std::cell::Cell<u32>>,
}

impl MpMachine {
    /// Synchronously sends `bytes` from local memory at `src_off` to
    /// `dest` under the message tag `msg_tag`. Blocks (polling, so other
    /// traffic keeps flowing) until the receiver has posted a matching
    /// [`MpMachine::recv_sync`] and acknowledged, then streams the data
    /// in bulk.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or exceeds the per-message limit
    /// (~64 KB).
    pub async fn send_sync(
        self: &Rc<Self>,
        cpu: &Cpu,
        dest: ProcId,
        msg_tag: u32,
        src_off: u64,
        bytes: u32,
    ) {
        assert!(bytes > 0, "empty synchronous send");
        let _lib = self.lib_scope(cpu);
        let cfg = self.config();
        cpu.compute(cfg.chan_write_overhead);
        cpu.count(Counter::MessagesSent, 1);
        // Announce (tag, size) and wait for the receiver's acknowledgement
        // carrying its landing channel.
        let me = cpu.id().index();
        self.send_packet(
            cpu,
            Packet {
                src: cpu.id(),
                dest,
                tag: tag::SYNC_REQ,
                meta: msg_tag & 0xff_ffff,
                words: [bytes, 0, 0, 0],
                data_bytes: 0,
                sent_at: 0,
                seq: 0,
            },
        );
        self.poll_loop(cpu, move |m| {
            m.nodes.borrow()[me]
                .sync_acks
                .iter()
                .any(|&(s, t, _)| s == dest && t == msg_tag)
        })
        .await;
        let chan = {
            let mut nodes = self.nodes.borrow_mut();
            let acks = &mut nodes[me].sync_acks;
            let i = acks
                .iter()
                .position(|&(s, t, _)| s == dest && t == msg_tag)
                .expect("acknowledgement present");
            acks.remove(i).2
        };
        // Stream the payload over the receiver-designated channel.
        let ch = crate::channel::SendChannel {
            dest,
            id: crate::channel::ChannelId(chan),
            capacity: bytes,
        };
        self.channel_write(cpu, &ch, src_off, bytes);
    }

    /// Posts a synchronous receive for a message from `src` under
    /// `msg_tag`, landing in local memory at `[buf_off, buf_off +
    /// max_bytes)`. Blocks (polling) until the message arrives; returns
    /// its length.
    ///
    /// # Panics
    ///
    /// Panics if the arriving message exceeds `max_bytes`.
    pub async fn recv_sync(
        self: &Rc<Self>,
        cpu: &Cpu,
        src: ProcId,
        msg_tag: u32,
        buf_off: u64,
        max_bytes: u32,
    ) -> u32 {
        let _lib = self.lib_scope(cpu);
        let cfg = self.config();
        cpu.compute(cfg.chan_write_overhead);
        let done = WaitCell::new();
        let len_slot: Rc<std::cell::Cell<u32>> = Rc::default();
        {
            let mut nodes = self.nodes.borrow_mut();
            nodes[cpu.id().index()].sync_recvs.push(PendingRecv {
                src,
                msg_tag,
                buf_off,
                max_bytes,
                done: done.clone(),
                len_slot: Rc::clone(&len_slot),
            });
        }
        // A send request may already have arrived and be parked.
        self.match_sync(cpu);
        let done2 = done.clone();
        self.poll_loop(cpu, move |_| done2.is_complete()).await;
        len_slot.get()
    }

    /// Tries to match parked send requests against posted receives on the
    /// calling node, acknowledging each match with a landing channel.
    pub(crate) fn match_sync(self: &Rc<Self>, cpu: &Cpu) {
        loop {
            let matched = {
                let mut nodes = self.nodes.borrow_mut();
                let node = &mut nodes[cpu.id().index()];
                let mut found = None;
                for (i, req) in node.sync_reqs.iter().enumerate() {
                    if let Some(j) = node
                        .sync_recvs
                        .iter()
                        .position(|r| r.src == req.src && r.msg_tag == req.msg_tag)
                    {
                        found = Some((i, j));
                        break;
                    }
                }
                let Some((i, j)) = found else { break };
                let req = node.sync_reqs.remove(i);
                let recv = node.sync_recvs.remove(j);
                assert!(
                    req.bytes <= recv.max_bytes,
                    "synchronous message of {} bytes exceeds the posted buffer of {}",
                    req.bytes,
                    recv.max_bytes
                );
                Some((req, recv))
            };
            let Some((req, recv)) = matched else { break };
            // Open a one-shot landing channel and acknowledge the sender
            // with its id. The channel-done handler completes the posted
            // receive.
            let id = self
                .channel_open_recv(cpu, req.src, recv.buf_off, req.bytes.max(1))
                .expect("capacity within the channel limit");
            recv.len_slot.set(req.bytes);
            {
                let mut nodes = self.nodes.borrow_mut();
                let node = &mut nodes[cpu.id().index()];
                node.sync_waiters.push((id, recv.done, req.bytes));
            }
            self.send_packet(
                cpu,
                Packet {
                    src: cpu.id(),
                    dest: req.src,
                    tag: tag::SYNC_ACK,
                    meta: req.msg_tag & 0xff_ffff,
                    words: [id.index() as u32, 0, 0, 0],
                    data_bytes: 0,
                    sent_at: 0,
                    seq: 0,
                },
            );
        }
    }

    /// Completes any posted synchronous receives whose landing channel has
    /// finished (called from the channel-done handler).
    pub(crate) fn finish_sync(&self, cpu: &Cpu, chan_index: usize) {
        let hit = {
            let mut nodes = self.nodes.borrow_mut();
            let node = &mut nodes[cpu.id().index()];
            node.sync_waiters
                .iter()
                .position(|(id, _, _)| id.index() == chan_index)
                .map(|i| node.sync_waiters.remove(i))
        };
        if let Some((_, done, _bytes)) = hit {
            done.complete(self.sim(), cpu.clock());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpConfig;
    use wwt_sim::{Engine, SimConfig};

    #[test]
    fn rendezvous_transfers_the_message() {
        let mut e = Engine::new(2, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let src = m.alloc(ProcId::new(0), 256, 32);
        let dst = m.alloc(ProcId::new(1), 256, 32);
        for i in 0..32 {
            m.poke_f64(ProcId::new(0), src + i * 8, i as f64 * 1.25);
        }
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            c0.compute(500);
            m0.send_sync(&c0, ProcId::new(1), 7, src, 256).await;
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            let got = m1.recv_sync(&c1, ProcId::new(0), 7, dst, 256).await;
            assert_eq!(got, 256);
        });
        e.run();
        for i in 0..32 {
            assert_eq!(m.peek_f64(ProcId::new(1), dst + i * 8), i as f64 * 1.25);
        }
    }

    #[test]
    fn send_blocks_until_receive_is_posted() {
        let mut e = Engine::new(2, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let src = m.alloc(ProcId::new(0), 8, 8);
        let dst = m.alloc(ProcId::new(1), 8, 8);
        m.poke_f64(ProcId::new(0), src, 3.5);
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            m0.send_sync(&c0, ProcId::new(1), 1, src, 8).await;
            // The receive is posted at cycle 50_000; the handshake takes
            // at least two further network crossings.
            assert!(c0.clock() > 50_000);
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            c1.compute(50_000);
            m1.recv_sync(&c1, ProcId::new(0), 1, dst, 8).await;
        });
        e.run();
        assert_eq!(m.peek_f64(ProcId::new(1), dst), 3.5);
    }

    #[test]
    fn tags_disambiguate_messages_from_one_sender() {
        let mut e = Engine::new(2, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let a = m.alloc(ProcId::new(0), 8, 8);
        let b = m.alloc(ProcId::new(0), 8, 8);
        let da = m.alloc(ProcId::new(1), 8, 8);
        let db = m.alloc(ProcId::new(1), 8, 8);
        m.poke_f64(ProcId::new(0), a, 1.0);
        m.poke_f64(ProcId::new(0), b, 2.0);
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            // Send tag 2 first, then tag 1.
            m0.send_sync(&c0, ProcId::new(1), 2, b, 8).await;
            m0.send_sync(&c0, ProcId::new(1), 1, a, 8).await;
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            // Receive in the opposite tag order.
            m1.recv_sync(&c1, ProcId::new(0), 2, db, 8).await;
            m1.recv_sync(&c1, ProcId::new(0), 1, da, 8).await;
        });
        e.run();
        assert_eq!(m.peek_f64(ProcId::new(1), da), 1.0);
        assert_eq!(m.peek_f64(ProcId::new(1), db), 2.0);
    }

    #[test]
    #[should_panic(expected = "exceeds the posted buffer")]
    fn oversized_message_panics() {
        let mut e = Engine::new(2, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let src = m.alloc(ProcId::new(0), 64, 8);
        let dst = m.alloc(ProcId::new(1), 8, 8);
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            m0.send_sync(&c0, ProcId::new(1), 0, src, 64).await;
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            m1.recv_sync(&c1, ProcId::new(0), 0, dst, 8).await;
        });
        e.run();
    }
}
