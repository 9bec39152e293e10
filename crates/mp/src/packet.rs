//! 20-byte network packets, as on the CM-5 data network.
//!
//! A packet is five 32-bit words: one header word (8-bit tag plus 24 bits
//! of tag-specific metadata) and four payload words (16 bytes).

use wwt_sim::{Cycles, ProcId};

/// Well-known packet tags.
pub mod tag {
    /// Channel data packet (16 payload bytes land in the receive buffer).
    pub const CHAN_DATA: u8 = 1;
    /// Channel end-of-message marker (carries the message byte count).
    pub const CHAN_DONE: u8 = 2;
    /// Receiver announces a channel (id + capacity) to the sender.
    pub const CHAN_ANNOUNCE: u8 = 3;
    /// Reduction operand moving up a software tree.
    pub const RED_VAL: u8 = 4;
    /// Scalar broadcast value moving down a software tree.
    pub const BC_VAL: u8 = 5;
    /// Bulk broadcast data packet (store-and-forward down a tree).
    pub const BC_BULK: u8 = 6;
    /// Synchronous-send announcement (tag + size).
    pub const SYNC_REQ: u8 = 7;
    /// Synchronous-receive acknowledgement (landing channel id).
    pub const SYNC_ACK: u8 = 8;
    /// Reliable-delivery cumulative acknowledgement (`words[0..2]` carry
    /// the next expected sequence number). Only on the wire when fault
    /// injection activates the reliable-delivery layer.
    pub const ACK: u8 = 9;
    /// Reliable-delivery negative acknowledgement: the receiver saw a
    /// sequence gap and asks for retransmission from `words[0..2]`.
    pub const NACK: u8 = 10;
    /// First tag available for application handlers.
    pub const USER_BASE: u8 = 16;
}

/// A 20-byte network packet.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Sending node.
    pub src: ProcId,
    /// Destination node.
    pub dest: ProcId,
    /// Dispatch tag (8 bits on the wire).
    pub tag: u8,
    /// Tag-specific metadata (24 bits on the wire).
    pub meta: u32,
    /// Four payload words (16 bytes).
    pub words: [u32; 4],
    /// How many payload bytes are application data (for the paper's
    /// data-vs-control byte accounting); the rest of the 20 bytes count
    /// as control.
    pub data_bytes: u16,
    /// Sender's clock when the packet entered the network. Simulator
    /// measurement metadata (end-to-end message latency), not wire state;
    /// stamped by the network interface on injection.
    pub sent_at: Cycles,
    /// Per-(source, destination) sequence number, stamped by the
    /// reliable-delivery layer on injection. Always zero when fault
    /// injection is off (the network is perfectly reliable and packets
    /// need no sequencing).
    pub seq: u32,
}

/// Total packet size on the wire, in bytes.
pub const PACKET_BYTES: u32 = 20;

/// Payload capacity of one packet, in bytes.
pub const PACKET_PAYLOAD_BYTES: u32 = 16;

impl Packet {
    /// Control bytes of this packet (total size minus data bytes).
    pub fn control_bytes(&self) -> u32 {
        PACKET_BYTES - u32::from(self.data_bytes)
    }
}

/// Packs an `f64` into two payload words.
pub fn pack_f64(v: f64) -> [u32; 2] {
    let b = v.to_bits();
    [(b & 0xffff_ffff) as u32, (b >> 32) as u32]
}

/// Unpacks an `f64` from two payload words.
pub fn unpack_f64(lo: u32, hi: u32) -> f64 {
    f64::from_bits((lo as u64) | ((hi as u64) << 32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trips_through_words() {
        for v in [0.0, -1.5, 3.25e300, f64::MIN_POSITIVE, -0.0] {
            let [lo, hi] = pack_f64(v);
            assert_eq!(unpack_f64(lo, hi).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn control_bytes_complement_data_bytes() {
        let p = Packet {
            src: ProcId::new(0),
            dest: ProcId::new(1),
            tag: tag::CHAN_DATA,
            meta: 0,
            words: [0; 4],
            data_bytes: 16,
            sent_at: 0,
            seq: 0,
        };
        assert_eq!(p.control_bytes(), 4);
    }
}
