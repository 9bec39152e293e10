//! Global addresses.
//!
//! Every node's local memory has a global address. On the shared-memory
//! machine any node may reference any address; on the message-passing
//! machine a node may only touch its own. An address carries its *segment*
//! (private or shared) and its *home node*, which the shared-memory
//! directory protocol uses to route coherence requests.

use std::fmt;

/// The paper's cache block size in bytes (Table 1), used by the default
/// [`crate::CacheGeometry`]. A configured machine takes its block size
/// from its geometry instead.
pub const BLOCK_BYTES: u64 = 32;

/// Page size in bytes (Table 1 of the paper).
pub const PAGE_BYTES: u64 = 4096;

/// Which segment an address belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Segment {
    /// Per-node private data: never coherent, never remotely referenced.
    Private,
    /// Globally addressable shared data (allocated with `gmalloc`).
    Shared,
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Segment::Private => f.write_str("private"),
            Segment::Shared => f.write_str("shared"),
        }
    }
}

const OFFSET_BITS: u32 = 40;
const NODE_BITS: u32 = 10;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;
const NODE_MASK: u64 = (1 << NODE_BITS) - 1;
const SHARED_BIT: u64 = 1 << (OFFSET_BITS + NODE_BITS);
/// Width of [`GAddr::raw`]: every raw address is below `1 << RAW_BITS`.
pub(crate) const RAW_BITS: u32 = OFFSET_BITS + NODE_BITS + 1;

/// A global byte address: (segment, home node, byte offset).
///
/// The encoding packs the three fields into a `u64` so addresses stay
/// `Copy` and cheap. Address arithmetic (`GAddr::offset_by`) stays within a
/// node's memory.
///
/// # Example
///
/// ```
/// use wwt_mem::{GAddr, Segment};
/// let a = GAddr::new(Segment::Shared, 3, 0x100);
/// assert_eq!(a.node(), 3);
/// assert_eq!(a.offset(), 0x100);
/// assert_eq!(a.segment(), Segment::Shared);
/// assert_eq!(a.offset_by(32).offset(), 0x120);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GAddr(u64);

impl GAddr {
    /// Creates a global address.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `offset` exceed their encodable ranges
    /// (10 bits and 40 bits respectively).
    pub fn new(segment: Segment, node: usize, offset: u64) -> Self {
        assert!((node as u64) <= NODE_MASK, "node {node} out of range");
        assert!(offset <= OFFSET_MASK, "offset {offset:#x} out of range");
        let seg = match segment {
            Segment::Private => 0,
            Segment::Shared => SHARED_BIT,
        };
        GAddr(seg | ((node as u64) << OFFSET_BITS) | offset)
    }

    /// The segment this address lives in.
    pub fn segment(self) -> Segment {
        if self.0 & SHARED_BIT != 0 {
            Segment::Shared
        } else {
            Segment::Private
        }
    }

    /// The home node of this address.
    pub fn node(self) -> usize {
        ((self.0 >> OFFSET_BITS) & NODE_MASK) as usize
    }

    /// Byte offset within the home node's memory.
    pub fn offset(self) -> u64 {
        self.0 & OFFSET_MASK
    }

    /// The raw encoded value (used as a cache tag / map key).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an address from its raw encoding (the inverse of
    /// [`GAddr::raw`]).
    pub fn from_raw(raw: u64) -> GAddr {
        GAddr(raw)
    }

    /// This address advanced by `delta` bytes (same node, same segment).
    ///
    /// # Panics
    ///
    /// Panics if the result leaves the node's addressable range.
    pub fn offset_by(self, delta: u64) -> GAddr {
        let off = self.offset() + delta;
        assert!(off <= OFFSET_MASK, "address arithmetic overflow");
        GAddr((self.0 & !OFFSET_MASK) | off)
    }

    /// The address of the start of the page containing this address.
    pub fn page(self) -> GAddr {
        GAddr(self.0 & !(PAGE_BYTES - 1))
    }
}

impl fmt::Debug for GAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GAddr({}, n{}, {:#x})",
            self.segment(),
            self.node(),
            self.offset()
        )
    }
}

impl fmt::Display for GAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_fields() {
        for seg in [Segment::Private, Segment::Shared] {
            for node in [0usize, 1, 31, 1023] {
                for off in [0u64, 1, 0x1234_5678, OFFSET_MASK] {
                    let a = GAddr::new(seg, node, off);
                    assert_eq!(a.segment(), seg);
                    assert_eq!(a.node(), node);
                    assert_eq!(a.offset(), off);
                }
            }
        }
    }

    #[test]
    fn page_aligns_down() {
        let a = GAddr::new(Segment::Shared, 5, 0x1237);
        assert_eq!(a.page().offset(), 0x1000);
        assert_eq!(a.page().node(), 5);
        assert_eq!(a.page().segment(), Segment::Shared);
    }

    #[test]
    fn distinct_nodes_never_alias() {
        let a = GAddr::new(Segment::Shared, 1, 0x40);
        let b = GAddr::new(Segment::Shared, 2, 0x40);
        assert_ne!(a.raw(), b.raw());
        assert_ne!(a.page().raw(), b.page().raw());
    }

    #[test]
    fn segment_changes_raw() {
        let a = GAddr::new(Segment::Private, 1, 0x40);
        let b = GAddr::new(Segment::Shared, 1, 0x40);
        assert_ne!(a.raw(), b.raw());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_oversized_node() {
        let _ = GAddr::new(Segment::Private, 1 << 10, 0);
    }
}
