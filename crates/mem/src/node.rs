//! Per-node backing memory with bump allocation and typed access.
//!
//! Data values live here; caches only track tags and states. All target
//! data structures (matrices, graphs, solution vectors) are stored in
//! simulated node memory so the applications compute real results.

use std::fmt;

/// One node's local DRAM.
///
/// Memory grows on demand; allocation is a simple bump pointer (target
/// programs in this study allocate during initialization and never free).
///
/// # Example
///
/// ```
/// use wwt_mem::NodeMem;
/// let mut m = NodeMem::new();
/// let off = m.alloc(16, 8);
/// m.write_f64(off, 3.5);
/// assert_eq!(m.read_f64(off), 3.5);
/// ```
#[derive(Clone, Default)]
pub struct NodeMem {
    data: Vec<u8>,
    brk: u64,
}

impl fmt::Debug for NodeMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeMem")
            .field("allocated", &self.brk)
            .finish()
    }
}

impl NodeMem {
    /// Creates an empty node memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `bytes` with the given power-of-two `align`ment and
    /// returns the byte offset of the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let start = (self.brk + align - 1) & !(align - 1);
        self.brk = start + bytes;
        self.ensure(self.brk);
        start
    }

    /// Total bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.brk
    }

    fn ensure(&mut self, end: u64) {
        if (self.data.len() as u64) < end {
            self.data.resize(end as usize, 0);
        }
    }

    /// Reads an `f64` at byte offset `off`.
    pub fn read_f64(&self, off: u64) -> f64 {
        f64::from_le_bytes(self.read_array(off))
    }

    /// Writes an `f64` at byte offset `off`.
    pub fn write_f64(&mut self, off: u64, v: f64) {
        self.write_bytes(off, &v.to_le_bytes());
    }

    /// Reads a `u64` at byte offset `off`.
    pub fn read_u64(&self, off: u64) -> u64 {
        u64::from_le_bytes(self.read_array(off))
    }

    /// Writes a `u64` at byte offset `off`.
    pub fn write_u64(&mut self, off: u64, v: u64) {
        self.write_bytes(off, &v.to_le_bytes());
    }

    /// Reads a `u32` at byte offset `off`.
    pub fn read_u32(&self, off: u64) -> u32 {
        u32::from_le_bytes(self.read_array(off))
    }

    /// Writes a `u32` at byte offset `off`.
    pub fn write_u32(&mut self, off: u64, v: u32) {
        self.write_bytes(off, &v.to_le_bytes());
    }

    /// Reads `dst.len()` consecutive `f64`s starting at byte offset `off`.
    pub fn read_f64s(&self, off: u64, dst: &mut [f64]) {
        let start = off as usize;
        let end = start + dst.len() * 8;
        assert!(end <= self.data.len(), "read past end of node memory");
        for (i, d) in dst.iter_mut().enumerate() {
            let o = start + i * 8;
            *d = f64::from_le_bytes(self.data[o..o + 8].try_into().expect("8 bytes"));
        }
    }

    /// Writes `src.len()` consecutive `f64`s starting at byte offset `off`.
    pub fn write_f64s(&mut self, off: u64, src: &[f64]) {
        let end = off + (src.len() * 8) as u64;
        self.ensure(end);
        let start = off as usize;
        for (i, v) in src.iter().enumerate() {
            let o = start + i * 8;
            self.data[o..o + 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Host-prefetches the bytes at offset `off`, ahead of a typed read
    /// or write there. A no-op past the end of the allocated memory: it
    /// never grows the storage.
    #[inline]
    pub fn prefetch(&self, off: u64) {
        if let Some(byte) = usize::try_from(off).ok().and_then(|o| self.data.get(o)) {
            wwt_sim::prefetch(byte);
        }
    }

    fn read_array<const N: usize>(&self, off: u64) -> [u8; N] {
        let off = off as usize;
        let mut out = [0u8; N];
        let end = off + N;
        assert!(end <= self.data.len(), "read past end of node memory");
        out.copy_from_slice(&self.data[off..end]);
        out
    }

    /// Writes `bytes` starting at byte offset `off`, growing the memory
    /// as needed.
    pub fn write_bytes(&mut self, off: u64, bytes: &[u8]) {
        let end = off + bytes.len() as u64;
        self.ensure(end);
        self.data[off as usize..end as usize].copy_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut m = NodeMem::new();
        m.alloc(3, 1);
        let a = m.alloc(8, 8);
        assert_eq!(a % 8, 0);
        let b = m.alloc(100, 32);
        assert_eq!(b % 32, 0);
        assert!(b >= a + 8);
    }

    #[test]
    fn typed_round_trips() {
        let mut m = NodeMem::new();
        let a = m.alloc(64, 8);
        m.write_f64(a, -1.25e300);
        m.write_u64(a + 8, u64::MAX);
        m.write_u32(a + 16, 0xdead_beef);
        assert_eq!(m.read_f64(a), -1.25e300);
        assert_eq!(m.read_u64(a + 8), u64::MAX);
        assert_eq!(m.read_u32(a + 16), 0xdead_beef);
    }

    #[test]
    fn zero_initialized() {
        let mut m = NodeMem::new();
        let a = m.alloc(32, 8);
        assert_eq!(m.read_u64(a), 0);
        assert_eq!(m.read_f64(a + 8), 0.0);
    }

    #[test]
    fn prefetch_past_the_end_is_a_no_op() {
        let mut m = NodeMem::new();
        m.prefetch(0); // empty memory
        let a = m.alloc(64, 8);
        m.write_u64(a, 9);
        let len = m.data.len();
        for off in [0, a, 63, 64, 4096, u64::MAX] {
            m.prefetch(off);
        }
        assert_eq!(m.data.len(), len, "a prefetch never grows the storage");
        assert_eq!(m.allocated(), 64);
        assert_eq!(m.read_u64(a), 9);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn out_of_bounds_read_panics() {
        let m = NodeMem::new();
        let _ = m.read_u64(0);
    }
}
