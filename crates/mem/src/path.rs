//! Block-granularity access-path helper.
//!
//! Target kernels stream over arrays; simulating every load individually
//! would be needlessly slow. [`touch`] walks the cache blocks an access
//! range covers, probing the cache and TLB once per block/page, and returns
//! an outcome summary the machine models convert into cycle charges. This
//! preserves miss counts and spatial locality exactly while charging
//! per-element work as computation.

use crate::addr::PAGE_BYTES;
use crate::cache::{AccessKind, Cache, LineState};
use crate::tlb::Tlb;

/// Summary of a block-granularity touch over an address range.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TouchOutcome {
    /// Cache blocks the range covers.
    pub blocks: u32,
    /// Blocks that missed in the cache.
    pub misses: u32,
    /// Write hits on `Clean` lines (permission upgrades / write faults).
    pub upgrades: u32,
    /// Valid victims evicted by fills, by state.
    pub clean_evictions: u32,
    /// Dirty victims evicted by fills (need write-back).
    pub dirty_evictions: u32,
    /// Pages that missed in the TLB.
    pub tlb_misses: u32,
}

impl TouchOutcome {
    /// Merges another outcome into this one.
    pub fn merge(&mut self, other: TouchOutcome) {
        self.blocks += other.blocks;
        self.misses += other.misses;
        self.upgrades += other.upgrades;
        self.clean_evictions += other.clean_evictions;
        self.dirty_evictions += other.dirty_evictions;
        self.tlb_misses += other.tlb_misses;
    }
}

/// The addresses of the `block_bytes`-aligned blocks that
/// `[addr, addr + bytes)` covers, in ascending order; zero bytes cover
/// none. `block_bytes` must be a power of two.
///
/// # Example
///
/// ```
/// // 8 bytes at 28 straddle the 32-byte blocks at 0 and 32.
/// let b: Vec<u64> = wwt_mem::blocks(28, 8, 32).collect();
/// assert_eq!(b, [0, 32]);
/// ```
pub fn blocks(addr: u64, bytes: u64, block_bytes: u64) -> impl Iterator<Item = u64> {
    let shift = block_bytes.trailing_zeros();
    let first = addr >> shift;
    let end = if bytes == 0 {
        first
    } else {
        ((addr + bytes - 1) >> shift) + 1
    };
    (first..end).map(move |b| b << shift)
}

/// Touches every cache block in `[addr, addr + bytes)` (raw addresses) with
/// the given access kind, updating `cache` and `tlb`.
///
/// # Example
///
/// ```
/// use wwt_mem::{Cache, CacheGeometry, Tlb, AccessKind};
/// use wwt_mem::path::touch;
///
/// let mut cache = Cache::new(CacheGeometry::paper_default(), 1);
/// let mut tlb = Tlb::paper_default();
/// let out = touch(&mut cache, &mut tlb, 0, 128, AccessKind::Read);
/// assert_eq!(out.blocks, 4);
/// assert_eq!(out.misses, 4);
/// let again = touch(&mut cache, &mut tlb, 0, 128, AccessKind::Read);
/// assert_eq!(again.misses, 0);
/// ```
pub fn touch(
    cache: &mut Cache,
    tlb: &mut Tlb,
    addr: u64,
    bytes: u64,
    kind: AccessKind,
) -> TouchOutcome {
    let mut out = TouchOutcome::default();
    let mut page = u64::MAX;
    for block in blocks(addr, bytes, cache.geometry().block_bytes) {
        let p = block & !(PAGE_BYTES - 1);
        if p != page {
            page = p;
            if !tlb.access(p) {
                out.tlb_misses += 1;
            }
        }
        let r = cache.access(block, kind);
        out.blocks += 1;
        if !r.hit {
            out.misses += 1;
        }
        if r.upgrade {
            out.upgrades += 1;
        }
        if let Some(ev) = r.evicted {
            match ev.state {
                LineState::Clean => out.clean_evictions += 1,
                LineState::Dirty => out.dirty_evictions += 1,
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheGeometry;

    #[test]
    fn blocks_covers_straddled_blocks_at_every_size() {
        let walk = |addr, bytes, bb| blocks(addr, bytes, bb).collect::<Vec<u64>>();
        // An unaligned range straddling block boundaries.
        assert_eq!(walk(28, 40, 16), [16, 32, 48, 64]);
        assert_eq!(walk(28, 40, 32), [0, 32, 64]);
        assert_eq!(walk(28, 40, 64), [0, 64]);
        for bb in [16, 32, 64] {
            // A single byte is its own block; zero bytes are none.
            assert_eq!(walk(100, 1, bb), [100 & !(bb - 1)]);
            assert_eq!(walk(100, 0, bb), []);
            // The last byte of a block stays in it; the next starts another.
            assert_eq!(walk(bb - 1, 1, bb), [0]);
            assert_eq!(walk(bb - 1, 2, bb), [0, bb]);
        }
    }

    fn setup() -> (Cache, Tlb) {
        (Cache::new(CacheGeometry::paper_default(), 3), Tlb::new(4))
    }

    #[test]
    fn unaligned_range_covers_straddled_blocks() {
        let (mut c, mut t) = setup();
        // 8 bytes starting at offset 28 straddles blocks 0 and 32.
        let out = touch(&mut c, &mut t, 28, 8, AccessKind::Read);
        assert_eq!(out.blocks, 2);
        assert_eq!(out.misses, 2);
    }

    #[test]
    fn single_byte_is_one_block() {
        let (mut c, mut t) = setup();
        let out = touch(&mut c, &mut t, 100, 1, AccessKind::Write);
        assert_eq!(out.blocks, 1);
    }

    #[test]
    fn zero_bytes_touch_nothing() {
        let (mut c, mut t) = setup();
        let out = touch(&mut c, &mut t, 0, 0, AccessKind::Read);
        assert_eq!(out, TouchOutcome::default());
    }

    #[test]
    fn tlb_misses_counted_per_page() {
        let (mut c, mut t) = setup();
        let out = touch(&mut c, &mut t, 0, 2 * PAGE_BYTES, AccessKind::Read);
        assert_eq!(out.tlb_misses, 2);
        assert_eq!(out.blocks as u64, 2 * PAGE_BYTES / 32);
    }

    #[test]
    fn write_after_read_counts_upgrades() {
        let (mut c, mut t) = setup();
        touch(&mut c, &mut t, 0, 64, AccessKind::Read);
        let out = touch(&mut c, &mut t, 0, 64, AccessKind::Write);
        assert_eq!(out.misses, 0);
        assert_eq!(out.upgrades, 2);
    }

    #[test]
    fn outcome_merge_accumulates() {
        let mut a = TouchOutcome {
            blocks: 1,
            misses: 1,
            ..Default::default()
        };
        a.merge(TouchOutcome {
            blocks: 2,
            tlb_misses: 1,
            ..Default::default()
        });
        assert_eq!(a.blocks, 3);
        assert_eq!(a.misses, 1);
        assert_eq!(a.tlb_misses, 1);
    }
}
