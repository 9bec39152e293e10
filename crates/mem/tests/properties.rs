//! Property-based tests of the memory substrate.

use proptest::prelude::*;

use wwt_mem::{touch, AccessKind, Cache, CacheGeometry, NodeMem, Tlb};

proptest! {
    /// `touch` covers exactly the blocks the byte range straddles.
    #[test]
    fn touch_block_count_formula(addr in 0u64..100_000, bytes in 1u64..10_000) {
        let geometry = CacheGeometry::paper_default();
        let mut cache = Cache::new(geometry, 9);
        let mut tlb = Tlb::paper_default();
        let out = touch(&mut cache, &mut tlb, addr, bytes, AccessKind::Read);
        let first = addr / geometry.block_bytes;
        let last = (addr + bytes - 1) / geometry.block_bytes;
        prop_assert_eq!(out.blocks as u64, last - first + 1);
        // A cold cache misses every block exactly once.
        prop_assert_eq!(out.misses, out.blocks);
        // Touching again hits everything (the range fits in 256 KB here).
        let again = touch(&mut cache, &mut tlb, addr, bytes, AccessKind::Read);
        prop_assert_eq!(again.misses, 0);
    }

    /// Write-after-read upgrades every block exactly once.
    #[test]
    fn touch_upgrade_counts(addr in 0u64..10_000, bytes in 1u64..2_000) {
        let mut cache = Cache::new(CacheGeometry::paper_default(), 9);
        let mut tlb = Tlb::paper_default();
        let read = touch(&mut cache, &mut tlb, addr, bytes, AccessKind::Read);
        let write = touch(&mut cache, &mut tlb, addr, bytes, AccessKind::Write);
        prop_assert_eq!(write.upgrades, read.blocks);
        prop_assert_eq!(write.misses, 0);
        // A second write needs no upgrades.
        let again = touch(&mut cache, &mut tlb, addr, bytes, AccessKind::Write);
        prop_assert_eq!(again.upgrades, 0);
    }

    /// Node memory round-trips arbitrary f64 slices at arbitrary offsets.
    #[test]
    fn node_mem_round_trips(
        vals in proptest::collection::vec(-1e300f64..1e300, 1..100),
        align_sel in 0usize..4,
    ) {
        let mut m = NodeMem::new();
        let align = [1u64, 8, 32, 4096][align_sel];
        m.alloc(13, 1); // misalign the bump pointer
        let off = m.alloc((vals.len() * 8) as u64, align);
        prop_assert_eq!(off % align, 0);
        m.write_f64s(off, &vals);
        let mut got = vec![0.0f64; vals.len()];
        m.read_f64s(off, &mut got);
        for (a, b) in vals.iter().zip(&got) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Allocations never overlap.
    #[test]
    fn allocations_are_disjoint(sizes in proptest::collection::vec(1u64..500, 1..40)) {
        let mut m = NodeMem::new();
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for &s in &sizes {
            let off = m.alloc(s, 8);
            for &(o2, s2) in &regions {
                prop_assert!(off >= o2 + s2 || off + s <= o2, "overlap");
            }
            regions.push((off, s));
        }
    }

    /// Cache eviction reporting: the number of valid lines plus all
    /// reported evictions equals the number of distinct blocks inserted.
    #[test]
    fn evictions_balance_insertions(blocks in proptest::collection::vec(0u64..512, 1..300)) {
        let mut cache = Cache::new(
            CacheGeometry { size_bytes: 2048, ways: 2, block_bytes: 32 },
            5,
        );
        let mut evictions = 0usize;
        let mut fills = 0usize;
        for &b in &blocks {
            let r = cache.access(b * 32, AccessKind::Read);
            if !r.hit {
                fills += 1;
                if r.evicted.is_some() {
                    evictions += 1;
                }
            }
        }
        prop_assert_eq!(cache.resident_blocks(), fills - evictions);
    }
}
