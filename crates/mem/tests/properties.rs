//! Property-based tests of the memory substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wwt_mem::{
    blocks, touch, AccessKind, Cache, CacheGeometry, LineState, NodeMem, Tlb, TouchOutcome,
    PAGE_BYTES,
};

/// The reference for `touch`: one generic walk over the range's blocks,
/// each taking a TLB access when it starts a new page and then a cache
/// access.
fn reference_touch(
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
                LineState::Clean => {}
                LineState::Dirty => out.dirty_evictions += 1,
            }
        }
    }
    out
}

/// One random range over `pages` pages, drawn from five shapes: empty,
/// inside one block, a scalar load or store that may straddle two
/// blocks, straddling a page boundary, and spanning several pages.
fn random_range(rng: &mut SmallRng, block_bytes: u64, pages: u64) -> (u64, u64) {
    let span = pages * PAGE_BYTES;
    match rng.gen_range(0..5) {
        0 => (rng.gen_range(0..span), 0),
        1 => {
            let off = rng.gen_range(0..block_bytes);
            let base = rng.gen_range(0..span / block_bytes) * block_bytes;
            (base + off, rng.gen_range(1..block_bytes - off + 1))
        }
        2 => (rng.gen_range(0..span / 4) * 4, [4, 8][rng.gen_range(0..2)]),
        3 => {
            let page_end = rng.gen_range(1..pages) * PAGE_BYTES;
            let before = rng.gen_range(1..2 * block_bytes);
            (
                page_end - before,
                before + rng.gen_range(1..2 * block_bytes),
            )
        }
        _ => (
            rng.gen_range(0..span - 3 * PAGE_BYTES),
            rng.gen_range(PAGE_BYTES..2 * PAGE_BYTES),
        ),
    }
}

/// Runs `ops` random touches over `pages` pages through `touch` and
/// through [`reference_touch`] on twin caches and TLBs, and asserts that
/// every outcome, the final residents and one more probe of every
/// block and page in the span agree.
fn touch_matches_reference(
    geometry: CacheGeometry,
    tlb_entries: usize,
    seed: u64,
    ops: usize,
    pages: u64,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut cache, mut tlb) = (Cache::new(geometry, seed), Tlb::new(tlb_entries));
    let (mut ref_cache, mut ref_tlb) = (Cache::new(geometry, seed), Tlb::new(tlb_entries));
    for op in 0..ops {
        let (addr, bytes) = random_range(&mut rng, geometry.block_bytes, pages);
        let kind = if rng.gen_bool(0.5) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let got = touch(&mut cache, &mut tlb, addr, bytes, kind);
        let want = reference_touch(&mut ref_cache, &mut ref_tlb, addr, bytes, kind);
        assert_eq!(
            got, want,
            "op {op}: {bytes} bytes at {addr:#x}, {kind:?}, {geometry:?}, {tlb_entries}-entry TLB"
        );
    }
    assert_eq!(cache.resident(), ref_cache.resident());
    assert_eq!(tlb.resident(), ref_tlb.resident());
    for block in blocks(0, pages * PAGE_BYTES, geometry.block_bytes) {
        assert_eq!(
            cache.access(block, AccessKind::Read),
            ref_cache.access(block, AccessKind::Read),
            "probe of block {block:#x}"
        );
        let page = block & !(PAGE_BYTES - 1);
        assert_eq!(
            tlb.access(page),
            ref_tlb.access(page),
            "probe of page {page:#x}"
        );
    }
}

/// `touch` agrees with the reference walk on every combination of 16-,
/// 32- and 64-byte blocks, 1- and 2-way caches of 1-4 KB and TLBs of 1,
/// 2 and 4 entries, over 8 pages: sizes that force clean and dirty
/// victims, random victim draws and TLB evictions.
#[test]
fn touch_matches_reference_walk() {
    let mut seed = 0;
    for block_bytes in [16, 32, 64] {
        for ways in [1, 2] {
            for size_bytes in [1024, 2048, 4096] {
                for tlb_entries in [1, 2, 4] {
                    seed += 1;
                    let geometry = CacheGeometry {
                        size_bytes,
                        ways,
                        block_bytes,
                    };
                    touch_matches_reference(geometry, tlb_entries, seed, 1_500, 8);
                }
            }
        }
    }
}

/// At the paper's cache and TLB, two million operations over 8 MB, so
/// fills evict and the TLB cycles.
#[test]
#[ignore = "long: two million touches; CI runs it in release"]
fn touch_matches_reference_at_paper_geometry() {
    touch_matches_reference(CacheGeometry::paper_default(), 64, 1, 2_000_000, 2048);
}

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
