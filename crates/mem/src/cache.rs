//! Set-associative cache tag model with random replacement.
//!
//! The cache tracks tags and line states only; data values live in the
//! node's backing store ([`crate::NodeMem`]). This matches the Wisconsin
//! Wind Tunnel approach, where the simulator models timing and coherence
//! while data is held in host memory.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

use crate::addr::RAW_BITS;

/// State of one cache line.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LineState {
    /// Present, not modified. For shared data this is a *read-only* copy
    /// (writing to it raises a write fault on the shared-memory machine).
    Clean,
    /// Present and modified (exclusive ownership for shared data).
    Dirty,
}

/// Geometry of a cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Block (line) size in bytes.
    pub block_bytes: u64,
}

impl CacheGeometry {
    /// The paper's cache: 256 KB, 4-way set associative, 32-byte blocks
    /// (Table 1).
    pub fn paper_default() -> Self {
        CacheGeometry {
            size_bytes: 256 * 1024,
            ways: 4,
            block_bytes: 32,
        }
    }

    /// The 1 MB variant used for the EM3D study (Table 16).
    pub fn one_megabyte() -> Self {
        CacheGeometry {
            size_bytes: 1024 * 1024,
            ..Self::paper_default()
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, non-power-of-two
    /// set count, or capacity not divisible by `ways * block_bytes`).
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0, "cache must have at least one way");
        let per_way = self.size_bytes / (self.ways as u64);
        assert!(
            per_way.is_multiple_of(self.block_bytes),
            "capacity not divisible by ways * block"
        );
        let sets = per_way / self.block_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets as usize
    }
}

// One line is one `u64`: the raw block address (`GAddr::raw`, below
// `1 << RAW_BITS`) plus a valid and a dirty bit above it. Zero is an
// invalid line, so a zeroed allocation is an empty cache.
const VALID: u64 = 1 << 63;
const DIRTY: u64 = 1 << 62;
const _: () = assert!(RAW_BITS <= 62, "tags must leave the state bits free");

fn line_state(line: u64) -> LineState {
    if line & DIRTY != 0 {
        LineState::Dirty
    } else {
        LineState::Clean
    }
}

/// Whether `line` is valid and holds `block`.
fn holds(line: u64, block: u64) -> bool {
    line & !DIRTY == block | VALID
}

fn line_tag(line: u64) -> u64 {
    line & !(VALID | DIRTY)
}

/// The line of `block` in `state`.
fn make_line(block: u64, state: LineState) -> u64 {
    VALID
        | block
        | match state {
            LineState::Clean => 0,
            LineState::Dirty => DIRTY,
        }
}

/// How an access intends to use the block.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A block evicted to make room for a fill.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Raw block address of the victim.
    pub block: u64,
    /// Victim state at eviction (a `Dirty` victim must be written back).
    pub state: LineState,
}

/// Result of a cache access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was present with sufficient permission.
    ///
    /// A write to a `Clean` line is reported as a hit with
    /// `upgrade = true`: the data was present but the line needs write
    /// permission (a write fault on the shared-memory machine).
    pub hit: bool,
    /// True when a write found the block `Clean` (write-permission
    /// upgrade needed for shared data).
    pub upgrade: bool,
    /// The victim evicted by the fill, if the access missed and replaced a
    /// valid line.
    pub evicted: Option<Evicted>,
}

/// A set-associative cache with random replacement.
///
/// Accesses both probe and update the cache: a miss fills the block
/// (choosing an invalid way if one exists, otherwise a uniformly random
/// victim) and reports the evicted line so the caller can charge
/// replacement costs.
pub struct Cache {
    geometry: CacheGeometry,
    /// All lines, flat: set `s` occupies `lines[s * ways .. (s + 1) * ways]`.
    /// One contiguous allocation keeps a set probe inside one host cache
    /// line, and sets a run never touches are never faulted in.
    lines: Vec<u64>,
    set_mask: u64,
    block_shift: u32,
    rng: SmallRng,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("geometry", &self.geometry)
            .field("resident", &self.resident_blocks())
            .finish()
    }
}

impl Cache {
    /// Creates an empty cache with the given geometry and replacement seed.
    pub fn new(geometry: CacheGeometry, seed: u64) -> Self {
        let nsets = geometry.sets();
        Cache {
            geometry,
            lines: vec![0; nsets * geometry.ways],
            set_mask: (nsets as u64) - 1,
            block_shift: geometry.block_bytes.trailing_zeros(),
            rng: SmallRng::seed_from_u64(seed ^ 0xcac4e),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// `log2` of the block size: a raw address shifted right by this is
    /// its block number.
    #[inline]
    pub(crate) fn block_shift(&self) -> u32 {
        self.block_shift
    }

    fn set_index(&self, block: u64) -> usize {
        debug_assert!(block >> RAW_BITS == 0, "{block:#x} is not a raw address");
        ((block >> self.block_shift) & self.set_mask) as usize
    }

    /// The ways of the set `block` maps to, as a mutable slice.
    fn set_mut(&mut self, block: u64) -> &mut [u64] {
        let ways = self.geometry.ways;
        let start = self.set_index(block) * ways;
        &mut self.lines[start..start + ways]
    }

    /// The ways of the set `block` maps to.
    fn set_of(&self, block: u64) -> &[u64] {
        let ways = self.geometry.ways;
        let start = self.set_index(block) * ways;
        &self.lines[start..start + ways]
    }

    /// Accesses the block containing raw block address `block`
    /// (must be block-aligned), filling it on a miss.
    ///
    /// The state after the access is `Dirty` for writes and the previous
    /// state (or `Clean` on a fill) for reads.
    pub fn access(&mut self, block: u64, kind: AccessKind) -> AccessResult {
        debug_assert!(
            block & (self.geometry.block_bytes - 1) == 0,
            "unaligned block address"
        );
        let write = kind == AccessKind::Write;
        let set = self.set_mut(block);
        if let Some(line) = set.iter_mut().find(|l| holds(**l, block)) {
            let upgrade = write && *line & DIRTY == 0;
            if write {
                *line |= DIRTY;
            }
            return AccessResult {
                hit: true,
                upgrade,
                evicted: None,
            };
        }
        let state = if write {
            LineState::Dirty
        } else {
            LineState::Clean
        };
        AccessResult {
            hit: false,
            upgrade: false,
            evicted: self.replace(block, state),
        }
    }

    /// Fills `block` with an explicit state without counting as an access
    /// (used when a coherence response installs a line). Returns the
    /// evicted victim, if any.
    pub fn fill(&mut self, block: u64, state: LineState) -> Option<Evicted> {
        let set = self.set_mut(block);
        if let Some(line) = set.iter_mut().find(|l| holds(**l, block)) {
            *line = make_line(block, state);
            return None;
        }
        self.replace(block, state)
    }

    /// Installs `block` (known absent) in its set, choosing an invalid way
    /// if one exists, otherwise a uniformly random victim.
    fn replace(&mut self, block: u64, state: LineState) -> Option<Evicted> {
        let ways = self.geometry.ways;
        let start = self.set_index(block) * ways;
        let victim_idx = match self.lines[start..start + ways]
            .iter()
            .position(|&l| l & VALID == 0)
        {
            Some(i) => i,
            None => self.rng.gen_range(0..ways),
        };
        let victim =
            std::mem::replace(&mut self.lines[start + victim_idx], make_line(block, state));
        (victim & VALID != 0).then(|| Evicted {
            block: line_tag(victim),
            state: line_state(victim),
        })
    }

    /// Returns the state of `block` if it is resident.
    pub fn state_of(&self, block: u64) -> Option<LineState> {
        self.set_of(block)
            .iter()
            .find(|&&l| holds(l, block))
            .map(|&l| line_state(l))
    }

    /// Host-prefetches the set `block` maps to, ahead of a probe, fill or
    /// invalidation of it. Changes no line and no replacement draw; a
    /// no-op past the end of the line table.
    #[inline]
    pub fn prefetch(&self, block: u64) {
        if let Some(first) = self.lines.get(self.set_index(block) * self.geometry.ways) {
            wwt_sim::prefetch(first);
        }
    }

    /// Invalidates `block`, returning its state if it was resident.
    pub fn invalidate(&mut self, block: u64) -> Option<LineState> {
        let line = self.set_mut(block).iter_mut().find(|l| holds(**l, block))?;
        Some(line_state(std::mem::take(line)))
    }

    /// Downgrades `block` to `Clean` (read-only), returning `true` if it
    /// was resident and `Dirty` (i.e. a writeback is needed).
    pub fn downgrade(&mut self, block: u64) -> bool {
        match self.set_mut(block).iter_mut().find(|l| holds(**l, block)) {
            Some(line) => {
                let was_dirty = *line & DIRTY != 0;
                *line &= !DIRTY;
                was_dirty
            }
            None => false,
        }
    }

    /// All valid resident lines as (raw block address, state) pairs.
    pub fn resident(&self) -> Vec<(u64, LineState)> {
        self.lines
            .iter()
            .filter(|&&l| l & VALID != 0)
            .map(|&l| (line_tag(l), line_state(l)))
            .collect()
    }

    /// Number of valid lines currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.lines.iter().filter(|&&l| l & VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 32B = 256B.
        Cache::new(
            CacheGeometry {
                size_bytes: 256,
                ways: 2,
                block_bytes: 32,
            },
            7,
        )
    }

    #[test]
    fn paper_geometry_has_2048_sets() {
        assert_eq!(CacheGeometry::paper_default().sets(), 2048);
        assert_eq!(CacheGeometry::one_megabyte().sets(), 8192);
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = small_cache();
        assert!(!c.access(0x0, AccessKind::Read).hit);
        assert!(c.access(0x0, AccessKind::Read).hit);
        assert_eq!(c.state_of(0x0), Some(LineState::Clean));
    }

    #[test]
    fn write_marks_dirty_and_reports_upgrade() {
        let mut c = small_cache();
        c.access(0x20, AccessKind::Read);
        let r = c.access(0x20, AccessKind::Write);
        assert!(r.hit && r.upgrade);
        assert_eq!(c.state_of(0x20), Some(LineState::Dirty));
        // Second write: no upgrade.
        let r = c.access(0x20, AccessKind::Write);
        assert!(r.hit && !r.upgrade);
    }

    #[test]
    fn conflicting_blocks_evict() {
        let mut c = small_cache();
        // Three blocks mapping to set 0 in a 2-way cache (stride = 4 sets * 32B).
        c.access(0x000, AccessKind::Write);
        c.access(0x080, AccessKind::Read);
        let r = c.access(0x100, AccessKind::Read);
        assert!(!r.hit);
        let ev = r.evicted.expect("a valid line must be evicted");
        assert!(ev.block == 0x000 || ev.block == 0x080);
        // The dirty victim reports Dirty so the caller charges a writeback.
        if ev.block == 0x000 {
            assert_eq!(ev.state, LineState::Dirty);
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache();
        c.access(0x40, AccessKind::Write);
        assert_eq!(c.invalidate(0x40), Some(LineState::Dirty));
        assert_eq!(c.state_of(0x40), None);
        assert_eq!(c.invalidate(0x40), None);
        assert!(!c.access(0x40, AccessKind::Read).hit);
    }

    #[test]
    fn downgrade_reports_writeback_need() {
        let mut c = small_cache();
        c.access(0x60, AccessKind::Write);
        assert!(c.downgrade(0x60));
        assert_eq!(c.state_of(0x60), Some(LineState::Clean));
        assert!(!c.downgrade(0x60));
    }

    #[test]
    fn fill_does_not_duplicate_resident_block() {
        let mut c = small_cache();
        c.access(0x20, AccessKind::Read);
        assert!(c.fill(0x20, LineState::Dirty).is_none());
        assert_eq!(c.state_of(0x20), Some(LineState::Dirty));
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = small_cache();
        for i in 0..64 {
            c.access(i * 32, AccessKind::Read);
        }
        assert!(c.resident_blocks() <= 8);
    }

    /// The struct-of-fields cache the packed lines replaced, kept as the
    /// oracle: one `(tag, state, valid)` record per line, same geometry,
    /// same seeded replacement draws.
    struct OracleCache {
        ways: usize,
        lines: Vec<(u64, LineState, bool)>,
        set_mask: u64,
        block_shift: u32,
        rng: SmallRng,
    }

    impl OracleCache {
        fn new(geometry: CacheGeometry, seed: u64) -> Self {
            let nsets = geometry.sets();
            OracleCache {
                ways: geometry.ways,
                lines: vec![(0, LineState::Clean, false); nsets * geometry.ways],
                set_mask: nsets as u64 - 1,
                block_shift: geometry.block_bytes.trailing_zeros(),
                rng: SmallRng::seed_from_u64(seed ^ 0xcac4e),
            }
        }

        fn set(&mut self, block: u64) -> &mut [(u64, LineState, bool)] {
            let start = ((block >> self.block_shift) & self.set_mask) as usize * self.ways;
            &mut self.lines[start..start + self.ways]
        }

        fn find(&mut self, block: u64) -> Option<&mut (u64, LineState, bool)> {
            self.set(block).iter_mut().find(|l| l.2 && l.0 == block)
        }

        fn install(&mut self, block: u64, state: LineState) -> Option<Evicted> {
            let ways = self.ways;
            let idx = match self.set(block).iter().position(|l| !l.2) {
                Some(i) => i,
                None => self.rng.gen_range(0..ways),
            };
            let set = self.set(block);
            let victim = set[idx];
            set[idx] = (block, state, true);
            victim.2.then_some(Evicted {
                block: victim.0,
                state: victim.1,
            })
        }

        fn access(&mut self, block: u64, kind: AccessKind) -> AccessResult {
            let write = kind == AccessKind::Write;
            if let Some(line) = self.find(block) {
                let upgrade = write && line.1 == LineState::Clean;
                if write {
                    line.1 = LineState::Dirty;
                }
                return AccessResult {
                    hit: true,
                    upgrade,
                    evicted: None,
                };
            }
            let state = if write {
                LineState::Dirty
            } else {
                LineState::Clean
            };
            AccessResult {
                hit: false,
                upgrade: false,
                evicted: self.install(block, state),
            }
        }

        fn fill(&mut self, block: u64, state: LineState) -> Option<Evicted> {
            if let Some(line) = self.find(block) {
                line.1 = state;
                return None;
            }
            self.install(block, state)
        }

        fn invalidate(&mut self, block: u64) -> Option<LineState> {
            let line = self.find(block)?;
            line.2 = false;
            Some(line.1)
        }

        fn downgrade(&mut self, block: u64) -> bool {
            self.find(block).is_some_and(|line| {
                let was_dirty = line.1 == LineState::Dirty;
                line.1 = LineState::Clean;
                was_dirty
            })
        }

        fn resident(&self) -> Vec<(u64, LineState)> {
            self.lines
                .iter()
                .filter(|l| l.2)
                .map(|l| (l.0, l.1))
                .collect()
        }
    }

    #[test]
    fn packed_lines_match_the_struct_of_fields_oracle() {
        use crate::{GAddr, Segment};
        for (size_bytes, ways, seed) in [(256, 2, 7), (1024, 4, 11), (128, 1, 3)] {
            let geometry = CacheGeometry {
                size_bytes,
                ways,
                block_bytes: 32,
            };
            let mut packed = Cache::new(geometry, seed);
            let mut oracle = OracleCache::new(geometry, seed);
            // Blocks from both segments, up to the largest node id and
            // offset, so tags use every raw-address bit.
            let pool: Vec<u64> = (0..48u64)
                .map(|i| {
                    let seg = if i % 2 == 0 {
                        Segment::Shared
                    } else {
                        Segment::Private
                    };
                    let node = [0, 1, 1023][(i % 3) as usize];
                    let offset = [0, (1 << 40) - 32][(i % 5 == 0) as usize] ^ (i * 32);
                    GAddr::new(seg, node, offset & !31).raw()
                })
                .collect();
            let mut rng = SmallRng::seed_from_u64(seed);
            for step in 0..20_000 {
                let block = pool[rng.gen_range(0..pool.len())];
                let what = rng.gen_range(0..10u32);
                match what {
                    0..=5 => {
                        let kind = if what < 3 {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        };
                        let (a, b) = (packed.access(block, kind), oracle.access(block, kind));
                        assert_eq!(a, b, "step {step}: access {block:#x}");
                    }
                    6 => {
                        let st = if rng.gen_bool(0.5) {
                            LineState::Clean
                        } else {
                            LineState::Dirty
                        };
                        assert_eq!(
                            packed.fill(block, st),
                            oracle.fill(block, st),
                            "step {step}"
                        );
                    }
                    7 => assert_eq!(
                        packed.invalidate(block),
                        oracle.invalidate(block),
                        "step {step}"
                    ),
                    8 => assert_eq!(
                        packed.downgrade(block),
                        oracle.downgrade(block),
                        "step {step}"
                    ),
                    _ => {
                        let st = oracle.find(block).map(|l| l.1);
                        assert_eq!(packed.state_of(block), st, "step {step}");
                    }
                }
                if step % 97 == 0 {
                    assert_eq!(packed.resident(), oracle.resident(), "step {step}");
                }
            }
            assert_eq!(packed.resident(), oracle.resident());
            assert_eq!(packed.resident_blocks(), oracle.resident().len());
        }
    }

    #[test]
    fn prefetch_changes_no_line_and_no_draw() {
        let mut hinted = small_cache();
        let mut plain = small_cache();
        let top = (1u64 << RAW_BITS) - 32; // the highest raw block address
        for i in 0..64u64 {
            for b in [0, i * 32, top, top - i * 32] {
                hinted.prefetch(b);
            }
            let block = (i * 7 % 24) * 32;
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            assert_eq!(hinted.access(block, kind), plain.access(block, kind));
            assert_eq!(hinted.resident(), plain.resident(), "step {i}");
        }
        assert_eq!(hinted.lines.len(), plain.lines.len());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut c = small_cache();
            let mut evictions = Vec::new();
            for i in 0..32 {
                if let Some(e) = c.access((i * 7 % 16) * 32, AccessKind::Read).evicted {
                    evictions.push(e.block);
                }
            }
            evictions
        };
        assert_eq!(run(), run());
    }
}
