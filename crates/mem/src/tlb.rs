//! Fully-associative TLB with FIFO replacement (Table 1 of the paper:
//! 64 entries, 4 KB pages).

use std::collections::VecDeque;
use std::fmt;

use wwt_sim::FastSet;

/// A fully-associative, FIFO-replacement TLB over raw page addresses.
///
/// # Example
///
/// ```
/// use wwt_mem::Tlb;
/// let mut tlb = Tlb::new(2);
/// assert!(!tlb.access(0x1000)); // miss, filled
/// assert!(tlb.access(0x1000));  // hit
/// assert!(!tlb.access(0x2000));
/// assert!(!tlb.access(0x3000)); // evicts 0x1000 (FIFO)
/// assert!(!tlb.access(0x1000));
/// ```
#[derive(Clone)]
pub struct Tlb {
    entries: usize,
    fifo: VecDeque<u64>,
    present: FastSet<u64>,
    /// The last page accessed, which is always resident: a repeat access
    /// hits without the hash probe (FIFO replacement ignores hits, so
    /// skipping the probe changes nothing else). Evictions happen only on
    /// a miss, which re-points the memo at the page it fills, so the memo
    /// never names an evicted page.
    last: Option<u64>,
}

impl fmt::Debug for Tlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tlb")
            .field("entries", &self.entries)
            .field("resident", &self.fifo.len())
            .finish()
    }
}

impl Tlb {
    /// Creates an empty TLB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "TLB must have at least one entry");
        Tlb {
            entries,
            fifo: VecDeque::with_capacity(entries),
            present: FastSet::with_capacity_and_hasher(entries * 2, Default::default()),
            last: None,
        }
    }

    /// The paper's TLB: 64 entries.
    pub fn paper_default() -> Self {
        Tlb::new(64)
    }

    /// Accesses `page` (a raw page-aligned address), returning `true` on a
    /// hit. A miss fills the entry, evicting the oldest entry if full.
    pub fn access(&mut self, page: u64) -> bool {
        if self.last == Some(page) {
            return true;
        }
        self.last = Some(page);
        if self.present.contains(&page) {
            return true;
        }
        if self.fifo.len() == self.entries {
            if let Some(old) = self.fifo.pop_front() {
                self.present.remove(&old);
            }
        }
        self.fifo.push_back(page);
        self.present.insert(page);
        false
    }

    /// Number of resident translations.
    pub fn resident(&self) -> usize {
        self.fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_evicts_oldest_not_lru() {
        let mut t = Tlb::new(2);
        t.access(1);
        t.access(2);
        // Touch 1 again: FIFO ignores recency.
        assert!(t.access(1));
        t.access(3); // evicts 1 (oldest), not 2
        assert!(!t.access(1));
    }

    #[test]
    fn fast_path_matches_a_naive_fifo() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for (entries, seed) in [(1, 1), (2, 2), (64, 3)] {
            let mut tlb = Tlb::new(entries);
            let mut naive: VecDeque<u64> = VecDeque::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            // Pages drawn from a few more than `entries`, with runs of
            // repeats, so the memo answers often and every page keeps
            // cycling through the FIFO.
            let span = entries as u64 + 3;
            let mut page = 0;
            for step in 0..50_000 {
                if rng.gen_bool(0.6) {
                    page = rng.gen_range(0..span) << 12;
                }
                let hit = naive.contains(&page);
                if !hit {
                    if naive.len() == entries {
                        naive.pop_front();
                    }
                    naive.push_back(page);
                }
                assert_eq!(tlb.access(page), hit, "entries {entries}, step {step}");
                assert_eq!(tlb.resident(), naive.len());
            }
        }
    }

    #[test]
    fn capacity_is_bounded() {
        let mut t = Tlb::new(8);
        for p in 0..100u64 {
            t.access(p << 12);
        }
        assert_eq!(t.resident(), 8);
    }
}
