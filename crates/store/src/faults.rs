//! Deterministic host-side IO fault injection for the store.
//!
//! The guest side of the reproduction already proves its faults
//! recoverable (`wwt_sim::FaultPlan`: seeded drop/dup/reorder with
//! go-back-N recovery). [`StoreFaults`] applies the same discipline to
//! the *host* substrate the result store runs on: a seeded plan decides,
//! per operation and per entry name, whether a commit is torn at byte N,
//! a committed entry gets one bit flipped, a read fails with a transient
//! `EIO`, or a rename fails outright. Tests then prove that every mode
//! degrades to a warned cache miss plus re-simulation — never to wrong
//! output.
//!
//! Decisions are pure functions of `(seed, operation, entry name)` —
//! hashing, not a stateful RNG — so they are reproducible regardless of
//! thread interleaving or operation order, exactly like `FaultPlan`'s
//! per-packet draws. The one stateful mode is the transient `EIO`: it
//! fires only on the *first* read of a given path (tracked
//! process-globally), so a later read of that path observes the error
//! clearing, which is what "transient" means.
//!
//! The plan is passed to [`crate::StoreConfig`] directly, or set
//! process-wide with [`set_global_faults`] so that every
//! [`crate::Store::open`] injects faults; `make_tables --store-faults`
//! takes the second route.

use std::collections::HashSet;
use std::fmt;
use std::sync::Mutex;

use crate::entry::fnv1a;

/// A seeded host-fault plan for store IO. All probabilities are in
/// `0.0..=1.0`; `0.0` (the default) never fires.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct StoreFaults {
    /// Seed mixed into every per-operation draw.
    pub seed: u64,
    /// Probability a commit writes only a prefix of the entry (a torn
    /// write: the rename still happens, publishing a truncated entry —
    /// what a crash between `write` and `fsync` leaves behind).
    pub torn: f64,
    /// Probability a committed entry gets exactly one payload bit
    /// flipped after the write (bit rot / a lying disk).
    pub flip: f64,
    /// Probability the first read of a given path fails with a transient
    /// `EIO`; later reads of the same path succeed.
    pub eio: f64,
    /// Probability the commit's final rename fails with `EIO` (the temp
    /// file is cleaned up; the entry is simply never published).
    pub rename: f64,
}

/// Which store operation a draw is for (mixed into the hash so the same
/// entry can tear on commit but read cleanly, and vice versa).
#[derive(Copy, Clone, Debug)]
pub enum FaultOp {
    /// Torn-write draw at commit time.
    Torn,
    /// Bit-flip draw at commit time.
    Flip,
    /// Transient-EIO draw at read time.
    Eio,
    /// Rename-failure draw at commit time.
    Rename,
}

impl FaultOp {
    fn tag(self) -> &'static str {
        match self {
            FaultOp::Torn => "torn",
            FaultOp::Flip => "flip",
            FaultOp::Eio => "eio",
            FaultOp::Rename => "rename",
        }
    }
}

/// Paths whose one transient `EIO` has already fired, process-wide.
static EIO_FIRED: Mutex<Option<HashSet<String>>> = Mutex::new(None);

impl StoreFaults {
    /// Parses a plan spec: `seed=S,torn=P,flip=P,eio=P,rename=P` (any
    /// subset, any order; the same comma grammar as `--faults` and
    /// `--arch`).
    pub fn parse(spec: &str) -> Result<StoreFaults, String> {
        let mut f = StoreFaults::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("'{v}' is not a number in '{part}'"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability out of [0,1] in '{part}'"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    f.seed = value
                        .parse()
                        .map_err(|_| format!("'{value}' is not a seed in '{part}'"))?
                }
                "torn" => f.torn = prob(value)?,
                "flip" => f.flip = prob(value)?,
                "eio" => f.eio = prob(value)?,
                "rename" => f.rename = prob(value)?,
                _ => {
                    return Err(format!(
                        "unknown store-fault key '{key}' (use seed/torn/flip/eio/rename)"
                    ))
                }
            }
        }
        Ok(f)
    }

    /// Does this plan ever fire?
    pub fn is_active(&self) -> bool {
        self.torn > 0.0 || self.flip > 0.0 || self.eio > 0.0 || self.rename > 0.0
    }

    /// The deterministic draw for one (operation, entry name): a 64-bit
    /// hash of `(seed, op, name)`.
    fn draw(&self, op: FaultOp, name: &str) -> u64 {
        let key = format!("{}|{}|{name}", self.seed, op.tag());
        fnv1a(key.as_bytes())
    }

    /// Whether the draw fires under probability `p`.
    fn fires(&self, op: FaultOp, name: &str, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        // Top 53 bits as a uniform fraction in [0,1).
        let frac = (self.draw(op, name) >> 11) as f64 / (1u64 << 53) as f64;
        frac < p
    }

    /// If the plan tears this commit, the prefix length to keep
    /// (strictly less than `len`, at a draw-derived offset).
    pub fn torn_len(&self, name: &str, len: usize) -> Option<usize> {
        if len == 0 || !self.fires(FaultOp::Torn, name, self.torn) {
            return None;
        }
        Some((self.draw(FaultOp::Torn, name) as usize) % len)
    }

    /// If the plan flips a bit in this commit, the (byte, bit) to flip.
    pub fn flip_at(&self, name: &str, len: usize) -> Option<(usize, u8)> {
        if len == 0 || !self.fires(FaultOp::Flip, name, self.flip) {
            return None;
        }
        let d = self.draw(FaultOp::Flip, name);
        Some(((d as usize / 8) % len, (d % 8) as u8))
    }

    /// Whether the commit's rename fails.
    pub fn rename_fails(&self, name: &str) -> bool {
        self.fires(FaultOp::Rename, name, self.rename)
    }

    /// Whether a read of `path` fails with a transient `EIO` — true at
    /// most once per path per process.
    pub fn read_eio(&self, path: &str) -> bool {
        if !self.fires(FaultOp::Eio, path, self.eio) {
            return false;
        }
        let mut fired = EIO_FIRED.lock().unwrap_or_else(|e| e.into_inner());
        fired
            .get_or_insert_with(HashSet::new)
            .insert(path.to_string())
    }
}

impl fmt::Display for StoreFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},torn={},flip={},eio={},rename={}",
            self.seed, self.torn, self.flip, self.eio, self.rename
        )
    }
}

/// The process-global fault plan consulted by [`crate::Store::open`],
/// set via [`set_global_faults`]. `None` (the default) injects nothing.
static GLOBAL: Mutex<Option<StoreFaults>> = Mutex::new(None);

/// Sets (or clears, with `None`) the process-global store-fault plan.
pub fn set_global_faults(faults: Option<StoreFaults>) {
    *GLOBAL.lock().unwrap_or_else(|e| e.into_inner()) = faults;
}

/// The effective process-global fault plan.
pub fn global_faults() -> Option<StoreFaults> {
    *GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the transient-EIO "already fired" memory, so a fresh test run
/// observes first-read failures again.
pub fn reset_fault_state() {
    *EIO_FIRED.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_validates() {
        let f = StoreFaults::parse("seed=7,torn=0.5,flip=0.25,eio=1,rename=0").unwrap();
        assert_eq!(f.seed, 7);
        assert_eq!(f.torn, 0.5);
        assert_eq!(f.eio, 1.0);
        assert!(f.is_active());
        assert!(!StoreFaults::parse("").unwrap().is_active());
        assert!(StoreFaults::parse("torn=1.5").is_err());
        assert!(StoreFaults::parse("bogus=1").is_err());
        assert!(StoreFaults::parse("torn").is_err());
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = StoreFaults::parse("seed=1,torn=0.5").unwrap();
        let b = StoreFaults::parse("seed=2,torn=0.5").unwrap();
        let names: Vec<String> = (0..64).map(|i| format!("entry-{i}.run")).collect();
        let torn_a: Vec<Option<usize>> = names.iter().map(|n| a.torn_len(n, 1000)).collect();
        let torn_a2: Vec<Option<usize>> = names.iter().map(|n| a.torn_len(n, 1000)).collect();
        assert_eq!(torn_a, torn_a2, "same seed, same draws");
        let torn_b: Vec<Option<usize>> = names.iter().map(|n| b.torn_len(n, 1000)).collect();
        assert_ne!(torn_a, torn_b, "different seeds must differ somewhere");
        // Roughly half the names tear at p=0.5 — loose bounds, exact
        // values pinned by determinism above.
        let fired = torn_a.iter().filter(|t| t.is_some()).count();
        assert!((10..=54).contains(&fired), "{fired}/64 fired at p=0.5");
    }

    #[test]
    fn certain_probabilities_always_fire_and_stay_in_range() {
        let f = StoreFaults::parse("seed=3,torn=1,flip=1,rename=1").unwrap();
        for i in 0..32 {
            let name = format!("e{i}");
            let t = f.torn_len(&name, 100).expect("torn=1 fires");
            assert!(t < 100);
            let (byte, bit) = f.flip_at(&name, 100).expect("flip=1 fires");
            assert!(byte < 100 && bit < 8);
            assert!(f.rename_fails(&name));
        }
        assert_eq!(f.torn_len("x", 0), None, "empty payloads cannot tear");
    }

    #[test]
    fn transient_eio_fires_once_per_path() {
        reset_fault_state();
        let f = StoreFaults::parse("seed=5,eio=1").unwrap();
        let path = "/tmp/some/store/transient-test.run";
        assert!(f.read_eio(path), "first read fails");
        assert!(!f.read_eio(path), "second read succeeds: transient");
        assert!(f.read_eio("/tmp/some/store/other.run"));
        reset_fault_state();
        assert!(f.read_eio(path), "reset re-arms the fault");
        reset_fault_state();
    }
}
