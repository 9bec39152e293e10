//! The shared hardware cost model of the paired simulators.
//!
//! The paper's central methodological point is that its message-passing
//! and shared-memory simulators share one hardware base (Table 1): the
//! same processor, cache, TLB, DRAM, network latency, and barrier. This
//! crate single-sources that base as [`ArchParams`], which both
//! machine configurations (`wwt-mp`'s `MpConfig` and `wwt-sm`'s
//! `SmConfig`) embed. The machine-specific cost tables — Table 2's
//! network-interface and library costs, Table 3's coherence-protocol
//! costs — stay in their machine crates; everything the paper holds
//! constant across the comparison lives here, exactly once.
//!
//! Beyond the struct itself, the crate makes every parameter a point in
//! a parameter space rather than a pinned constant:
//!
//! * **Presets** ([`ArchParams::preset`]): named starting points —
//!   `paper`, `1mb-cache` (the Table-16 variant), `low-latency`,
//!   `high-latency`.
//! * **Overrides** ([`ArchParams::parse`]): `preset,key=value,...`
//!   specs, as accepted by `make_tables --arch`.
//! * **Sweeps** ([`ArchSweep`], [`sweep_points`]): `key=v1,v2,...`
//!   axes whose cross product fans an experiment grid out across
//!   architecture points (`make_tables --arch-sweep`).
//! * **A canonical form** ([`ArchParams::canonical`]) with a stable
//!   hash ([`ArchParams::stable_hash`]): field order is fixed, so two
//!   specs that set the same values hash identically regardless of the
//!   order their `key=value` pairs were written in. The run cache keys
//!   on it, so results from different architecture points never mix.
//!
//! # Example
//!
//! ```
//! use wwt_arch::ArchParams;
//!
//! let paper = ArchParams::default();
//! assert_eq!(paper.net_latency, 100);
//! assert_eq!(paper.latency(3, 3), 10);   // self-messages bypass the network
//! assert_eq!(paper.latency(3, 4), 100);
//!
//! let fast = ArchParams::parse("low-latency,dram=5").unwrap();
//! assert_eq!(fast.net_latency, 10);
//! assert_eq!(fast.dram, 5);
//! assert_ne!(fast.stable_hash(), paper.stable_hash());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use wwt_mem::CacheGeometry;
use wwt_sim::Cycles;

/// The common hardware base of both machines (Table 1 of the paper),
/// plus the shared network-latency logic.
///
/// Defaults are the paper's values; see [`ArchParams::parse`] for the
/// `preset,key=value,...` override syntax.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ArchParams {
    /// Cache geometry (Table 1: 256 KB, 4-way, 32 B blocks).
    pub cache: CacheGeometry,
    /// TLB entries (Table 1: 64).
    pub tlb_entries: usize,
    /// One-way network latency between distinct nodes (Table 1: 100).
    pub net_latency: Cycles,
    /// Latency of a message a node sends to itself (Table 3: 10) —
    /// protocol traffic that never crosses the network.
    pub msg_to_self: Cycles,
    /// Barrier latency from last arrival (Table 1: 100).
    pub barrier_latency: Cycles,
    /// Private cache miss cost excluding DRAM (Table 1: 11).
    pub priv_miss: Cycles,
    /// DRAM access (Table 1: 10).
    pub dram: Cycles,
    /// Replacement cost of a private block with the infinite write
    /// buffer (Table 2 and Table 3 agree: 1).
    pub replacement: Cycles,
    /// TLB refill cost (not specified by the paper; calibrated).
    pub tlb_miss: Cycles,
}

impl Default for ArchParams {
    fn default() -> Self {
        ArchParams {
            cache: CacheGeometry::paper_default(),
            tlb_entries: 64,
            net_latency: 100,
            msg_to_self: 10,
            barrier_latency: 100,
            priv_miss: 11,
            dram: 10,
            replacement: 1,
            tlb_miss: 20,
        }
    }
}

/// The sweepable keys, in canonical order. Each entry is
/// `(key, what it sets)`; the order defines [`ArchParams::canonical`].
pub const KEYS: [(&str, &str); 12] = [
    ("cache_kb", "cache capacity in KB"),
    ("cache_bytes", "cache capacity in bytes"),
    ("cache_ways", "cache associativity"),
    ("cache_block", "cache block size in bytes"),
    ("tlb_entries", "TLB entries"),
    ("net_latency", "one-way network latency in cycles"),
    ("msg_to_self", "latency of a node's message to itself"),
    ("barrier_latency", "barrier latency from last arrival"),
    ("priv_miss", "private miss cost excluding DRAM"),
    ("dram", "DRAM access cycles"),
    ("replacement", "private-block replacement cost"),
    ("tlb_miss", "TLB refill cost"),
];

/// The named presets, with one-line descriptions.
pub const PRESETS: [(&str, &str); 4] = [
    ("paper", "the paper's Table-1 machine (the default)"),
    (
        "1mb-cache",
        "paper base with a 1 MB cache (the Table-16 variant)",
    ),
    (
        "low-latency",
        "paper base with a 10-cycle network and barrier",
    ),
    (
        "high-latency",
        "paper base with a 400-cycle network and barrier",
    ),
];

impl ArchParams {
    /// Looks up a named preset (see [`PRESETS`]).
    pub fn preset(name: &str) -> Option<ArchParams> {
        let paper = ArchParams::default();
        match name {
            "paper" => Some(paper),
            "1mb-cache" => Some(ArchParams {
                cache: CacheGeometry::one_megabyte(),
                ..paper
            }),
            "low-latency" => Some(ArchParams {
                net_latency: 10,
                barrier_latency: 10,
                ..paper
            }),
            "high-latency" => Some(ArchParams {
                net_latency: 400,
                barrier_latency: 400,
                ..paper
            }),
            _ => None,
        }
    }

    /// Parses a `preset[,key=value,...]` spec. A spec whose first
    /// segment contains `=` starts from the `paper` base; an empty spec
    /// is the `paper` base itself. Later assignments override earlier
    /// ones, and the result is validated as a whole.
    pub fn parse(spec: &str) -> Result<ArchParams, ArchError> {
        let spec = spec.trim();
        let mut parts = spec.split(',').map(str::trim).filter(|s| !s.is_empty());
        let mut arch = ArchParams::default();
        let mut first = true;
        for part in &mut parts {
            if first && !part.contains('=') {
                arch = ArchParams::preset(part)
                    .ok_or_else(|| ArchError::UnknownPreset(part.to_string()))?;
                first = false;
                continue;
            }
            first = false;
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| ArchError::BadAssignment(part.to_string()))?;
            arch.set(key.trim(), value.trim())?;
        }
        arch.validate()?;
        Ok(arch)
    }

    /// Sets one parameter by key (see [`KEYS`]). Does not validate the
    /// resulting geometry; [`ArchParams::validate`] does.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ArchError> {
        let num = |value: &str| -> Result<u64, ArchError> {
            value.parse().map_err(|_| ArchError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            })
        };
        match key {
            "cache_kb" => self.cache.size_bytes = num(value)? * 1024,
            "cache_bytes" => self.cache.size_bytes = num(value)?,
            "cache_ways" => self.cache.ways = num(value)? as usize,
            "cache_block" => self.cache.block_bytes = num(value)?,
            "tlb_entries" => self.tlb_entries = num(value)? as usize,
            "net_latency" => self.net_latency = num(value)?,
            "msg_to_self" => self.msg_to_self = num(value)?,
            "barrier_latency" => self.barrier_latency = num(value)?,
            "priv_miss" => self.priv_miss = num(value)?,
            "dram" => self.dram = num(value)?,
            "replacement" => self.replacement = num(value)?,
            "tlb_miss" => self.tlb_miss = num(value)?,
            _ => return Err(ArchError::UnknownKey(key.to_string())),
        }
        Ok(())
    }

    /// Checks that the parameters describe a realizable machine: a
    /// non-degenerate cache geometry and at least one TLB entry.
    pub fn validate(&self) -> Result<(), ArchError> {
        let g = &self.cache;
        let bad = |why: &str| Err(ArchError::BadGeometry(format!("{why} ({g:?})")));
        if g.ways == 0 {
            return bad("cache must have at least one way");
        }
        if g.block_bytes == 0 {
            return bad("cache block size must be positive");
        }
        let per_way = g.size_bytes / g.ways as u64;
        if per_way == 0 || !per_way.is_multiple_of(g.block_bytes) {
            return bad("capacity must divide into ways x block-size sets");
        }
        if !(per_way / g.block_bytes).is_power_of_two() {
            return bad("set count must be a power of two");
        }
        if self.tlb_entries == 0 {
            return Err(ArchError::BadGeometry(
                "TLB must have at least one entry".into(),
            ));
        }
        Ok(())
    }

    /// One-way latency between nodes `a` and `b` — the single shared
    /// implementation of the paper's network model: messages a node
    /// sends to itself bypass the network.
    pub fn latency(&self, a: usize, b: usize) -> Cycles {
        if a == b {
            self.msg_to_self
        } else {
            self.net_latency
        }
    }

    /// Full cost of a private cache miss (miss handling plus DRAM).
    pub fn priv_miss_total(&self) -> Cycles {
        self.priv_miss + self.dram
    }

    /// The canonical `key=value,...` rendering: fixed field order,
    /// exact values. Two equal parameter sets render identically no
    /// matter how they were produced, so this is the cache-key form.
    pub fn canonical(&self) -> String {
        format!(
            "cache_bytes={},cache_ways={},cache_block={},tlb_entries={},\
             net_latency={},msg_to_self={},barrier_latency={},priv_miss={},\
             dram={},replacement={},tlb_miss={}",
            self.cache.size_bytes,
            self.cache.ways,
            self.cache.block_bytes,
            self.tlb_entries,
            self.net_latency,
            self.msg_to_self,
            self.barrier_latency,
            self.priv_miss,
            self.dram,
            self.replacement,
            self.tlb_miss,
        )
    }

    /// A stable 64-bit hash of [`ArchParams::canonical`] (FNV-1a).
    /// Stable across processes and runs; safe to embed in cache keys
    /// and file names.
    pub fn stable_hash(&self) -> u64 {
        wwt_sim::hash::fnv1a(self.canonical().as_bytes())
    }

    /// Whether this is exactly the paper's machine.
    pub fn is_paper(&self) -> bool {
        *self == ArchParams::default()
    }
}

/// One sweep axis: a key and the values it takes, as parsed from
/// `--arch-sweep key=v1,v2,...`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchSweep {
    /// The swept key (one of [`KEYS`]).
    pub key: String,
    /// The values, in the order given.
    pub values: Vec<String>,
}

impl ArchSweep {
    /// Parses a `key=v1,v2,...` axis. The key must be sweepable and
    /// every value must apply cleanly to the paper base (full-point
    /// validation happens later, in [`sweep_points`], where axes
    /// combine).
    pub fn parse(spec: &str) -> Result<ArchSweep, ArchError> {
        let (key, rest) = spec
            .trim()
            .split_once('=')
            .ok_or_else(|| ArchError::BadAssignment(spec.trim().to_string()))?;
        let key = key.trim().to_string();
        let values: Vec<String> = rest
            .split(',')
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .collect();
        if values.is_empty() {
            return Err(ArchError::EmptySweep(key));
        }
        let mut scratch = ArchParams::default();
        for v in &values {
            scratch.set(&key, v)?;
        }
        Ok(ArchSweep { key, values })
    }
}

/// The cross product of sweep axes applied to a base parameter set.
///
/// Returns `(label, params)` pairs in deterministic order: the first
/// axis varies slowest. Labels are the swept assignments only
/// (`net_latency=50` or `net_latency=50,dram=5`), since the base is
/// common to every point. Each point is validated.
pub fn sweep_points(
    base: &ArchParams,
    sweeps: &[ArchSweep],
) -> Result<Vec<(String, ArchParams)>, ArchError> {
    let mut points: Vec<(String, ArchParams)> = vec![(String::new(), *base)];
    for sweep in sweeps {
        let mut next = Vec::with_capacity(points.len() * sweep.values.len());
        for (label, params) in &points {
            for v in &sweep.values {
                let mut p = *params;
                p.set(&sweep.key, v)?;
                let label = if label.is_empty() {
                    format!("{}={v}", sweep.key)
                } else {
                    format!("{label},{}={v}", sweep.key)
                };
                next.push((label, p));
            }
        }
        points = next;
    }
    for (_, p) in &points {
        p.validate()?;
    }
    Ok(points)
}

/// Everything that can go wrong turning a spec into parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArchError {
    /// The first spec segment named no known preset.
    UnknownPreset(String),
    /// A `key=value` pair used an unknown key.
    UnknownKey(String),
    /// A segment that should have been `key=value` wasn't.
    BadAssignment(String),
    /// A value failed to parse for its key.
    BadValue {
        /// The key being assigned.
        key: String,
        /// The offending value.
        value: String,
    },
    /// The combined parameters describe no realizable machine.
    BadGeometry(String),
    /// A sweep axis listed no values.
    EmptySweep(String),
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::UnknownPreset(p) => {
                write!(f, "unknown preset '{p}' (known: ")?;
                for (i, (name, _)) in PRESETS.iter().enumerate() {
                    write!(f, "{}{name}", if i > 0 { ", " } else { "" })?;
                }
                write!(f, ")")
            }
            ArchError::UnknownKey(k) => {
                write!(f, "unknown parameter '{k}' (known: ")?;
                for (i, (name, _)) in KEYS.iter().enumerate() {
                    write!(f, "{}{name}", if i > 0 { ", " } else { "" })?;
                }
                write!(f, ")")
            }
            ArchError::BadAssignment(s) => write!(f, "expected key=value, got '{s}'"),
            ArchError::BadValue { key, value } => {
                write!(f, "invalid value '{value}' for '{key}'")
            }
            ArchError::BadGeometry(why) => write!(f, "invalid machine: {why}"),
            ArchError::EmptySweep(key) => write!(f, "sweep of '{key}' lists no values"),
        }
    }
}

impl std::error::Error for ArchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_machine() {
        let a = ArchParams::default();
        assert_eq!(a.cache.size_bytes, 256 * 1024);
        assert_eq!(a.cache.ways, 4);
        assert_eq!(a.cache.block_bytes, 32);
        assert_eq!(a.tlb_entries, 64);
        assert_eq!(a.net_latency, 100);
        assert_eq!(a.msg_to_self, 10);
        assert_eq!(a.barrier_latency, 100);
        assert_eq!(a.priv_miss, 11);
        assert_eq!(a.dram, 10);
        assert_eq!(a.replacement, 1);
        assert_eq!(a.priv_miss_total(), 21);
        assert!(a.is_paper());
    }

    #[test]
    fn latency_distinguishes_self_messages() {
        let a = ArchParams::default();
        assert_eq!(a.latency(3, 3), 10);
        assert_eq!(a.latency(3, 4), 100);
    }

    #[test]
    fn presets_parse_and_differ_from_paper() {
        for (name, _) in PRESETS.iter().skip(1) {
            let p = ArchParams::parse(name).unwrap();
            assert!(!p.is_paper(), "{name} must differ from the paper base");
            assert_ne!(p.stable_hash(), ArchParams::default().stable_hash());
        }
        assert_eq!(ArchParams::parse("paper").unwrap(), ArchParams::default());
        assert_eq!(ArchParams::parse("").unwrap(), ArchParams::default());
        assert_eq!(
            ArchParams::parse("1mb-cache").unwrap().cache.size_bytes,
            1024 * 1024
        );
    }

    #[test]
    fn overrides_apply_on_top_of_presets() {
        let a = ArchParams::parse("1mb-cache,net_latency=50,dram=5").unwrap();
        assert_eq!(a.cache.size_bytes, 1024 * 1024);
        assert_eq!(a.net_latency, 50);
        assert_eq!(a.dram, 5);
        // Bare overrides start from the paper base.
        let b = ArchParams::parse("net_latency=50").unwrap();
        assert_eq!(b.cache.size_bytes, 256 * 1024);
        assert_eq!(b.net_latency, 50);
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!(matches!(
            ArchParams::parse("warp-drive"),
            Err(ArchError::UnknownPreset(_))
        ));
        assert!(matches!(
            ArchParams::parse("paper,flux=12"),
            Err(ArchError::UnknownKey(_))
        ));
        assert!(matches!(
            ArchParams::parse("net_latency=fast"),
            Err(ArchError::BadValue { .. })
        ));
        assert!(matches!(
            ArchParams::parse("paper,net_latency"),
            Err(ArchError::BadAssignment(_))
        ));
        // 100 KB / 4 ways / 32 B blocks → 800 sets: not a power of two.
        assert!(matches!(
            ArchParams::parse("cache_kb=100"),
            Err(ArchError::BadGeometry(_))
        ));
        assert!(matches!(
            ArchParams::parse("cache_ways=0"),
            Err(ArchError::BadGeometry(_))
        ));
        assert!(matches!(
            ArchParams::parse("tlb_entries=0"),
            Err(ArchError::BadGeometry(_))
        ));
    }

    #[test]
    fn canonical_hash_is_order_insensitive() {
        let a = ArchParams::parse("net_latency=50,dram=5").unwrap();
        let b = ArchParams::parse("dram=5,net_latency=50").unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.stable_hash(), b.stable_hash());
        // And sensitive to every value.
        let c = ArchParams::parse("net_latency=51,dram=5").unwrap();
        assert_ne!(a.stable_hash(), c.stable_hash());
    }

    #[test]
    fn paper_machine_hash_is_pinned() {
        // Recorded as `arch_hash` in every BENCH_grid.json row since the
        // field was introduced; a change here orphans that history.
        assert_eq!(ArchParams::default().stable_hash(), 0x5e0a_bc33_8b71_20c6);
    }

    #[test]
    fn sweep_cross_product_is_ordered_and_labeled() {
        let base = ArchParams::default();
        let sweeps = [
            ArchSweep::parse("net_latency=50,100").unwrap(),
            ArchSweep::parse("dram=5,10").unwrap(),
        ];
        let points = sweep_points(&base, &sweeps).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].0, "net_latency=50,dram=5");
        assert_eq!(points[3].0, "net_latency=100,dram=10");
        assert_eq!(points[0].1.net_latency, 50);
        assert_eq!(points[0].1.dram, 5);
        assert_eq!(points[3].1, base, "paper point must equal the base");
    }

    #[test]
    fn sweep_parse_rejects_bad_axes() {
        assert!(matches!(
            ArchSweep::parse("net_latency"),
            Err(ArchError::BadAssignment(_))
        ));
        assert!(matches!(
            ArchSweep::parse("net_latency="),
            Err(ArchError::EmptySweep(_))
        ));
        assert!(matches!(
            ArchSweep::parse("flux=1,2"),
            Err(ArchError::UnknownKey(_))
        ));
    }

    #[test]
    fn cache_kb_and_cache_bytes_agree() {
        let kb = ArchParams::parse("cache_kb=512").unwrap();
        let bytes = ArchParams::parse("cache_bytes=524288").unwrap();
        assert_eq!(kb, bytes);
        assert_eq!(kb.stable_hash(), bytes.stable_hash());
    }
}
