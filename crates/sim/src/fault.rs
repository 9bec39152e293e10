//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded pseudo-random oracle the machine models
//! consult at network-delivery time: should this packet be dropped,
//! duplicated, or delayed, and is either endpoint inside a fail window?
//! Because the oracle is driven by the engine's deterministic event order
//! and its own [`rand::rngs::SmallRng`], identical seeds replay
//! byte-identically — every injected fault lands on the same packet at the
//! same simulated time, run after run and regardless of host parallelism.
//!
//! The user-facing configuration is [`FaultConfig`], parsed from the
//! `--faults seed=S,drop=P,...` command-line syntax by
//! [`FaultConfig::parse`]. Probabilities are stored in parts-per-million so
//! the config stays `Copy + Eq` and hashes stably into the run-cache key.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::Cycles;

/// A half-open window `[from, until)` of simulated time during which one
/// processor is considered failed: every packet to or from it is dropped.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProcWindow {
    /// Index of the affected processor.
    pub proc: usize,
    /// First cycle of the window (inclusive).
    pub from: Cycles,
    /// End of the window (exclusive).
    pub until: Cycles,
}

impl ProcWindow {
    /// Whether `at` falls inside the window.
    pub fn contains(&self, at: Cycles) -> bool {
        self.from <= at && at < self.until
    }
}

/// A half-open window during which one processor runs slowed down: every
/// [`crate::Cpu::compute`] charge is multiplied by `factor`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SlowWindow {
    /// Index of the affected processor.
    pub proc: usize,
    /// First cycle of the window (inclusive, against the local clock).
    pub from: Cycles,
    /// End of the window (exclusive, against the local clock).
    pub until: Cycles,
    /// Multiplier applied to computation charges inside the window.
    pub factor: u32,
}

impl SlowWindow {
    /// Whether `at` falls inside the window.
    pub fn contains(&self, at: Cycles) -> bool {
        self.from <= at && at < self.until
    }
}

/// User-facing fault-injection configuration.
///
/// Probabilities are stored in parts-per-million (`10_000` ppm = 1%), so
/// the struct is `Copy + Eq` and its `Debug` rendering — which
/// participates in the run-cache key through
/// [`crate::SimConfig`] — is exact.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Seed for the fault oracle's private RNG.
    pub seed: u64,
    /// Per-packet drop probability, in parts per million.
    pub drop_ppm: u32,
    /// Per-packet duplication probability, in parts per million.
    pub dup_ppm: u32,
    /// Per-packet delay (reorder) probability, in parts per million.
    pub reorder_ppm: u32,
    /// Maximum extra latency, in cycles, for delayed/duplicated packets
    /// and for shared-miss jitter.
    pub jitter: Cycles,
    /// Optional fail window: one processor drops all its traffic.
    pub fail: Option<ProcWindow>,
    /// Optional slow window: one processor computes slower by a factor.
    pub slow: Option<SlowWindow>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            drop_ppm: 0,
            dup_ppm: 0,
            reorder_ppm: 0,
            jitter: 400,
            fail: None,
            slow: None,
        }
    }
}

impl FaultConfig {
    /// Whether the plan can perturb network traffic at all.
    ///
    /// When this is `false` (the default config, or an explicit
    /// `drop=0,dup=0,reorder=0` with no fail window), the reliable-delivery
    /// machinery stays disabled and runs are byte-identical to the
    /// no-faults baseline; a `slow=` window still takes effect on its own.
    pub fn perturbs_network(&self) -> bool {
        self.drop_ppm > 0 || self.dup_ppm > 0 || self.reorder_ppm > 0 || self.fail.is_some()
    }

    /// Parses the `--faults` command-line syntax:
    ///
    /// `seed=S,drop=P,dup=P,reorder=P,jitter=CYCLES,fail=PROC@FROM..UNTIL,slow=PROC@FROM..UNTILxFACTOR`
    ///
    /// Probabilities are decimal fractions (`drop=0.01` is 1%); every key
    /// is optional and unknown keys are rejected.
    pub fn parse(s: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}`: expected key=value"))?;
            match key {
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|e| format!("fault seed `{value}`: {e}"))?;
                }
                "drop" => cfg.drop_ppm = parse_prob("drop", value)?,
                "dup" => cfg.dup_ppm = parse_prob("dup", value)?,
                "reorder" => cfg.reorder_ppm = parse_prob("reorder", value)?,
                "jitter" => {
                    cfg.jitter = value
                        .parse()
                        .map_err(|e| format!("fault jitter `{value}`: {e}"))?;
                }
                "fail" => {
                    let (proc, from, until) = parse_window("fail", value)?;
                    cfg.fail = Some(ProcWindow { proc, from, until });
                }
                "slow" => {
                    let (spec, factor) = value
                        .split_once('x')
                        .ok_or_else(|| format!("fault slow `{value}`: expected ...xFACTOR"))?;
                    let (proc, from, until) = parse_window("slow", spec)?;
                    let factor: u32 = factor
                        .parse()
                        .map_err(|e| format!("fault slow factor `{factor}`: {e}"))?;
                    if factor == 0 {
                        return Err("fault slow factor must be >= 1".into());
                    }
                    cfg.slow = Some(SlowWindow {
                        proc,
                        from,
                        until,
                        factor,
                    });
                }
                _ => {
                    return Err(format!(
                        "unknown fault key `{key}` (expected seed, drop, dup, reorder, \
                         jitter, fail, or slow)"
                    ))
                }
            }
        }
        Ok(cfg)
    }
}

/// One part-per-million step, the resolution probabilities are stored at.
const PPM: u32 = 1_000_000;

fn parse_prob(key: &str, value: &str) -> Result<u32, String> {
    let p: f64 = value
        .parse()
        .map_err(|e| format!("fault {key} `{value}`: {e}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("fault {key} `{value}`: must be in [0, 1]"));
    }
    Ok((p * f64::from(PPM)).round() as u32)
}

fn parse_window(key: &str, value: &str) -> Result<(usize, Cycles, Cycles), String> {
    let (proc, range) = value
        .split_once('@')
        .ok_or_else(|| format!("fault {key} `{value}`: expected PROC@FROM..UNTIL"))?;
    let proc: usize = proc
        .parse()
        .map_err(|e| format!("fault {key} processor `{proc}`: {e}"))?;
    let (from, until) = range
        .split_once("..")
        .ok_or_else(|| format!("fault {key} `{value}`: expected FROM..UNTIL"))?;
    let from: Cycles = from
        .parse()
        .map_err(|e| format!("fault {key} window start `{from}`: {e}"))?;
    let until: Cycles = until
        .parse()
        .map_err(|e| format!("fault {key} window end `{until}`: {e}"))?;
    if until <= from {
        return Err(format!(
            "fault {key} window `{value}`: end must be after start"
        ));
    }
    Ok((proc, from, until))
}

/// The fate the fault oracle assigns to one injected packet.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PacketFate {
    /// Deliver normally, with `extra` cycles of injected latency
    /// (zero when the packet is untouched).
    Deliver {
        /// Injected extra latency in cycles.
        extra: Cycles,
    },
    /// Silently drop the packet.
    Drop,
    /// Deliver the packet and a duplicate copy `extra` cycles later.
    Duplicate {
        /// Extra latency of the duplicate copy relative to the original.
        extra: Cycles,
    },
}

/// The live fault oracle: a [`FaultConfig`] plus its private RNG.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SmallRng,
}

impl FaultPlan {
    /// Builds the oracle for `cfg`, seeding the RNG from `cfg.seed`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            rng: SmallRng::seed_from_u64(cfg.seed),
        }
    }

    fn draw(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.rng.gen_range(0..PPM) < ppm
    }

    fn extra_latency(&mut self) -> Cycles {
        1 + self.rng.gen_range(0..self.cfg.jitter.max(1))
    }

    /// Decides the fate of a packet injected at global time `at` between
    /// processors `src` and `dest`. Consumes RNG state deterministically
    /// (the draws depend only on the call sequence, which the engine's
    /// event order fixes).
    pub fn packet_fate(&mut self, src: usize, dest: usize, at: Cycles) -> PacketFate {
        if let Some(w) = self.cfg.fail {
            if w.contains(at) && (src == w.proc || dest == w.proc) {
                return PacketFate::Drop;
            }
        }
        if self.draw(self.cfg.drop_ppm) {
            return PacketFate::Drop;
        }
        if self.draw(self.cfg.dup_ppm) {
            let extra = self.extra_latency();
            return PacketFate::Duplicate { extra };
        }
        if self.draw(self.cfg.reorder_ppm) {
            let extra = self.extra_latency();
            return PacketFate::Deliver { extra };
        }
        PacketFate::Deliver { extra: 0 }
    }

    /// Draws shared-miss jitter for the shared-memory machine: with the
    /// reorder probability, returns extra cycles to charge into the miss
    /// latency; zero otherwise. This is the SM analogue of packet delay.
    pub fn miss_jitter(&mut self) -> Cycles {
        if self.draw(self.cfg.reorder_ppm) {
            self.extra_latency()
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let cfg =
            FaultConfig::parse("seed=7,drop=0.01,dup=0.002,reorder=0.5,jitter=250,fail=2@100..900")
                .unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.drop_ppm, 10_000);
        assert_eq!(cfg.dup_ppm, 2_000);
        assert_eq!(cfg.reorder_ppm, 500_000);
        assert_eq!(cfg.jitter, 250);
        assert_eq!(
            cfg.fail,
            Some(ProcWindow {
                proc: 2,
                from: 100,
                until: 900
            })
        );
        assert!(cfg.perturbs_network());
    }

    #[test]
    fn parse_slow_window() {
        let cfg = FaultConfig::parse("slow=1@0..5000x3").unwrap();
        assert_eq!(
            cfg.slow,
            Some(SlowWindow {
                proc: 1,
                from: 0,
                until: 5000,
                factor: 3
            })
        );
        // A slow window alone does not perturb the network.
        assert!(!cfg.perturbs_network());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultConfig::parse("drop").is_err());
        assert!(FaultConfig::parse("drop=1.5").is_err());
        assert!(FaultConfig::parse("drop=-0.1").is_err());
        assert!(FaultConfig::parse("frobnicate=1").is_err());
        assert!(FaultConfig::parse("fail=1@9..4").is_err());
        assert!(FaultConfig::parse("slow=1@0..10x0").is_err());
    }

    #[test]
    fn empty_spec_is_default() {
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
        assert!(!FaultConfig::default().perturbs_network());
    }

    #[test]
    fn same_seed_same_fates() {
        let cfg = FaultConfig::parse("seed=3,drop=0.2,dup=0.1,reorder=0.1").unwrap();
        let fates = |mut plan: FaultPlan| {
            (0..200)
                .map(|i| plan.packet_fate(i % 4, (i + 1) % 4, i as u64 * 10))
                .collect::<Vec<_>>()
        };
        let a = fates(FaultPlan::new(cfg));
        let b = fates(FaultPlan::new(cfg));
        assert_eq!(a, b);
        assert!(a.iter().any(|f| matches!(f, PacketFate::Drop)));
    }

    #[test]
    fn fail_window_drops_both_directions() {
        let cfg = FaultConfig::parse("fail=1@100..200").unwrap();
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(plan.packet_fate(1, 0, 150), PacketFate::Drop);
        assert_eq!(plan.packet_fate(0, 1, 199), PacketFate::Drop);
        assert_eq!(
            plan.packet_fate(0, 1, 200),
            PacketFate::Deliver { extra: 0 }
        );
        assert_eq!(
            plan.packet_fate(0, 2, 150),
            PacketFate::Deliver { extra: 0 }
        );
    }

    #[test]
    fn zero_probabilities_never_draw() {
        let mut plan = FaultPlan::new(FaultConfig::default());
        for i in 0..100 {
            assert_eq!(plan.packet_fate(0, 1, i), PacketFate::Deliver { extra: 0 });
            assert_eq!(plan.miss_jitter(), 0);
        }
    }
}
