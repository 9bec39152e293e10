//! The persistent run cache: experiment artifacts keyed by the simulated
//! model alone — (experiment, scale, fault plan, hardware point).
//!
//! A paper-scale grid takes minutes; most `make_tables` invocations
//! re-run experiments whose inputs did not change. The runner therefore
//! persists each experiment's [`ExperimentArtifacts`] — the reportable
//! summary plus any rendered timeline/trace/phase artifacts — to one file
//! per model point and replays it on the next invocation.
//!
//! Three properties carry the design:
//!
//! * **Exactness.** Every `f64` is stored as its IEEE-754 bit pattern, so
//!   a report rendered from a cached summary is byte-identical to one
//!   rendered from the fresh run (the simulator itself is deterministic,
//!   so the cached numbers *are* the numbers a re-run would produce).
//! * **Invalidation by construction.** The file name embeds an FNV-1a
//!   hash of the format version, the experiment and scale, the fault
//!   plan, the hardware point and both machines' cost tables; changing
//!   any of them simply misses the cache, and stale entries are inert.
//!   Nothing else keys an entry: every other [`wwt_sim::SimConfig`] field
//!   (profiling, tracing, phase marks) only observes a simulation, and a
//!   completed run's numbers do not depend on them.
//! * **Coverage is part of the lookup.** Those observation flags instead
//!   decide which artifacts a lookup needs. An entry that lacks one is a
//!   miss; the runner re-simulates with the flags that were asked for and
//!   the new entry replaces the old one (artifact sets are never merged).
//!   A hit returns only the requested artifacts.
//!
//! The format is a versioned, line-oriented text file with length-
//! prefixed blobs for rendered artifacts. Any parse failure — truncation,
//! version skew, hand-editing — is treated as a cache miss, never an
//! error.
//!
//! Since format version 3 the serialized text is the *payload* of a
//! checksummed container (the private `container` module): entries are
//! published atomically (temp + rename + dir fsync), and every read
//! verifies the checksum, so a torn write or bit rot is a warned miss
//! that re-simulates and overwrites the entry, never a silent misparse.
//! There are no writer locks: an entry is a pure function of its key and
//! a rename is atomic, so two runners racing one key both simulate and
//! either rename leaves a correct entry.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

mod container;

pub use container::atomic_write;
use container::ReadError;
use wwt_sim::hash::fnv1a;

use wwt_arch::ArchParams;

use crate::experiment::{Experiment, ExperimentSummary, Scale};
use crate::runner::ExperimentArtifacts;
use crate::table::{BreakdownTable, EventTable, Row};

/// Bump when the serialization format, the meaning of cached fields or
/// the key changes; old entries then miss instead of misparsing.
/// Version 2: phase-profile blobs, percentile fields in metrics blobs.
/// Version 3: entries live inside checksummed `wwt-store` containers
/// (older files keep their old names and are simply never read).
/// Version 4: the key holds the model alone; observation flags only
/// decide which artifacts a lookup needs.
const FORMAT_VERSION: u32 = 4;

/// The cache key hash: the format version, the experiment and scale, the
/// fault plan, the hardware base, and both machines' cost tables. Of
/// `sim` only [`wwt_sim::SimConfig::faults`] is read. The rest of each
/// machine configuration (MP's collective overhead, SM's allocation
/// policy, protocol and Stache) is fixed by the experiment id, so it
/// needs no place in the key. [`ArchParams::canonical`] is canonical by
/// construction and the cost tables' `Debug` renderings (stable field
/// order) serve as theirs. Hashing the complete tables (not just the
/// swept base) means editing *any* machine cost misses the cache instead
/// of replaying a stale result — and a swept run can never replay a
/// cached default-config artifact.
pub fn config_hash(
    e: Experiment,
    scale: Scale,
    sim: &wwt_sim::SimConfig,
    arch: &ArchParams,
) -> u64 {
    let key = format!(
        "v{FORMAT_VERSION}|{}|{}|{:?}|{}|{:?}|{:?}",
        e.id(),
        scale.name(),
        sim.faults,
        arch.canonical(),
        wwt_mp::COSTS,
        wwt_sm::COSTS,
    );
    fnv1a(key.as_bytes())
}

/// The cache file path for one (experiment, scale, config, arch) tuple.
pub fn entry_path(
    dir: &Path,
    e: Experiment,
    scale: Scale,
    sim: &wwt_sim::SimConfig,
    arch: &ArchParams,
) -> PathBuf {
    dir.join(format!(
        "{}-{}-{:016x}.run",
        e.id(),
        scale.name(),
        config_hash(e, scale, sim, arch)
    ))
}

fn push_f64(out: &mut String, tag: &str, v: f64) {
    let _ = writeln!(out, "{tag} {:016x}", v.to_bits());
}

fn push_blob(out: &mut String, name: &str, body: &str) {
    let _ = writeln!(out, "blob {name} {}", body.len());
    out.push_str(body);
    out.push('\n');
}

/// Serializes one artifact set. Returns `None` when the data cannot be
/// represented (a newline inside a single-line field) — the caller just
/// skips caching that run.
fn serialize(a: &ExperimentArtifacts) -> Option<String> {
    let s = &a.summary;
    let single_line = |t: &str| !t.contains('\n');
    if !single_line(&s.validation_detail)
        || s.stats.iter().any(|(n, _)| !single_line(n))
        || s.tables
            .iter()
            .any(|t| !single_line(&t.title) || t.rows.iter().any(|r| !single_line(&r.label)))
        || s.events
            .iter()
            .any(|t| !single_line(&t.title) || t.rows.iter().any(|(l, _)| !single_line(l)))
    {
        return None;
    }

    let mut out = String::new();
    let _ = writeln!(out, "wwt-run-cache {FORMAT_VERSION}");
    let _ = writeln!(out, "experiment {}", s.experiment.id());
    let _ = writeln!(out, "scale {}", s.scale.name());
    let _ = writeln!(out, "passed {}", s.validation_passed);
    let _ = writeln!(out, "detail {}", s.validation_detail);
    push_f64(&mut out, "imbalance", s.imbalance);
    push_f64(&mut out, "wait", s.wait_fraction);
    push_f64(&mut out, "wall", a.wall_secs);
    let _ = writeln!(out, "stats {}", s.stats.len());
    for (name, v) in &s.stats {
        let _ = writeln!(out, "stat {:016x} {name}", v.to_bits());
    }
    let _ = writeln!(out, "tables {}", s.tables.len());
    for t in &s.tables {
        let _ = writeln!(
            out,
            "table {} {:016x} {}",
            t.rows.len(),
            t.total.to_bits(),
            t.title
        );
        for r in &t.rows {
            let _ = writeln!(
                out,
                "row {} {:016x} {}",
                r.indent,
                r.cycles.to_bits(),
                r.label
            );
        }
    }
    let _ = writeln!(out, "events {}", s.events.len());
    for t in &s.events {
        let _ = writeln!(out, "event {} {}", t.rows.len(), t.title);
        for (label, v) in &t.rows {
            let _ = writeln!(out, "erow {:016x} {label}", v.to_bits());
        }
    }
    if let Some(t) = &a.timeline {
        push_blob(&mut out, "timeline", t);
    }
    if let Some(p) = &a.phases {
        push_blob(&mut out, "phases", &p.to_text());
    }
    if let Some(t) = &a.trace {
        push_blob(&mut out, "perfetto", &t.perfetto);
        push_blob(&mut out, "metrics_json", &t.metrics_json);
        push_blob(&mut out, "metrics_table", &t.metrics_table);
        push_blob(&mut out, "experiment_json", &t.experiment_json);
    }
    out.push_str("end\n");
    Some(out)
}

/// Persists one artifact set: checksummed container, atomic temp-write,
/// rename and dir fsync, no temp file left behind on failure.
/// Best-effort: errors (and unrepresentable data) are reported but
/// expected to be ignored by the caller.
pub fn save(
    dir: &Path,
    a: &ExperimentArtifacts,
    sim: &wwt_sim::SimConfig,
    arch: &ArchParams,
) -> std::io::Result<()> {
    let Some(body) = serialize(a) else {
        return Ok(()); // unrepresentable: skip caching, never fail the run
    };
    let path = entry_path(dir, a.experiment, a.summary.scale, sim, arch);
    atomic_write(path, &container::encode(body.as_bytes()))
}

/// A forgiving cursor over the cache text. Every accessor returns
/// `Option`; `None` anywhere surfaces as a cache miss.
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn line(&mut self) -> Option<&'a str> {
        let (line, rest) = self.rest.split_once('\n')?;
        self.rest = rest;
        Some(line)
    }

    /// Next line, split as `tag rest-of-line` with the given tag.
    fn tagged(&mut self, tag: &str) -> Option<&'a str> {
        let line = self.line()?;
        let (t, rest) = line.split_once(' ').unwrap_or((line, ""));
        (t == tag).then_some(rest)
    }

    fn f64_field(&mut self, tag: &str) -> Option<f64> {
        let bits = u64::from_str_radix(self.tagged(tag)?, 16).ok()?;
        Some(f64::from_bits(bits))
    }

    fn count(&mut self, tag: &str) -> Option<usize> {
        self.tagged(tag)?.parse().ok()
    }

    /// Takes exactly `len` bytes followed by a newline.
    fn blob_body(&mut self, len: usize) -> Option<&'a str> {
        if !self.rest.is_char_boundary(len) || self.rest.len() < len + 1 {
            return None;
        }
        let (body, rest) = self.rest.split_at(len);
        let rest = rest.strip_prefix('\n')?;
        self.rest = rest;
        Some(body)
    }
}

/// `bits label` → (label, value).
fn labeled_f64(line: &str) -> Option<(String, f64)> {
    let (bits, label) = line.split_once(' ')?;
    let v = f64::from_bits(u64::from_str_radix(bits, 16).ok()?);
    Some((label.to_string(), v))
}

fn parse(text: &str, e: Experiment, scale: Scale) -> Option<ExperimentArtifacts> {
    let mut c = Cursor { rest: text };
    let version: u32 = c.tagged("wwt-run-cache")?.parse().ok()?;
    if version != FORMAT_VERSION {
        return None;
    }
    if c.tagged("experiment")? != e.id() || c.tagged("scale")? != scale.name() {
        return None;
    }
    let validation_passed = match c.tagged("passed")? {
        "true" => true,
        "false" => false,
        _ => return None,
    };
    let validation_detail = c.tagged("detail")?.to_string();
    let imbalance = c.f64_field("imbalance")?;
    let wait_fraction = c.f64_field("wait")?;
    let wall_secs = c.f64_field("wall")?;

    let nstats = c.count("stats")?;
    let mut stats = Vec::with_capacity(nstats);
    for _ in 0..nstats {
        stats.push(labeled_f64(c.tagged("stat")?)?);
    }

    let ntables = c.count("tables")?;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let header = c.tagged("table")?;
        let (nrows, header) = header.split_once(' ')?;
        let (total_bits, title) = header.split_once(' ')?;
        let nrows: usize = nrows.parse().ok()?;
        let total = f64::from_bits(u64::from_str_radix(total_bits, 16).ok()?);
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let line = c.tagged("row")?;
            let (indent, line) = line.split_once(' ')?;
            let (label, cycles) = labeled_f64(line)?;
            rows.push(Row {
                label,
                cycles,
                indent: indent.parse().ok()?,
            });
        }
        tables.push(BreakdownTable {
            title: title.to_string(),
            rows,
            total,
        });
    }

    let nevents = c.count("events")?;
    let mut events = Vec::with_capacity(nevents);
    for _ in 0..nevents {
        let header = c.tagged("event")?;
        let (nrows, title) = header.split_once(' ')?;
        let nrows: usize = nrows.parse().ok()?;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            rows.push(labeled_f64(c.tagged("erow")?)?);
        }
        events.push(EventTable {
            title: title.to_string(),
            rows,
        });
    }

    let mut timeline = None;
    let mut phases = None;
    let mut blobs: Vec<(String, String)> = Vec::new();
    loop {
        let line = c.line()?;
        if line == "end" {
            break;
        }
        let rest = line.strip_prefix("blob ")?;
        let (name, len) = rest.split_once(' ')?;
        let body = c.blob_body(len.parse().ok()?)?.to_string();
        if name == "timeline" {
            timeline = Some(body);
        } else if name == "phases" {
            // A damaged profile blob poisons the whole entry: better to
            // re-simulate than to diff against garbage.
            phases = Some(wwt_diff::RunProfile::from_text(&body)?);
        } else {
            blobs.push((name.to_string(), body));
        }
    }

    let trace = {
        let take = |name: &str| {
            blobs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| b.clone())
        };
        match (
            take("perfetto"),
            take("metrics_json"),
            take("metrics_table"),
            take("experiment_json"),
        ) {
            (Some(perfetto), Some(metrics_json), Some(metrics_table), Some(experiment_json)) => {
                Some(crate::runner::TraceArtifacts {
                    perfetto,
                    metrics_json,
                    metrics_table,
                    experiment_json,
                })
            }
            _ => None,
        }
    };

    Some(ExperimentArtifacts {
        experiment: e,
        summary: ExperimentSummary {
            experiment: e,
            scale,
            validation_passed,
            validation_detail,
            stats,
            imbalance,
            wait_fraction,
            tables,
            events,
        },
        timeline,
        trace,
        phases,
        wall_secs,
        from_cache: true,
    })
}

/// Fits a parsed entry to a lookup under `sim`: a run under `sim` renders
/// a timeline when profiling, trace exports when tracing, and a phase
/// profile when marking phases. `None` (a miss) when the entry lacks one
/// of those; otherwise the entry with every other artifact dropped.
fn narrow(mut a: ExperimentArtifacts, sim: &wwt_sim::SimConfig) -> Option<ExperimentArtifacts> {
    let timeline = sim.profile_bucket.is_some();
    if (timeline && a.timeline.is_none())
        || (sim.trace && a.trace.is_none())
        || (sim.phase_marks && a.phases.is_none())
    {
        return None;
    }
    if !timeline {
        a.timeline = None;
    }
    if !sim.trace {
        a.trace = None;
    }
    if !sim.phase_marks {
        a.phases = None;
    }
    Some(a)
}

/// Loads a cache entry directly by file path (the `--diff <path>` form),
/// recovering the experiment and scale from the entry header instead of
/// requiring the caller to know the key. `None` on any damage.
pub fn load_path(path: &Path) -> Option<ExperimentArtifacts> {
    let text = String::from_utf8(container::read(path).ok()?).ok()?;
    let mut lines = text.lines();
    let _header = lines.next()?;
    let e = Experiment::from_id(lines.next()?.strip_prefix("experiment ")?)?;
    let scale = match lines.next()?.strip_prefix("scale ")? {
        "paper" => Scale::Paper,
        "test" => Scale::Test,
        _ => return None,
    };
    parse(&text, e, scale)
}

/// Loads the cached artifacts for one (experiment, scale, config, arch)
/// point, narrowed to what a run under `sim` produces. Any missing,
/// truncated, or version-skewed entry is a miss (`None`), and so is an
/// intact entry that lacks a requested artifact. A file that exists but
/// cannot be read or parsed additionally warns on stderr and counts as a
/// recovered corruption — the entry is damaged, not merely absent — and
/// the runner then re-simulates and overwrites it.
pub fn load(
    dir: &Path,
    e: Experiment,
    scale: Scale,
    sim: &wwt_sim::SimConfig,
    arch: &ArchParams,
) -> Option<ExperimentArtifacts> {
    // Cache counters are always-on (a few ticks per experiment, nowhere
    // near a hot path): the grid runner's end-of-run cache summary works
    // without `--obs`.
    use wwt_obs::{count_always, Ctr};
    let path = entry_path(dir, e, scale, sim, arch);
    let damaged = |why: &dyn std::fmt::Display| {
        eprintln!(
            "warning: run cache entry {} is {why}; re-running",
            path.display()
        );
        count_always(Ctr::CacheCorruptRecovered, 1);
        count_always(Ctr::CacheMisses, 1);
    };
    let payload = match container::read(&path) {
        Ok(payload) => payload,
        Err(ReadError::NotFound) => {
            count_always(Ctr::CacheMisses, 1);
            return None;
        }
        Err(err) => {
            // The simulator is deterministic, so re-running reproduces
            // the exact bytes the damaged entry held.
            damaged(&err);
            return None;
        }
    };
    let Ok(text) = String::from_utf8(payload) else {
        damaged(&"damaged (payload is not UTF-8)");
        return None;
    };
    let Some(parsed) = parse(&text, e, scale) else {
        damaged(&"truncated or corrupt");
        return None;
    };
    let Some(hit) = narrow(parsed, sim) else {
        count_always(Ctr::CacheMisses, 1);
        return None;
    };
    count_always(Ctr::CacheHits, 1);
    count_always(Ctr::CacheBytesRead, text.len() as u64);
    Some(hit)
}

/// The process-wide run-cache totals, as
/// `(hits, misses, bytes_read, corrupt_recovered)`. Backed by the
/// always-on `wwt_obs` counters, so it works without `--obs`.
pub fn stats() -> (u64, u64, u64, u64) {
    use wwt_obs::{counter, Ctr};
    (
        counter(Ctr::CacheHits),
        counter(Ctr::CacheMisses),
        counter(Ctr::CacheBytesRead),
        counter(Ctr::CacheCorruptRecovered),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn sample_artifacts() -> ExperimentArtifacts {
        ExperimentArtifacts {
            experiment: Experiment::GaussMp,
            summary: ExperimentSummary {
                experiment: Experiment::GaussMp,
                scale: Scale::Test,
                validation_passed: true,
                validation_detail: "residual 1.2e-9 below 1e-6".into(),
                stats: vec![("steps".into(), 43.0), ("residual".into(), 1.25e-9)],
                imbalance: 0.0123456789,
                wait_fraction: 0.25,
                tables: vec![BreakdownTable {
                    title: "Gauss-MP (Tables 8 and 10)".into(),
                    rows: vec![
                        Row {
                            label: "Computation".into(),
                            cycles: 40.8e6,
                            indent: 0,
                        },
                        Row {
                            label: "Lib Comp".into(),
                            cycles: 23.6e6,
                            indent: 1,
                        },
                    ],
                    total: 71.0e6,
                }],
                events: vec![EventTable {
                    title: "Gauss-MP — events".into(),
                    rows: vec![("Messages Sent".into(), 1234.5)],
                }],
            },
            timeline: Some("\n### gauss-mp — timeline\nP0 |##SS|\n".into()),
            trace: None,
            phases: Some(wwt_diff::RunProfile {
                nprocs: 2,
                phases: vec![wwt_diff::Phase {
                    segments: 3,
                    per_proc: vec![[7; wwt_sim::Kind::COUNT]; 2],
                }],
            }),
            wall_secs: 1.5,
            from_cache: false,
        }
    }

    #[test]
    fn round_trips_exactly() {
        let a = sample_artifacts();
        let text = serialize(&a).unwrap();
        let b = parse(&text, a.experiment, a.summary.scale).unwrap();
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.wall_secs, b.wall_secs);
        assert!(b.from_cache);
    }

    #[test]
    fn load_path_recovers_entry_without_the_key() {
        let dir = std::env::temp_dir().join(format!("wwt-cache-bypath-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = sample_artifacts();
        let sim = wwt_sim::SimConfig::default();
        let arch = ArchParams::default();
        save(&dir, &a, &sim, &arch).unwrap();
        let path = entry_path(&dir, a.experiment, Scale::Test, &sim, &arch);
        let b = load_path(&path).unwrap();
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.phases, b.phases);
        assert!(load_path(&dir.join("missing.run")).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_non_finite_and_exact_bits() {
        let mut a = sample_artifacts();
        a.summary.stats = vec![
            ("inf".into(), f64::INFINITY),
            ("tiny".into(), 5e-324),
            ("neg".into(), -0.0),
        ];
        let text = serialize(&a).unwrap();
        let b = parse(&text, a.experiment, a.summary.scale).unwrap();
        for ((_, x), (_, y)) in a.summary.stats.iter().zip(&b.summary.stats) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn truncated_or_mismatched_entries_miss() {
        let a = sample_artifacts();
        let text = serialize(&a).unwrap();
        assert!(parse(&text[..text.len() / 2], a.experiment, Scale::Test).is_none());
        assert!(parse(&text, Experiment::GaussSm, Scale::Test).is_none());
        assert!(parse(&text, a.experiment, Scale::Paper).is_none());
        assert!(parse("wwt-run-cache 999\n", a.experiment, Scale::Test).is_none());
        assert!(parse("", a.experiment, Scale::Test).is_none());
    }

    /// Observation and execution flags never split a model point; the
    /// fault plan, the hardware point, the scale and the experiment do.
    #[test]
    fn config_hash_keys_the_model_alone() {
        let base = wwt_sim::SimConfig::default();
        let arch = ArchParams::default();
        let e = Experiment::Em3dSm;
        let h = |sim: &wwt_sim::SimConfig| config_hash(e, Scale::Test, sim, &arch);
        let observed = [
            wwt_sim::SimConfig {
                trace: true,
                ..base
            },
            wwt_sim::SimConfig {
                profile_bucket: Some(2_000),
                ..base
            },
            wwt_sim::SimConfig {
                phase_marks: true,
                ..base
            },
        ];
        for sim in &observed {
            assert_eq!(h(&base), h(sim), "{sim:?} must share the plain key");
        }
        let faulted = wwt_sim::SimConfig {
            faults: Some(wwt_sim::FaultConfig::parse("seed=1,drop=0.01").unwrap()),
            ..base
        };
        assert_ne!(h(&base), h(&faulted));
        let fast = ArchParams::parse("net_latency=50").unwrap();
        assert_ne!(h(&base), config_hash(e, Scale::Test, &base, &fast));
        assert_ne!(h(&base), config_hash(e, Scale::Paper, &base, &arch));
        assert_ne!(
            h(&base),
            config_hash(Experiment::Em3dMp, Scale::Test, &base, &arch)
        );
    }

    /// The regression the sweep depends on: two architecture points must
    /// produce distinct cache keys for every experiment, or a swept run
    /// could replay a cached default-config result.
    #[test]
    fn config_hash_separates_arch_points() {
        let sim = wwt_sim::SimConfig::default();
        let paper = ArchParams::default();
        let fast = ArchParams::parse("net_latency=50").unwrap();
        let big = ArchParams::parse("1mb-cache").unwrap();
        for e in Experiment::ALL {
            let h = |arch: &ArchParams| config_hash(e, Scale::Test, &sim, arch);
            assert_ne!(h(&paper), h(&fast), "{e}: net_latency must key the cache");
            assert_ne!(h(&paper), h(&big), "{e}: cache size must key the cache");
            assert_ne!(h(&fast), h(&big), "{e}");
        }
        // Same point, spelled differently: same key.
        let fast2 = ArchParams::parse("paper,net_latency=50").unwrap();
        assert_eq!(
            config_hash(Experiment::MseMp, Scale::Test, &sim, &fast),
            config_hash(Experiment::MseMp, Scale::Test, &sim, &fast2)
        );
    }

    #[test]
    fn corrupt_entry_is_a_miss_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("wwt-cache-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = sample_artifacts();
        let sim = wwt_sim::SimConfig::default();
        let arch = ArchParams::default();
        save(&dir, &a, &sim, &arch).unwrap();
        let path = entry_path(&dir, a.experiment, Scale::Test, &sim, &arch);
        let text = fs::read_to_string(&path).unwrap();
        // Truncated entry: miss, never a panic or error.
        fs::write(&path, &text[..text.len() / 3]).unwrap();
        assert!(load(&dir, a.experiment, Scale::Test, &sim, &arch).is_none());
        // Arbitrary garbage: same.
        fs::write(&path, b"not a cache file\x00\xff garbage").unwrap();
        assert!(load(&dir, a.experiment, Scale::Test, &sim, &arch).is_none());
        // A fresh save repairs the entry.
        save(&dir, &a, &sim, &arch).unwrap();
        assert!(load(&dir, a.experiment, Scale::Test, &sim, &arch).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("wwt-cache-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = sample_artifacts();
        let sim = wwt_sim::SimConfig::default();
        let arch = ArchParams::default();
        assert!(load(&dir, a.experiment, Scale::Test, &sim, &arch).is_none());
        save(&dir, &a, &sim, &arch).unwrap();
        let b = load(&dir, a.experiment, Scale::Test, &sim, &arch).unwrap();
        assert_eq!(a.summary, b.summary);
        // A hit carries only the requested artifacts.
        assert_eq!((b.timeline, b.phases), (None, None));
        let profiled = wwt_sim::SimConfig {
            profile_bucket: Some(2_000),
            ..sim
        };
        let b = load(&dir, a.experiment, Scale::Test, &profiled, &arch).unwrap();
        assert_eq!(b.timeline, a.timeline);
        assert!(b.phases.is_none());
        // An entry without a requested artifact misses.
        let traced = wwt_sim::SimConfig { trace: true, ..sim };
        assert!(load(&dir, a.experiment, Scale::Test, &traced, &arch).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
