//! The wall-clock trajectory log: `results/BENCH_grid.json`.
//!
//! Every `make_tables` grid invocation appends one single-line JSON
//! record (`{"runs":[...]}` overall) so successive runs — `--jobs 1` vs
//! `--jobs 4`, before vs after an engine change — can be compared from
//! one file.
//!
//! # Schema
//!
//! The current record schema is [`SCHEMA`] (4). On every append the
//! whole file is normalized:
//!
//! * **records without the current schema are dropped**, so one file
//!   never mixes field layouts; a record from a newer build is also
//!   reported on stderr;
//! * records are compacted to the newest [`KEEP_PER_KEY`] per
//!   configuration key so the file stays bounded forever.
//!
//! An unreadable or foreign file starts over with just the new record.

use std::fmt::Write as _;

use wwt_core::arch::ArchParams;
use wwt_core::trace::json::escape;
use wwt_core::{ExperimentArtifacts, Scale};

/// The record schema this build writes.
pub const SCHEMA: u32 = 4;

/// Compaction: keep only the latest this-many records per
/// (scale, jobs, cache, experiment-set) key, so the log stays bounded no
/// matter how many invocations accumulate.
pub const KEEP_PER_KEY: usize = 8;

/// The raw value of a top-level scalar field in one record line.
/// Extracted textually (records are single-line JSON this module wrote
/// itself).
fn field<'a>(rec: &'a str, name: &str) -> Option<&'a str> {
    let rest = rec.split(&format!("\"{name}\":")).nth(1)?;
    Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
}

/// The compaction key of one record line.
fn bench_key(rec: &str) -> String {
    let ids: Vec<&str> = rec
        .split("\"id\":\"")
        .skip(1)
        .filter_map(|r| r.split('"').next())
        .collect();
    format!(
        "{}|{}|{}|{}",
        field(rec, "scale").unwrap_or_default(),
        field(rec, "jobs").unwrap_or_default(),
        field(rec, "cache").unwrap_or_default(),
        ids.join(",")
    )
}

/// Renders one invocation's timing record (single-line JSON, schema
/// [`SCHEMA`]).
pub fn bench_record(
    scale: Scale,
    jobs: usize,
    cache: bool,
    arch: &ArchParams,
    faults_spec: Option<&str>,
    total_secs: f64,
    artifacts: &[ExperimentArtifacts],
) -> String {
    let faults = match faults_spec {
        Some(f) => format!("\"{}\"", escape(f)),
        None => "null".to_string(),
    };
    let mut rec = format!(
        "{{\"schema\":{SCHEMA},\"scale\":\"{}\",\"jobs\":{jobs},\"cache\":{cache},\"arch_hash\":\"{:016x}\",\"faults\":{faults},\"total_wall_secs\":{total_secs:.6},\"experiments\":[",
        scale.name(),
        arch.stable_hash()
    );
    for (i, a) in artifacts.iter().enumerate() {
        if i > 0 {
            rec.push(',');
        }
        let _ = write!(
            rec,
            "{{\"id\":\"{}\",\"wall_secs\":{:.6},\"cached\":{}}}",
            a.experiment.id(),
            a.wall_secs,
            a.from_cache
        );
    }
    rec.push_str("]}");
    rec
}

/// Whether an existing record is kept: only records of the current
/// schema are. Records stamped with a **future** schema (a newer build
/// wrote them) are skipped with a stderr warning instead of being
/// reinterpreted — this build cannot know what their fields mean.
fn is_current(rec: &str) -> bool {
    let schema = field(rec, "schema").and_then(|s| s.parse::<u32>().ok());
    if let Some(schema) = schema.filter(|&s| s > SCHEMA) {
        eprintln!(
            "warning: BENCH_grid.json record with schema {schema} was written by a \
             newer build (this one writes {SCHEMA}); skipping it"
        );
    }
    schema == Some(SCHEMA)
}

/// Appends `record` to the log at `path`, dropping records of other
/// schemas and compacting to [`KEEP_PER_KEY`] per configuration key.
/// The rewrite is atomic (temp + rename via [`wwt_core::store`]): a run
/// killed mid-append leaves the previous log intact, never a truncated
/// document. A truncated or foreign file found on disk — a crash from a
/// build predating atomic appends, a hand edit — starts the log over
/// with just the new record rather than erroring forever.
pub fn append_bench_record(path: &str, record: &str) -> std::io::Result<()> {
    let mut records: Vec<String> = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            let body = s
                .trim_end()
                .strip_prefix("{\"runs\":[")?
                .strip_suffix("]}")?
                .to_string();
            Some(
                body.split(",\n")
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && is_current(l))
                    .map(str::to_string)
                    .collect(),
            )
        })
        .unwrap_or_default();
    records.push(record.to_string());
    let keys: Vec<String> = records.iter().map(|r| bench_key(r)).collect();
    let mut keep = vec![false; records.len()];
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for i in (0..records.len()).rev() {
        let c = counts.entry(keys[i].as_str()).or_insert(0);
        if *c < KEEP_PER_KEY {
            keep[i] = true;
            *c += 1;
        }
    }
    let kept: Vec<&str> = records
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(r, _)| r.as_str())
        .collect();
    wwt_core::store::atomic_write(
        path,
        format!("{{\"runs\":[\n{}]}}\n", kept.join(",\n")).as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("wwt-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_grid.json");
        let path_s = path.to_str().unwrap().to_string();
        (dir, path_s)
    }

    const LEGACY: &str = "{\"scale\":\"test\",\"jobs\":4,\"cache\":true,\
         \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}]}";
    const SCHEMA4: &str = "{\"schema\":4,\"scale\":\"test\",\"jobs\":4,\
         \"cache\":true,\"arch_hash\":\"00deadbeef000000\",\"faults\":null,\
         \"total_wall_secs\":1.5,\
         \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}]}";

    #[test]
    fn faults_spec_is_escaped() {
        // `FaultConfig::parse` accepts a trailing tab (empty parts are
        // skipped after trimming), and the raw spec is what gets logged.
        let rec = bench_record(
            Scale::Test,
            1,
            false,
            &ArchParams::default(),
            Some("seed=1,\t"),
            0.0,
            &[],
        );
        assert!(rec.contains("\"faults\":\"seed=1,\\t\""), "{rec}");
        assert!(!rec.contains('\t'));
    }

    #[test]
    fn bench_records_accumulate_as_one_json_document() {
        let (dir, path) = temp_log("accumulate");
        append_bench_record(&path, "{\"schema\":4,\"jobs\":1}").unwrap();
        append_bench_record(&path, "{\"schema\":4,\"jobs\":4}").unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            s,
            "{\"runs\":[\n{\"schema\":4,\"jobs\":1},\n{\"schema\":4,\"jobs\":4}]}\n"
        );
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_without_the_current_schema_are_dropped_on_append() {
        let (dir, path) = temp_log("old-schema");
        let schema3 = SCHEMA4.replace("\"schema\":4", "\"schema\":3");
        std::fs::write(
            &path,
            format!("{{\"runs\":[\n{LEGACY},\n{schema3},\n{SCHEMA4}]}}\n"),
        )
        .unwrap();
        append_bench_record(&path, SCHEMA4).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        // The schema-less and schema-3 rows are gone; the current row
        // survives and the new one is appended.
        assert_eq!(s, format!("{{\"runs\":[\n{SCHEMA4},\n{SCHEMA4}]}}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_records_compact_to_the_latest_n_per_key() {
        let (dir, path) = temp_log("compact");
        for i in 0..(KEEP_PER_KEY + 5) {
            let rec = format!(
                "{{\"schema\":4,\"scale\":\"test\",\"jobs\":4,\"cache\":true,\"seq\":{i},\
                 \"experiments\":[{{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}}]}}"
            );
            append_bench_record(&path, &rec).unwrap();
        }
        // A different key (other jobs count) must not be evicted by the
        // first key's overflow.
        append_bench_record(
            &path,
            "{\"schema\":4,\"scale\":\"test\",\"jobs\":1,\"cache\":true,\
             \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.2,\"cached\":false}]}",
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s.matches("\"jobs\":4").count(), KEEP_PER_KEY, "{s}");
        assert_eq!(s.matches("\"jobs\":1,").count(), 1, "{s}");
        assert!(!s.contains("\"seq\":0,"), "{s}");
        assert!(s.contains(&format!("\"seq\":{},", KEEP_PER_KEY + 4)), "{s}");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_schema_records_are_skipped_not_mangled() {
        let (dir, path) = temp_log("future");
        // A hypothetical schema-5 record: a naive migration would rewrite
        // fields in a layout it cannot know.
        let future = "{\"schema\":5,\"scale\":\"test\",\"jobs\":4,\"cache\":true,\
             \"new_field\":\"?\",\"experiments\":[]}";
        std::fs::write(&path, format!("{{\"runs\":[\n{future},\n{SCHEMA4}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA4).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(!s.contains("\"schema\":5"), "future record kept: {s}");
        assert!(!s.contains("new_field"), "{s}");
        // The rest of the file is kept as usual.
        assert_eq!(s.matches("\"schema\":4").count(), 2, "{s}");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_log_recovers_with_just_the_new_record() {
        let (dir, path) = temp_log("truncated");
        append_bench_record(&path, SCHEMA4).unwrap();
        let healthy = std::fs::read_to_string(&path).unwrap();
        // A crash mid-write under the old non-atomic scheme could leave
        // any prefix of the document. Every truncation point must
        // recover: the next append starts the log over with its record.
        for cut in [0, 1, healthy.len() / 2, healthy.len() - 2] {
            std::fs::write(&path, &healthy[..cut]).unwrap();
            append_bench_record(&path, SCHEMA4).unwrap();
            let s = std::fs::read_to_string(&path).unwrap();
            assert_eq!(s.matches("\"schema\":4").count(), 1, "cut at {cut}: {s}");
            assert!(s.starts_with("{\"runs\":[\n"), "cut at {cut}: {s}");
            assert!(s.ends_with("]}\n"), "cut at {cut}: {s}");
            assert_eq!(s.matches('{').count(), s.matches('}').count());
        }
        // And no temp files linger from the atomic rewrites.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "leaked temp files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keys_separate_jobs_and_experiment_sets() {
        let other_jobs = SCHEMA4.replace("\"jobs\":4", "\"jobs\":1");
        assert_ne!(bench_key(SCHEMA4), bench_key(&other_jobs));
        let other_ids = SCHEMA4.replace("em3d-mp", "em3d-sm");
        assert_ne!(bench_key(SCHEMA4), bench_key(&other_ids));
        assert_eq!(bench_key(SCHEMA4), bench_key(SCHEMA4));
    }
}
