//! The wall-clock trajectory log: `results/BENCH_grid.json`.
//!
//! Every `make_tables` grid invocation appends one single-line JSON
//! record (`{"runs":[...]}` overall) so successive runs — `--jobs 1` vs
//! `--jobs 4`, before vs after an engine change — can be compared from
//! one file.
//!
//! # Schema
//!
//! The current record schema is [`SCHEMA`] (4). Relative to schema 3 it
//! drops the `"sim_threads"` field: the engine has one scheduler queue.
//! On every append the whole file is normalized:
//!
//! * **schema-2 and schema-3 records are migrated in place** — a
//!   `"sim_threads":1` field is stripped and the schema number is bumped,
//!   so one file never mixes field layouts;
//! * **schema-3 records with `"sim_threads"` above 1 are dropped**: they
//!   timed a sharded scheduler that no longer exists, so they compare
//!   with nothing this build can run;
//! * **legacy records** (no `"schema"` field at all — the pre-schema era
//!   that also lacked `"arch_hash"` and `"faults"`) **are dropped**: they
//!   cannot be attributed to an architecture point or fault plan, which
//!   makes their timings incomparable with everything the file is for;
//! * records are compacted to the newest [`KEEP_PER_KEY`] per
//!   configuration key so the file stays bounded forever.
//!
//! An unreadable or foreign file starts over with just the new record.

use std::fmt::Write as _;

use wwt_core::arch::ArchParams;
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
        Some(f) => format!("\"{f}\""),
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

/// Normalizes one existing record to the current schema.
///
/// Returns `None` for legacy records (no `"schema"` field, or an
/// unparseable one): they predate `"arch_hash"`/`"faults"` and cannot be
/// attributed to a configuration, so they are dropped rather than given
/// invented values. Records stamped with a **future** schema (a newer
/// build wrote them) are skipped with a stderr warning instead of being
/// reinterpreted — this build cannot know what their fields mean.
/// Records that timed more than one scheduler shard are dropped. Older
/// single-queue records lose their `"sim_threads":1` field and gain the
/// current schema number; current records pass through unchanged.
fn migrate(rec: &str) -> Option<String> {
    let schema: u32 = field(rec, "schema")?.parse().ok()?;
    if schema > SCHEMA {
        eprintln!(
            "warning: BENCH_grid.json record with schema {schema} was written by a \
             newer build (this one writes {SCHEMA}); skipping it"
        );
        return None;
    }
    if field(rec, "sim_threads").is_some_and(|n| n != "1") {
        return None;
    }
    Some(rec.replacen("\"sim_threads\":1,", "", 1).replacen(
        &format!("\"schema\":{schema},"),
        &format!("\"schema\":{SCHEMA},"),
        1,
    ))
}

/// Appends `record` to the log at `path`, migrating or dropping old
/// records and compacting to [`KEEP_PER_KEY`] per configuration key.
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
                    .filter(|l| !l.is_empty())
                    .filter_map(migrate)
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

    const SCHEMA2: &str = "{\"schema\":2,\"scale\":\"test\",\"jobs\":4,\"cache\":true,\
         \"arch_hash\":\"00deadbeef000000\",\"faults\":null,\"total_wall_secs\":1.5,\
         \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}]}";
    const LEGACY: &str = "{\"scale\":\"test\",\"jobs\":4,\"cache\":true,\
         \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}]}";
    const SCHEMA3: &str = "{\"schema\":3,\"scale\":\"test\",\"jobs\":4,\"sim_threads\":1,\
         \"cache\":true,\"arch_hash\":\"00deadbeef000000\",\"faults\":null,\
         \"total_wall_secs\":1.5,\
         \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}]}";
    const SCHEMA4: &str = "{\"schema\":4,\"scale\":\"test\",\"jobs\":4,\
         \"cache\":true,\"arch_hash\":\"00deadbeef000000\",\"faults\":null,\
         \"total_wall_secs\":1.5,\
         \"experiments\":[{\"id\":\"em3d-mp\",\"wall_secs\":0.1,\"cached\":false}]}";

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
    fn schema2_records_are_restamped_on_append() {
        let (dir, path) = temp_log("migrate2");
        std::fs::write(&path, format!("{{\"runs\":[\n{SCHEMA2}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA4).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        // The old record survives, restamped in place: both lines now
        // read exactly like the current record.
        assert_eq!(s, format!("{{\"runs\":[\n{SCHEMA4},\n{SCHEMA4}]}}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema3_single_queue_records_are_restamped_on_append() {
        let (dir, path) = temp_log("migrate3");
        std::fs::write(&path, format!("{{\"runs\":[\n{SCHEMA3}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA4).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s, format!("{{\"runs\":[\n{SCHEMA4},\n{SCHEMA4}]}}\n"));
        assert!(!s.contains("sim_threads"), "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema3_sharded_records_are_dropped_on_append() {
        let (dir, path) = temp_log("sharded");
        let sharded = SCHEMA3.replace("\"sim_threads\":1", "\"sim_threads\":8");
        std::fs::write(&path, format!("{{\"runs\":[\n{sharded},\n{SCHEMA3}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA4).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        // The 8-shard row is gone; the single-queue row was migrated.
        assert_eq!(s, format!("{{\"runs\":[\n{SCHEMA4},\n{SCHEMA4}]}}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema3_record_missing_its_shard_count_is_restamped() {
        let (dir, path) = temp_log("missing-field");
        // A schema-3 line whose sim_threads field went missing (hand
        // edit, partial write) ran the schema-2 default of one queue.
        let damaged = SCHEMA3.replace("\"sim_threads\":1,", "");
        std::fs::write(&path, format!("{{\"runs\":[\n{damaged}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA4).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s, format!("{{\"runs\":[\n{SCHEMA4},\n{SCHEMA4}]}}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_records_without_schema_are_dropped_on_append() {
        let (dir, path) = temp_log("legacy");
        std::fs::write(
            &path,
            format!("{{\"runs\":[\n{LEGACY},\n{SCHEMA2},\n{LEGACY}]}}\n"),
        )
        .unwrap();
        append_bench_record(&path, SCHEMA4).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        // Legacy rows (no arch/fault attribution) are gone; the schema-2
        // row was migrated; the new row was appended.
        assert_eq!(s.matches("\"schema\":4").count(), 2, "{s}");
        assert_eq!(s.matches("arch_hash").count(), 2, "{s}");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn migration_is_idempotent_across_appends() {
        let (dir, path) = temp_log("idempotent");
        std::fs::write(&path, format!("{{\"runs\":[\n{SCHEMA3}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA4).unwrap();
        let once = std::fs::read_to_string(&path).unwrap();
        append_bench_record(&path, SCHEMA4).unwrap();
        let twice = std::fs::read_to_string(&path).unwrap();
        // The migrated row is byte-stable; the second append only adds
        // one more copy of the new row.
        assert_eq!(once, format!("{{\"runs\":[\n{SCHEMA4},\n{SCHEMA4}]}}\n"));
        assert_eq!(
            twice,
            format!("{{\"runs\":[\n{SCHEMA4},\n{SCHEMA4},\n{SCHEMA4}]}}\n")
        );
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
        std::fs::write(&path, format!("{{\"runs\":[\n{future},\n{SCHEMA2}]}}\n")).unwrap();
        append_bench_record(&path, SCHEMA4).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(!s.contains("\"schema\":5"), "future record kept: {s}");
        assert!(!s.contains("new_field"), "{s}");
        // The rest of the file is still normalized as usual.
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
        // A migrated schema-3 row shares its key with the current row.
        assert_eq!(bench_key(SCHEMA4), bench_key(&migrate(SCHEMA3).unwrap()));
    }
}
