//! Cross-process run cache: two `make_tables` processes racing the same
//! cold cache key must print identical reports and leave one valid entry
//! and no temp files. Entries are deterministic and published by atomic
//! rename, so whichever process renames last still leaves a correct
//! entry.
//!
//! Ignored by default: it spawns two full `make_tables` processes (via
//! `CARGO_BIN_EXE_make_tables`), which is slow next to the unit suites.
//! Run with `cargo test -p wwt-bench -- --ignored`.

use std::path::Path;
use std::process::{Command, Output};

fn make_tables(workdir: &Path) -> std::process::Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_make_tables"));
    // The run cache lives at results/cache relative to the working
    // directory, so pointing both processes at one scratch dir makes
    // them share (and race) one cache.
    cmd.current_dir(workdir)
        .args(["--test-scale", "--jobs", "1", "gauss-mp"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    cmd.spawn().expect("spawning make_tables")
}

fn text(out: &Output) -> (String, String) {
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
#[ignore = "spawns two make_tables processes; run with -- --ignored"]
fn two_processes_racing_one_key_agree_and_leave_one_entry() {
    let dir = std::env::temp_dir().join(format!("wwt-proc-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let a = make_tables(&dir);
    let b = make_tables(&dir);
    let a = a.wait_with_output().unwrap();
    let b = b.wait_with_output().unwrap();
    let (stdout_a, stderr_a) = text(&a);
    let (stdout_b, stderr_b) = text(&b);
    assert!(a.status.success(), "first racer failed: {stderr_a}");
    assert!(b.status.success(), "second racer failed: {stderr_b}");
    assert_eq!(
        stdout_a, stdout_b,
        "racing processes must print identical reports"
    );
    assert!(stdout_a.contains("### gauss-mp"));

    let cache = dir.join("results/cache");
    let names: Vec<String> = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names.len(), 1, "one entry, no temp leftovers: {names:?}");
    assert!(names[0].ends_with(".run"), "{names:?}");
    assert!(
        wwt_core::cache::load_path(&cache.join(&names[0])).is_some(),
        "the entry decodes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
