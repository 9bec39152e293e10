//! End-to-end checks of the `benchmark` binary at test scale: the parent process,
//! its children, the correctness gate, and the result formats.

use std::process::{Command, Output};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs")
}

fn text(out: &Output) -> String {
    format!(
        "{}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

fn written(stdout: &str, file: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("wrote ").filter(|p| p.ends_with(file)))
        .unwrap_or_else(|| panic!("no {file} written:\n{stdout}"))
        .to_string()
}

#[test]
fn quick_set_passes_every_check_and_agrees_with_itself() {
    let out = benchmark(&["run", "--quick"]);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "{}", text(&out));
    assert!(
        stdout.contains("fail_frac = 0 (0/8 runs failed)"),
        "{stdout}"
    );
    for w in ["em3d-sm", "mp", "mse-mp", "sweep"] {
        assert!(
            stdout.contains(&format!("== {w}: 2 runs, 0 failed")),
            "{w}:\n{stdout}"
        );
    }
    for metric in ["wall_cal_s", "sim.events", "allocs", "probe.mp.ns_per_am"] {
        assert!(stdout.contains(metric), "{metric}:\n{stdout}");
    }
    let trace = std::fs::read_to_string(written(&stdout, "trace.json")).unwrap();
    assert!(
        trace.contains("\"ph\":\"X\"") && trace.contains("try_run em3d.sm"),
        "{trace}"
    );

    let metrics = written(&stdout, "metrics.json");
    let same = benchmark(&["agree", &metrics, &metrics]);
    assert!(same.status.success(), "{}", text(&same));
    assert!(!String::from_utf8_lossy(&same.stdout).contains("WORSE"));
}

/// The metric names of one list in `BENCHMARK.json`.
fn listed(list: &str) -> Vec<String> {
    let bench = include_str!("../../BENCHMARK.json");
    let start = bench.find(&format!("\"{list}\"")).expect("list present");
    let end = bench[start..].find(']').expect("list closes") + start;
    bench[start..end]
        .split("{\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn timed_run_ends_with_every_listed_metric() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        for w in ["em3d-sm", "mp", "mse-mp", "sweep"] {
            let out = benchmark(&[
                "--workload",
                w,
                "--seed",
                "4",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--scale",
                "small",
            ]);
            assert!(out.status.success(), "{}", text(&out));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap();
            assert!(
                last.starts_with("{\"correct\":true,\"attempted\":"),
                "{last}"
            );
            assert!(last.contains("\"failed\":0,\"metrics\":{"), "{last}");
            for name in listed(list) {
                let want = format!("\"{name}\":{{\"value\":");
                assert!(last.contains(&want), "{w} lacks {name}: {last}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "mp", "--seconds", "1", "--trace", "2"][..],
        &["run", "--reps"][..],
        &[][..],
    ] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", text(&out));
        assert!(out.stdout.is_empty(), "{args:?}: {}", text(&out));
    }
}
