//! Quickstart: run one message-passing/shared-memory program pair and
//! print the paper-style execution-time breakdowns.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use wwt::sim::SimConfig;
use wwt::{render_timeline, run_experiment, run_experiment_with, Experiment, Scale};

fn main() {
    // Gauss at test scale runs in well under a second; pass --paper for
    // the full 512-variable, 32-processor workload of the paper.
    let scale = if std::env::args().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Test
    };

    let mp = run_experiment(Experiment::GaussMp, scale);
    let sm = run_experiment(Experiment::GaussSm, scale);

    println!("Both versions solve the same dense linear system:");
    println!("  MP: {}", mp.run.validation.detail);
    println!("  SM: {}\n", sm.run.validation.detail);

    for out in [&mp, &sm] {
        println!("{}", out.tables[0]);
        println!("{}", out.events[0]);
    }

    let t_mp = mp.tables[0].total;
    let t_sm = sm.tables[0].total;
    println!(
        "Shared memory ran at {:.0}% of the message-passing time — the\n\
         paper's surprise: three of its four shared-memory programs ran at\n\
         roughly the same speed as their message-passing equivalents.",
        100.0 * t_sm / t_mp
    );

    // To see *where in time* the cycles went, re-run with time-resolved
    // profiling. render_timeline refuses a run without a profile, so
    // SimConfig::profile_bucket must be set (the bucket is the profile
    // resolution in cycles; the report carries it to the renderer).
    let sim = SimConfig {
        profile_bucket: Some(wwt::timeline_bucket(scale)),
        ..SimConfig::default()
    };
    let profiled = run_experiment_with(Experiment::GaussSm, scale, sim);
    match render_timeline(&profiled.run.report, 100) {
        Ok(t) => println!("\n{t}"),
        Err(e) => eprintln!("no timeline: {e}"),
    }
}
