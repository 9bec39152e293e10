//! The engine is a deterministic discrete-event simulator: the same
//! program and seed must produce bit-identical measurements — the
//! property the Wisconsin Wind Tunnel relied on for reproducible
//! experiments.

use wwt::sim::Counter;
use wwt::{run_experiment, Experiment, Scale};

fn fingerprint(e: Experiment) -> (u64, u64, u64, String) {
    let out = run_experiment(e, Scale::Test);
    let r = &out.run.report;
    (
        r.elapsed(),
        r.events_processed(),
        r.total_counter(Counter::BytesData) + r.total_counter(Counter::BytesControl),
        out.run.validation.detail.clone(),
    )
}

#[test]
fn every_experiment_is_reproducible() {
    for e in [
        Experiment::MseMp,
        Experiment::MseSm,
        Experiment::GaussMp,
        Experiment::GaussSm,
        Experiment::Em3dMp,
        Experiment::Em3dSm,
        Experiment::LcpMp,
        Experiment::LcpSm,
        Experiment::AlcpMp,
        Experiment::AlcpSm,
    ] {
        assert_eq!(fingerprint(e), fingerprint(e), "{e} not reproducible");
    }
}

#[test]
fn per_processor_breakdowns_are_reproducible() {
    let a = run_experiment(Experiment::Em3dSm, Scale::Test);
    let b = run_experiment(Experiment::Em3dSm, Scale::Test);
    for (pa, pb) in a.run.report.procs().zip(b.run.report.procs()) {
        assert_eq!(pa.clock, pb.clock);
        assert_eq!(pa.matrix, pb.matrix);
        assert_eq!(pa.counters, pb.counters);
    }
}

/// Golden-trace determinism: two traced runs of the same experiment must
/// serialize to byte-identical Perfetto and metrics JSON.
#[test]
fn traced_runs_export_byte_identical_json() {
    use wwt::run_experiment_with;
    use wwt::sim::SimConfig;
    use wwt::trace::{chrome_trace_json, metrics_json};

    let traced = || {
        let sim = SimConfig {
            trace: true,
            ..SimConfig::default()
        };
        let out = run_experiment_with(Experiment::Em3dMp, Scale::Test, sim);
        let report = &out.run.report;
        let data = report.trace().expect("tracing was enabled");
        assert!(!data.events.is_empty(), "a traced EM3D run records events");
        (
            chrome_trace_json(report).unwrap(),
            metrics_json(&data.metrics),
        )
    };
    let (trace_a, metrics_a) = traced();
    let (trace_b, metrics_b) = traced();
    assert!(trace_a == trace_b, "trace JSON must be byte-identical");
    assert!(
        metrics_a == metrics_b,
        "metrics JSON must be byte-identical"
    );
}
