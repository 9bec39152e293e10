//! The structured-trace layer must tell the same story as the cycle
//! accounting: per-processor span self-times reconcile exactly with the
//! (scope × kind) matrix aggregates, latency histograms are populated by
//! the machine paths they describe, and enabling tracing never perturbs
//! the simulated timing.

use wwt::sim::{Metric, SimConfig};
use wwt::trace::check_against_matrix;
use wwt::{run_experiment, run_experiment_with, Experiment, Scale};

fn traced(e: Experiment) -> wwt::ExperimentOutput {
    let sim = SimConfig {
        trace: true,
        ..SimConfig::default()
    };
    run_experiment_with(e, Scale::Test, sim)
}

#[test]
fn em3d_mp_spans_reconcile_with_the_cycle_matrix() {
    let out = traced(Experiment::Em3dMp);
    check_against_matrix(&out.run.report)
        .unwrap_or_else(|errs| panic!("trace/matrix mismatch:\n{}", errs.join("\n")));
}

#[test]
fn em3d_sm_spans_reconcile_with_the_cycle_matrix() {
    let out = traced(Experiment::Em3dSm);
    check_against_matrix(&out.run.report)
        .unwrap_or_else(|errs| panic!("trace/matrix mismatch:\n{}", errs.join("\n")));
}

#[test]
fn every_tier1_experiment_reconciles() {
    for e in [
        Experiment::MseMp,
        Experiment::MseSm,
        Experiment::GaussMp,
        Experiment::GaussSm,
        Experiment::LcpMp,
        Experiment::LcpSm,
    ] {
        let out = traced(e);
        check_against_matrix(&out.run.report)
            .unwrap_or_else(|errs| panic!("{e}: trace/matrix mismatch:\n{}", errs.join("\n")));
    }
}

#[test]
fn mp_runs_fill_the_message_latency_histogram() {
    let out = traced(Experiment::Em3dMp);
    let data = out.run.report.trace().unwrap();
    let h = data.metrics.get(Metric::MsgLatency);
    assert!(h.count() > 0, "EM3D-MP sends messages");
    assert!(h.min() > 0, "a message cannot arrive instantaneously");
    let barrier = data.metrics.get(Metric::BarrierWait);
    assert!(barrier.count() > 0, "EM3D-MP is barrier-synchronized");
}

#[test]
fn sm_runs_fill_the_miss_and_barrier_histograms() {
    let out = traced(Experiment::Em3dSm);
    let data = out.run.report.trace().unwrap();
    let miss = data.metrics.get(Metric::ShMissService);
    assert!(miss.count() > 0, "EM3D-SM takes shared misses");
    // Every service time covers at least the processor-side miss
    // handling (Table 3: 19 cycles) plus two network crossings.
    assert!(miss.min() >= 19, "min miss service {}", miss.min());
    assert!(data.metrics.get(Metric::BarrierWait).count() > 0);
}

#[test]
fn lock_metrics_cover_contended_runs() {
    // EM3D-SM guards its node lists with MCS locks during initialization.
    let out = traced(Experiment::Em3dSm);
    let data = out.run.report.trace().unwrap();
    let hold = data.metrics.get(Metric::LockHold);
    let wait = data.metrics.get(Metric::LockWait);
    assert!(hold.count() > 0, "EM3D-SM acquires locks");
    assert_eq!(
        hold.count(),
        wait.count(),
        "every acquire samples both wait and hold"
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    for e in [Experiment::Em3dMp, Experiment::Em3dSm] {
        let plain = run_experiment(e, Scale::Test);
        let traced = traced(e);
        assert_eq!(
            plain.run.report.elapsed(),
            traced.run.report.elapsed(),
            "{e}: tracing changed the simulated time"
        );
        for (a, b) in plain.run.report.procs().zip(traced.run.report.procs()) {
            assert_eq!(
                a.matrix, b.matrix,
                "{e}: tracing changed {}'s charges",
                a.id
            );
        }
    }
}

#[test]
fn perfetto_export_is_well_formed_and_covers_all_processors() {
    use wwt::trace::chrome_trace_json;

    for e in [Experiment::Em3dMp, Experiment::Em3dSm] {
        let out = traced(e);
        let s = chrome_trace_json(&out.run.report).unwrap();
        assert!(s.starts_with("{\"displayTimeUnit\""));
        assert!(s.trim_end().ends_with("]}"));
        assert_eq!(s.matches('{').count(), s.matches('}').count(), "{e}");
        assert_eq!(
            s.matches("\"ph\":\"B\"").count(),
            s.matches("\"ph\":\"E\"").count(),
            "{e}: unbalanced spans"
        );
        for p in 0..out.run.report.nprocs() {
            assert!(
                s.contains(&format!("\"name\":\"cpu{p}\"")),
                "{e}: missing cpu{p}"
            );
        }
    }
}

/// Pins the exporters' bytes, not just their run-to-run agreement: FNV-1a
/// digests of the Perfetto JSON, metrics JSON and metrics table for one MP
/// and one SM experiment at test scale. The digests were computed on the
/// commit before the exporters moved from their own crate into
/// `wwt_sim::trace`, so the move is checked to be byte-preserving.
#[test]
fn exporter_bytes_are_pinned() {
    use wwt::store::fnv1a;
    use wwt::trace::{chrome_trace_json, metrics_json, metrics_table};

    let pins: [(Experiment, [u64; 3]); 2] = [
        (
            Experiment::GaussMp,
            [0xd6c26d05d4d92723, 0xd52261cf8cef0cf3, 0x2b59263307147e96],
        ),
        (
            Experiment::Em3dSm,
            [0x8c41efea598d863e, 0xa4a95535eb628cfb, 0xd62af1fab275afc1],
        ),
    ];
    for (e, want) in pins {
        let out = traced(e);
        let report = &out.run.report;
        let data = report.trace().expect("tracing was enabled");
        let got = [
            fnv1a(chrome_trace_json(report).unwrap().as_bytes()),
            fnv1a(metrics_json(&data.metrics).as_bytes()),
            fnv1a(metrics_table(&data.metrics).as_bytes()),
        ];
        assert_eq!(
            got.map(|d| format!("{d:016x}")),
            want.map(|d| format!("{d:016x}")),
            "{e}: [trace, metrics json, metrics table] digests"
        );
    }
}
