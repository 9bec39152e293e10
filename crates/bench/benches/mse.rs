//! Benchmarks regenerating the MSE experiments (Tables 4–7 of the paper).
//!
//! Criterion measures the host cost of simulating each program version;
//! the simulated measurements themselves (the tables) are printed once per
//! bench so a bench run doubles as a table regeneration at this scale.
//! Run `make_tables mse` for the full paper-scale tables.
//!
//! `mse/build_system` times the host-side system setup alone, at the
//! repository benchmark's bench scale (paper machine, 14 elements per
//! body): the numeric kernel's host cost, apart from simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wwt_core::apps::mse::{build_system, Geometry, MseParams};
use wwt_core::{run_experiment, Experiment, Scale};

fn bench_mse(c: &mut Criterion) {
    let mut g = c.benchmark_group("mse");
    g.sample_size(10);
    for e in [Experiment::MseMp, Experiment::MseSm] {
        // Print the simulated breakdown once (tables 4 / 5 shape).
        let out = run_experiment(e, Scale::Test);
        assert!(out.run.validation.passed, "{}", out.run.validation.detail);
        println!("{}", out.tables[0]);
        g.bench_function(e.id(), |b| {
            b.iter(|| {
                let out = run_experiment(black_box(e), Scale::Test);
                assert!(out.run.validation.passed);
                black_box(out.run.report.elapsed())
            })
        });
    }
    let p = MseParams {
        elems: 14,
        ..MseParams::default()
    };
    g.bench_function("build_system", |b| {
        b.iter(|| {
            let sys = build_system(&Geometry::new(black_box(&p)));
            black_box(sys.diag[0])
        })
    });
    g.finish();
}

criterion_group!(benches, bench_mse);
criterion_main!(benches);
