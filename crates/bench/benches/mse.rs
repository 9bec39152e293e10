//! `mse/build_system` times the host-side MSE system setup alone, at the
//! repository benchmark's bench scale (paper machine, 14 elements per
//! body): the numeric kernel's host cost, apart from simulation. Whole
//! MSE runs are timed by the benchmark package's `mse-mp` workload.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wwt_core::apps::mse::{build_system, Geometry, MseParams};

fn bench_mse(c: &mut Criterion) {
    let mut g = c.benchmark_group("mse");
    g.sample_size(10);
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
