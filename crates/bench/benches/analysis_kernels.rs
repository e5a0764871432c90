//! Statistics-kernel throughput: the one sort behind every order
//! statistic (`Ccdf::from_samples`), the CCDF series, the Hill fit and
//! streaming moments. What percentiles, tail shares and the Pareto
//! regression cost on top of that sort is pipeline-bench's
//! `analysis.table2_ms`.

use borg_analysis::ccdf::Ccdf;
use borg_analysis::moments::Moments;
use borg_analysis::pareto::ParetoFit;
use borg_workload::dist::Sample;
use borg_workload::integral::IntegralModel;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn samples(n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(1);
    let model = IntegralModel::model_2019();
    (0..n).map(|_| model.cpu.sample(&mut rng)).collect()
}

fn bench_ccdf(c: &mut Criterion) {
    let xs = samples(100_000);
    c.bench_function("ccdf_build_100k", |b| {
        b.iter(|| Ccdf::from_samples(xs.iter().copied()));
    });
    let ccdf = Ccdf::from_samples(xs.iter().copied());
    c.bench_function("ccdf_log_series_100k", |b| {
        b.iter(|| ccdf.log_series(1e-6, 1e5, 100));
    });
}

fn bench_hill_fit(c: &mut Criterion) {
    let xs = samples(100_000);
    c.bench_function("pareto_hill_fit_100k", |b| {
        b.iter(|| ParetoFit::fit_hill(&xs, 1.0));
    });
}

fn bench_moments(c: &mut Criterion) {
    let xs = samples(1_000_000);
    c.bench_function("streaming_moments_1m", |b| {
        b.iter(|| {
            let m: Moments = xs.iter().copied().collect();
            m.c_squared()
        });
    });
}

criterion_group!(benches, bench_ccdf, bench_hill_fit, bench_moments);
criterion_main!(benches);
