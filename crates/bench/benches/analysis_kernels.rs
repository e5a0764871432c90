//! Statistics-kernel throughput: the statistical-mode sampler, the one
//! sort behind every order statistic (`Ccdf::from_samples`), the CCDF
//! series, Figure 13's bucket medians, the Hill fit and streaming
//! moments. pipeline-bench's `analysis.table2_ms` and
//! `analysis.fig13_ms` time the sampler and the statistics together, so
//! `era_samples_1m` (one era's chunk-parallel draw on every core),
//! `ccdf_build_1m` (one Table 2 column at the benchmark's size) and
//! `bucketed_medians_500k` are the only place the three kernels show
//! alone.

use borg_analysis::ccdf::Ccdf;
use borg_analysis::correlation::bucketed_medians;
use borg_analysis::moments::Moments;
use borg_analysis::pareto::ParetoFit;
use borg_core::analyses::consumption::era_samples;
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

fn bench_era_samples(c: &mut Criterion) {
    let model = IntegralModel::model_2019();
    c.bench_function("era_samples_1m", |b| {
        b.iter(|| era_samples(&model, 1_000_000, 1));
    });
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
    let xs = samples(1_000_000);
    c.bench_function("ccdf_build_1m", |b| {
        b.iter(|| Ccdf::from_samples(xs.iter().copied()));
    });
}

fn bench_bucketed_medians(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let pairs: Vec<(f64, f64)> = IntegralModel::model_2019()
        .sample_many(500_000, &mut rng)
        .iter()
        .map(|j| (j.ncu_hours, j.nmu_hours))
        .collect();
    c.bench_function("bucketed_medians_500k", |b| {
        b.iter(|| bucketed_medians(&pairs, 1.0));
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

criterion_group!(
    benches,
    bench_era_samples,
    bench_ccdf,
    bench_bucketed_medians,
    bench_hill_fit,
    bench_moments
);
criterion_main!(benches);
