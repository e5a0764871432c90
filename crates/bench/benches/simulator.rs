//! Simulator throughput: a cell-day across fleet sizes, the eight-cell
//! fan-out, the scheduler's placement path in isolation, and the
//! ablation switches. The 512-machine day (telemetry off and on), the
//! shard-count sweep, the 2011-vs-2019 day and the fan-out are
//! pipeline-bench's `sim.run_cell_ms`, `telemetry.sim_overhead_share`,
//! `sim.run_cell_k1_ms`/`k2_ms`, `sim.run_cell_2011_ms` and
//! `sim.run_cells_parallel_ms`, measured there with a noise interval.

use borg_core::pipeline::SimScale;
use borg_sim::{run_cells_parallel, CellSim, SimConfig};
use borg_trace::time::Micros;
use borg_workload::cells::CellProfile;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_cell_day(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_cell_day");
    group.sample_size(10);
    for &(name, scale) in &[
        ("16_machines", 0.0013),
        ("24_machines", 0.002),
        ("48_machines", 0.004),
        ("2048_machines", 2048.0 / 12000.0),
        // Paper-scale points (a 12k-machine cell is scale 1.0).
        ("4096_machines", 4096.0 / 12000.0),
        ("8192_machines", 8192.0 / 12000.0),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &scale, |b, &scale| {
            let profile = CellProfile::cell_2019('d');
            let mut cfg = SimConfig::tiny_for_tests(1);
            cfg.scale = scale;
            cfg.horizon = Micros::from_days(1);
            cfg.snapshot_at = Micros::from_hours(12);
            b.iter(|| CellSim::run_cell(&profile, &cfg));
        });
    }
    group.finish();
}

/// The eight 2019 cells at `SimScale::Small` for one day, as
/// `paper_small` simulates them: the multi-cell fan-out whole, so the
/// time is that of the slowest worker's share of the cells.
fn bench_cells_parallel(c: &mut Criterion) {
    let profiles = CellProfile::all_2019();
    let mut cfg = SimScale::Small.config(2019);
    cfg.horizon = Micros::from_days(1);
    cfg.snapshot_at = Micros::from_hours(13);
    let mut group = c.benchmark_group("multi_cell");
    group.sample_size(10);
    group.bench_function("run_cells_parallel_small_day", |b| {
        b.iter(|| run_cells_parallel(&profiles, &cfg));
    });
    group.finish();
}

fn bench_machine_fit(c: &mut Criterion) {
    use borg_sim::machine::{Machine, Occupant};
    use borg_trace::machine::MachineId;
    use borg_trace::priority::Tier;
    use borg_trace::resources::Resources;
    let mut machines: Vec<Machine> = (0..100)
        .map(|i| Machine::new(MachineId(i), Resources::new(0.5, 0.5)))
        .collect();
    for (i, m) in machines.iter_mut().enumerate() {
        for k in 0..(i % 12) {
            m.add(Occupant {
                owner: k,
                index: 0,
                is_alloc_instance: false,
                tier: Tier::BestEffortBatch,
                request: Resources::new(0.05, 0.04),
            });
        }
    }
    c.bench_function("best_fit_scan_100_machines", |b| {
        let req = Resources::new(0.08, 0.06);
        b.iter(|| {
            let mut best: Option<(usize, f64)> = None;
            for (i, m) in machines.iter().enumerate() {
                if let Some(s) = m.fit_score(req, Tier::Production) {
                    if best.is_none_or(|(_, bs)| s < bs) {
                        best = Some((i, s));
                    }
                }
            }
            best
        });
    });
}

fn bench_placement_path(c: &mut Criterion) {
    use borg_sim::machine::{Machine, Occupant};
    use borg_sim::PlacementIndex;
    use borg_trace::machine::MachineId;
    use borg_trace::priority::Tier;
    use borg_trace::resources::Resources;
    const FLEET: usize = 10_000;
    let mut machines: Vec<Machine> = (0..FLEET)
        .map(|i| Machine::new(MachineId(i as u32), Resources::new(0.5, 0.5)))
        .collect();
    for (i, m) in machines.iter_mut().enumerate() {
        for k in 0..(i % 12) {
            m.add(Occupant {
                owner: k,
                index: i,
                is_alloc_instance: false,
                tier: Tier::BestEffortBatch,
                request: Resources::new(0.05, 0.04),
            });
        }
    }
    let req = Resources::new(0.08, 0.06);
    let mut group = c.benchmark_group("placement_path");
    group.bench_function("indexed_miss_10k", |b| {
        // Cycling through more shapes than the cache holds evicts every
        // entry before it is asked again, so each query pays the full
        // mirror scan plus a cache store: the cold path.
        let mut index = PlacementIndex::new(&machines);
        let shapes: Vec<Resources> = (0..8192)
            .map(|i| Resources::new(0.06 + (i % 97) as f64 * 1e-6, 0.05 + (i / 97) as f64 * 1e-6))
            .collect();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % shapes.len();
            index.best_fit(&machines, shapes[k], Tier::Production)
        });
    });
    group.bench_function("indexed_churn_10k", |b| {
        // Steady churn: the winner mutates between queries, so each
        // lookup revalidates the entry against a one-record tail instead
        // of rescanning the fleet.
        let mut index = PlacementIndex::new(&machines);
        b.iter(|| {
            let hit = index.best_fit(&machines, req, Tier::Production);
            if let Some((mi, _)) = hit {
                index.on_machine_changed(mi, &machines[mi]);
            }
            hit
        });
    });
    group.bench_function("indexed_cached_10k", |b| {
        // Steady state: an unchanged fleet answers from the score cache.
        let mut index = PlacementIndex::new(&machines);
        index.best_fit(&machines, req, Tier::Production);
        b.iter(|| index.best_fit(&machines, req, Tier::Production));
    });

    // The fleet size pipeline-bench's `cell_day_512` runs. Three machines
    // in eight are half empty, one is nearly full and still takes `req`,
    // four are too full to: a scan meets feasible and infeasible rows
    // half and half in a fixed but irregular order — the mix a simulated
    // day shows — and about half the fleet is full enough to pass the
    // score cache's relevance filter.
    let mut small: Vec<Machine> = (0..512)
        .map(|i| {
            let cap = 0.5 + (i * 37 % 11) as f64 * 0.004;
            Machine::new(MachineId(i as u32), Resources::new(cap, cap))
        })
        .collect();
    for (i, m) in small.iter_mut().enumerate() {
        let occupants = match ((i * 2_654_435_761) >> 7) & 7 {
            0..=2 => 9 + i % 3,
            3 => 19 + i % 2,
            _ => 21 + i % 2,
        };
        for k in 0..occupants {
            m.add(Occupant {
                owner: k,
                index: i,
                is_alloc_instance: false,
                tier: Tier::BestEffortBatch,
                request: Resources::new(0.05, 0.04),
            });
        }
    }
    group.bench_function("indexed_miss_512", |b| {
        // As `indexed_miss_10k`, more shapes than the cache holds; here
        // they span 0.02–0.10 NCU and are asked in a scattered order, so
        // which of the nearly full machines fit changes from one scan to
        // the next and a branch predictor cannot learn the fleet.
        let mut index = PlacementIndex::new(&small);
        let shapes: Vec<Resources> = (0..8192)
            .map(|i| Resources::new(0.02 + i as f64 * 1e-5, 0.015 + i as f64 * 8e-6))
            .collect();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 3571) % shapes.len();
            index.best_fit(&small, shapes[k], Tier::Production)
        });
    });
    // Forty mutations on machines drawn by an LCG (a fixed stride would
    // repeat every 512 records, which a branch predictor learns and a
    // cell does not do). The index has no other way to grow a tail, so
    // `indexed_revalidate_512` times them too; `mutate_40_512` is that
    // share alone, to subtract.
    let mutate = |index: &mut PlacementIndex, lcg: &mut u64| {
        for _ in 0..40 {
            *lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mi = (*lcg >> 33) as usize % small.len();
            index.on_machine_changed(mi, &small[mi]);
        }
    };
    group.bench_function("mutate_40_512", |b| {
        let mut index = PlacementIndex::new(&small);
        let mut lcg = 2019u64;
        b.iter(|| mutate(&mut index, &mut lcg));
    });
    group.bench_function("indexed_revalidate_512", |b| {
        // One shape asked again after the forty mutations: the lookup
        // walks a 40-record tail, of which the half-empty machines'
        // records fail the relevance filter, and re-scores the
        // candidates plus the nearly full machines it kept.
        let mut index = PlacementIndex::new(&small);
        index.best_fit(&small, req, Tier::Production);
        let mut lcg = 2019u64;
        b.iter(|| {
            mutate(&mut index, &mut lcg);
            index.best_fit(&small, req, Tier::Production)
        });
    });
    group.finish();
}

/// One named configuration tweak.
type Variant = (&'static str, fn(&mut SimConfig));

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations_cell_day");
    group.sample_size(10);
    let profile = CellProfile::cell_2019('b');
    let base = {
        let mut cfg = SimConfig::tiny_for_tests(3);
        cfg.horizon = Micros::from_days(1);
        cfg.snapshot_at = Micros::from_hours(12);
        cfg
    };
    let variants: [Variant; 4] = [
        ("baseline", |_| {}),
        ("no_equivalence_classes", |c| {
            c.equivalence_class_speedup = 1.0
        }),
        ("no_batch_queue", |c| c.disable_batch_queue = true),
        ("gang_scheduling", |c| c.gang_scheduling = true),
    ];
    for (name, configure) in variants {
        let mut cfg = base.clone();
        configure(&mut cfg);
        group.bench_function(name, |b| {
            b.iter(|| CellSim::run_cell(&profile, &cfg));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cell_day,
    bench_cells_parallel,
    bench_machine_fit,
    bench_placement_path,
    bench_ablations
);
criterion_main!(benches);
