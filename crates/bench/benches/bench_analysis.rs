//! Criterion bench for the Section 4.1 trade-off: CPM cost across grid
//! granularities on uniform data (the analysis model's regime).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpm_sim::{run, AlgoKind, SimParams, SimulationInput, WorkloadKind};

fn input(dim: u32) -> SimulationInput {
    SimulationInput::generate(&SimParams {
        n_objects: 2_000,
        n_queries: 50,
        k: 8,
        timestamps: 5,
        grid_dim: dim,
        workload: WorkloadKind::Uniform,
        ..SimParams::default()
    })
}

fn bench_delta_tradeoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis_delta_tradeoff");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    for dim in [16u32, 64, 256] {
        let input = input(dim);
        group.bench_with_input(BenchmarkId::new("CPM", dim), &input, |b, input| {
            b.iter(|| run(AlgoKind::Cpm, input))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_delta_tradeoff);
criterion_main!(benches);
