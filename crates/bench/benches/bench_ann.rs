//! Criterion benches for the Section 5 extensions: aggregate-NN
//! monitoring per aggregate function, and constrained-NN monitoring.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpm_core::{AggregateFn, AnnQuery, ConstrainedQuery, ShardedCpmEngine};
use cpm_geom::{Point, QueryId, Rect};
use cpm_sim::{SimParams, SimulationInput, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn input() -> SimulationInput {
    SimulationInput::generate(&SimParams {
        n_objects: 2_000,
        n_queries: 0,
        timestamps: 5,
        workload: WorkloadKind::Network { grid_streets: 16 },
        ..SimParams::default()
    })
}

fn ann_queries(rng: &mut StdRng, f: AggregateFn, count: usize) -> Vec<AnnQuery> {
    (0..count)
        .map(|_| {
            let c = Point::new(rng.gen(), rng.gen());
            let pts = (0..3)
                .map(|_| {
                    Point::new(
                        (c.x + rng.gen_range(-0.05..0.05)).clamp(0.0, 0.999),
                        (c.y + rng.gen_range(-0.05..0.05)).clamp(0.0, 0.999),
                    )
                })
                .collect();
            AnnQuery::new(pts, f)
        })
        .collect()
}

fn bench_ann(c: &mut Criterion) {
    let input = input();
    let mut group = c.benchmark_group("ann_monitoring");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    for f in [AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max] {
        group.bench_with_input(
            BenchmarkId::new("aggregate", format!("{f:?}")),
            &input,
            |b, input| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(9);
                    let mut m = ShardedCpmEngine::new(input.params.grid_dim, 1);
                    m.populate(input.initial_objects.iter().copied());
                    for (i, q) in ann_queries(&mut rng, f, 20).into_iter().enumerate() {
                        m.install(QueryId(i as u32), q, 4).unwrap();
                    }
                    for tick in &input.ticks {
                        m.process_cycle(&tick.object_events, &[]);
                    }
                    m
                })
            },
        );
    }
    group.finish();
}

fn bench_constrained(c: &mut Criterion) {
    let input = input();
    let mut group = c.benchmark_group("constrained_monitoring");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    group.bench_with_input(BenchmarkId::new("zone", "0.3"), &input, |b, input| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(11);
            let mut m = ShardedCpmEngine::new(input.params.grid_dim, 1);
            m.populate(input.initial_objects.iter().copied());
            for i in 0..20u32 {
                let q = Point::new(rng.gen(), rng.gen());
                let lo = Point::new((q.x - 0.15).clamp(0.0, 0.7), (q.y - 0.15).clamp(0.0, 0.7));
                let hi = Point::new(lo.x + 0.3, lo.y + 0.3);
                m.install(QueryId(i), ConstrainedQuery::new(q, Rect::new(lo, hi)), 4)
                    .unwrap();
            }
            for tick in &input.ticks {
                m.process_cycle(&tick.object_events, &[]);
            }
            m
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ann, bench_constrained);
criterion_main!(benches);
