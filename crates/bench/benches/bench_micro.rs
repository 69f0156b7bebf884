//! Micro-benchmarks of the CPM building blocks: first-time NN computation
//! (Figure 3.4), one batched update-handling cycle (Figure 3.8), pinwheel
//! strip generation, search-heap churn and the id hasher.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use cpm_core::heap::SearchHeap;
use cpm_core::partition::{Direction, Pinwheel};
use cpm_core::{PointQuery, ShardedCpmEngine};
use cpm_geom::{FastHashSet, ObjectId, Point, QueryId};
use cpm_grid::{CellCoord, ObjectEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn populated_monitor(n: usize, dim: u32, seed: u64) -> ShardedCpmEngine<PointQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = ShardedCpmEngine::new(dim, 1);
    m.populate((0..n as u32).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
    m
}

fn bench_nn_computation(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_nn_computation");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    for k in [1usize, 16, 256] {
        group.bench_with_input(BenchmarkId::new("install_k", k), &k, |b, &k| {
            b.iter_batched(
                || populated_monitor(10_000, 128, 1),
                |mut m| {
                    m.install(QueryId(0), PointQuery(Point::new(0.431, 0.557)), k)
                        .unwrap();
                    m
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_update_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_update_cycle");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    for movers in [100usize, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("batch_moves", movers),
            &movers,
            |b, &movers| {
                let mut rng = StdRng::seed_from_u64(3);
                let events: Vec<ObjectEvent> = (0..movers as u32)
                    .map(|i| ObjectEvent::Move {
                        id: ObjectId(i * 7 % 10_000),
                        to: Point::new(rng.gen(), rng.gen()),
                    })
                    .collect();
                b.iter_batched(
                    || {
                        let mut rng = StdRng::seed_from_u64(4);
                        let mut m = populated_monitor(10_000, 128, 2);
                        for q in 0..50u32 {
                            m.install(QueryId(q), PointQuery(Point::new(rng.gen(), rng.gen())), 16)
                                .unwrap();
                        }
                        m
                    },
                    |mut m| {
                        m.process_cycle(&events, &[]);
                        m
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_pinwheel(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_pinwheel");
    group
        .sample_size(50)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1000));
    group.bench_function("strips_to_level_16", |b| {
        let pw = Pinwheel::around_cell(CellCoord::new(64, 64), 128);
        b.iter(|| {
            let mut cells = 0usize;
            for dir in Direction::ALL {
                for lvl in 0..16 {
                    if let Some(s) = pw.strip(dir, lvl) {
                        cells += s.cells().count();
                    }
                }
            }
            cells
        })
    });
    group.finish();
}

fn bench_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_search_heap");
    group
        .sample_size(50)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1000));
    group.bench_function("push_pop_1k", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let keys: Vec<f64> = (0..1_000).map(|_| rng.gen()).collect();
        b.iter(|| {
            let mut h = SearchHeap::new();
            for (i, &k) in keys.iter().enumerate() {
                h.push_cell(CellCoord::new(i as u32 % 128, i as u32 / 128), k);
            }
            let mut sum = 0.0;
            while let Some((k, _)) = h.pop() {
                sum += k;
            }
            sum
        })
    });
    group.finish();
}

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_fxhash");
    group
        .sample_size(50)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1000));
    group.bench_function("set_insert_lookup_10k", |b| {
        b.iter(|| {
            let mut s: FastHashSet<ObjectId> = FastHashSet::default();
            for i in 0..10_000u32 {
                s.insert(ObjectId(i));
            }
            let mut hits = 0usize;
            for i in 0..10_000u32 {
                if s.contains(&ObjectId(i.wrapping_mul(3) % 15_000)) {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_nn_computation,
    bench_update_cycle,
    bench_pinwheel,
    bench_heap,
    bench_hash
);
criterion_main!(benches);
