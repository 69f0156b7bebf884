//! Section 5 presents its variants as the k-NN algorithm under a
//! different `mindist`/`dist`; the degenerate cases must therefore agree
//! with plain k-NN on identical streams: a constrained query whose region
//! is the whole workspace reports the same result distances and does the
//! same work, and a single-point aggregate query reports the same
//! neighbors, for every aggregate function.

use std::num::NonZeroUsize;

use cpm_suite::core::{
    AggregateFn, AnnQuery, AnyQuerySpec, ConstrainedQuery, CpmServer, CpmServerBuilder, PointQuery,
};
use cpm_suite::geom::{Point, QueryId, Rect};
use cpm_suite::sim::{SimParams, SimulationInput, WorkloadKind};

fn params(seed: u64) -> SimParams {
    SimParams {
        n_objects: 500,
        n_queries: 0, // queries installed manually below
        k: 5,
        timestamps: 15,
        grid_dim: 32,
        seed,
        workload: WorkloadKind::Network { grid_streets: 10 },
        ..SimParams::default()
    }
}

fn query_points(seed: u64) -> Vec<Point> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..8).map(|_| Point::new(rng.gen(), rng.gen())).collect()
}

/// A one-thread server over `input`'s objects with one query per point,
/// each built by `spec`.
fn engine<S: Into<AnyQuerySpec>>(
    input: &SimulationInput,
    points: &[Point],
    k: usize,
    spec: impl Fn(Point) -> S,
) -> CpmServer {
    let mut e = CpmServerBuilder::new(input.params.grid_dim)
        .threads(NonZeroUsize::MIN)
        .build();
    e.populate(input.initial_objects.iter().copied());
    for (i, &p) in points.iter().enumerate() {
        let _ = e.install_spec(QueryId(i as u32), spec(p), k).unwrap();
    }
    e
}

#[test]
fn workspace_constrained_equals_plain_knn() {
    let input = SimulationInput::generate(&params(42));
    let points = query_points(7);
    let mut plain = engine(&input, &points, 5, PointQuery);
    let mut constrained = engine(&input, &points, 5, |p| {
        ConstrainedQuery::new(p, Rect::WORKSPACE)
    });

    for tick in &input.ticks {
        plain.process_cycle(&tick.object_events, &[]).unwrap();
        constrained.process_cycle(&tick.object_events, &[]).unwrap();
        for i in 0..points.len() as u32 {
            let a: Vec<f64> = plain
                .result(QueryId(i))
                .unwrap()
                .iter()
                .map(|n| n.dist)
                .collect();
            let b: Vec<f64> = constrained
                .result(QueryId(i))
                .unwrap()
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12, "q{i}: {a:?} vs {b:?}");
            }
        }
    }
}

/// A constraint that excludes nothing also costs nothing: the same
/// searches over the same cells as plain k-NN.
#[test]
fn workspace_constraint_does_the_same_work() {
    let input = SimulationInput::generate(&params(44));
    let points = query_points(13);
    let mut plain = engine(&input, &points, 5, PointQuery);
    let mut constrained = engine(&input, &points, 5, |p| {
        ConstrainedQuery::new(p, Rect::WORKSPACE)
    });
    for tick in &input.ticks {
        plain.process_cycle(&tick.object_events, &[]).unwrap();
        constrained.process_cycle(&tick.object_events, &[]).unwrap();
    }
    let (a, b) = (plain.metrics(), constrained.metrics());
    assert_eq!(a.computations, b.computations);
    assert_eq!(a.recomputations, b.recomputations);
    assert_eq!(a.merge_resolutions, b.merge_resolutions);
    assert_eq!(a.cell_accesses, b.cell_accesses);
}

#[test]
fn singleton_aggregate_equals_plain_knn() {
    for f in [AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max] {
        let input = SimulationInput::generate(&params(43));
        let points = query_points(11);
        let mut plain = engine(&input, &points, 4, PointQuery);
        let mut ann = engine(&input, &points, 4, |p| AnnQuery::new(vec![p], f));

        for tick in &input.ticks {
            plain.process_cycle(&tick.object_events, &[]).unwrap();
            ann.process_cycle(&tick.object_events, &[]).unwrap();
            for i in 0..points.len() as u32 {
                let a: Vec<_> = plain
                    .result(QueryId(i))
                    .unwrap()
                    .iter()
                    .map(|n| n.id)
                    .collect();
                let b: Vec<_> = ann
                    .result(QueryId(i))
                    .unwrap()
                    .iter()
                    .map(|n| n.id)
                    .collect();
                assert_eq!(a, b, "{f:?} q{i}");
            }
        }
    }
}
