//! Book-keeping invariants of CPM under sustained load:
//! sorted visit lists, influence-region prefixes in lockstep with the
//! influence table, ≤ 4 boundary boxes, live and distance-fresh results.

use std::num::NonZeroUsize;

use cpm_suite::core::{AnyQuerySpec, CpmServer, CpmServerBuilder, PointQuery, SpecEvent};
use cpm_suite::gen::{NetworkWorkload, RoadNetwork, SpeedClass, WorkloadConfig};
use cpm_suite::geom::QueryId;
use cpm_suite::grid::QueryEvent;

/// A one-thread server over an empty `grid_dim²` grid.
fn server(grid_dim: u32) -> CpmServer {
    CpmServerBuilder::new(grid_dim)
        .threads(NonZeroUsize::MIN)
        .build()
}

/// A one-thread server loaded with the workload's objects and queries.
fn installed(w: &NetworkWorkload, grid_dim: u32) -> CpmServer {
    let mut m = server(grid_dim);
    m.populate(w.initial_objects()).unwrap();
    for (qid, pos, k) in w.initial_queries() {
        let _ = m.install_spec(qid, PointQuery(pos), k).unwrap();
    }
    m
}

fn lift(events: &[QueryEvent]) -> Vec<SpecEvent<AnyQuerySpec>> {
    events.iter().map(|&ev| ev.into()).collect()
}

fn run_with_invariants(config: WorkloadConfig, grid_dim: u32, ticks: usize) -> CpmServer {
    let net = RoadNetwork::grid_city(10, 10, 0.25, 0.15, 5, config.seed);
    let mut w = NetworkWorkload::new(net, config);
    let mut m = installed(&w, grid_dim);
    m.check_invariants();
    for _ in 0..ticks {
        let tick = w.tick();
        m.process_cycle(&tick.object_events, &lift(&tick.query_events))
            .unwrap();
        m.check_invariants();
    }
    m
}

#[test]
fn invariants_hold_through_default_workload() {
    let config = WorkloadConfig {
        n_objects: 500,
        n_queries: 25,
        k: 8,
        ..WorkloadConfig::default()
    };
    run_with_invariants(config, 64, 25);
}

#[test]
fn invariants_hold_with_fast_objects_and_queries() {
    let config = WorkloadConfig {
        n_objects: 400,
        n_queries: 20,
        k: 4,
        object_speed: SpeedClass::Fast,
        query_speed: SpeedClass::Fast,
        f_obj: 0.9,
        f_qry: 0.8,
        seed: 77,
    };
    run_with_invariants(config, 32, 25);
}

#[test]
fn invariants_hold_on_coarse_grid() {
    let config = WorkloadConfig {
        n_objects: 300,
        n_queries: 15,
        k: 6,
        seed: 5,
        ..WorkloadConfig::default()
    };
    run_with_invariants(config, 4, 20);
}

#[test]
fn query_churn_leaves_no_dangling_bookkeeping() {
    let config = WorkloadConfig {
        n_objects: 300,
        n_queries: 10,
        k: 4,
        seed: 9,
        ..WorkloadConfig::default()
    };
    let net = RoadNetwork::grid_city(8, 8, 0.2, 0.1, 4, 9);
    let mut w = NetworkWorkload::new(net, config);
    let mut m = installed(&w, 64);
    // Terminate and re-install queries while objects stream: the
    // victim's terminate replaces its move, one event per query.
    for round in 0..10u32 {
        let tick = w.tick();
        let victim = QueryId(round % 10);
        let mut qev = tick.query_events.clone();
        qev.retain(|ev| ev.id() != victim);
        qev.push(QueryEvent::Terminate { id: victim });
        m.process_cycle(&tick.object_events, &lift(&qev)).unwrap();
        m.check_invariants();
        let st = w
            .initial_queries()
            .nth(victim.index())
            .expect("query exists");
        let _ = m.install_spec(victim, PointQuery(st.1), st.2).unwrap();
        m.check_invariants();
    }
    // Tear everything down: all book-keeping must vanish.
    for qid in m.query_ids() {
        m.terminate(qid).unwrap();
    }
    assert_eq!(m.query_count(), 0);
    assert_eq!(m.space_units(), m.grid().space_units());
    m.check_invariants();
}

/// The Section 3.1 correctness/optimality claim, made executable: after a
/// search, the registered influence region is *exactly* the set of grid
/// cells whose mindist is within best_dist (every cell intersecting the
/// influence circle, and no cell beyond it gets registered).
#[test]
fn influence_region_is_exactly_the_circle_cover() {
    use cpm_suite::geom::{ObjectId, Point, QueryId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x1F1);
    for dim in [8u32, 16, 32] {
        let mut m = server(dim);
        m.populate((0..60u32).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))))
            .unwrap();
        for qi in 0..5u32 {
            let q = PointQuery(Point::new(rng.gen(), rng.gen()));
            let _ = m.install_spec(QueryId(qi), q, 4).unwrap();
        }
        // Also exercise the region after maintenance, not just after the
        // initial computation.
        let events: Vec<cpm_suite::grid::ObjectEvent> = (0..20u32)
            .map(|i| cpm_suite::grid::ObjectEvent::Move {
                id: ObjectId(i),
                to: Point::new(rng.gen(), rng.gen()),
            })
            .collect();
        m.process_cycle(&events, &[]).unwrap();

        for qi in 0..5u32 {
            let st = m.query_state(QueryId(qi)).unwrap();
            let q = st.spec.as_knn().unwrap();
            let bd = st.best_dist();
            assert!(bd.is_finite());
            let registered: std::collections::HashSet<_> = st.visit_list[..st.influence_len]
                .iter()
                .map(|&(c, _)| c)
                .collect();
            for row in 0..dim {
                for col in 0..dim {
                    let cell = cpm_suite::grid::CellCoord::new(col, row);
                    let inside = m.grid().mindist(cell, q) <= bd;
                    assert_eq!(
                        registered.contains(&cell),
                        inside,
                        "dim {dim} q{qi} cell {cell}: mindist {} vs bd {bd}",
                        m.grid().mindist(cell, q),
                    );
                }
            }
        }
    }
}

#[test]
fn space_accounting_tracks_analysis_order_of_magnitude() {
    let config = WorkloadConfig {
        n_objects: 2_000,
        n_queries: 50,
        k: 8,
        seed: 123,
        ..WorkloadConfig::default()
    };
    let m = run_with_invariants(config, 64, 10);
    let model = cpm_suite::core::CostModel {
        n_objects: 2_000,
        n_queries: 50,
        k: 8,
        delta: 1.0 / 64.0,
        f_obj: 0.5,
        f_qry: 0.3,
        skew: 1.0,
    };
    let measured = m.space_units() as f64;
    let predicted = model.space_total();
    // The uniformity assumption is rough on network data; an
    // order-of-magnitude agreement is what Section 4.1 claims.
    assert!(
        measured < 10.0 * predicted && predicted < 10.0 * measured,
        "measured {measured} vs predicted {predicted}"
    );
}
