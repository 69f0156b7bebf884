//! Integration coverage for the Section 5 extensions: aggregate-NN
//! monitoring (sum/min/max) and constrained NN, driven by the network
//! workload generator and validated against brute force every timestamp.

use std::num::NonZeroUsize;

use cpm_suite::core::{AggregateFn, AnnQuery, ConstrainedQuery, CpmServer, CpmServerBuilder};
use cpm_suite::gen::{NetworkWorkload, RoadNetwork, WorkloadConfig};
use cpm_suite::geom::{Point, QueryId, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A one-thread server over a 64² grid.
fn server() -> CpmServer {
    CpmServerBuilder::new(64).threads(NonZeroUsize::MIN).build()
}

fn workload(seed: u64) -> NetworkWorkload {
    let net = RoadNetwork::grid_city(10, 10, 0.25, 0.15, 6, seed);
    NetworkWorkload::new(
        net,
        WorkloadConfig {
            n_objects: 400,
            n_queries: 0, // query motion handled per-extension below
            k: 3,
            seed,
            ..WorkloadConfig::default()
        },
    )
}

#[test]
fn ann_monitors_track_brute_force_over_network_streams() {
    for (seed, f) in [
        (1u64, AggregateFn::Sum),
        (2, AggregateFn::Min),
        (3, AggregateFn::Max),
    ] {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA11);
        let mut w = workload(seed);
        let mut monitor = server();
        monitor.populate(w.initial_objects()).unwrap();

        // Three ANN queries with 2-5 member points each.
        let queries: Vec<(QueryId, AnnQuery)> = (0..3u32)
            .map(|i| {
                let pts: Vec<Point> = (0..rng.gen_range(2..=5))
                    .map(|_| Point::new(rng.gen(), rng.gen()))
                    .collect();
                (QueryId(i), AnnQuery::new(pts, f))
            })
            .collect();
        for (qid, q) in &queries {
            let _ = monitor.install_spec(*qid, q.clone(), 3).unwrap();
        }

        for _ in 0..15 {
            let tick = w.tick();
            monitor.process_cycle(&tick.object_events, &[]).unwrap();
            monitor.check_invariants();
            for (qid, q) in &queries {
                let mut expect: Vec<f64> = monitor
                    .grid()
                    .iter_objects()
                    .map(|(_, p)| q.adist(p))
                    .collect();
                expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
                expect.truncate(3);
                let got: Vec<f64> = monitor
                    .result(*qid)
                    .unwrap()
                    .iter()
                    .map(|n| n.dist)
                    .collect();
                assert_eq!(got.len(), expect.len());
                for (g, e) in got.iter().zip(&expect) {
                    assert!((g - e).abs() < 1e-9, "{f:?}: {got:?} vs {expect:?}");
                }
            }
        }
    }
}

#[test]
fn constrained_monitor_tracks_filtered_brute_force() {
    let mut w = workload(11);
    let mut monitor = server();
    monitor.populate(w.initial_objects()).unwrap();

    let zones = [
        Rect::new(Point::new(0.0, 0.0), Point::new(0.5, 0.5)),
        Rect::new(Point::new(0.4, 0.4), Point::new(0.9, 0.95)),
        Rect::new(Point::new(0.7, 0.05), Point::new(0.98, 0.4)),
    ];
    let queries: Vec<(QueryId, ConstrainedQuery)> = zones
        .iter()
        .enumerate()
        .map(|(i, &zone)| {
            // Query points deliberately near or outside their zones.
            let q = Point::new(0.5, 0.5);
            (QueryId(i as u32), ConstrainedQuery::new(q, zone))
        })
        .collect();
    for (qid, q) in &queries {
        let _ = monitor.install_spec(*qid, q.clone(), 2).unwrap();
    }

    for _ in 0..15 {
        let tick = w.tick();
        monitor.process_cycle(&tick.object_events, &[]).unwrap();
        monitor.check_invariants();
        for (qid, q) in &queries {
            let mut expect: Vec<f64> = monitor
                .grid()
                .iter_objects()
                .filter(|&(_, p)| q.region.contains(p))
                .map(|(_, p)| q.q.dist(p))
                .collect();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            expect.truncate(2);
            let got: Vec<f64> = monitor
                .result(*qid)
                .unwrap()
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(got.len(), expect.len(), "{qid}");
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn ann_query_set_updates_stay_correct() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    let mut w = workload(21);
    let mut monitor = server();
    monitor.populate(w.initial_objects()).unwrap();
    let qid = QueryId(0);
    let mut pts: Vec<Point> = (0..3).map(|_| Point::new(rng.gen(), rng.gen())).collect();
    let _ = monitor
        .install_spec(qid, AnnQuery::new(pts.clone(), AggregateFn::Sum), 2)
        .unwrap();

    for _ in 0..10 {
        let tick = w.tick();
        // Friends drift each tick: replace the query set.
        for p in pts.iter_mut() {
            *p = Point::new(
                (p.x + rng.gen_range(-0.05..0.05)).clamp(0.0, 0.999),
                (p.y + rng.gen_range(-0.05..0.05)).clamp(0.0, 0.999),
            );
        }
        let spec = AnnQuery::new(pts.clone(), AggregateFn::Sum);
        monitor
            .process_cycle(
                &tick.object_events,
                &[cpm_suite::core::SpecEvent::Update {
                    id: qid,
                    spec: spec.clone().into(),
                }],
            )
            .unwrap();
        monitor.check_invariants();
        let mut expect: Vec<f64> = monitor
            .grid()
            .iter_objects()
            .map(|(_, p)| spec.adist(p))
            .collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        expect.truncate(2);
        let got: Vec<f64> = monitor
            .result(qid)
            .unwrap()
            .iter()
            .map(|n| n.dist)
            .collect();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9);
        }
    }
}
