//! Failure injection and degenerate configurations: disappearance bursts,
//! mass teleports, single-cell pile-ups, workspace corners/edges,
//! malformed event batches and bulk loads — bad coordinates, repeated
//! ids, events that do not fit an object's liveness — rejected at the
//! unified server's ingest boundary and, with the same error, at the
//! cluster's router, and cluster configurations refused before any
//! worker starts.

use std::num::NonZeroUsize;

use cpm_suite::cluster::{duplex, ClusterConfig, ClusterCoordinator, ClusterError, Transport};
use cpm_suite::core::{
    AnnQuery, AnyQuerySpec, ConstrainedQuery, CpmError, CpmServer, CpmServerBuilder, CycleDeltas,
    DurableCpmServer, PointQuery, RangeQuery, Region, RnnQuery, Snapshot, SpecEvent,
};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::{ObjectEvent, QueryEvent};
use cpm_suite::sim::{run, AlgoKind, KnnMonitorAlgo, OracleMonitor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_all_match(
    monitors: &mut [Box<dyn KnnMonitorAlgo>],
    oracle: &OracleMonitor,
    queries: &[QueryId],
) {
    for qid in queries {
        let truth: Vec<f64> = oracle
            .result(*qid)
            .unwrap()
            .iter()
            .map(|n| n.dist)
            .collect();
        for m in monitors.iter() {
            let got: Vec<f64> = m.result(*qid).unwrap().iter().map(|n| n.dist).collect();
            assert_eq!(got.len(), truth.len(), "{} on {qid}", m.name());
            for (g, e) in got.iter().zip(&truth) {
                assert!((g - e).abs() < 1e-9, "{} on {qid}", m.name());
            }
        }
    }
}

fn harness(
    objects: &[(ObjectId, Point)],
    queries: &[(QueryId, Point, usize)],
) -> (Vec<Box<dyn KnnMonitorAlgo>>, OracleMonitor, Vec<QueryId>) {
    let mut monitors: Vec<Box<dyn KnnMonitorAlgo>> =
        AlgoKind::CONTENDERS.iter().map(|&a| a.build(32)).collect();
    let mut oracle = OracleMonitor::new();
    for m in monitors.iter_mut() {
        m.populate(objects);
    }
    oracle.populate(objects);
    for &(qid, p, k) in queries {
        for m in monitors.iter_mut() {
            m.install_query(qid, p, k);
        }
        oracle.install_query(qid, p, k);
    }
    let qids = queries.iter().map(|&(q, _, _)| q).collect();
    (monitors, oracle, qids)
}

fn step(
    monitors: &mut [Box<dyn KnnMonitorAlgo>],
    oracle: &mut OracleMonitor,
    obj: &[ObjectEvent],
    qry: &[QueryEvent],
) {
    for m in monitors.iter_mut() {
        m.process_cycle(obj, qry);
    }
    oracle.process_cycle(obj, qry);
}

#[test]
fn disappearance_burst_wipes_out_every_result_member() {
    let objects: Vec<(ObjectId, Point)> = (0..40u32)
        .map(|i| {
            let t = i as f64 / 40.0;
            (ObjectId(i), Point::new(0.3 + 0.4 * t, 0.5))
        })
        .collect();
    let queries = [(QueryId(0), Point::new(0.5, 0.5), 8)];
    let (mut monitors, mut oracle, qids) = harness(&objects, &queries);

    // Kill the 20 objects nearest the query in one batch.
    let mut by_dist: Vec<(f64, u32)> = objects
        .iter()
        .map(|&(id, p)| (p.dist(Point::new(0.5, 0.5)), id.0))
        .collect();
    by_dist.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let burst: Vec<ObjectEvent> = by_dist[..20]
        .iter()
        .map(|&(_, id)| ObjectEvent::Disappear { id: ObjectId(id) })
        .collect();
    step(&mut monitors, &mut oracle, &burst, &[]);
    assert_all_match(&mut monitors, &oracle, &qids);

    // And a second burst that drops the population below k.
    let burst2: Vec<ObjectEvent> = by_dist[20..35]
        .iter()
        .map(|&(_, id)| ObjectEvent::Disappear { id: ObjectId(id) })
        .collect();
    step(&mut monitors, &mut oracle, &burst2, &[]);
    assert_all_match(&mut monitors, &oracle, &qids);

    // Population recovers.
    let revive: Vec<ObjectEvent> = (100..130u32)
        .map(|id| ObjectEvent::Appear {
            id: ObjectId(id),
            pos: Point::new(0.45 + (id as f64 - 100.0) / 300.0, 0.52),
        })
        .collect();
    step(&mut monitors, &mut oracle, &revive, &[]);
    assert_all_match(&mut monitors, &oracle, &qids);
}

#[test]
fn mass_teleport_across_the_workspace() {
    let mut rng = StdRng::seed_from_u64(31337);
    let objects: Vec<(ObjectId, Point)> = (0..60u32)
        .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
        .collect();
    let queries = [
        (QueryId(0), Point::new(0.25, 0.25), 4),
        (QueryId(1), Point::new(0.75, 0.75), 4),
    ];
    let (mut monitors, mut oracle, qids) = harness(&objects, &queries);
    for _ in 0..5 {
        // Everybody teleports to a fresh uniform position at once.
        let burst: Vec<ObjectEvent> = (0..60u32)
            .map(|id| ObjectEvent::Move {
                id: ObjectId(id),
                to: Point::new(rng.gen(), rng.gen()),
            })
            .collect();
        step(&mut monitors, &mut oracle, &burst, &[]);
        assert_all_match(&mut monitors, &oracle, &qids);
    }
}

#[test]
fn single_cell_pileup_and_dispersal() {
    // All objects collapse into one cell, then scatter.
    let objects: Vec<(ObjectId, Point)> = (0..30u32)
        .map(|i| (ObjectId(i), Point::new(0.1 + 0.025 * i as f64, 0.8)))
        .collect();
    let queries = [(QueryId(0), Point::new(0.515, 0.515), 5)];
    let (mut monitors, mut oracle, qids) = harness(&objects, &queries);

    let collapse: Vec<ObjectEvent> = (0..30u32)
        .map(|id| ObjectEvent::Move {
            id: ObjectId(id),
            to: Point::new(0.51 + id as f64 * 1e-4, 0.51),
        })
        .collect();
    step(&mut monitors, &mut oracle, &collapse, &[]);
    assert_all_match(&mut monitors, &oracle, &qids);

    let scatter: Vec<ObjectEvent> = (0..30u32)
        .map(|id| ObjectEvent::Move {
            id: ObjectId(id),
            to: Point::new((id as f64 * 0.033) % 1.0, (id as f64 * 0.071) % 1.0),
        })
        .collect();
    step(&mut monitors, &mut oracle, &scatter, &[]);
    assert_all_match(&mut monitors, &oracle, &qids);
}

#[test]
fn queries_on_corners_edges_and_cell_boundaries() {
    let mut rng = StdRng::seed_from_u64(8);
    let objects: Vec<(ObjectId, Point)> = (0..50u32)
        .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
        .collect();
    // Corners, edges and exact cell-boundary coordinates of a 32-grid.
    let spots = [
        Point::new(0.0, 0.0),
        Point::new(0.999999, 0.999999),
        Point::new(0.0, 0.999999),
        Point::new(0.5, 0.0),
        Point::new(0.25, 0.25),   // exact cell corner (8/32, 8/32)
        Point::new(0.5, 0.71875), // exact cell edge x
    ];
    let queries: Vec<(QueryId, Point, usize)> = spots
        .iter()
        .enumerate()
        .map(|(i, &p)| (QueryId(i as u32), p, 3))
        .collect();
    let (mut monitors, mut oracle, qids) = harness(&objects, &queries);
    for _ in 0..6 {
        let mut burst = Vec::new();
        for id in 0..50u32 {
            if rng.gen_bool(0.4) {
                burst.push(ObjectEvent::Move {
                    id: ObjectId(id),
                    to: Point::new(rng.gen(), rng.gen()),
                });
            }
        }
        step(&mut monitors, &mut oracle, &burst, &[]);
        assert_all_match(&mut monitors, &oracle, &qids);
    }
}

/// A populated server with one k-NN query, for ingest-rejection tests.
fn small_server() -> CpmServer {
    let mut s = CpmServerBuilder::new(16)
        .threads(NonZeroUsize::new(2).unwrap())
        .build();
    s.populate((0..20u32).map(|i| (ObjectId(i), Point::new(f64::from(i) / 20.0, 0.5))))
        .unwrap();
    let _ = s
        .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 3)
        .unwrap();
    s
}

/// Malformed batches are rejected with typed errors *before* the cycle
/// runs: the epoch does not advance and results are untouched — poisoned
/// upstream data cannot corrupt (or crash) the server.
#[test]
fn server_rejects_malformed_event_batches_typed() {
    let mut s = small_server();
    let baseline = s.result(QueryId(0)).unwrap().to_vec();

    let cases: Vec<(ObjectEvent, CpmError)> = vec![
        (
            ObjectEvent::Move {
                id: ObjectId(3),
                to: Point::new(f64::NAN, 0.5),
            },
            CpmError::NonFiniteCoordinate(ObjectId(3)),
        ),
        (
            ObjectEvent::Appear {
                id: ObjectId(90),
                pos: Point::new(0.2, f64::INFINITY),
            },
            CpmError::NonFiniteCoordinate(ObjectId(90)),
        ),
        (
            ObjectEvent::Move {
                id: ObjectId(4),
                to: Point::new(7.3, -2.0),
            },
            CpmError::OutOfWorkspace(ObjectId(4)),
        ),
        (
            ObjectEvent::Appear {
                id: ObjectId(91),
                pos: Point::new(1.0000001, 0.5),
            },
            CpmError::OutOfWorkspace(ObjectId(91)),
        ),
    ];
    for (bad, want) in cases {
        let err = s.process_cycle(&[bad], &[]).unwrap_err();
        assert_eq!(err, want);
        assert!(!err.to_string().is_empty());
    }

    // Duplicate ids within one batch — even across event variants.
    let err = s
        .process_cycle(
            &[
                ObjectEvent::Move {
                    id: ObjectId(5),
                    to: Point::new(0.1, 0.1),
                },
                ObjectEvent::Disappear { id: ObjectId(5) },
            ],
            &[],
        )
        .unwrap_err();
    assert_eq!(err, CpmError::DuplicateObject(ObjectId(5)));

    // A bad event anywhere in the batch rejects the whole batch.
    let err = s
        .process_cycle(
            &[
                ObjectEvent::Move {
                    id: ObjectId(6),
                    to: Point::new(0.4, 0.4),
                },
                ObjectEvent::Move {
                    id: ObjectId(7),
                    to: Point::new(0.5, f64::NEG_INFINITY),
                },
            ],
            &[],
        )
        .unwrap_err();
    assert_eq!(err, CpmError::NonFiniteCoordinate(ObjectId(7)));

    // Nothing ran: epoch still 0, result untouched, invariants hold.
    assert_eq!(s.epoch(), 0);
    assert_eq!(s.result(QueryId(0)).unwrap(), baseline.as_slice());
    s.check_invariants();

    // The boundary coordinates themselves remain legal (closed unit
    // square; the grid clamps 1.0 into the last cell internally).
    let changed = s
        .process_cycle(
            &[
                ObjectEvent::Move {
                    id: ObjectId(8),
                    to: Point::new(0.0, 1.0),
                },
                ObjectEvent::Move {
                    id: ObjectId(9),
                    to: Point::new(1.0, 0.0),
                },
            ],
            &[],
        )
        .unwrap();
    assert_eq!(s.epoch(), 1);
    let _ = changed;
    s.check_invariants();
}

/// Objects 0–3 and one k-NN query: the state the liveness refusals
/// start from.
fn four_objects() -> CpmServer {
    let mut s = CpmServerBuilder::new(16)
        .threads(NonZeroUsize::new(2).unwrap())
        .build();
    s.populate((0..4u32).map(|i| (ObjectId(i), Point::new(0.2 + f64::from(i) / 10.0, 0.5))))
        .unwrap();
    let _ = s
        .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 2)
        .unwrap();
    s
}

/// `bad`, behind a valid move of object 0, is refused with `want` by the
/// server, the durable server and a two-worker cluster. The server's
/// state afterwards snapshots to the same bytes as before the batch, and
/// the durable server journals nothing.
fn assert_liveness_refusal(bad: ObjectEvent, want: CpmError) {
    let batch = [
        ObjectEvent::Move {
            id: ObjectId(0),
            to: Point::new(0.45, 0.55),
        },
        bad,
    ];
    let mut s = four_objects();
    let before = Snapshot::capture(&s, 0).to_frame();
    let err = s.process_cycle(&batch, &[]).unwrap_err();
    assert_eq!(err, want);
    assert!(!err.to_string().is_empty());
    assert!(Snapshot::capture(&s, 0).to_frame() == before, "state moved");
    s.check_invariants();

    let mut durable = DurableCpmServer::new(four_objects(), 0);
    assert_eq!(durable.process_cycle(&batch, &[]).unwrap_err(), want);
    assert!(
        durable.journal_bytes().is_empty(),
        "a refusal was journaled"
    );
    assert_eq!(durable.server().epoch(), 0);

    // The cluster's router refuses the same batch, with the same error.
    let (mut coord, handles) =
        ClusterCoordinator::spawn_in_process(ClusterConfig::new(16, 2)).unwrap();
    let appear = (0..4u32).map(|i| ObjectEvent::Appear {
        id: ObjectId(i),
        pos: Point::new(0.2 + f64::from(i) / 10.0, 0.5),
    });
    coord
        .process_cycle(&appear.collect::<Vec<_>>(), &[])
        .unwrap();
    let err = coord.process_cycle(&batch, &[]).unwrap_err();
    assert_eq!(err, ClusterError::Refused(want));
    coord.shutdown().unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// A move of an object that is not live is a lost appear upstream.
#[test]
fn server_refuses_a_move_of_an_off_line_object_typed() {
    let bad = ObjectEvent::Move {
        id: ObjectId(9),
        to: Point::new(0.5, 0.5),
    };
    assert_liveness_refusal(
        bad,
        CpmError::Liveness {
            id: ObjectId(9),
            live: false,
        },
    );
}

/// A disappear of an object that is not live is a replayed disappear.
#[test]
fn server_refuses_a_disappear_of_an_off_line_object_typed() {
    let bad = ObjectEvent::Disappear { id: ObjectId(9) };
    assert_liveness_refusal(
        bad,
        CpmError::Liveness {
            id: ObjectId(9),
            live: false,
        },
    );
}

/// An appear of an object that is already live is a replayed appear.
#[test]
fn server_refuses_an_appear_of_a_live_object_typed() {
    let bad = ObjectEvent::Appear {
        id: ObjectId(1),
        pos: Point::new(0.9, 0.9),
    };
    assert_liveness_refusal(
        bad,
        CpmError::Liveness {
            id: ObjectId(1),
            live: true,
        },
    );
}

/// Objects 0–3 and no query: the state the `populate` refusals start
/// from.
fn four_objects_before_installs() -> CpmServer {
    let mut s = CpmServerBuilder::new(16)
        .threads(NonZeroUsize::new(2).unwrap())
        .build();
    s.populate((0..4u32).map(|i| (ObjectId(i), Point::new(0.2 + f64::from(i) / 10.0, 0.5))))
        .unwrap();
    s
}

/// `populate(objects)` on `s` is refused with `want`, and nothing was
/// inserted: the grid holds the objects it held before, at the same
/// positions, and the server snapshots to the same bytes.
fn assert_populate_refusal(mut s: CpmServer, objects: &[(ObjectId, Point)], want: CpmError) {
    let grid = |s: &CpmServer| {
        let mut objects: Vec<(ObjectId, Point)> = s.grid().iter_objects().collect();
        objects.sort_unstable_by_key(|&(id, _)| id);
        objects
    };
    let (objects_before, frame_before) = (grid(&s), Snapshot::capture(&s, 0).to_frame());
    let err = s.populate(objects.iter().copied()).unwrap_err();
    assert_eq!(err, want);
    assert!(!err.to_string().is_empty());
    assert_eq!(grid(&s), objects_before, "the grid changed");
    assert!(
        Snapshot::capture(&s, 0).to_frame() == frame_before,
        "state moved"
    );
    s.check_invariants();
}

/// The valid object ahead of the offender is not inserted either: the
/// whole population is checked before any object is.
#[test]
fn populate_refuses_an_id_past_the_ceiling_typed() {
    let past = ObjectId(ObjectId::LIMIT);
    let objects = [
        (ObjectId(10), Point::new(0.5, 0.5)),
        (past, Point::new(0.5, 0.5)),
    ];
    assert_populate_refusal(
        four_objects_before_installs(),
        &objects,
        CpmError::ObjectIdOutOfRange(past),
    );
}

#[test]
fn populate_refuses_an_id_listed_twice_typed() {
    let objects = [
        (ObjectId(10), Point::new(0.1, 0.1)),
        (ObjectId(11), Point::new(0.2, 0.2)),
        (ObjectId(10), Point::new(0.3, 0.3)),
    ];
    assert_populate_refusal(
        four_objects_before_installs(),
        &objects,
        CpmError::DuplicateObject(ObjectId(10)),
    );
}

#[test]
fn populate_refuses_a_non_finite_coordinate_typed() {
    let objects = [
        (ObjectId(10), Point::new(0.5, 0.5)),
        (ObjectId(11), Point::new(f64::NAN, 0.5)),
    ];
    assert_populate_refusal(
        four_objects_before_installs(),
        &objects,
        CpmError::NonFiniteCoordinate(ObjectId(11)),
    );
}

/// The first offending object decides the error: the position outside
/// the workspace, not the repeat of its id behind it — which would have
/// made a bulk load that inserts before it checks panic.
#[test]
fn populate_refuses_a_position_outside_the_workspace_typed() {
    let objects = [
        (ObjectId(10), Point::new(1.5, 0.5)),
        (ObjectId(10), Point::new(0.5, 0.5)),
    ];
    assert_populate_refusal(
        four_objects_before_installs(),
        &objects,
        CpmError::OutOfWorkspace(ObjectId(10)),
    );
}

/// A bulk load is a batch of appears: an object that is already live
/// cannot appear again.
#[test]
fn populate_refuses_an_object_already_live_typed() {
    let objects = [
        (ObjectId(10), Point::new(0.5, 0.5)),
        (ObjectId(2), Point::new(0.9, 0.9)),
    ];
    assert_populate_refusal(
        four_objects_before_installs(),
        &objects,
        CpmError::Liveness {
            id: ObjectId(2),
            live: true,
        },
    );
}

/// Objects arrive through cycles once a query is installed.
#[test]
fn populate_after_an_install_is_refused_typed() {
    let objects = [(ObjectId(10), Point::new(0.5, 0.5))];
    assert_populate_refusal(four_objects(), &objects, CpmError::PopulateAfterInstall);
}

/// One query geometry per kind whose numbers no search can use: a NaN or
/// infinite point, corner or centre, and a negative radius.
fn non_finite_specs() -> Vec<AnyQuerySpec> {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let unit = cpm_suite::geom::Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
    let circle = |center, radius| RangeQuery {
        region: Region::Circle { center, radius },
    };
    vec![
        PointQuery(Point::new(nan, 0.5)).into(),
        PointQuery(Point::new(inf, 0.5)).into(),
        circle(Point::new(0.5, -inf), 0.1).into(),
        circle(Point::new(0.5, 0.5), -0.25).into(),
        circle(Point::new(0.5, 0.5), inf).into(),
        AnnQuery::new(
            vec![Point::new(0.2, 0.2), Point::new(nan, nan)],
            cpm_suite::core::AggregateFn::Sum,
        )
        .into(),
        ConstrainedQuery::new(Point::new(0.5, nan), unit).into(),
    ]
}

/// A NaN or infinite query geometry is refused, typed, by the direct, the
/// batched and the durable surface before any state changes: nothing is
/// installed, moved or journaled, the epoch stays, and the engine's
/// invariants hold (an accepted NaN query used to break them).
#[test]
fn server_refuses_non_finite_query_geometry_typed() {
    let bad_point = Point::new(f64::NAN, 0.5);
    let mut s = small_server();
    let _ = s.install_rnn(QueryId(1), Point::new(0.3, 0.6)).unwrap();
    let baseline = s.result(QueryId(0)).unwrap().to_vec();
    let refused = |id| CpmError::NonFiniteQuery(QueryId(id));

    for spec in non_finite_specs() {
        assert_eq!(
            s.install_spec(QueryId(7), spec.clone(), 4).unwrap_err(),
            refused(7)
        );
        let install = SpecEvent::Install {
            id: QueryId(7),
            spec,
            k: 4,
        };
        assert_eq!(s.process_cycle(&[], &[install]).unwrap_err(), refused(7));
    }
    let moved = PointQuery(Point::new(0.5, f64::NEG_INFINITY));
    assert_eq!(s.update_spec(QueryId(0), moved).unwrap_err(), refused(0));
    let update = SpecEvent::Update {
        id: QueryId(0),
        spec: moved.into(),
    };
    assert_eq!(s.process_cycle(&[], &[update]).unwrap_err(), refused(0));
    assert_eq!(
        s.install_rnn(QueryId(8), bad_point).unwrap_err(),
        refused(8)
    );
    assert_eq!(s.update_rnn(QueryId(1), bad_point).unwrap_err(), refused(1));

    assert_eq!(s.epoch(), 0);
    assert_eq!(s.query_count(), 2);
    assert_eq!(s.result(QueryId(0)).unwrap(), baseline.as_slice());
    s.check_invariants();

    let mut durable = DurableCpmServer::new(s, 0);
    for spec in non_finite_specs() {
        assert_eq!(
            durable.install_spec(QueryId(7), spec, 4).unwrap_err(),
            refused(7)
        );
    }
    assert_eq!(
        durable.update_spec(QueryId(0), moved).unwrap_err(),
        refused(0)
    );
    assert_eq!(
        durable.install_rnn(QueryId(8), bad_point).unwrap_err(),
        refused(8)
    );
    assert_eq!(
        durable.update_rnn(QueryId(1), bad_point).unwrap_err(),
        refused(1)
    );
    let update = SpecEvent::Update {
        id: QueryId(0),
        spec: moved.into(),
    };
    assert_eq!(
        durable.process_cycle(&[], &[update]).unwrap_err(),
        refused(0)
    );
    assert!(
        durable.journal_bytes().is_empty(),
        "a refusal was journaled"
    );
    assert_eq!((durable.watermark(), durable.server().epoch()), (0, 0));
    durable.server().check_invariants();
}

/// Every query input the direct calls refuse, on a server holding a
/// k-NN query 0, a reverse-NN registration 1 and a range query 2: the
/// direct call (`install_spec`, `update_spec`, `terminate`) and the same
/// input as a one-event batch return the same [`CpmError`] — one answer
/// per input — and neither changes anything.
#[test]
fn direct_calls_and_one_event_batches_refuse_alike_typed() {
    let mut s = small_server();
    let _ = s.install_rnn(QueryId(1), Point::new(0.3, 0.6)).unwrap();
    let whole = cpm_suite::geom::Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
    let _ = s
        .install_spec(QueryId(2), RangeQuery::rect(whole), 1)
        .unwrap();
    let p = Point::new(0.3, 0.5);
    let knn = AnyQuerySpec::Knn(PointQuery(p));
    let sector = AnyQuerySpec::Rnn(RnnQuery::new(p, 0));
    let nan = AnyQuerySpec::Knn(PointQuery(Point::new(f64::NAN, 0.5)));
    let install = |id, spec: &AnyQuerySpec, k| SpecEvent::Install {
        id: QueryId(id),
        spec: spec.clone(),
        k,
    };
    let update = |id, spec: &AnyQuerySpec| SpecEvent::Update {
        id: QueryId(id),
        spec: spec.clone(),
    };
    let inputs = [
        ("install of a reserved id", install(1 << 31, &knn, 1)),
        ("install of an installed id", install(0, &knn, 1)),
        (
            "install of a reverse-NN registration's id",
            install(1, &knn, 1),
        ),
        ("install with k = 0", install(5, &knn, 0)),
        ("install at a NaN point", install(5, &nan, 1)),
        (
            "install of a reverse-NN sector spec",
            install(5, &sector, 1),
        ),
        ("update of an unknown query", update(9, &knn)),
        (
            "update of a k-NN query with a range spec",
            update(0, &RangeQuery::rect(whole).into()),
        ),
        ("update of a range query with a k-NN spec", update(2, &knn)),
        (
            "update of a k-NN query with a sector spec",
            update(0, &sector),
        ),
        ("update of a reverse-NN registration", update(1, &knn)),
        (
            "update of a reverse-NN registration with a sector",
            update(1, &sector),
        ),
        ("update to a NaN point", update(0, &nan)),
        (
            "terminate of an unknown query",
            SpecEvent::Terminate { id: QueryId(9) },
        ),
    ];
    let before: Vec<_> = [0, 2]
        .map(|id| s.result(QueryId(id)).unwrap().to_vec())
        .into();
    for (what, ev) in inputs {
        let direct = match ev.clone() {
            SpecEvent::Install { id, spec, k } => s.install_spec(id, spec, k).map(drop),
            SpecEvent::Update { id, spec } => s.update_spec(id, spec).map(drop),
            SpecEvent::Terminate { id } => s.terminate(id),
        };
        let direct = direct.expect_err(what);
        let batched = s.process_cycle(&[], &[ev]).expect_err(what);
        assert_eq!(direct, batched, "{what}");
    }
    let after: Vec<_> = [0, 2]
        .map(|id| s.result(QueryId(id)).unwrap().to_vec())
        .into();
    assert_eq!((s.epoch(), s.query_count()), (0, 3));
    assert_eq!(after, before);
    s.check_invariants();
}

/// A cluster configuration that cannot be partitioned — fewer grid
/// columns than workers, no worker, a grid past the dimension ceiling —
/// is refused typed by every setup call, before a worker thread starts
/// or a frame is sent (`connect`'s links lead nowhere, so a handshake
/// would fail as a transport error), and so is a link count that does
/// not match the worker count.
#[test]
fn unpartitionable_cluster_configs_are_refused_typed() {
    let invalid = |err: ClusterError| matches!(err, ClusterError::InvalidConfig { .. });
    for config in [
        ClusterConfig::new(2, 4),
        ClusterConfig::new(16, 0),
        ClusterConfig::new(5000, 2),
    ] {
        let spawned = ClusterCoordinator::spawn_in_process(config).map(|_| ());
        assert!(spawned.is_err_and(invalid), "{config:?} in process");
        let spawned = ClusterCoordinator::spawn_tcp_loopback(config).map(|_| ());
        assert!(spawned.is_err_and(invalid), "{config:?} over TCP");
        let links = (0..config.workers).map(|_| duplex().0).collect();
        let connected = ClusterCoordinator::connect(config, links).map(|_| ());
        assert!(connected.is_err_and(invalid), "{config:?} connected");
    }
    let connected = ClusterCoordinator::connect(ClusterConfig::new(16, 2), vec![duplex().0]);
    assert!(connected.map(|_| ()).is_err_and(invalid));
}

/// One cycle's two batches.
type Batch = (Vec<ObjectEvent>, Vec<SpecEvent<AnyQuerySpec>>);

/// Batches the single node refuses typed, with what each breaks, for 20
/// live objects (ids 0–19), a k-NN query 1 and a range query 2.
fn batches_the_server_refuses() -> Vec<(&'static str, Batch)> {
    let p = Point::new(0.3, 0.5);
    let knn = |id: u32, at: Point, k: usize| SpecEvent::Install {
        id: QueryId(id),
        spec: AnyQuerySpec::Knn(PointQuery(at)),
        k,
    };
    let mv = |id: u32, to: Point| ObjectEvent::Move {
        id: ObjectId(id),
        to,
    };
    let objects = |events: Vec<ObjectEvent>| (events, vec![]);
    let queries = |events: Vec<SpecEvent<AnyQuerySpec>>| (vec![], events);
    vec![
        ("two moves of one object", objects(vec![mv(3, p), mv(3, p)])),
        (
            "install and terminate of one query",
            queries(vec![knn(5, p, 1), SpecEvent::Terminate { id: QueryId(5) }]),
        ),
        ("install with k = 0", queries(vec![knn(5, p, 0)])),
        (
            "k-NN install at a NaN point",
            queries(vec![knn(5, Point::new(f64::NAN, 0.5), 1)]),
        ),
        (
            "install of a reserved id",
            queries(vec![knn(1 << 31, p, 1)]),
        ),
        (
            "update of a range query with a k-NN spec",
            queries(vec![SpecEvent::Update {
                id: QueryId(2),
                spec: AnyQuerySpec::Knn(PointQuery(p)),
            }]),
        ),
        ("move of an off-line object", objects(vec![mv(40, p)])),
        (
            "disappear of an off-line object",
            objects(vec![ObjectEvent::Disappear { id: ObjectId(40) }]),
        ),
        (
            "appear of a live object",
            objects(vec![ObjectEvent::Appear {
                id: ObjectId(3),
                pos: p,
            }]),
        ),
        (
            "a NaN position",
            objects(vec![mv(3, Point::new(0.5, f64::NAN))]),
        ),
        (
            "a position outside the workspace",
            objects(vec![mv(3, Point::new(1.25, 0.5))]),
        ),
        (
            "an id at the ceiling",
            objects(vec![ObjectEvent::Appear {
                id: ObjectId(ObjectId::LIMIT),
                pos: p,
            }]),
        ),
        (
            "update of an unknown query",
            queries(vec![SpecEvent::Update {
                id: QueryId(9),
                spec: AnyQuerySpec::Knn(PointQuery(p)),
            }]),
        ),
        (
            "terminate of an unknown query",
            queries(vec![SpecEvent::Terminate { id: QueryId(9) }]),
        ),
        ("install of an installed id", queries(vec![knn(1, p, 1)])),
        (
            "install of a reverse-NN sector spec",
            queries(vec![SpecEvent::Install {
                id: QueryId(5),
                spec: AnyQuerySpec::Rnn(RnnQuery::new(p, 0)),
                k: 1,
            }]),
        ),
        (
            "a bad object event and a bad query event",
            (
                vec![mv(40, p)],
                vec![SpecEvent::Terminate { id: QueryId(9) }],
            ),
        ),
    ]
}

/// What a refusal must leave as it was.
fn router_state<T: Transport>(
    coord: &ClusterCoordinator<T>,
) -> (u64, u64, usize, Vec<Option<usize>>) {
    let owners = [1, 2, 5, 9, 1 << 31].map(|q| coord.owner(QueryId(q)));
    (
        coord.epoch(),
        coord.in_flight(),
        coord.objects(),
        owners.to_vec(),
    )
}

/// The cluster's router keeps the single node's rules: every batch the
/// server refuses typed, `process_cycle` and `submit_cycle` refuse with
/// the server's own error, before anything is changed or sent — with an
/// epoch in flight too — and the next valid cycle's merged batch is the
/// single node's.
#[test]
fn cluster_refuses_every_batch_the_server_refuses_typed() {
    let dim = 32;
    let mut single = CpmServerBuilder::new(dim)
        .threads(NonZeroUsize::MIN)
        .deltas(true)
        .build();
    let (mut coord, handles) =
        ClusterCoordinator::spawn_in_process(ClusterConfig::new(dim, 2)).unwrap();
    let at = |i: u32| Point::new(f64::from(i % 10).mul_add(0.09, 0.05), 0.5);
    let appear: Vec<ObjectEvent> = (0..20)
        .map(|i| ObjectEvent::Appear {
            id: ObjectId(i),
            pos: at(i),
        })
        .collect();
    let install = vec![
        SpecEvent::Install {
            id: QueryId(1),
            spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.25, 0.5))),
            k: 2,
        },
        SpecEvent::Install {
            id: QueryId(2),
            spec: AnyQuerySpec::Range(RangeQuery::circle(Point::new(0.7, 0.5), 0.1)),
            k: 1,
        },
    ];
    let mut want = CycleDeltas::default();
    let mut step = 0u32;
    // A valid one-move cycle, run on the single node; returns its batch.
    let mut valid = |single: &mut CpmServer, want: &mut CycleDeltas| {
        step += 1;
        let objects = vec![ObjectEvent::Move {
            id: ObjectId(step % 20),
            to: at(step * 7),
        }];
        single
            .process_cycle_with_deltas_into(&objects, &[], want)
            .unwrap();
        objects
    };
    for (objects, queries) in [(appear, vec![]), (vec![], install)] {
        single
            .process_cycle_with_deltas_into(&objects, &queries, &mut want)
            .unwrap();
        assert_eq!(coord.process_cycle(&objects, &queries).unwrap(), want);
    }
    let mut scratch = CycleDeltas::default();
    for (what, (objects, queries)) in batches_the_server_refuses() {
        let epoch = single.epoch();
        let err = single
            .process_cycle_with_deltas_into(&objects, &queries, &mut scratch)
            .unwrap_err();
        assert_eq!(single.epoch(), epoch, "{what}");
        let refused = Some(ClusterError::Refused(err));

        let before = router_state(&coord);
        assert_eq!(
            coord.process_cycle(&objects, &queries).err(),
            refused,
            "{what}"
        );
        assert_eq!(router_state(&coord), before, "{what}");

        // The next valid cycle, left in flight, and the same batch again.
        let next = valid(&mut single, &mut want);
        assert_eq!(coord.submit_cycle(&next, &[]), Ok(None), "{what}");
        let before = router_state(&coord);
        assert_eq!(before.1, 1);
        assert_eq!(
            coord.submit_cycle(&objects, &queries).err(),
            refused,
            "{what}"
        );
        assert_eq!(router_state(&coord), before, "{what}");
        let flushed = coord.flush().unwrap();
        assert_eq!(flushed, vec![want.clone()], "{what}");

        // And the valid cycle after that refusal.
        let next = valid(&mut single, &mut want);
        assert_eq!(coord.process_cycle(&next, &[]).unwrap(), want, "{what}");
    }
    coord.shutdown().unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// A range install ignores its `k`, so the server accepts `k = 0` for
/// one — and so must every path that carries the batch: the durable
/// journal recovers it, and the cluster runs it and the cycle after it
/// as the single node does.
#[test]
fn a_range_install_with_k_0_runs_on_every_path() {
    let install = SpecEvent::Install {
        id: QueryId(5),
        spec: AnyQuerySpec::Range(RangeQuery::circle(Point::new(0.75, 0.5), 0.1)),
        k: 0,
    };
    let appear = [ObjectEvent::Appear {
        id: ObjectId(1),
        pos: Point::new(0.78, 0.5),
    }];
    let batches = [(&[][..], vec![install]), (&appear[..], vec![])];

    let server = || {
        CpmServerBuilder::new(16)
            .threads(NonZeroUsize::MIN)
            .deltas(true)
            .build()
    };
    let mut durable = DurableCpmServer::new(server(), 0);
    let (mut coord, handles) =
        ClusterCoordinator::spawn_in_process(ClusterConfig::new(16, 2)).unwrap();
    let mut want = CycleDeltas::default();
    for (objects, queries) in &batches {
        durable
            .process_cycle_with_deltas_into(objects, queries, &mut want)
            .unwrap();
        assert_eq!(coord.process_cycle(objects, queries).unwrap(), want);
    }
    assert_eq!(durable.server().result(QueryId(5)).unwrap().len(), 1);
    let (recovered, _) =
        DurableCpmServer::recover(durable.snapshot_bytes(), durable.journal_bytes(), 0).unwrap();
    assert_eq!(
        recovered.server().result(QueryId(5)),
        durable.server().result(QueryId(5))
    );
    coord.shutdown().unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

#[test]
fn wall_time_reports_are_monotone_in_workload() {
    // Sanity for the harness itself: more work -> more measured time.
    use cpm_suite::sim::{SimParams, SimulationInput, WorkloadKind};
    let small = SimulationInput::generate(&SimParams {
        n_objects: 300,
        n_queries: 10,
        timestamps: 8,
        grid_dim: 32,
        workload: WorkloadKind::Uniform,
        ..SimParams::default()
    });
    let big = SimulationInput::generate(&SimParams {
        n_objects: 3_000,
        n_queries: 100,
        timestamps: 8,
        grid_dim: 32,
        workload: WorkloadKind::Uniform,
        ..SimParams::default()
    });
    let a = run(AlgoKind::Cpm, &small);
    let b = run(AlgoKind::Cpm, &big);
    assert!(b.metrics.updates_applied > a.metrics.updates_applied);
    assert!(b.metrics.cell_accesses >= a.metrics.cell_accesses);
}
