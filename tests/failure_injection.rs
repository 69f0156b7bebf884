//! Failure injection and degenerate configurations: disappearance bursts,
//! mass teleports, single-cell pile-ups, workspace corners/edges,
//! malformed event batches — bad coordinates, repeated ids, events that
//! do not fit an object's liveness — rejected at the unified server's
//! ingest boundary, and cluster configurations refused before any worker
//! starts.

use std::num::NonZeroUsize;

use cpm_suite::cluster::{duplex, ClusterConfig, ClusterCoordinator, ClusterError};
use cpm_suite::core::{
    AnnQuery, AnyQuerySpec, ConstrainedQuery, CpmError, CpmServer, CpmServerBuilder,
    DurableCpmServer, PointQuery, RangeQuery, Region, Snapshot, SpecEvent,
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
    s.populate((0..20u32).map(|i| (ObjectId(i), Point::new(f64::from(i) / 20.0, 0.5))));
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
    s.populate((0..4u32).map(|i| (ObjectId(i), Point::new(0.2 + f64::from(i) / 10.0, 0.5))));
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

    // The cluster's router refuses the same batch.
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
    assert!(matches!(err, ClusterError::Protocol { .. }), "{err}");
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
