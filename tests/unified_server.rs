//! Mixed-kind conformance for the unified [`CpmServer`] facade: one
//! server hosting k-NN, range, aggregate-NN, constrained and reverse-NN
//! queries on **one grid with one ingest pass per cycle** (unified
//! `AnyQuerySpec` dispatch) must be bit-identical to dedicated
//! single-query servers, one per kind, and correct against brute-force
//! oracles — for thread counts T ∈ {1, 4}, with moving queries and
//! mid-stream install/terminate.
//!
//! [`CpmServer`]: cpm_suite::core::CpmServer

mod common;

use std::num::NonZeroUsize;

use common::thread_lanes;
use cpm_suite::core::{
    AggregateFn, AnnQuery, AnyQuerySpec, ConstrainedQuery, CpmError, CpmServer, CpmServerBuilder,
    PointQuery, RangeQuery, SpecEvent,
};
use cpm_suite::geom::{ObjectId, Point, QueryId, Rect};
use cpm_suite::grid::{ObjectEvent, QueryKind};
use cpm_suite::sim::{verify, Anchors, OpStream};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// A dedicated server hosting one query.
fn dedicated(
    dim: u32,
    threads: usize,
    objects: &[(ObjectId, Point)],
    id: QueryId,
    spec: impl Into<AnyQuerySpec>,
    k: usize,
) -> CpmServer {
    let mut e = CpmServerBuilder::new(dim)
        .threads(NonZeroUsize::new(threads).unwrap())
        .build();
    e.populate(objects.iter().copied());
    let _ = e.install_spec(id, spec, k).unwrap();
    e
}

/// The full harness sweep: one server hosting every kind vs brute force,
/// with object churn, moving queries and mid-stream install/terminate of
/// every kind, at T ∈ {1, 4}. (Bit-identity to the dedicated
/// single-query servers is `server_results_match_dedicated_engines`
/// below.)
#[test]
fn unified_server_matches_dedicated_engines_and_oracles() {
    let stream = OpStream::mixed(0x0CF5, 90, 30, Anchors::Free);
    verify(&stream, &thread_lanes(&THREAD_COUNTS));
}

/// A denser grid and larger population, fewer cycles (CI budget).
#[test]
fn unified_server_conformance_on_fine_grid() {
    let stream = OpStream::mixed(0x0CF5, 220, 12, Anchors::Free).dim(64);
    verify(&stream, &thread_lanes(&THREAD_COUNTS));
}

/// The acceptance criterion, asserted via metrics: a cycle over a server
/// hosting every kind performs exactly one `apply_events` pass — not one
/// per kind. (The harness asserts it on every single-node lane, too.)
#[test]
fn one_cycle_one_ingest_regardless_of_kind_count() {
    for threads in THREAD_COUNTS {
        let mut server = CpmServerBuilder::new(32)
            .threads(NonZeroUsize::new(threads).unwrap())
            .build();
        let objects: Vec<(ObjectId, Point)> = (0..200u32)
            .map(|i| {
                let t = i as f64 / 200.0;
                (ObjectId(i), Point::new(t, (t * 13.0) % 1.0))
            })
            .collect();
        server.populate(objects.iter().copied());
        let _ = server
            .install_spec(QueryId(0), PointQuery(Point::new(0.4, 0.4)), 4)
            .unwrap();
        let zone = RangeQuery::rect(Rect::new(Point::new(0.1, 0.1), Point::new(0.5, 0.5)));
        let _ = server
            .install_spec(QueryId(1), zone, RangeQuery::UNBOUNDED_K)
            .unwrap();
        let _ = server
            .install_spec(
                QueryId(2),
                ConstrainedQuery::northeast_of(Point::new(0.5, 0.5)),
                4,
            )
            .unwrap();
        let _ = server
            .install_spec(
                QueryId(3),
                AnnQuery::new(
                    vec![Point::new(0.2, 0.8), Point::new(0.7, 0.2)],
                    AggregateFn::Max,
                ),
                2,
            )
            .unwrap();
        let _ = server
            .install_rnn(QueryId(4), Point::new(0.6, 0.6))
            .unwrap();
        server.take_metrics();

        let events: Vec<ObjectEvent> = (0..50u32)
            .map(|i| ObjectEvent::Move {
                id: ObjectId(i * 4),
                to: Point::new((i as f64 * 0.019) % 1.0, (i as f64 * 0.037) % 1.0),
            })
            .collect();
        server.process_cycle(&events, &[]).unwrap();
        let unified = server.take_metrics();
        assert_eq!(
            unified.updates_applied,
            events.len() as u64,
            "one server cycle must ingest the batch exactly once (threads={threads})"
        );
    }
}

/// Server results must be bit-identical to dedicated single-query
/// servers on a shared random stream, and its changed list the union of
/// theirs.
#[test]
fn server_results_match_dedicated_engines() {
    let mut rng = StdRng::seed_from_u64(0x0DD);
    for threads in THREAD_COUNTS {
        let objects: Vec<(ObjectId, Point)> = (0..70u32)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        let mut server = CpmServerBuilder::new(16)
            .threads(NonZeroUsize::new(threads).unwrap())
            .build();
        server.populate(objects.iter().copied());

        let knn_q = PointQuery(Point::new(0.35, 0.65));
        let _ = server.install_spec(QueryId(0), knn_q, 5).unwrap();
        let mut knn = dedicated(16, threads, &objects, QueryId(0), knn_q, 5);
        let range_q = RangeQuery::circle(Point::new(0.5, 0.5), 0.25);
        let _ = server
            .install_spec(QueryId(1), range_q, RangeQuery::UNBOUNDED_K)
            .unwrap();
        let mut range = dedicated(
            16,
            threads,
            &objects,
            QueryId(1),
            range_q,
            RangeQuery::UNBOUNDED_K,
        );
        let ann_q = AnnQuery::new(
            vec![Point::new(0.2, 0.2), Point::new(0.8, 0.6)],
            AggregateFn::Sum,
        );
        let _ = server.install_spec(QueryId(2), ann_q.clone(), 3).unwrap();
        let mut ann = dedicated(16, threads, &objects, QueryId(2), ann_q, 3);
        let con_q = ConstrainedQuery::new(
            Point::new(0.5, 0.5),
            Rect::new(Point::new(0.4, 0.0), Point::new(1.0, 0.6)),
        );
        let _ = server.install_spec(QueryId(3), con_q.clone(), 3).unwrap();
        let mut con = dedicated(16, threads, &objects, QueryId(3), con_q, 3);

        for _cycle in 0..25 {
            let mut events = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.gen_range(1..10) {
                let id = rng.gen_range(0..70u32);
                if seen.insert(id) {
                    events.push(ObjectEvent::Move {
                        id: ObjectId(id),
                        to: Point::new(rng.gen(), rng.gen()),
                    });
                }
            }
            let changed = server.process_cycle(&events, &[]).unwrap();
            let mut dedicated = Vec::new();
            for one in [&mut knn, &mut range, &mut ann, &mut con] {
                dedicated.extend(one.process_cycle(&events, &[]).unwrap());
            }
            assert_eq!(changed, dedicated, "changed lists (threads={threads})");
            assert_eq!(
                server.result(QueryId(0)).unwrap(),
                knn.result(QueryId(0)).unwrap(),
                "k-NN diverged (threads={threads})"
            );
            assert_eq!(
                server.result(QueryId(1)).unwrap(),
                range.result(QueryId(1)).unwrap(),
                "range diverged (threads={threads})"
            );
            assert_eq!(
                server.result(QueryId(2)).unwrap(),
                ann.result(QueryId(2)).unwrap(),
                "ANN diverged (threads={threads})"
            );
            assert_eq!(
                server.result(QueryId(3)).unwrap(),
                con.result(QueryId(3)).unwrap(),
                "constrained diverged (threads={threads})"
            );
            server.check_invariants();
        }
    }
}

/// The registry records each id's kind and reports confusion as typed
/// errors; the changed list reflects mid-stream install/terminate.
#[test]
fn registry_errors_and_midstream_churn() {
    let mut server = CpmServerBuilder::new(16)
        .threads(NonZeroUsize::new(4).unwrap())
        .build();
    server.populate((0..50u32).map(|i| (ObjectId(i), Point::new(i as f64 / 50.0, 0.5))));
    let installed = server
        .install_spec(QueryId(0), PointQuery(Point::new(0.1, 0.5)), 3)
        .unwrap();
    assert_eq!(installed.len(), 3);
    assert_eq!(server.kind_of(QueryId(0)), Some(QueryKind::Knn));

    // Mid-stream install + terminate through the event batch.
    let changed = server
        .process_cycle(
            &[],
            &[SpecEvent::Install {
                id: QueryId(1),
                spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.9, 0.5))),
                k: 2,
            }],
        )
        .unwrap();
    assert_eq!(changed, vec![QueryId(1)]);
    assert_eq!(server.query_count(), 2);
    let changed = server
        .process_cycle(&[], &[SpecEvent::Terminate { id: QueryId(1) }])
        .unwrap();
    assert!(changed.is_empty());
    assert_eq!(server.query_count(), 1);
    assert_eq!(
        server.process_cycle(&[], &[SpecEvent::Terminate { id: QueryId(1) }]),
        Err(CpmError::UnknownQuery(QueryId(1)))
    );

    // One event per query per batch — a subscriber that moves twice in a
    // cycle is a typed refusal, and the cycle did not run.
    let moved = |x| SpecEvent::Update {
        id: QueryId(0),
        spec: AnyQuerySpec::Knn(PointQuery(Point::new(x, 0.5))),
    };
    assert_eq!(
        server.process_cycle(&[], &[moved(0.2), moved(0.3)]),
        Err(CpmError::DuplicateQuery(QueryId(0)))
    );

    // Kind confusion, by id.
    assert_eq!(
        server.update_spec(QueryId(0), RangeQuery::circle(Point::new(0.5, 0.5), 0.1)),
        Err(CpmError::KindMismatch {
            id: QueryId(0),
            expected: QueryKind::Range,
            actual: QueryKind::Knn,
        })
    );
    assert_eq!(
        server.update_rnn(QueryId(0), Point::new(0.5, 0.5)),
        Err(CpmError::KindMismatch {
            id: QueryId(0),
            expected: QueryKind::Rnn,
            actual: QueryKind::Knn,
        })
    );

    // A resolution out of `1..=4096` is the only one refused, typed, by
    // the builder and by a re-grid alike; the grid stays as it was.
    for dim in [0, 4097] {
        let built = CpmServerBuilder::new(dim).try_build();
        assert!(matches!(built, Err(CpmError::InvalidDim(e)) if e.dim == dim));
        let refused = server.regrid_to(dim);
        assert!(matches!(refused, Err(CpmError::InvalidDim(e)) if e.dim == dim));
    }
    assert_eq!(server.grid().dim(), 16);
    assert_eq!(server.regrid_to(48), Ok(50));
    assert_eq!(server.grid().dim(), 48);
    server.check_invariants();
}

/// Mixed-kind deltas fold to the authoritative results (the harness does
/// this for every lane through a fan-out; this is the delta cycle, bare).
#[test]
fn unified_delta_cycles_fold_losslessly() {
    use cpm_suite::core::CycleDeltas;
    use cpm_suite::sub::Replica;
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    for threads in THREAD_COUNTS {
        let mut server = CpmServerBuilder::new(16)
            .threads(NonZeroUsize::new(threads).unwrap())
            .deltas(true)
            .build();
        server.populate((0..40u32).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
        let mut out = CycleDeltas::default();
        server
            .process_cycle_with_deltas_into(
                &[],
                &[
                    SpecEvent::Install {
                        id: QueryId(0),
                        spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.3, 0.3))),
                        k: 4,
                    },
                    SpecEvent::Install {
                        id: QueryId(1),
                        spec: AnyQuerySpec::Range(RangeQuery::circle(Point::new(0.6, 0.6), 0.3)),
                        k: 1,
                    },
                ],
                &mut out,
            )
            .unwrap();
        let mut replicas = [Replica::new(), Replica::new()];
        for (qid, delta) in &out.deltas {
            replicas[qid.0 as usize].apply(delta);
        }
        for _ in 0..15 {
            let mut ids: Vec<u32> = (0..6).map(|_| rng.gen_range(0..40)).collect();
            ids.sort_unstable();
            ids.dedup();
            let moved = |id| ObjectEvent::Move {
                id: ObjectId(id),
                to: Point::new(rng.gen(), rng.gen()),
            };
            let events: Vec<ObjectEvent> = ids.into_iter().map(moved).collect();
            server
                .process_cycle_with_deltas_into(&events, &[], &mut out)
                .unwrap();
            for (qid, delta) in &out.deltas {
                replicas[qid.0 as usize].apply(delta);
            }
            for (i, replica) in replicas.iter().enumerate() {
                assert_eq!(
                    replica.result(),
                    server.result(QueryId(i as u32)).unwrap(),
                    "replica {i} diverged (threads={threads})"
                );
            }
        }
        server.check_invariants();
    }
}
