//! Property-based integration test: arbitrary event streams (moves,
//! appearances, disappearances, query moves) must keep CPM in exact
//! agreement with the brute-force oracle, with all internal invariants
//! intact at every step.
//!
//! A batch may name one object several times — move twice, disappear and
//! re-appear, appear and then move. `CpmServer` rejects such batches, the
//! trusting engine applies them in order, and they are the only inputs
//! for which the order update handling visits a query's events in could
//! matter: it decides `InList` eviction, the "an incomer left again" flag
//! and which in-place mutation is the first (the cycle-start copy the
//! delta is taken against is made just before it).

use std::num::NonZeroUsize;

use cpm_suite::core::{CycleDeltas, PointQuery, ShardedCpmEngine, SpecEvent};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::{Metrics, ObjectEvent, QueryEvent};
use cpm_suite::sim::{KnnMonitorAlgo, OracleMonitor};
use cpm_suite::sub::Replica;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// A symbolic event the strategy generates; resolved against the set of
/// live objects when applied (so streams are always consistent).
#[derive(Debug, Clone)]
enum Action {
    MoveObject {
        slot: usize,
        x: f64,
        y: f64,
    },
    /// A new object, or (even `revive`) one that disappeared earlier —
    /// possibly earlier in the same batch.
    AppearObject {
        revive: usize,
        x: f64,
        y: f64,
    },
    DisappearObject {
        slot: usize,
    },
    MoveQuery {
        slot: usize,
        x: f64,
        y: f64,
    },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        5 => (any::<usize>(), 0.0..1.0f64, 0.0..1.0f64)
            .prop_map(|(slot, x, y)| Action::MoveObject { slot, x, y }),
        1 => (any::<usize>(), 0.0..1.0f64, 0.0..1.0f64)
            .prop_map(|(revive, x, y)| Action::AppearObject { revive, x, y }),
        1 => any::<usize>().prop_map(|slot| Action::DisappearObject { slot }),
        1 => (any::<usize>(), 0.0..1.0f64, 0.0..1.0f64)
            .prop_map(|(slot, x, y)| Action::MoveQuery { slot, x, y }),
    ]
}

/// Replay `batches` through engines of 1, 2 and 4 threads with delta
/// capture on. Every cycle: the three delta batches and `Metrics` are
/// bit-identical, invariants hold, results equal the oracle's, and the
/// cycle's deltas folded through a [`Replica`] per query equal the
/// results. Returns the work counters of the whole stream.
fn replay(
    dim: u32,
    k: usize,
    initial: &[(f64, f64)],
    query_pts: &[(f64, f64)],
    batches: &[Vec<Action>],
) -> Result<Metrics, TestCaseError> {
    let mut engines: Vec<ShardedCpmEngine<PointQuery>> = THREAD_COUNTS
        .iter()
        .map(|&s| ShardedCpmEngine::new(dim, NonZeroUsize::new(s).unwrap()))
        .collect();
    let mut oracle = OracleMonitor::new();
    let objects: Vec<(ObjectId, Point)> = initial
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (ObjectId(i as u32), Point::new(x, y)))
        .collect();
    KnnMonitorAlgo::populate(&mut oracle, &objects);

    let queries: Vec<QueryId> = (0..query_pts.len() as u32).map(QueryId).collect();
    let mut replicas = Vec::new();
    for cpm in &mut engines {
        cpm.populate(objects.iter().copied());
        for (&qid, &(x, y)) in queries.iter().zip(query_pts) {
            cpm.install(qid, PointQuery(Point::new(x, y)), k).unwrap();
        }
        cpm.enable_deltas();
    }
    for (&qid, &(x, y)) in queries.iter().zip(query_pts) {
        KnnMonitorAlgo::install_query(&mut oracle, qid, Point::new(x, y), k);
        replicas.push(Replica::from_snapshot(
            0,
            engines[0].result(qid).unwrap().to_vec(),
        ));
    }

    let mut live: Vec<u32> = (0..objects.len() as u32).collect();
    let mut gone: Vec<u32> = Vec::new();
    let mut next_id = objects.len() as u32;

    for batch in batches {
        let mut obj_events = Vec::new();
        let mut qry_events = Vec::new();
        // One event per query per batch (the delta stream's rule);
        // objects repeat freely.
        let mut used_q = std::collections::HashSet::new();
        for action in batch {
            match *action {
                Action::MoveObject { slot, x, y } if !live.is_empty() => {
                    obj_events.push(ObjectEvent::Move {
                        id: ObjectId(live[slot % live.len()]),
                        to: Point::new(x, y),
                    });
                }
                Action::AppearObject { revive, x, y } => {
                    let id = if revive % 2 == 0 && !gone.is_empty() {
                        gone.swap_remove((revive / 2) % gone.len())
                    } else {
                        next_id += 1;
                        next_id - 1
                    };
                    live.push(id);
                    obj_events.push(ObjectEvent::Appear {
                        id: ObjectId(id),
                        pos: Point::new(x, y),
                    });
                }
                Action::DisappearObject { slot } if !live.is_empty() => {
                    let id = live.swap_remove(slot % live.len());
                    gone.push(id);
                    obj_events.push(ObjectEvent::Disappear { id: ObjectId(id) });
                }
                Action::MoveQuery { slot, x, y } => {
                    let qid = queries[slot % queries.len()];
                    if used_q.insert(qid) {
                        qry_events.push(QueryEvent::Move {
                            id: qid,
                            to: Point::new(x, y),
                        });
                    }
                }
                _ => {}
            }
        }
        let lifted: Vec<SpecEvent<PointQuery>> = qry_events.iter().map(|&ev| ev.into()).collect();
        KnnMonitorAlgo::process_cycle(&mut oracle, &obj_events, &qry_events);

        let mut cycles = vec![CycleDeltas::default(); engines.len()];
        for (cpm, out) in engines.iter_mut().zip(&mut cycles) {
            cpm.process_cycle_with_deltas_into(&obj_events, &lifted, out);
            cpm.check_invariants();
        }
        for (i, cpm) in engines.iter().enumerate().skip(1) {
            prop_assert_eq!(&cycles[0], &cycles[i], "T = {}", THREAD_COUNTS[i]);
            prop_assert_eq!(
                engines[0].metrics(),
                cpm.metrics(),
                "T = {}",
                THREAD_COUNTS[i]
            );
        }

        for (qid, delta) in &cycles[0].deltas {
            replicas[qid.0 as usize].apply(delta);
        }
        for (qid, replica) in queries.iter().zip(&replicas) {
            let got = engines[0].result(*qid).unwrap();
            prop_assert_eq!(replica.result(), got, "replica of {:?}", qid);
            let truth = KnnMonitorAlgo::result(&oracle, *qid).unwrap();
            prop_assert_eq!(got.len(), truth.len());
            for (g, e) in got.iter().zip(truth) {
                prop_assert!(
                    (g.dist - e.dist).abs() < 1e-9,
                    "{:?} vs {:?} at {:?}",
                    got,
                    truth,
                    qid
                );
            }
        }
    }
    Ok(engines[0].metrics())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    #[test]
    fn cpm_matches_oracle_on_arbitrary_streams(
        // 1 and 7: every cell of the first, the last row and column of an
        // odd dimension — the edges of the cell directories.
        dim in prop_oneof![Just(1u32), Just(4u32), Just(7u32), Just(16u32), Just(48u32)],
        k in 1usize..6,
        initial in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 5..40),
        query_pts in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..4),
        batches in proptest::collection::vec(
            proptest::collection::vec(action_strategy(), 0..8), 1..12),
    ) {
        replay(dim, k, &initial, &query_pts, &batches)?;
    }
}

/// Query-major update handling may reorder *when* a query's events are
/// applied, never *how* the stream is resolved: on a repeat-heavy seeded
/// stream (40 objects, 64 events a batch) the work counters are the ones
/// the record-major engine of commit `bdfb18e` produced.
#[test]
fn repeat_heavy_stream_is_resolved_exactly_as_before() {
    let mut rng = StdRng::seed_from_u64(0x38);
    let mut point = move || (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
    let initial: Vec<(f64, f64)> = (0..40).map(|_| point()).collect();
    let query_pts: Vec<(f64, f64)> = (0..6).map(|_| point()).collect();
    let mut rng = StdRng::seed_from_u64(0xF16);
    let batches: Vec<Vec<Action>> = (0..30)
        .map(|_| {
            (0..64)
                .map(|_| {
                    let (slot, (x, y)) = (rng.gen::<u64>() as usize, point());
                    match rng.gen_range(0..8) {
                        0..=4 => Action::MoveObject { slot, x, y },
                        5 => Action::AppearObject { revive: slot, x, y },
                        6 => Action::DisappearObject { slot },
                        _ => Action::MoveQuery { slot, x, y },
                    }
                })
                .collect()
        })
        .collect();

    let m = replay(16, 4, &initial, &query_pts, &batches).unwrap_or_else(|e| panic!("{e}"));
    let got = [
        m.cell_accesses,
        m.objects_processed,
        m.heap_pushes,
        m.heap_pops,
        m.computations,
        m.recomputations,
        m.merge_resolutions,
    ];
    assert_eq!(got, [4319, 959, 5520, 4543, 124, 34, 28]);
}
