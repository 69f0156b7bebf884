//! Property-based integration test: arbitrary event streams (moves,
//! appearances, disappearances, query moves) must keep CPM in exact
//! agreement with the brute-force oracle, with all internal invariants
//! intact at every step.

use cpm_suite::core::{PointQuery, ShardedCpmEngine, SpecEvent};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::{ObjectEvent, QueryEvent};
use cpm_suite::sim::{KnnMonitorAlgo, OracleMonitor};
use proptest::prelude::*;

/// A symbolic event the strategy generates; resolved against the set of
/// live objects when applied (so streams are always consistent).
#[derive(Debug, Clone)]
enum Action {
    MoveObject { slot: usize, x: f64, y: f64 },
    AppearObject { x: f64, y: f64 },
    DisappearObject { slot: usize },
    MoveQuery { slot: usize, x: f64, y: f64 },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        5 => (any::<usize>(), 0.0..1.0f64, 0.0..1.0f64)
            .prop_map(|(slot, x, y)| Action::MoveObject { slot, x, y }),
        1 => (0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y)| Action::AppearObject { x, y }),
        1 => any::<usize>().prop_map(|slot| Action::DisappearObject { slot }),
        1 => (any::<usize>(), 0.0..1.0f64, 0.0..1.0f64)
            .prop_map(|(slot, x, y)| Action::MoveQuery { slot, x, y }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    #[test]
    fn cpm_matches_oracle_on_arbitrary_streams(
        dim in prop_oneof![Just(4u32), Just(16u32), Just(48u32)],
        k in 1usize..6,
        initial in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 5..40),
        query_pts in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..4),
        batches in proptest::collection::vec(
            proptest::collection::vec(action_strategy(), 0..8), 1..12),
    ) {
        let mut cpm = ShardedCpmEngine::<PointQuery>::new(dim, 1);
        let mut oracle = OracleMonitor::new();
        let objects: Vec<(ObjectId, Point)> = initial
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (ObjectId(i as u32), Point::new(x, y)))
            .collect();
        cpm.populate(objects.iter().copied());
        KnnMonitorAlgo::populate(&mut oracle, &objects);

        let queries: Vec<QueryId> = query_pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                let qid = QueryId(i as u32);
                cpm.install(qid, PointQuery(Point::new(x, y)), k).unwrap();
                KnnMonitorAlgo::install_query(&mut oracle, qid, Point::new(x, y), k);
                qid
            })
            .collect();

        let mut live: Vec<u32> = (0..objects.len() as u32).collect();
        let mut next_id = objects.len() as u32;

        for batch in &batches {
            let mut obj_events = Vec::new();
            let mut qry_events = Vec::new();
            let mut used = std::collections::HashSet::new();
            let mut used_q = std::collections::HashSet::new();
            for action in batch {
                match *action {
                    Action::MoveObject { slot, x, y } if !live.is_empty() => {
                        let id = live[slot % live.len()];
                        if used.insert(id) {
                            obj_events.push(ObjectEvent::Move {
                                id: ObjectId(id),
                                to: Point::new(x, y),
                            });
                        }
                    }
                    Action::AppearObject { x, y } => {
                        let id = next_id;
                        next_id += 1;
                        live.push(id);
                        used.insert(id);
                        obj_events.push(ObjectEvent::Appear {
                            id: ObjectId(id),
                            pos: Point::new(x, y),
                        });
                    }
                    Action::DisappearObject { slot } if !live.is_empty() => {
                        let idx = slot % live.len();
                        let id = live[idx];
                        if used.insert(id) {
                            live.swap_remove(idx);
                            obj_events.push(ObjectEvent::Disappear { id: ObjectId(id) });
                        }
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
            let lifted: Vec<SpecEvent<PointQuery>> =
                qry_events.iter().map(|&ev| ev.into()).collect();
            cpm.process_cycle(&obj_events, &lifted);
            KnnMonitorAlgo::process_cycle(&mut oracle, &obj_events, &qry_events);
            cpm.check_invariants();

            for qid in &queries {
                let truth: Vec<f64> = KnnMonitorAlgo::result(&oracle, *qid)
                    .unwrap()
                    .iter()
                    .map(|n| n.dist)
                    .collect();
                let got: Vec<f64> = cpm
                    .result(*qid)
                    .unwrap()
                    .iter()
                    .map(|n| n.dist)
                    .collect();
                prop_assert_eq!(got.len(), truth.len());
                for (g, e) in got.iter().zip(&truth) {
                    prop_assert!((g - e).abs() < 1e-9,
                        "{:?} vs {:?} at {:?}", got, truth, qid);
                }
            }
        }
    }
}
