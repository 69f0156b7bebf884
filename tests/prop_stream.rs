//! Property-based integration test: arbitrary event streams (moves,
//! appearances, disappearances, query moves) through `CpmServer` at
//! T ∈ {1, 2, 4}.
//!
//! The generator may name one object or one query several times in a
//! batch — move twice, disappear and re-appear, appear and then move.
//! The paper's update model is one event per object (and per query) per
//! batch, and the server enforces it: such a batch is refused with
//! `DuplicateObject` / `DuplicateQuery`, the first repeat deciding which,
//! and leaves every server exactly as it was. A clean batch keeps CPM in
//! exact agreement with the brute-force oracle, with all internal
//! invariants intact, its deltas folding into replicas that equal the
//! results. After every batch, accepted or refused, each server's results
//! are bit-identical to those of a server rebuilt from the live objects
//! and queries — a result is a function of the object positions alone.

use std::collections::{BTreeMap, HashSet};
use std::num::NonZeroUsize;

use cpm_suite::core::{
    AnyQuerySpec, CpmError, CpmServer, CpmServerBuilder, CycleDeltas, PointQuery, Snapshot,
    SpecEvent,
};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::{ObjectEvent, QueryEvent};
use cpm_suite::sim::{KnnMonitorAlgo, OracleMonitor};
use cpm_suite::sub::Replica;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// A symbolic event the strategy generates; resolved against the set of
/// live objects when applied (so each event on its own is consistent).
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

/// The test's model of the stream: live objects by id, off-line ids,
/// the next fresh id and every query's point.
#[derive(Debug, Clone)]
struct Model {
    live: BTreeMap<u32, Point>,
    gone: Vec<u32>,
    next_id: u32,
    queries: Vec<Point>,
}

impl Model {
    /// Resolve `batch` against the model, applying it as it goes.
    fn resolve(&mut self, batch: &[Action]) -> (Vec<ObjectEvent>, Vec<QueryEvent>) {
        let (mut objects, mut queries) = (Vec::new(), Vec::new());
        for action in batch {
            match *action {
                Action::MoveObject { slot, x, y } if !self.live.is_empty() => {
                    let id = *self.live.keys().nth(slot % self.live.len()).unwrap();
                    let to = Point::new(x, y);
                    self.live.insert(id, to);
                    objects.push(ObjectEvent::Move {
                        id: ObjectId(id),
                        to,
                    });
                }
                Action::AppearObject { revive, x, y } => {
                    let id = if revive % 2 == 0 && !self.gone.is_empty() {
                        let at = (revive / 2) % self.gone.len();
                        self.gone.swap_remove(at)
                    } else {
                        self.next_id += 1;
                        self.next_id - 1
                    };
                    let pos = Point::new(x, y);
                    self.live.insert(id, pos);
                    objects.push(ObjectEvent::Appear {
                        id: ObjectId(id),
                        pos,
                    });
                }
                Action::DisappearObject { slot } if !self.live.is_empty() => {
                    let id = *self.live.keys().nth(slot % self.live.len()).unwrap();
                    self.live.remove(&id);
                    self.gone.push(id);
                    objects.push(ObjectEvent::Disappear { id: ObjectId(id) });
                }
                Action::MoveQuery { slot, x, y } => {
                    let i = slot % self.queries.len();
                    self.queries[i] = Point::new(x, y);
                    queries.push(QueryEvent::Move {
                        id: QueryId(i as u32),
                        to: self.queries[i],
                    });
                }
                _ => {}
            }
        }
        (objects, queries)
    }

    /// A server built from scratch over the model's objects and queries.
    fn rebuilt(&self, dim: u32, k: usize) -> CpmServer {
        let mut server = server(dim, 1);
        server
            .populate(self.live.iter().map(|(&id, &p)| (ObjectId(id), p)))
            .unwrap();
        for (i, &q) in self.queries.iter().enumerate() {
            let _ = server
                .install_spec(QueryId(i as u32), PointQuery(q), k)
                .unwrap();
        }
        server
    }
}

fn server(dim: u32, threads: usize) -> CpmServer {
    CpmServerBuilder::new(dim)
        .threads(NonZeroUsize::new(threads).unwrap())
        .build()
}

/// The refusal a batch earns: its first repeated object, else its first
/// repeated query (objects are validated first).
fn expected_refusal(objects: &[ObjectEvent], queries: &[QueryEvent]) -> Option<CpmError> {
    let mut seen = HashSet::new();
    if let Some(ev) = objects.iter().find(|ev| !seen.insert(ev.id())) {
        return Some(CpmError::DuplicateObject(ev.id()));
    }
    let mut seen = HashSet::new();
    let repeat = queries.iter().find(|ev| !seen.insert(ev.id()));
    repeat.map(|ev| CpmError::DuplicateQuery(ev.id()))
}

/// Replay `batches` through servers of 1, 2 and 4 threads with delta
/// capture on; see the module docs for what every batch must satisfy.
/// Returns how many batches were accepted and how many refused.
fn replay(
    dim: u32,
    k: usize,
    initial: &[(f64, f64)],
    query_pts: &[(f64, f64)],
    batches: &[Vec<Action>],
) -> Result<(usize, usize), TestCaseError> {
    let objects: Vec<(ObjectId, Point)> = initial
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (ObjectId(i as u32), Point::new(x, y)))
        .collect();
    let mut model = Model {
        live: objects.iter().map(|&(id, p)| (id.0, p)).collect(),
        gone: Vec::new(),
        next_id: objects.len() as u32,
        queries: query_pts.iter().map(|&(x, y)| Point::new(x, y)).collect(),
    };
    let mut oracle = OracleMonitor::new();
    KnnMonitorAlgo::populate(&mut oracle, &objects);
    let mut servers: Vec<CpmServer> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let mut s = CpmServerBuilder::new(dim)
                .threads(NonZeroUsize::new(threads).unwrap())
                .deltas(true)
                .build();
            s.populate(objects.iter().copied()).unwrap();
            s
        })
        .collect();
    let mut replicas = Vec::new();
    for (i, &q) in model.queries.iter().enumerate() {
        let qid = QueryId(i as u32);
        for s in &mut servers {
            let _ = s.install_spec(qid, PointQuery(q), k).unwrap();
        }
        KnnMonitorAlgo::install_query(&mut oracle, qid, q, k);
        replicas.push(Replica::from_snapshot(
            0,
            servers[0].result(qid).unwrap().to_vec(),
        ));
    }

    let (mut accepted, mut refused) = (0, 0);
    for batch in batches {
        let mut next = model.clone();
        let (obj_events, qry_events) = next.resolve(batch);
        let lifted: Vec<SpecEvent<AnyQuerySpec>> = qry_events.iter().map(|&ev| ev.into()).collect();
        let want = expected_refusal(&obj_events, &qry_events);

        let mut cycles = vec![CycleDeltas::default(); servers.len()];
        for (s, out) in servers.iter_mut().zip(&mut cycles) {
            let before = Snapshot::capture(s, 0).to_frame();
            let got = s.process_cycle_with_deltas_into(&obj_events, &lifted, out);
            prop_assert_eq!(got.err(), want, "T = {}", s.threads());
            if want.is_some() {
                prop_assert!(
                    Snapshot::capture(s, 0).to_frame() == before,
                    "a refused batch changed the state at T = {}",
                    s.threads()
                );
            }
            s.check_invariants();
        }
        if want.is_some() {
            refused += 1;
        } else {
            accepted += 1;
            model = next;
            KnnMonitorAlgo::process_cycle(&mut oracle, &obj_events, &qry_events);
            for (i, s) in servers.iter().enumerate().skip(1) {
                prop_assert_eq!(&cycles[0], &cycles[i], "T = {}", THREAD_COUNTS[i]);
                prop_assert_eq!(
                    servers[0].metrics(),
                    s.metrics(),
                    "T = {}",
                    THREAD_COUNTS[i]
                );
            }
            for (qid, delta) in &cycles[0].deltas {
                replicas[qid.0 as usize].apply(delta);
            }
        }

        let rebuilt = model.rebuilt(dim, k);
        for (i, replica) in replicas.iter().enumerate() {
            let qid = QueryId(i as u32);
            let got = servers[0].result(qid).unwrap();
            prop_assert_eq!(replica.result(), got, "replica of {:?}", qid);
            for s in &servers {
                prop_assert_eq!(s.result(qid), rebuilt.result(qid), "{:?} vs rebuilt", qid);
            }
            let truth = KnnMonitorAlgo::result(&oracle, qid).unwrap();
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
    Ok((accepted, refused))
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

/// A seeded repeat-heavy stream (40 objects, 6 queries, batches of 1 to
/// 16 events) exercises both outcomes many times over: every refusal is
/// typed and leaves the state alone, every accepted batch matches the
/// oracle.
#[test]
fn repeated_ids_are_refused_and_clean_batches_match_the_oracle() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x38);
    let mut point = move || (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
    let initial: Vec<(f64, f64)> = (0..40).map(|_| point()).collect();
    let query_pts: Vec<(f64, f64)> = (0..6).map(|_| point()).collect();
    let mut rng = StdRng::seed_from_u64(0xF16);
    let batches: Vec<Vec<Action>> = (0..80)
        .map(|_| {
            (0..rng.gen_range(1..=16))
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

    let (accepted, refused) =
        replay(16, 4, &initial, &query_pts, &batches).unwrap_or_else(|e| panic!("{e}"));
    assert!(accepted >= 20 && refused >= 20, "{accepted} / {refused}");
}
