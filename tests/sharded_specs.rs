//! Conformance of the non-point query specs — aggregate-NN, constrained
//! and range on [`ShardedCpmEngine`], reverse-NN through the
//! [`CpmServer`] that composes it: for every shard count the results must
//! be **bit-identical** to the sequential (`S = 1`) engine and correct
//! against brute force, under object churn and moving queries. (The
//! point-query/k-NN spec is covered by `tests/sharded_determinism.rs`.)
//!
//! [`ShardedCpmEngine`]: cpm_suite::core::ShardedCpmEngine
//! [`CpmServer`]: cpm_suite::core::CpmServer

use cpm_suite::core::{
    AggregateFn, AnnQuery, ConstrainedQuery, CpmServer, CpmServerBuilder, Neighbor, QuerySpec,
    RangeQuery, RnnHandle, ShardedCpmEngine, SpecEvent,
};
use cpm_suite::geom::{ObjectId, Point, QueryId, Rect};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::sim::brute_force_range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// Random object churn batch: moves, appearances, disappearances.
fn churn(rng: &mut StdRng, live: &mut Vec<u32>, next: &mut u32) -> Vec<ObjectEvent> {
    let mut events = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..rng.gen_range(0..10) {
        match rng.gen_range(0..8) {
            0 if live.len() > 4 => {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                if seen.insert(id) {
                    events.push(ObjectEvent::Disappear { id: ObjectId(id) });
                } else {
                    live.push(id);
                }
            }
            1 => {
                live.push(*next);
                seen.insert(*next);
                events.push(ObjectEvent::Appear {
                    id: ObjectId(*next),
                    pos: Point::new(rng.gen(), rng.gen()),
                });
                *next += 1;
            }
            _ if !live.is_empty() => {
                let id = live[rng.gen_range(0..live.len())];
                if seen.insert(id) {
                    events.push(ObjectEvent::Move {
                        id: ObjectId(id),
                        to: Point::new(rng.gen(), rng.gen()),
                    });
                }
            }
            _ => {}
        }
    }
    events
}

/// The sequential reference plus one engine per entry of
/// [`SHARD_COUNTS`], all loaded with `objects`.
fn lanes<S: QuerySpec + Send + Sync>(
    objects: &[(ObjectId, Point)],
) -> (ShardedCpmEngine<S>, Vec<ShardedCpmEngine<S>>) {
    let build = |shards| {
        let mut e = ShardedCpmEngine::new(16, shards);
        e.populate(objects.iter().copied());
        e
    };
    (build(1), SHARD_COUNTS.iter().map(|&s| build(s)).collect())
}

fn assert_dists_match(got: &[Neighbor], expect: &[f64], ctx: &str) {
    assert_eq!(got.len(), expect.len(), "{ctx}: result size");
    for (g, e) in got.iter().zip(expect) {
        assert!((g.dist - e).abs() < 1e-9, "{ctx}: {got:?} vs {expect:?}");
    }
}

/// ANN (sum/min/max) under sharding: bit-identical to sequential at every
/// cycle, correct against the brute-force aggregate ranking, with moving
/// query sets.
#[test]
fn ann_specs_are_shard_invariant_and_correct() {
    let mut rng = StdRng::seed_from_u64(0xA99);
    for f in [AggregateFn::Sum, AggregateFn::Min, AggregateFn::Max] {
        let n_obj = 80u32;
        let objects: Vec<(ObjectId, Point)> = (0..n_obj)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        let (mut sequential, mut sharded) = lanes::<AnnQuery>(&objects);

        let mut point_sets: Vec<Vec<Point>> = Vec::new();
        for qi in 0..6u32 {
            let pts: Vec<Point> = (0..1 + qi as usize % 4)
                .map(|_| Point::new(rng.gen(), rng.gen()))
                .collect();
            let k = 1 + qi as usize % 3;
            for m in sharded.iter_mut().chain([&mut sequential]) {
                m.install(QueryId(qi), AnnQuery::new(pts.clone(), f), k)
                    .unwrap();
            }
            point_sets.push(pts);
        }

        let mut live: Vec<u32> = (0..n_obj).collect();
        let mut next = n_obj;
        for cycle in 0..20 {
            let events = churn(&mut rng, &mut live, &mut next);
            // Moving query sets: one random query moves most cycles.
            let mut query_events: Vec<SpecEvent<AnnQuery>> = Vec::new();
            if rng.gen_bool(0.7) {
                let qi = rng.gen_range(0..6u32);
                let pts: Vec<Point> = (0..point_sets[qi as usize].len())
                    .map(|_| Point::new(rng.gen(), rng.gen()))
                    .collect();
                point_sets[qi as usize] = pts.clone();
                query_events.push(SpecEvent::Update {
                    id: QueryId(qi),
                    spec: AnnQuery::new(pts, f),
                });
            }

            let changed_seq = sequential.process_cycle(&events, &query_events);
            for (m, &shards) in sharded.iter_mut().zip(&SHARD_COUNTS) {
                let changed = m.process_cycle(&events, &query_events);
                assert_eq!(
                    changed_seq, changed,
                    "{f:?} changed diverged at cycle {cycle} with {shards} shards"
                );
                m.check_invariants();
                for qi in 0..6u32 {
                    assert_eq!(
                        sequential.result(QueryId(qi)).unwrap(),
                        m.result(QueryId(qi)).unwrap(),
                        "{f:?} result diverged for q{qi} at cycle {cycle} with {shards} shards"
                    );
                }
            }
            // Anchor to ground truth through the sequential monitor.
            for qi in 0..6u32 {
                let st = sequential.query_state(QueryId(qi)).unwrap();
                let mut truth: Vec<f64> = sequential
                    .grid()
                    .iter_objects()
                    .map(|(_, p)| st.spec.adist(p))
                    .collect();
                truth.sort_by(|a, b| a.partial_cmp(b).unwrap());
                truth.truncate(st.k());
                assert_dists_match(st.result(), &truth, &format!("{f:?} q{qi} cycle {cycle}"));
            }
        }
    }
}

/// Constrained NN under sharding, with moving query points *and* moving
/// constraint regions.
#[test]
fn constrained_specs_are_shard_invariant_and_correct() {
    let mut rng = StdRng::seed_from_u64(0xC0257);
    let n_obj = 90u32;
    let objects: Vec<(ObjectId, Point)> = (0..n_obj)
        .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
        .collect();
    let (mut sequential, mut sharded) = lanes::<ConstrainedQuery>(&objects);

    fn random_query(rng: &mut StdRng) -> ConstrainedQuery {
        let lo = Point::new(rng.gen_range(0.0..0.6), rng.gen_range(0.0..0.6));
        let region = Rect::new(
            lo,
            Point::new(
                lo.x + rng.gen_range(0.1..0.4),
                lo.y + rng.gen_range(0.1..0.4),
            ),
        );
        ConstrainedQuery::new(Point::new(rng.gen(), rng.gen()), region)
    }

    let mut queries: Vec<ConstrainedQuery> = Vec::new();
    for qi in 0..8u32 {
        let q = random_query(&mut rng);
        let k = 1 + qi as usize % 4;
        for m in sharded.iter_mut().chain([&mut sequential]) {
            m.install(QueryId(qi), q.clone(), k).unwrap();
        }
        queries.push(q);
    }

    let mut live: Vec<u32> = (0..n_obj).collect();
    let mut next = n_obj;
    for cycle in 0..20 {
        let events = churn(&mut rng, &mut live, &mut next);
        let mut query_events: Vec<SpecEvent<ConstrainedQuery>> = Vec::new();
        if rng.gen_bool(0.7) {
            let qi = rng.gen_range(0..8u32);
            let q = random_query(&mut rng);
            queries[qi as usize] = q.clone();
            query_events.push(SpecEvent::Update {
                id: QueryId(qi),
                spec: q,
            });
        }

        let changed_seq = sequential.process_cycle(&events, &query_events);
        for (m, &shards) in sharded.iter_mut().zip(&SHARD_COUNTS) {
            let changed = m.process_cycle(&events, &query_events);
            assert_eq!(
                changed_seq, changed,
                "changed diverged at cycle {cycle} with {shards} shards"
            );
            m.check_invariants();
            for qi in 0..8u32 {
                assert_eq!(
                    sequential.result(QueryId(qi)).unwrap(),
                    m.result(QueryId(qi)).unwrap(),
                    "result diverged for q{qi} at cycle {cycle} with {shards} shards"
                );
            }
        }
        for (qi, q) in queries.iter().enumerate() {
            let st = sequential.query_state(QueryId(qi as u32)).unwrap();
            let mut truth: Vec<f64> = sequential
                .grid()
                .iter_objects()
                .filter(|&(_, p)| q.region.contains(p))
                .map(|(_, p)| q.q.dist(p))
                .collect();
            truth.sort_by(|a, b| a.partial_cmp(b).unwrap());
            truth.truncate(st.k());
            assert_dists_match(st.result(), &truth, &format!("q{qi} cycle {cycle}"));
        }
    }
}

/// Range queries under sharding, with moving regions; results are exact
/// membership in canonical order, so equality against the oracle is
/// bitwise.
#[test]
fn range_specs_are_shard_invariant_and_correct() {
    let mut rng = StdRng::seed_from_u64(0x4A17);
    let n_obj = 90u32;
    let objects: Vec<(ObjectId, Point)> = (0..n_obj)
        .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
        .collect();
    let (mut sequential, mut sharded) = lanes::<RangeQuery>(&objects);

    let mut queries: Vec<RangeQuery> = Vec::new();
    for qi in 0..8u32 {
        let q = if qi % 2 == 0 {
            RangeQuery::circle(Point::new(rng.gen(), rng.gen()), rng.gen_range(0.05..0.3))
        } else {
            let lo = Point::new(rng.gen_range(0.0..0.6), rng.gen_range(0.0..0.6));
            RangeQuery::rect(Rect::new(
                lo,
                Point::new(
                    lo.x + rng.gen_range(0.1..0.4),
                    lo.y + rng.gen_range(0.1..0.4),
                ),
            ))
        };
        for m in sharded.iter_mut().chain([&mut sequential]) {
            m.install(QueryId(qi), q, RangeQuery::UNBOUNDED_K).unwrap();
        }
        queries.push(q);
    }

    let mut live: Vec<u32> = (0..n_obj).collect();
    let mut next = n_obj;
    for cycle in 0..20 {
        let events = churn(&mut rng, &mut live, &mut next);
        let mut query_events: Vec<SpecEvent<RangeQuery>> = Vec::new();
        if rng.gen_bool(0.7) {
            let qi = rng.gen_range(0..8u32);
            let q = RangeQuery::circle(Point::new(rng.gen(), rng.gen()), rng.gen_range(0.05..0.3));
            queries[qi as usize] = q;
            query_events.push(SpecEvent::Update {
                id: QueryId(qi),
                spec: q,
            });
        }

        let changed_seq = sequential.process_cycle(&events, &query_events);
        for (m, &shards) in sharded.iter_mut().zip(&SHARD_COUNTS) {
            let changed = m.process_cycle(&events, &query_events);
            assert_eq!(
                changed_seq, changed,
                "changed diverged at cycle {cycle} with {shards} shards"
            );
            m.check_invariants();
            for qi in 0..8u32 {
                assert_eq!(
                    sequential.result(QueryId(qi)).unwrap(),
                    m.result(QueryId(qi)).unwrap(),
                    "result diverged for q{qi} at cycle {cycle} with {shards} shards"
                );
            }
        }
        for (qi, q) in queries.iter().enumerate() {
            let truth = brute_force_range(sequential.grid().iter_objects(), q);
            assert_eq!(
                sequential.result(QueryId(qi as u32)).unwrap(),
                truth.as_slice(),
                "range oracle mismatch for q{qi} at cycle {cycle}"
            );
        }
    }
}

/// Reverse-NN under sharding: the server distributes the six
/// sector-constrained candidate queries per RNN registration across
/// shards, and the verified RNN sets must match both the sequential
/// server and brute force, with moving queries.
#[test]
fn rnn_composition_is_shard_invariant_and_correct() {
    fn brute_rnn(objects: &[(ObjectId, Point)], q: Point) -> Vec<ObjectId> {
        let mut out = Vec::new();
        for &(id, p) in objects {
            let dq = p.dist(q);
            if !objects.iter().any(|&(o, op)| o != id && p.dist(op) < dq) {
                out.push(id);
            }
        }
        out.sort_unstable();
        out
    }

    let mut rng = StdRng::seed_from_u64(0x12E7);
    let n_obj = 40u32;
    let objects: Vec<(ObjectId, Point)> = (0..n_obj)
        .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
        .collect();
    let mut qpos = [
        Point::new(rng.gen(), rng.gen()),
        Point::new(rng.gen(), rng.gen()),
        Point::new(rng.gen(), rng.gen()),
    ];
    // Lane 0 is the sequential reference.
    let mut servers: Vec<(CpmServer, Vec<RnnHandle>)> = [1usize]
        .iter()
        .chain(&SHARD_COUNTS)
        .map(|&shards| {
            let mut s = CpmServerBuilder::new(16).shards(shards).build();
            s.populate(objects.iter().copied());
            let handles = qpos
                .iter()
                .enumerate()
                .map(|(qi, &p)| s.install_rnn(QueryId(qi as u32), p).unwrap())
                .collect();
            (s, handles)
        })
        .collect();

    let mut live: Vec<u32> = (0..n_obj).collect();
    let mut next = n_obj;
    for cycle in 0..20 {
        let events = churn(&mut rng, &mut live, &mut next);
        let moved: Option<usize> = rng.gen_bool(0.4).then(|| rng.gen_range(0..3));
        if let Some(qi) = moved {
            qpos[qi] = Point::new(rng.gen(), rng.gen());
        }

        let mut reference: Option<(Vec<QueryId>, Vec<Vec<ObjectId>>)> = None;
        for (s, handles) in servers.iter_mut() {
            if let Some(qi) = moved {
                s.update_rnn(handles[qi], qpos[qi]).unwrap();
            }
            let changed = s.process_cycle(&events, &[]).unwrap();
            s.check_invariants();
            let sets: Vec<Vec<ObjectId>> = handles
                .iter()
                .map(|&h| s.rnn_result(h).unwrap().to_vec())
                .collect();
            let shards = s.shard_count();
            match &reference {
                None => reference = Some((changed, sets)),
                Some((changed_seq, sets_seq)) => {
                    assert_eq!(
                        changed_seq, &changed,
                        "changed diverged at cycle {cycle} with {shards} shards"
                    );
                    assert_eq!(
                        sets_seq, &sets,
                        "RNN sets diverged at cycle {cycle} with {shards} shards"
                    );
                }
            }
        }
        let (sequential, handles) = &servers[0];
        let live_objs: Vec<(ObjectId, Point)> = sequential.grid().iter_objects().collect();
        for (&h, &p) in handles.iter().zip(&qpos) {
            assert_eq!(
                sequential.rnn_result(h).unwrap(),
                brute_rnn(&live_objs, p),
                "RNN oracle mismatch at cycle {cycle}"
            );
        }
    }
}
