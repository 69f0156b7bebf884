//! Determinism of the sharded parallel engine: for random workloads, the
//! engine at `S ∈ {2, 4, 8}` must report **bit-identical** results,
//! changed sets, and per-cycle metrics totals to the sequential engine
//! (`S = 1`: no routing, no worker threads) — parallelism may move work
//! between threads, never change it.

use cpm_suite::core::{PointQuery, ShardedCpmEngine, SpecEvent};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::sim::{verify_sharded_determinism, SimParams, SimulationInput, WorkloadKind};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Moving-query (`update_spec`) churn under sharding: every cycle moves a
/// large fraction of the queries — alone, and interleaved with object
/// updates that land inside the old and new influence regions in the same
/// batch (the "ignored during update handling" path of Section 3.3 must
/// be shard-invariant too). Heavier and more targeted than the general
/// churn test below, which moves at most a couple of queries per cycle.
#[test]
fn sharded_matches_sequential_under_heavy_query_movement() {
    let shard_counts = [2usize, 4, 8];
    for trial in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0x5EEA_0000 + trial);
        let dim = [8u32, 16, 64][trial as usize % 3];

        let mut sequential: ShardedCpmEngine<PointQuery> = ShardedCpmEngine::new(dim, 1);
        let mut sharded: Vec<ShardedCpmEngine<PointQuery>> = shard_counts
            .iter()
            .map(|&s| ShardedCpmEngine::new(dim, s))
            .collect();

        let n_obj = 150u32;
        let objects: Vec<(ObjectId, Point)> = (0..n_obj)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        sequential.populate(objects.iter().copied());
        for m in sharded.iter_mut() {
            m.populate(objects.iter().copied());
        }

        let n_qry = 16u32;
        for qi in 0..n_qry {
            let p = Point::new(rng.gen(), rng.gen());
            let k = 1 + qi as usize % 5;
            sequential
                .install(QueryId(qi), PointQuery(p), k)
                .expect("fresh query id");
            for m in sharded.iter_mut() {
                m.install(QueryId(qi), PointQuery(p), k)
                    .expect("fresh query id");
            }
        }

        for cycle in 0..25 {
            // Move roughly half the queries every cycle (f_qry far above
            // the paper's 30% default, on purpose).
            let mut query_events: Vec<SpecEvent<PointQuery>> = Vec::new();
            for qi in 0..n_qry {
                if rng.gen_bool(0.5) {
                    query_events.push(SpecEvent::Update {
                        id: QueryId(qi),
                        spec: PointQuery(Point::new(rng.gen(), rng.gen())),
                    });
                }
            }
            // Interleave object moves in every other cycle so records and
            // pending query events target the same cells within a batch.
            let mut object_events = Vec::new();
            if cycle % 2 == 0 {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..rng.gen_range(5..20) {
                    let id = rng.gen_range(0..n_obj);
                    if seen.insert(id) {
                        object_events.push(ObjectEvent::Move {
                            id: ObjectId(id),
                            to: Point::new(rng.gen(), rng.gen()),
                        });
                    }
                }
            }

            let changed_seq = sequential.process_cycle(&object_events, &query_events);
            let metrics_seq = sequential.take_metrics();
            for (m, &shards) in sharded.iter_mut().zip(&shard_counts) {
                let changed = m.process_cycle(&object_events, &query_events);
                assert_eq!(
                    changed_seq, changed,
                    "changed diverged at cycle {cycle} with {shards} shards"
                );
                assert_eq!(
                    metrics_seq,
                    m.take_metrics(),
                    "metrics diverged at cycle {cycle} with {shards} shards"
                );
                m.check_invariants();
                for qi in 0..n_qry {
                    assert_eq!(
                        sequential.result(QueryId(qi)).unwrap(),
                        m.result(QueryId(qi)).unwrap(),
                        "result diverged for q{qi} at cycle {cycle} with {shards} shards"
                    );
                }
            }
            sequential.check_invariants();
        }
    }
}

/// The sim-level cross-check on the paper's workload shapes: network,
/// uniform and skewed movement, with moving queries.
#[test]
fn sharded_matches_sequential_on_generated_workloads() {
    for (seed, workload) in [
        (11u64, WorkloadKind::Network { grid_streets: 8 }),
        (12, WorkloadKind::Uniform),
        (13, WorkloadKind::Skewed { hotspots: 3 }),
    ] {
        let params = SimParams {
            n_objects: 300,
            n_queries: 12,
            k: 4,
            timestamps: 10,
            grid_dim: 32,
            seed,
            workload,
            ..SimParams::default()
        };
        verify_sharded_determinism(&SimulationInput::generate(&params), &[2, 4, 8]);
    }
}

/// Engine-level property test over the full event vocabulary, including
/// object appear/disappear and query install/update/terminate (which the
/// generated workloads do not exercise): random streams into the
/// sequential (`S = 1`) and sharded engines must agree on every query's
/// result (ids *and* distance bits), on the changed sets, and on the
/// metrics totals at every cycle.
#[test]
fn random_streams_with_churn_are_shard_invariant() {
    let shard_counts = [2usize, 4, 8];
    for trial in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xD17E_0000 + trial);
        let dim = [8u32, 16, 64][trial as usize % 3];

        let mut sequential: ShardedCpmEngine<PointQuery> = ShardedCpmEngine::new(dim, 1);
        let mut sharded: Vec<ShardedCpmEngine<PointQuery>> = shard_counts
            .iter()
            .map(|&s| ShardedCpmEngine::new(dim, s))
            .collect();

        let n_obj = 120u32;
        let objects: Vec<(ObjectId, Point)> = (0..n_obj)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        sequential.populate(objects.iter().copied());
        for m in sharded.iter_mut() {
            m.populate(objects.iter().copied());
        }

        let mut live_objects: Vec<u32> = (0..n_obj).collect();
        let mut next_oid = n_obj;
        let mut live_queries: Vec<u32> = Vec::new();
        let mut next_qid = 0u32;

        for _cycle in 0..25 {
            // Random object churn: moves, appearances, disappearances
            // (each object at most once per batch).
            let mut object_events = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.gen_range(0..12) {
                match rng.gen_range(0..10) {
                    0 if !live_objects.is_empty() => {
                        let at = rng.gen_range(0..live_objects.len());
                        let id = live_objects.swap_remove(at);
                        if seen.insert(id) {
                            object_events.push(ObjectEvent::Disappear { id: ObjectId(id) });
                        } else {
                            live_objects.push(id);
                        }
                    }
                    1 => {
                        let id = next_oid;
                        next_oid += 1;
                        live_objects.push(id);
                        seen.insert(id);
                        object_events.push(ObjectEvent::Appear {
                            id: ObjectId(id),
                            pos: Point::new(rng.gen(), rng.gen()),
                        });
                    }
                    _ if !live_objects.is_empty() => {
                        let id = live_objects[rng.gen_range(0..live_objects.len())];
                        if seen.insert(id) {
                            object_events.push(ObjectEvent::Move {
                                id: ObjectId(id),
                                to: Point::new(rng.gen(), rng.gen()),
                            });
                        }
                    }
                    _ => {}
                }
            }

            // Random query churn (each query at most once per batch).
            let mut query_events: Vec<SpecEvent<PointQuery>> = Vec::new();
            for _ in 0..rng.gen_range(0..4) {
                match rng.gen_range(0..3) {
                    0 => {
                        let id = next_qid;
                        next_qid += 1;
                        live_queries.push(id);
                        query_events.push(SpecEvent::Install {
                            id: QueryId(id),
                            spec: PointQuery(Point::new(rng.gen(), rng.gen())),
                            k: 1 + rng.gen_range(0..5),
                        });
                    }
                    1 if !live_queries.is_empty() => {
                        let at = rng.gen_range(0..live_queries.len());
                        let id = live_queries[at];
                        if query_events.iter().all(|ev| ev.id() != QueryId(id)) {
                            query_events.push(SpecEvent::Update {
                                id: QueryId(id),
                                spec: PointQuery(Point::new(rng.gen(), rng.gen())),
                            });
                        }
                    }
                    _ if !live_queries.is_empty() => {
                        let at = rng.gen_range(0..live_queries.len());
                        let id = live_queries.swap_remove(at);
                        if query_events.iter().all(|ev| ev.id() != QueryId(id)) {
                            query_events.push(SpecEvent::Terminate { id: QueryId(id) });
                        } else {
                            live_queries.push(id);
                        }
                    }
                    _ => {}
                }
            }

            let changed_seq = sequential.process_cycle(&object_events, &query_events);
            let metrics_seq = sequential.take_metrics();

            for (m, &shards) in sharded.iter_mut().zip(&shard_counts) {
                let changed = m.process_cycle(&object_events, &query_events);
                assert_eq!(changed_seq, changed, "changed diverged at {shards} shards");
                assert_eq!(
                    metrics_seq,
                    m.take_metrics(),
                    "metrics diverged at {shards} shards"
                );
                m.check_invariants();
                for &qid in &live_queries {
                    let a = sequential
                        .result(QueryId(qid))
                        .expect("sequential lost query");
                    let b = m
                        .result(QueryId(qid))
                        .unwrap_or_else(|| panic!("{shards}-shard engine lost query {qid}"));
                    assert_eq!(a, b, "result diverged for query {qid} at {shards} shards");
                }
            }
            sequential.check_invariants();
        }
    }
}
