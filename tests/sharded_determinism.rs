//! Determinism of sharded parallel maintenance: for random workloads, a
//! server at `S ∈ {2, 4, 8}` must report **bit-identical** results,
//! changed lists, delta batches and per-cycle metrics totals to the
//! sequential reference (`S = 1`: no routing, no worker threads) —
//! parallelism may move work between threads, never change it.

mod common;

use common::{paper_stream, shard_lanes};
use cpm_suite::core::{AnyQuerySpec, PointQuery, SpecEvent};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::sim::{verify, Anchors, OpStream, SimParams, WorkloadKind};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// Moving-query churn under sharding: every cycle moves about half of the
/// queries — alone, and interleaved with object updates that land inside
/// the old and new influence regions in the same batch (the "ignored
/// during update handling" path of Section 3.3 must be shard-invariant
/// too). Heavier and more targeted than the general churn stream, which
/// moves at most a few queries per cycle.
#[test]
fn sharded_matches_sequential_under_heavy_query_movement() {
    for trial in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0x5EEA_0000 + trial);
        let (n_obj, n_qry) = (150u32, 16u32);
        let knn = |p| AnyQuerySpec::Knn(PointQuery(p));
        let objects: Vec<_> = (0..n_obj)
            .map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen())))
            .collect();
        let installs = (0..n_qry).map(|qi| SpecEvent::Install {
            id: QueryId(qi),
            spec: knn(Point::new(rng.gen(), rng.gen())),
            k: 1 + qi as usize % 5,
        });
        let mut stream = OpStream::new(
            format!("heavy query movement, trial {trial}"),
            [8, 16, 64][trial as usize % 3],
            objects,
            installs.collect(),
        );
        for cycle in 0..25 {
            // f_qry far above the paper's 30% default, on purpose.
            let mut spec_events = Vec::new();
            for qi in 0..n_qry {
                if rng.gen_bool(0.5) {
                    spec_events.push(SpecEvent::Update {
                        id: QueryId(qi),
                        spec: knn(Point::new(rng.gen(), rng.gen())),
                    });
                }
            }
            // Object moves in every other cycle, so records and pending
            // query events target the same cells within a batch.
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
            stream.push(object_events, spec_events);
        }
        verify(&stream, &shard_lanes(&SHARD_COUNTS));
    }
}

/// The paper's workload shapes: network, uniform and skewed movement,
/// with moving queries.
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
        verify(&paper_stream(&params), &shard_lanes(&SHARD_COUNTS));
    }
}

/// The full event vocabulary, including object appear/disappear and query
/// install/update/terminate of every kind (which the generated workloads
/// do not exercise): random streams must agree on every query's result
/// (ids *and* distance bits), on the changed lists, and on the metrics
/// totals at every cycle.
#[test]
fn random_streams_with_churn_are_shard_invariant() {
    for trial in 0..6u64 {
        let stream = OpStream::mixed(0xD17E_0000 + trial, 120, 27, Anchors::Free)
            .dim([8, 16, 64][trial as usize % 3]);
        verify(&stream, &shard_lanes(&SHARD_COUNTS));
    }
}
