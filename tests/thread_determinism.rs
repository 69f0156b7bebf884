//! Determinism of parallel maintenance: a server on `T ∈ {2, 4}` threads
//! must report **bit-identical** results, changed lists, delta batches,
//! per-cycle metrics totals and influence regions to `T = 1` — threads
//! may move work between them, never change it.
//!
//! The harness-backed tests below replay test-sized streams, whose cycles
//! fall under the engine's inline grain: they pin the one code path at
//! every `T` against brute force. The last test is sized so that resolve,
//! the query events and the re-grids really split, and compares the
//! servers' every output and every query's book-keeping directly. Which
//! moves each query is handed is engine-internal; the engine's own unit
//! test checks them against a brute-force join at every thread count.

mod common;

use std::num::NonZeroUsize;

use common::{paper_stream, thread_lanes};
use cpm_suite::core::{
    AnyQuerySpec, CpmServer, CpmServerBuilder, CycleDeltas, PointQuery, RangeQuery, SpecEvent,
};
use cpm_suite::geom::{ObjectId, Point, QueryId, Rect};
use cpm_suite::grid::{CellCoord, ObjectEvent};
use cpm_suite::sim::{auto_regrid_policy, verify, Anchors, OpStream, SimParams, WorkloadKind};
use cpm_suite::wire::Encode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 2] = [2, 4];

/// Moving-query churn on several threads: every cycle moves about half of the
/// queries — alone, and interleaved with object updates that land inside
/// the old and new influence regions in the same batch (the "ignored
/// during update handling" path of Section 3.3 must be thread-invariant
/// too). Heavier and more targeted than the general churn stream, which
/// moves at most a few queries per cycle.
#[test]
fn threads_match_one_thread_under_heavy_query_movement() {
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
        verify(&stream, &thread_lanes(&THREAD_COUNTS));
    }
}

/// The paper's workload shapes: network, uniform and skewed movement,
/// with moving queries.
#[test]
fn threads_match_one_thread_on_generated_workloads() {
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
        verify(&paper_stream(&params), &thread_lanes(&THREAD_COUNTS));
    }
}

/// The full event vocabulary, including object appear/disappear and query
/// install/update/terminate of every kind (which the generated workloads
/// do not exercise): random streams must agree on every query's result
/// (ids *and* distance bits), on the changed lists, and on the metrics
/// totals at every cycle.
#[test]
fn random_streams_with_churn_are_thread_invariant() {
    for trial in 0..6u64 {
        let stream = OpStream::mixed(0xD17E_0000 + trial, 120, 27, Anchors::Free)
            .dim([8, 16, 64][trial as usize % 3]);
        verify(&stream, &thread_lanes(&THREAD_COUNTS));
    }
}

/// One cycle's input.
type Batch = (Vec<ObjectEvent>, Vec<SpecEvent<AnyQuerySpec>>);

/// A stream large enough that every parallel step splits — resolve holds
/// hundreds of queries per cycle, installs and re-grids hundreds of
/// searches — walking through what a split can get wrong:
///
/// * installs, updates and terminates in one batch, a terminate's slot
///   reused by an install later in the same batch;
/// * a population swing the auto re-grid policy acts on, in both
///   directions;
/// * cycles whose moves all fall on one query (one whole-workspace range
///   query is left), then on two — fewer queries than threads, and
///   than the resolve grain;
/// * a cycle below the inline grain.
fn split_stream(seed: u64) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut point = move || Point::new(rng.gen(), rng.gen());
    let mut coin = {
        let mut rng = StdRng::seed_from_u64(!seed);
        move |p: f64| rng.gen_bool(p)
    };
    let knn = |p: Point| AnyQuerySpec::Knn(PointQuery(p));
    let appear = |ids: std::ops::Range<u32>, point: &mut dyn FnMut() -> Point| {
        let appear = |id| ObjectEvent::Appear {
            id: ObjectId(id),
            pos: point(),
        };
        ids.map(appear).collect::<Vec<_>>()
    };
    let moves = |live: &[u32],
                 share: f64,
                 point: &mut dyn FnMut() -> Point,
                 coin: &mut dyn FnMut(f64) -> bool| {
        let chosen = live
            .iter()
            .filter(|_| coin(share))
            .copied()
            .collect::<Vec<_>>();
        let move_to = |id| ObjectEvent::Move {
            id: ObjectId(id),
            to: point(),
        };
        chosen.into_iter().map(move_to).collect::<Vec<_>>()
    };

    let mut stream: Vec<Batch> = vec![(appear(0..3_000, &mut point), Vec::new())];
    let mut live: Vec<u32> = (0..3_000).collect();
    let mut queries: Vec<u32> = (0..300).collect();
    let mut installs: Vec<SpecEvent<AnyQuerySpec>> = queries
        .iter()
        .map(|&q| SpecEvent::Install {
            id: QueryId(q),
            spec: knn(point()),
            k: 1 + q as usize % 8,
        })
        .collect();
    let whole = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
    installs.push(SpecEvent::Install {
        id: QueryId(10_000),
        spec: AnyQuerySpec::Range(RangeQuery::rect(whole)),
        k: 1,
    });
    stream.push((Vec::new(), installs));

    // Mixed churn: every batch updates, terminates and installs, each
    // install after the terminates so it takes a freed slot.
    let mut next_query = 300;
    for _ in 0..8 {
        let (mut events, mut terminated) = (Vec::new(), Vec::new());
        for (i, &q) in queries.iter().enumerate() {
            if i % 50 == 7 {
                terminated.push(q);
                events.push(SpecEvent::Terminate { id: QueryId(q) });
            } else if coin(0.1) {
                let spec = knn(point());
                events.push(SpecEvent::Update {
                    id: QueryId(q),
                    spec,
                });
            }
        }
        queries.retain(|q| !terminated.contains(q));
        for _ in 0..terminated.len() {
            let spec = knn(point());
            events.push(SpecEvent::Install {
                id: QueryId(next_query),
                spec,
                k: 4,
            });
            queries.push(next_query);
            next_query += 1;
        }
        stream.push((moves(&live, 0.4, &mut point, &mut coin), events));
    }

    // The population swings up fivefold, then back: the auto policy
    // re-grids finer, then coarser, re-registering every query.
    for step in 1..5u32 {
        let ids = step * 3_000..(step + 1) * 3_000;
        live.extend(ids.clone());
        stream.push((appear(ids, &mut point), Vec::new()));
    }
    for _ in 0..12 {
        stream.push((moves(&live, 0.2, &mut point, &mut coin), Vec::new()));
    }
    let gone = live.split_off(3_000);
    let disappear = gone
        .iter()
        .map(|&id| ObjectEvent::Disappear { id: ObjectId(id) });
    stream.push((disappear.collect(), Vec::new()));
    for _ in 0..12 {
        stream.push((moves(&live, 0.2, &mut point, &mut coin), Vec::new()));
    }

    // Only the whole-workspace range query is left: every move is its.
    let terminates = queries
        .drain(..)
        .map(|q| SpecEvent::Terminate { id: QueryId(q) });
    stream.push((
        moves(&live, 0.5, &mut point, &mut coin),
        terminates.collect(),
    ));
    stream.push((moves(&live, 0.8, &mut point, &mut coin), Vec::new()));
    // Two affected queries, four threads.
    let lone = SpecEvent::Install {
        id: QueryId(20_000),
        spec: knn(Point::new(0.5, 0.5)),
        k: 64,
    };
    stream.push((Vec::new(), vec![lone]));
    stream.push((moves(&live, 0.8, &mut point, &mut coin), Vec::new()));
    // Under the grain: three moves.
    stream.push((moves(&live[..3], 1.0, &mut point, &mut coin), Vec::new()));
    stream
}

/// One query's book-keeping: its id, how many of its visited cells are
/// registered (the influence region), the visit list and the frontier's
/// cell count.
type BookKeeping = (QueryId, usize, Vec<(CellCoord, f64)>, usize);

/// Every query's book-keeping, ascending by id.
fn book_keeping(server: &CpmServer) -> Vec<BookKeeping> {
    let state = |id| {
        let st = server.query_state(id).expect("listed");
        let frontier = st.heap.cell_entries();
        (id, st.influence_len, st.visit_list.clone(), frontier)
    };
    server.query_ids().into_iter().map(state).collect()
}

#[test]
fn every_parallel_step_is_bit_identical_across_thread_counts() {
    let stream = split_stream(0x7A_2EAD);
    let mut servers: Vec<CpmServer> = [1, 2, 4]
        .iter()
        .map(|&threads| {
            CpmServerBuilder::new(32)
                .threads(NonZeroUsize::new(threads).unwrap())
                .deltas(true)
                .regrid(auto_regrid_policy())
                .build()
        })
        .collect();
    let mut batch = CycleDeltas::default();
    let mut dims = std::collections::BTreeSet::new();
    for (cycle, (objects, queries)) in stream.iter().enumerate() {
        let mut outputs = Vec::new();
        for server in &mut servers {
            server
                .process_cycle_with_deltas_into(objects, queries, &mut batch)
                .unwrap_or_else(|e| panic!("cycle {cycle} refused: {e}"));
            server.check_invariants();
            let metrics = server.metrics();
            outputs.push((batch.encode_to_vec(), metrics, book_keeping(server)));
        }
        for (threads, output) in [2, 4].iter().zip(&outputs[1..]) {
            assert!(
                output == &outputs[0],
                "cycle {cycle}: T = {threads} diverged from T = 1"
            );
        }
        dims.insert(servers[0].grid().dim());
    }
    let metrics = servers[0].metrics();
    assert!(
        metrics.regrids >= 2 && dims.len() >= 2,
        "the policy must re-grid both ways: {} re-grids over dims {dims:?}",
        metrics.regrids
    );
}
