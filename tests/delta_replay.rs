//! Delta-replay conformance: folding the subscription layer's delta
//! stream (`CpmServer` → `DeltaFanout` → `Replica`) over the initial
//! result must reconstruct the full per-epoch results **bit-identically**
//! — against the server's own results, against brute-force ground truth,
//! and identically across thread counts (T = 1 and T ∈ {2, 4, 8}) —
//! under object, query, and moving-query churn, k-NN and range alike.
//! The wide-k section pins delta *capture* itself: every delta the engine
//! emits is the diff of the materialized cycle-start and cycle-end lists,
//! and the encoded stream of a seeded run keeps its checksum.

mod common;

use std::num::NonZeroUsize;

use common::{case_budget, events_of, paper_stream, thread_lanes};
use std::collections::BTreeMap;

use cpm_suite::core::{
    CpmServerBuilder, CycleDeltas, DeltaScratch, Neighbor, NeighborDelta, SpecEvent,
};
use cpm_suite::gen::SpeedClass;
use cpm_suite::geom::QueryId;
use cpm_suite::grid::QueryKind;
use cpm_suite::sim::{verify, Anchors, OpStream, SimParams, WorkloadKind};
use cpm_suite::wire::{crc32, Encode, Writer};

use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The paper's workload shapes (network, uniform, skewed — all with
/// moving queries): replicas must equal the brute-force oracle at every
/// epoch, and the delta batches must be identical across thread counts.
#[test]
fn delta_replay_matches_oracle_on_generated_workloads() {
    for (seed, workload) in [
        (21u64, WorkloadKind::Network { grid_streets: 8 }),
        (22, WorkloadKind::Uniform),
        (23, WorkloadKind::Skewed { hotspots: 3 }),
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

/// One case of the two properties below: 22 cycles of full churn — random
/// object streams plus subscribe / move / unsubscribe of every kind — in
/// which every epoch's folded replicas must equal the server's results,
/// brute force, and the one-thread lane's delta batches.
fn replay_under_churn(seed: u64, dim: u32, n_obj: u32, kind: QueryKind) {
    let stream = OpStream::mixed(seed, n_obj, 22, Anchors::Free).dim(dim);
    assert!(events_of(&stream, kind) >= 2, "no {kind:?} subscription");
    verify(&stream, &thread_lanes(&THREAD_COUNTS));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: case_budget(8), ..ProptestConfig::default() })]

    #[test]
    fn knn_delta_replay_reconstructs_results_under_churn(
        seed in 0u64..1 << 32,
        dim_ix in 0usize..3,
        n_obj in 60u32..140,
    ) {
        replay_under_churn(0xDE17A ^ seed, [8, 16, 64][dim_ix], n_obj, QueryKind::Knn);
    }

    /// Moving regions, rectangles and circles.
    #[test]
    fn range_delta_replay_reconstructs_results_under_churn(
        seed in 0u64..1 << 32,
        dim_ix in 0usize..3,
        n_obj in 60u32..140,
    ) {
        replay_under_churn(0x4A46E ^ seed, [8, 16, 64][dim_ix], n_obj, QueryKind::Range);
    }
}

/// The benchmark's `delta_churn` workload at 1/20 scale: slow objects
/// (one-cell moves) under wide static results. The conformance streams
/// above draw k ∈ 1..=3; only this one reaches capture and fold at k = 64,
/// where half of a result is reordered every cycle.
fn wide_k_stream() -> OpStream {
    paper_stream(&SimParams {
        n_objects: 5_000,
        n_queries: WIDE_QUERIES,
        k: 64,
        object_speed: SpeedClass::Slow,
        query_speed: SpeedClass::Slow,
        f_obj: 0.5,
        f_qry: 0.0,
        grid_dim: 32,
        timestamps: 12,
        workload: WorkloadKind::Uniform,
        seed: 2005,
    })
}

const WIDE_QUERIES: usize = 100;

#[test]
fn wide_k_delta_replay_matches_oracle() {
    verify(&wide_k_stream(), &thread_lanes(&[1, 4]));
}

/// Length and CRC-32 of the concatenated `CycleDeltas` encodings of
/// [`wide_k_stream`], taken by running this file against commit `81bb396`
/// (the mutation-log capture this one replaced).
const WIDE_K_ENCODED: (usize, u32) = (587_924, 2_248_539_713);

/// Replay `stream` into a delta-capturing server and check capture from
/// outside the engine: every delta equals `diff(cycle-start list,
/// cycle-end list)` with both lists materialized here, and a live query
/// without a delta has bit-identical lists. Returns the concatenated
/// batch encodings and the delta entries seen.
fn capture_is_the_diff_of_the_materialized_lists(
    stream: &OpStream,
    threads: usize,
) -> (Writer, usize) {
    let mut server = CpmServerBuilder::new(stream.grid_dim)
        .threads(NonZeroUsize::new(threads).unwrap())
        .deltas(true)
        .build();
    let mut batch = CycleDeltas::default();
    let mut lists: BTreeMap<QueryId, Vec<Neighbor>> = BTreeMap::new();
    let (mut encoded, mut entries) = (Writer::new(), 0);
    let mut scratch = DeltaScratch::default();
    for cycle in &stream.cycles {
        assert!(cycle.control.is_none() && cycle.rnn_moves.is_empty());
        server
            .process_cycle_with_deltas_into(&cycle.object_events, &cycle.spec_events, &mut batch)
            .unwrap();
        for ev in &cycle.spec_events {
            match ev {
                SpecEvent::Terminate { id } => drop(lists.remove(id)),
                ev => drop(lists.entry(ev.id()).or_default()),
            }
        }
        let mut captured = batch.deltas.iter().peekable();
        for (&qid, start) in &mut lists {
            let end = server.result(qid).expect("a live query");
            let expected = NeighborDelta::diff(batch.epoch, start, end, &mut scratch);
            let delta = captured.next_if(|(id, _)| *id == qid).map(|(_, d)| d);
            assert_eq!(
                delta,
                (!expected.is_empty()).then_some(&expected),
                "{qid}, epoch {}, threads {threads}, replay with {}",
                batch.epoch,
                stream.label
            );
            entries += expected.len();
            *start = end.to_vec();
        }
        assert_eq!(captured.next(), None, "delta for a query that is not live");
        batch.encode(&mut encoded);
    }
    (encoded, entries)
}

#[test]
fn wide_k_capture_is_the_diff_of_the_materialized_lists() {
    let stream = wide_k_stream();
    for threads in [1, 4] {
        let (encoded, entries) = capture_is_the_diff_of_the_materialized_lists(&stream, threads);
        assert!(
            entries > 12 * WIDE_QUERIES * 16,
            "the stream lost its churn"
        );
        assert_eq!((encoded.len(), crc32(encoded.as_slice())), WIDE_K_ENCODED);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: case_budget(8), ..ProptestConfig::default() })]

    /// The same capture property under full churn of every neighbor-list
    /// kind: installs, moving geometries, terminations, range results.
    #[test]
    fn capture_is_the_diff_of_the_materialized_lists_under_churn(
        seed in 0u64..1 << 32,
        n_obj in 60u32..140,
        threads_ix in 0usize..2,
    ) {
        let stream = OpStream::mixed(0xCA97 ^ seed, n_obj, 22, Anchors::Strips);
        let (_, entries) = capture_is_the_diff_of_the_materialized_lists(&stream, [1, 4][threads_ix]);
        prop_assert!(entries > 0);
    }
}
