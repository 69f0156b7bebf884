//! Delta-replay conformance: folding the subscription layer's delta
//! stream (`CpmServer` → `DeltaFanout` → `Replica`) over the initial
//! result must reconstruct the full per-epoch results **bit-identically**
//! — against the server's own results, against brute-force ground truth,
//! and identically across shard counts (sequential and S ∈ {2, 4, 8}) —
//! under object, query, and moving-query churn, k-NN and range alike.

mod common;

use common::{case_budget, events_of, paper_stream, shard_lanes};
use cpm_suite::grid::QueryKind;
use cpm_suite::sim::{verify, Anchors, OpStream, SimParams, WorkloadKind};

use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The paper's workload shapes (network, uniform, skewed — all with
/// moving queries): replicas must equal the brute-force oracle at every
/// epoch, and the delta batches must be identical across shard counts.
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
        verify(&paper_stream(&params), &shard_lanes(&SHARD_COUNTS));
    }
}

/// One case of the two properties below: 22 cycles of full churn — random
/// object streams plus subscribe / move / unsubscribe of every kind — in
/// which every epoch's folded replicas must equal the server's results,
/// brute force, and the sequential lane's delta batches.
fn replay_under_churn(seed: u64, dim: u32, n_obj: u32, kind: QueryKind) {
    let stream = OpStream::mixed(seed, n_obj, 22, Anchors::Free).dim(dim);
    assert!(events_of(&stream, kind) >= 2, "no {kind:?} subscription");
    verify(&stream, &shard_lanes(&SHARD_COUNTS));
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
