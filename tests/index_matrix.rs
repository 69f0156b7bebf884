//! Index-matrix conformance suite: the spatial-index backend behind the
//! grid facade is an implementation detail the paper's algorithm cannot
//! observe. Every lane of the matrix — backend ∈ {uniform `CellIndex`,
//! adaptive `QuadtreeIndex`} × shards S ∈ {1, 4} — must report results,
//! changed lists and delta streams **bit-identical** to the uniform
//! reference, including across mid-run re-grids and a full
//! snapshot → restore round-trip, and for *every* exact query kind via
//! the unified server sweep.

mod common;

use common::{case_budget, lanes, paper_stream};
use cpm_suite::core::{CpmError, CpmServerBuilder, EngineSnapshot, PointQuery, ShardedCpmEngine};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::{GridBuilder, IndexKind, SpatialIndex};
use cpm_suite::sim::{verify, Anchors, Control, Deploy, OpStream, Regrid, SimParams, WorkloadKind};
use proptest::prelude::*;

/// Shard counts each backend runs at (the acceptance spec's S ∈ {1, 4}).
const SHARD_COUNTS: [usize; 2] = [1, 4];
/// The full backend matrix every suite below sweeps.
const BACKENDS: [IndexKind; 2] = [IndexKind::Uniform, IndexKind::quadtree()];

/// The acceptance sweep: both backends × S ∈ {1, 4} on the drifting
/// hotspot workload, re-gridding mid-run (refine then coarsen) and
/// round-tripping every lane through a snapshot between the two re-grid
/// points (a restore under the other backend must be refused with
/// `IndexMismatch`) — all bit-identical to the uniform reference and
/// anchored to the brute-force oracle.
#[test]
fn index_matrix_is_bit_identical_across_regrids_and_snapshots() {
    let params = SimParams {
        n_objects: 250,
        n_queries: 10,
        k: 4,
        timestamps: 12,
        grid_dim: 32,
        workload: WorkloadKind::Drift { peak_factor: 4.0 },
        ..SimParams::default()
    };
    let stream = paper_stream(&params)
        .control(5, Control::Regrid(64))
        .control(7, Control::SnapshotRoundTrip)
        .control(10, Control::Regrid(16));
    let matrix = lanes(&BACKENDS, &SHARD_COUNTS, Regrid::Scheduled, Deploy::Single);
    let ran = verify(&stream, &matrix);
    assert_eq!(ran.regrids, 2 * matrix.len(), "every lane re-grids twice");
}

/// Every exact query kind — k-NN, range, aggregate-NN, constrained and
/// reverse-NN — on a quadtree-backed unified server matches the uniform
/// reference bit-for-bit and the brute-force oracles, at S ∈ {1, 4}. This
/// is the cross-backend leg of the unified-server conformance sweep
/// (`tests/unified_server.rs` runs the uniform leg).
#[test]
fn unified_server_on_quadtree_matches_uniform_dedicated_engines() {
    let quadtree = lanes(
        &BACKENDS[1..],
        &SHARD_COUNTS,
        Regrid::Pinned,
        Deploy::Single,
    );
    verify(&OpStream::mixed(0x0CF5, 90, 16, Anchors::Free), &quadtree);
}

/// A denser grid sharpens the quadtree's bucket structure (deeper splits,
/// more partially-occupied internal nodes); results must not care.
#[test]
fn unified_server_on_quadtree_conformance_on_fine_grid() {
    let quadtree = lanes(
        &BACKENDS[1..],
        &SHARD_COUNTS,
        Regrid::Pinned,
        Deploy::Single,
    );
    let stream = OpStream::mixed(0x0CF5, 220, 8, Anchors::Free).dim(64);
    verify(&stream, &quadtree);
}

/// Restoring a snapshot under a different configured backend is a typed
/// refusal at every API level; restoring under the recorded backend
/// resumes bit-identically (the harness's `SnapshotRoundTrip` control
/// covers mid-stream state — this covers the error surface end to end,
/// including a non-default split threshold).
#[test]
fn snapshot_restore_refuses_backend_swaps() {
    let kind = IndexKind::Quadtree {
        split_threshold: 16,
    };
    let grid = GridBuilder::new(32).index(kind).build();
    let mut engine: ShardedCpmEngine<PointQuery, _> = ShardedCpmEngine::with_grid(grid, 2);
    engine.populate((0..64u32).map(|i| {
        let t = f64::from(i) / 64.0;
        (ObjectId(i), Point::new(t, (t * 7.0) % 1.0))
    }));
    engine
        .install(QueryId(0), PointQuery(Point::new(0.3, 0.6)), 5)
        .unwrap();
    engine.process_cycle(&[], &[]);

    let snap = EngineSnapshot::capture(&engine);
    match snap.restore_expecting(IndexKind::Uniform) {
        Err(CpmError::IndexMismatch { expected, actual }) => {
            assert_eq!(expected, kind);
            assert_eq!(actual, IndexKind::Uniform);
        }
        other => panic!("expected an index mismatch, got {other:?}"),
    }
    // The default-threshold quadtree is a *different* backend config too.
    assert!(matches!(
        snap.restore_expecting(IndexKind::quadtree()),
        Err(CpmError::IndexMismatch { .. })
    ));
    let restored = snap.restore_expecting(kind).unwrap();
    assert_eq!(restored.grid().index().kind(), kind);
    assert_eq!(
        restored.result(QueryId(0)).unwrap(),
        engine.result(QueryId(0)).unwrap()
    );
}

/// The server builder surfaces backend misconfiguration as a typed error
/// (quadtrees need power-of-two resolutions), and the panicking `build`
/// matches it.
#[test]
fn builder_rejects_non_power_of_two_quadtree_dims() {
    let err = CpmServerBuilder::new(48)
        .index(IndexKind::quadtree())
        .try_build()
        .unwrap_err();
    assert!(matches!(err, CpmError::InvalidDim(_)), "got {err:?}");
    // Uniform grids accept any dim ≥ 1.
    let server = CpmServerBuilder::new(48).try_build().unwrap();
    assert_eq!(server.grid().dim(), 48);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: case_budget(12), ..ProptestConfig::default()
    })]

    /// Randomized index-matrix sweep: arbitrary seeds, populations and
    /// grid resolutions (power-of-two, so the whole matrix is buildable)
    /// must stay bit-identical across backends — no re-grid schedule, one
    /// shard per backend, so shrinking stays tractable.
    #[test]
    fn random_streams_are_backend_independent(
        seed in 0u64..1_000_000,
        n_objects in 40usize..160,
        dim_pow in 3u32..7,
        snapshot in 0u32..2,
    ) {
        let params = SimParams {
            n_objects,
            n_queries: 6,
            k: 3,
            timestamps: 6,
            grid_dim: 1 << dim_pow,
            workload: WorkloadKind::Drift { peak_factor: 3.0 },
            seed,
            ..SimParams::default()
        };
        let mut stream = paper_stream(&params);
        if snapshot == 1 {
            stream = stream.control(5, Control::SnapshotRoundTrip);
        }
        verify(&stream, &lanes(&BACKENDS, &[1], Regrid::Scheduled, Deploy::Single));
    }
}
