//! The byte formats are pinned as frames earlier builds wrote.
//!
//! * The quadtree index's removal moved no byte: the index tag stays
//!   where it was in the snapshot payload and in `ClusterMsg::Hello`,
//!   always `0`, so artifacts written before the removal read back
//!   unchanged — and the one thing they could say that this build cannot
//!   honour, tag `1`, is a typed refusal on every path that reads a
//!   snapshot. (The `Hello` refusal is
//!   `tests/cluster.rs::quadtree_hello_is_rejected_and_the_worker_exits_cleanly`.)
//! * A cycle's batch and deltas frames are the bytes the owned
//!   `ClusterMsg::Batch` / `Deltas` encoder wrote before only the frame
//!   builders and the borrowed readers were left: the builders rebuild
//!   them byte for byte, the readers read them back, and every damaged
//!   or arbitrary input is a typed refusal within bounded allocation —
//!   the merge barrier's commit of a worker's payload included.
//! * A durable server's journal is the bytes `DurableCpmServer` wrote
//!   while it still had one install call per query kind: the one
//!   `install_spec` call writes them again, and recovery replays them.
//! * An auto re-grid policy is the six fields it was while its tuning
//!   was settable: a snapshot of an auto-policy server reads back with
//!   the same policy and is written again byte for byte.

mod common;

use std::num::NonZeroUsize;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{case_budget, quadtree_era_frame};
use cpm_suite::cluster::{ClusterError, MergeBuffer};
use cpm_suite::core::codec::CycleDeltasCursor;
use cpm_suite::core::{
    AggregateFn, AnnQuery, AnyQuerySpec, ConstrainedQuery, CpmServer, CpmServerBuilder,
    CycleDeltas, DurableCpmServer, Neighbor, NeighborDelta, PointQuery, RangeQuery, RecoveryError,
    RegridPolicy, Snapshot, SpecEvent,
};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::wire::cluster::{
    deltas_frame_into, BatchFrame, BatchRef, ClusterMsg, DeltasHeader, TileRect,
};
use cpm_suite::wire::{
    write_frame, Decode, Encode, WireError, Writer, FRAME_CLUSTER, FRAME_SNAPSHOT, WIRE_VERSION,
};

use proptest::prelude::*;

/// `Snapshot::capture(&server, 7).to_frame()` as commit `2f1de07` (the
/// last with a quadtree) wrote it for a uniform-grid server: dim 16, two
/// shards, delta capture on, six objects, a k-NN and a range query, two
/// cycles run.
const PARENT_SNAPSHOT_FRAME: &str = "\
    574d504301000100290400001000000000020000000000000001000000000000\
    0000000000000000000000000000000000f03f00000000000000000000000000\
    000000000200000000000000bc000000000000000500000000000000fa000000\
    00000000e1000000000000000200000000000000000000000000000002000000\
    0000000002000000000000000000000000000000000000000000000000000000\
    000000007c000000000000000400000000000000ab0000000000000092000000\
    0000000001000000000000000000000000000000020000000000000040000000\
    0000000001000000000000004f000000000000004f0000000000000001000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000006000000\
    00000000000000000000e03f000000000000d03f01000000000000000000e03f\
    000000000000e03f02000000000000000000d03f000000000000e83f03000000\
    000000000000d83f000000000000c03f04000000000000000000e03f00000000\
    0000e03f05000000000000000000e43f000000000000ec3f0200000000000000\
    00000000000000e03f000000000000e03f020000000000000002000000010000\
    0000000000000000000400000000000000000000000100000001010000000000\
    00d03f000000000000e83f000000000000d03f00000001000000000100000002\
    0000000000000000000000020000000000000000010000000100000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    000000000000000000000000000700000000000000058eea86";

/// The `Hello` frame `2f1de07` wrote for worker 1 of a uniform-grid
/// cluster: dim 16, tile columns 8..=15, coverage columns 6..=15.
const PARENT_HELLO_FRAME: &str = "\
    574d5043010003002c0000000001000100000010000000000800000000000000\
    0f0000000f00000006000000000000000f0000000f000000bac69fdf";

/// A cycle's batch as the owned `ClusterMsg::Batch` encoder of `100ebb6`
/// wrote it: epoch 5, an appear, a move and a disappear, and an encoded
/// install batch ([`pinned_batch`]).
const PARENT_BATCH_FRAME: &str = "\
    574d504301000300620000000305000000000000000300000000030000000000\
    00000000d03f000000000000e83f0109000000000000000000e03f0000000000\
    00c03f02040000002200000001000000000700000000000000000000e43f0000\
    00000000d83f030000000000000095f6b56a";

/// A cycle's deltas as the owned `ClusterMsg::Deltas` encoder of
/// `100ebb6` wrote them: worker 1, epoch 5, and a `CycleDeltas` whose
/// first `added` list spills past a `DeltaBuf`'s inline capacity
/// ([`pinned_deltas`]).
const PARENT_DELTAS_FRAME: &str = "\
    574d504301000300c100000004010000000500000000000000b0000000050000\
    0000000000020000000200000007000000020000000200000005000000000000\
    00060000000a000000000000000000b03f0b000000000000000000c03f0c0000\
    00000000000000c83f0d000000000000000000d03f0e000000000000000000d4\
    3f0f000000000000000000d83f02000000010000000200000001000000140000\
    00000000000000a03f0700000005000000000000000100000003000000000000\
    000000c03f000000000000000035a1bf0f";

/// The initial snapshot commit `701bbaf`'s `DurableCpmServer::new` took
/// of [`journal_fixture`]'s server (checkpointing off): dim 8, two
/// threads, twelve objects, no query, watermark 0.
const PARENT_JOURNAL_SNAPSHOT: &str = "\
    574d504301000100280400000800000000020000000000000000000000000000\
    0000000000000000000000000000000000f03f00000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    000000000000000000000000000000000000000000000000000000000c000000\
    000000000000000000000000000000000000000001000000555555555555b53f\
    aaaaaaaaaaaada3f02000000555555555555c53faaaaaaaaaaaaea3f03000000\
    000000000000d03f000000000000d03f04000000555555555555d53f54555555\
    5555e53f05000000abaaaaaaaaaada3f605555555555b53f0600000000000000\
    0000e03f000000000000e03f07000000abaaaaaaaaaae23f585555555555ed3f\
    08000000555555555555e53f505555555555d53f09000000000000000000e83f\
    000000000000e83f0a000000abaaaaaaaaaaea3f605555555555c53f0b000000\
    555555555555ed3fa8aaaaaaaaaae23f00000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000463a5fd9";

/// The journal `701bbaf`'s `DurableCpmServer` appended over
/// [`PARENT_JOURNAL_SNAPSHOT`]: one record of every kind
/// ([`journaled_ops`]) — a k-NN, a range, an ANN and a constrained
/// install, an RNN install, an update, an RNN move, a termination and a
/// cycle, sequence numbers 1 to 9.
const PARENT_JOURNAL: &str = "\
    574d504301000200260000000100000000000000010000000000000000000000\
    e03f000000000000e03f02000000000000002c30da12574d5043010002002f00\
    0000020000000000000001010000000101000000000000d03f000000000000e8\
    3f000000000000d03f0000000100000000d159dec3574d5043010002003b0000\
    00030000000000000001020000000202000000000000000000d03f0000000000\
    00d03f000000000000e83f000000000000e03f000200000000000000563517da\
    574d504301000200460000000400000000000000010300000003000000000000\
    d83f000000000000d83f000000000000d83f000000000000d83f000000000000\
    f03f000000000000f03f02000000000000008e0f5592574d5043010002001d00\
    000005000000000000000204000000000000000000e43f000000000000d03f15\
    541ce0574d5043010002001e0000000600000000000000030000000000000000\
    000000c03f000000000000ec3fe8271085574d5043010002001d000000070000\
    00000000000404000000000000000000e83f000000000000e43fe2f03871574d\
    5043010002000d00000008000000000000000503000000b6b75f56574d504301\
    00020026000000090000000000000000010000000105000000000000000000e0\
    3f000000000000e03f000000006844799f";

/// `Snapshot::capture(&server, 9).to_frame()` as commit `619967e` (the
/// last with a settable auto re-grid tuning) wrote it for
/// [`auto_fixture`]'s server: the auto policy's six fields are the fixed
/// tuning with `check_every` 8, and the controller has evaluated once.
const PARENT_AUTO_SNAPSHOT: &str = "\
    574d504301000100660400001000000000020000000000000000011000000000\
    0400000800000000000000333333333333f33f10000000000000000000000000\
    0010409a9999999999b93f0000000000000000cdcccc8c25273e400108000000\
    0000000000000000000000000900000000000000c0000000000000000b000000\
    00000000ab000000000000007e00000000000000010000000000000001000000\
    0000000002000000000000000900000000000000000000000000000000000000\
    000000000000000000000000c0000000000000000b00000000000000ab000000\
    000000007e000000000000000100000000000000010000000000000002000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    000000000a000000000000000000000000000000000000000000d03f01000000\
    000000000000c03f000000000000d03f02000000000000000000d03f00000000\
    0000d03f03000000000000000000d83f000000000000d03f0400000000000000\
    0000e03f000000000000d03f05000000000000000000e43f000000000000d03f\
    06000000000000000000e83f000000000000d03f07000000000000000000ec3f\
    000000000000d03f080000000000000000000000000000000000d03f09000000\
    cdccccccccccec3f303333333333d33f010000000000000000000000000000e0\
    3f000000000000e03f02000000000000000200000004000000000000000000d0\
    3f03000000a8f4979b77e3d13f01000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    0000000000000000000000000000000000000000000000000000000000000000\
    000000000000000000000900000000000000f104766f";

fn bytes(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    let nibble = |d: u8| (d as char).to_digit(16).expect("a hex digit") as u8;
    digits
        .chunks(2)
        .map(|pair| nibble(pair[0]) << 4 | nibble(pair[1]))
        .collect()
}

/// Payload offset of the index tag in a snapshot: after the `u32` dim.
const SNAPSHOT_INDEX_TAG_AT: usize = 4;

#[test]
fn parent_commit_frames_round_trip_byte_identically() {
    let frame = bytes(PARENT_SNAPSHOT_FRAME);
    let snap = Snapshot::from_frame(&frame).expect("a parent-commit snapshot decodes");
    assert_eq!((snap.engine.dim, snap.engine.shards), (16, 2));
    assert_eq!((snap.engine.epoch, snap.watermark), (2, 7));
    assert_eq!(snap.to_frame(), frame, "re-encoding moved a byte");
    let server = CpmServer::restore(&snap).expect("a parent-commit snapshot restores");
    server.check_invariants();
    assert_eq!(server.result(QueryId(0)).unwrap().len(), 2);
    assert_eq!(
        Snapshot::capture(&server, snap.watermark).to_frame(),
        frame,
        "the restored server captures to different bytes"
    );
    let (recovered, report) = DurableCpmServer::recover(&frame, &[], 0).unwrap();
    assert_eq!((report.epoch, report.replayed), (2, 0));
    assert_eq!(recovered.snapshot_bytes(), frame);

    let frame = bytes(PARENT_HELLO_FRAME);
    let hello = ClusterMsg::from_frame(&frame).expect("a parent-commit Hello decodes");
    let expected = ClusterMsg::Hello {
        version: WIRE_VERSION,
        worker: 1,
        dim: 16,
        tile: TileRect::new(8, 0, 15, 15),
        coverage: TileRect::new(6, 0, 15, 15),
    };
    assert_eq!(hello, expected);
    assert_eq!(hello.to_frame(), frame, "re-encoding moved a byte");
}

/// The server [`PARENT_AUTO_SNAPSHOT`] was taken of: dim 16, two threads,
/// the default auto policy, ten objects, a k-NN query, nine cycles run.
fn auto_fixture() -> CpmServer {
    let mut server = CpmServerBuilder::new(16)
        .threads(NonZeroUsize::new(2).unwrap())
        .regrid(RegridPolicy::auto())
        .build();
    server
        .populate((0..10u32).map(|i| {
            let t = f64::from(i) / 10.0;
            (ObjectId(i), Point::new(t, (t * 7.0) % 1.0))
        }))
        .unwrap();
    let _ = server
        .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 2)
        .unwrap();
    for step in 0..9u32 {
        let moved = ObjectEvent::Move {
            id: ObjectId(step),
            to: Point::new(0.125 * f64::from(step % 8), 0.25),
        };
        let _ = server.process_cycle(&[moved], &[]).unwrap();
    }
    server
}

#[test]
fn parent_commit_auto_policy_snapshot_is_rewritten_byte_identically() {
    let frame = bytes(PARENT_AUTO_SNAPSHOT);
    let snap = Snapshot::from_frame(&frame).expect("a parent-commit auto snapshot decodes");
    assert_eq!(snap.engine.policy, RegridPolicy::auto());
    assert_eq!((snap.engine.epoch, snap.watermark), (9, 9));
    assert_eq!(snap.to_frame(), frame, "re-encoding moved a byte");
    assert_eq!(
        Snapshot::capture(&auto_fixture(), 9).to_frame(),
        frame,
        "the fixture captures to different bytes"
    );
    let server = CpmServer::restore(&snap).expect("a parent-commit auto snapshot restores");
    server.check_invariants();
    assert_eq!(*server.regrid_policy(), RegridPolicy::auto());
    assert_eq!(
        Snapshot::capture(&server, snap.watermark).to_frame(),
        frame,
        "the restored server captures to different bytes"
    );
}

#[test]
fn quadtree_snapshot_is_refused_typed_by_decode_and_by_recovery() {
    let mut server = CpmServerBuilder::new(16)
        .threads(NonZeroUsize::new(2).unwrap())
        .build();
    server
        .populate((0..20u32).map(|i| {
            let t = f64::from(i) / 20.0;
            (ObjectId(i), Point::new(t, (t * 3.0) % 1.0))
        }))
        .unwrap();
    let _ = server
        .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 3)
        .unwrap();
    let fresh = Snapshot::capture(&server, 0).to_frame();
    let old = quadtree_era_frame(FRAME_SNAPSHOT, &fresh, SNAPSHOT_INDEX_TAG_AT);

    let refusal = WireError::Invalid {
        offset: SNAPSHOT_INDEX_TAG_AT,
        what: "quadtree index backend is no longer supported",
    };
    assert_eq!(Snapshot::from_frame(&old).unwrap_err(), refusal);
    match DurableCpmServer::recover(&old, &[], 0) {
        Err(RecoveryError::Wire(e)) => assert_eq!(e, refusal),
        other => panic!("recovery accepted a quadtree snapshot: {other:?}"),
    }
}

/// The durable server [`PARENT_JOURNAL_SNAPSHOT`] was taken of.
fn journal_fixture() -> DurableCpmServer {
    let mut server = CpmServerBuilder::new(8)
        .threads(NonZeroUsize::new(2).unwrap())
        .build();
    server
        .populate((0..12u32).map(|i| {
            let t = f64::from(i) / 12.0;
            (ObjectId(i), Point::new(t, (t * 5.0) % 1.0))
        }))
        .unwrap();
    DurableCpmServer::new(server, 0)
}

/// The operations [`PARENT_JOURNAL`] records, through the one query
/// surface. The range install passes `k = 2`: the journal must carry the
/// normalized `k` the query was installed with.
fn journaled_ops(d: &mut DurableCpmServer) {
    let p = Point::new;
    let _ = d
        .install_spec(QueryId(0), PointQuery(p(0.5, 0.5)), 2)
        .unwrap();
    let zone = RangeQuery::circle(p(0.25, 0.75), 0.25);
    let _ = d.install_spec(QueryId(1), zone, 2).unwrap();
    let meeting = AnnQuery::new(vec![p(0.25, 0.25), p(0.75, 0.5)], AggregateFn::Sum);
    let _ = d.install_spec(QueryId(2), meeting, 2).unwrap();
    let quadrant = ConstrainedQuery::northeast_of(p(0.375, 0.375));
    let _ = d.install_spec(QueryId(3), quadrant, 2).unwrap();
    let _ = d.install_rnn(QueryId(4), p(0.625, 0.25)).unwrap();
    let _ = d
        .update_spec(QueryId(0), PointQuery(p(0.125, 0.875)))
        .unwrap();
    let _ = d.update_rnn(QueryId(4), p(0.75, 0.625)).unwrap();
    d.terminate(QueryId(3)).unwrap();
    let moved = ObjectEvent::Move {
        id: ObjectId(5),
        to: p(0.5, 0.5),
    };
    let _ = d.process_cycle(&[moved], &[]).unwrap();
}

#[test]
fn parent_commit_journal_is_rewritten_and_recovered_byte_identically() {
    let (snapshot, journal) = (bytes(PARENT_JOURNAL_SNAPSHOT), bytes(PARENT_JOURNAL));
    let mut live = journal_fixture();
    assert_eq!(live.snapshot_bytes(), snapshot, "the snapshot moved a byte");
    journaled_ops(&mut live);
    assert_eq!(live.journal_bytes(), journal, "the journal moved a byte");
    assert_eq!((live.watermark(), live.server().epoch()), (9, 1));

    let (recovered, report) = DurableCpmServer::recover(&snapshot, &journal, 0).unwrap();
    assert_eq!((report.replayed, report.epoch), (9, 1));
    assert_eq!(report.tail_error, None);
    let (want, got) = (live.server(), recovered.server());
    got.check_invariants();
    for id in (0..5).map(QueryId) {
        assert_eq!(got.kind_of(id), want.kind_of(id), "{id}");
        assert_eq!(got.result(id), want.result(id), "{id}");
    }
    assert_eq!(got.kind_of(QueryId(3)), None, "terminated");
    // What the parent commit's server held after these operations.
    let ids = |id| got.result(QueryId(id)).unwrap().iter().map(|n| n.id.0);
    assert_eq!(ids(0).collect::<Vec<_>>(), [2, 4]);
    assert_eq!(ids(2).collect::<Vec<_>>(), [3, 5]);
    assert_eq!(
        got.rnn_result(QueryId(4)),
        Some(&[ObjectId(9), ObjectId(11)][..])
    );
    assert_eq!(got.rnn_result(QueryId(4)), want.rnn_result(QueryId(4)));
    assert_eq!(recovered.journal_bytes(), journal);
}

/// What [`PARENT_BATCH_FRAME`] carries: its epoch, object events and
/// query events.
fn pinned_batch() -> (u64, Vec<ObjectEvent>, Vec<SpecEvent<AnyQuerySpec>>) {
    let objects = vec![
        ObjectEvent::Appear {
            id: ObjectId(3),
            pos: Point::new(0.25, 0.75),
        },
        ObjectEvent::Move {
            id: ObjectId(9),
            to: Point::new(0.5, 0.125),
        },
        ObjectEvent::Disappear { id: ObjectId(4) },
    ];
    let installs = vec![SpecEvent::Install {
        id: QueryId(7),
        spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.625, 0.375))),
        k: 3,
    }];
    (5, objects, installs)
}

/// What [`PARENT_DELTAS_FRAME`] carries as its payload.
fn pinned_deltas() -> CycleDeltas {
    let neighbor = |id, dist| Neighbor {
        id: ObjectId(id),
        dist,
    };
    let spilled = NeighborDelta {
        epoch: 5,
        added: (0..6u32)
            .map(|i| neighbor(10 + i, 0.0625 * f64::from(i + 1)))
            .collect(),
        removed: vec![ObjectId(1), ObjectId(2)].into(),
        reordered: vec![neighbor(20, 0.03125)].into(),
    };
    let small = NeighborDelta {
        epoch: 5,
        added: vec![neighbor(3, 0.125)].into(),
        ..NeighborDelta::default()
    };
    CycleDeltas {
        epoch: 5,
        changed: vec![QueryId(2), QueryId(7)],
        deltas: vec![(QueryId(2), spilled), (QueryId(7), small)],
    }
}

/// A full walk of an encoded `CycleDeltas` through the cursor, as the
/// merge barrier reads a worker's payload: the stamped epoch and the
/// changed list are returned, every delta is handed to `visit` as it is
/// read.
fn walk(
    payload: &[u8],
    mut visit: impl FnMut(QueryId, NeighborDelta),
) -> Result<(u64, Vec<QueryId>), WireError> {
    let (mut cursor, epoch) = CycleDeltasCursor::open(payload)?;
    let mut changed = Vec::new();
    while let Some(id) = cursor.next_changed(payload)? {
        changed.push(id);
    }
    while let Some(id) = cursor.next_delta_id(payload)? {
        visit(id, cursor.delta(payload)?);
    }
    Ok((epoch, changed))
}

#[test]
fn parent_commit_cycle_frames_read_back_and_rebuild_byte_identically() {
    let frame = bytes(PARENT_BATCH_FRAME);
    let (epoch, objects, installs) = pinned_batch();
    let mut buf = Vec::new();
    let batch = BatchRef::from_frame(&frame, &mut buf)
        .expect("a parent-commit batch reads")
        .expect("a cycle's batch");
    assert_eq!((batch.epoch, batch.objects), (epoch, &objects[..]));
    let queries = Vec::<SpecEvent<AnyQuerySpec>>::decode_all(batch.queries).unwrap();
    assert_eq!(format!("{queries:?}"), format!("{installs:?}"));
    let mut builder = BatchFrame::default();
    builder.begin(epoch, Vec::new());
    for ev in &objects {
        builder.push(ev);
    }
    assert_eq!(
        builder.finish(&installs.encode_to_vec()),
        frame,
        "rebuilding moved a byte"
    );

    let frame = bytes(PARENT_DELTAS_FRAME);
    let want = pinned_deltas();
    assert!(
        want.deltas[0].1.added.len() > 4,
        "the pin spills a DeltaBuf"
    );
    let header = DeltasHeader::from_frame(&frame)
        .expect("a parent-commit deltas frame reads")
        .expect("a cycle's deltas");
    assert_eq!((header.worker, header.epoch), (1, 5));
    let mut deltas = Vec::new();
    let (epoch, changed) = walk(&frame[header.payload], |id, d| deltas.push((id, d))).unwrap();
    assert_eq!(
        CycleDeltas {
            epoch,
            changed,
            deltas
        },
        want
    );
    let mut rebuilt = Vec::new();
    deltas_frame_into(1, 5, &want, &mut rebuilt);
    assert_eq!(rebuilt, frame, "rebuilding moved a byte");

    // Neither is a `ClusterMsg`: the owned decoder refuses both, typed.
    for frame in [bytes(PARENT_BATCH_FRAME), frame] {
        let refused = ClusterMsg::from_frame(&frame);
        assert!(
            matches!(refused, Err(WireError::Invalid { .. })),
            "{refused:?}"
        );
    }
}

thread_local! {
    /// Bytes the current thread holds / has held at most, per the
    /// allocator below.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator plus per-thread live/peak counters (the tests of
/// this file run on parallel threads; a process-wide peak would count
/// their allocations too).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never influence a returned
// pointer or layout, and the `const`-initialized, destructor-free thread
// locals they live in never allocate themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.get() + layout.size();
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Saturating: a block may be freed by another thread than the
        // one that allocated it.
        LIVE.set(LIVE.get().saturating_sub(layout.size()));
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`
        // (the only allocator behind `alloc` above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes the three borrowed readers may hold at once per input byte. The
/// widest case is a batch of disappears: 5 wire bytes per 24-byte
/// `ObjectEvent`, in a vector that grows by doubling and holds its old
/// and its new buffer while it moves (24 / 5 × 3 < 16).
const ALLOC_PER_INPUT_BYTE: usize = 16;

/// Feed `input` to the three borrowed readers — `BatchRef::from_frame`,
/// `DeltasHeader::from_frame`, and a full cursor walk of the input and
/// of the payload a header locates — and return which of them accepted
/// it. None may panic, and together they may not hold more than
/// [`ALLOC_PER_INPUT_BYTE`] bytes per input byte at once.
fn read_all(input: &[u8]) -> [bool; 3] {
    let before = LIVE.get();
    PEAK.set(before);
    let mut objects = Vec::new();
    let batch = BatchRef::from_frame(input, &mut objects).is_ok();
    drop(objects);
    let header = DeltasHeader::from_frame(input);
    let mut walked = walk(input, |_, _| {}).is_ok();
    if let Ok(Some(h)) = &header {
        walked &= walk(&input[h.payload.clone()], |_, _| {}).is_ok();
    }
    let peak = PEAK.get() - before;
    assert!(
        peak <= ALLOC_PER_INPUT_BYTE * input.len(),
        "reading {} bytes held {peak} bytes",
        input.len()
    );
    [batch, header.is_ok(), walked]
}

#[test]
fn every_truncation_and_bit_flip_of_the_pinned_frames_is_refused_typed() {
    for frame in [bytes(PARENT_BATCH_FRAME), bytes(PARENT_DELTAS_FRAME)] {
        for cut in 0..frame.len() {
            let [batch, header, _] = read_all(&frame[..cut]);
            assert!(!batch && !header, "cut {cut} was accepted");
        }
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let [batch, header, _] = read_all(&bad);
            assert!(!batch && !header, "flip {bit} was accepted");
        }
    }
    // Inside an intact frame the payload is the cursor's alone to check:
    // every truncation fails typed, and no flipped bit panics.
    let frame = bytes(PARENT_DELTAS_FRAME);
    let payload = &frame[DeltasHeader::from_frame(&frame).unwrap().unwrap().payload];
    for cut in 0..payload.len() {
        assert!(!read_all(&payload[..cut])[2], "payload cut {cut} walked");
    }
    for bit in 0..payload.len() * 8 {
        let mut bad = payload.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        read_all(&bad);
    }
}

/// The bound's own worst case, which random bytes hardly ever hit: a
/// well-formed batch of nothing but disappears.
#[test]
fn a_batch_of_disappears_stays_within_the_allocation_bound() {
    let mut builder = BatchFrame::default();
    builder.begin(1, Vec::new());
    for id in 0..400 {
        builder.push(&ObjectEvent::Disappear { id: ObjectId(id) });
    }
    let frame = builder.finish(&[]);
    assert!(read_all(&frame)[0], "a well-formed batch reads");
}

/// A worker's `CycleDeltas` payload whose `deltas` count equals the
/// bytes of the list: every entry one zero byte on the wire, where a
/// decoded entry is hundreds of bytes wide.
struct HostileDeltas(u32);

impl Encode for HostileDeltas {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(1); // the stamped epoch
        w.put_u32(0); // an empty `changed` list
        w.put_u32(self.0);
        for _ in 0..self.0 {
            w.put_u8(0);
        }
    }
}

/// The merge barrier reserves its merged `deltas` by the bytes a payload
/// holds, not by the count it claims: the commit of a hostile count is a
/// typed refusal within the readers' allocation bound.
#[test]
fn a_hostile_deltas_count_stays_within_the_allocation_bound_of_the_merge() {
    let mut frame = Vec::new();
    deltas_frame_into(0, 1, &HostileDeltas(4096), &mut frame);
    let header = DeltasHeader::from_frame(&frame).unwrap().unwrap();
    let (mut merge, mut out) = (MergeBuffer::new(1, 0), CycleDeltas::default());
    let len = frame.len();
    let before = LIVE.get();
    PEAK.set(before);
    merge.offer(header, frame).unwrap();
    let refused = merge.try_commit_into(&mut out);
    let peak = PEAK.get() - before;
    assert!(
        matches!(refused, Err(ClusterError::Protocol { .. })),
        "{refused:?}"
    );
    assert!(
        peak <= ALLOC_PER_INPUT_BYTE * len,
        "merging {len} bytes held {peak} bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: case_budget(256), ..ProptestConfig::default() })]

    /// Arbitrary bytes, bare and sealed behind a cycle message's tag in a
    /// well-formed frame (so they reach the message readers past the
    /// checksum), never panic a reader or amplify its allocation.
    #[test]
    fn arbitrary_bytes_never_panic_the_borrowed_readers(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        tag in 3u8..5,
    ) {
        read_all(&body);
        let mut message = vec![tag];
        message.extend_from_slice(&body);
        let mut frame = Vec::new();
        write_frame(&mut frame, FRAME_CLUSTER, &message);
        read_all(&frame);
    }
}
