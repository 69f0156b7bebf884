//! The byte formats did not move when the quadtree index was removed: the
//! index tag stays where it was in the snapshot payload and in
//! `ClusterMsg::Hello`, always `0`, so artifacts written before the
//! removal read back unchanged — and the one thing they could say that
//! this build cannot honour, tag `1`, is a typed refusal on every path
//! that reads a snapshot. (The `Hello` refusal is
//! `tests/cluster.rs::quadtree_hello_is_rejected_and_the_worker_exits_cleanly`.)

mod common;

use common::quadtree_era_frame;
use cpm_suite::core::{CpmServer, CpmServerBuilder, DurableCpmServer, RecoveryError, Snapshot};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::wire::cluster::{ClusterMsg, TileRect};
use cpm_suite::wire::{WireError, FRAME_SNAPSHOT, WIRE_VERSION};

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

#[test]
fn quadtree_snapshot_is_refused_typed_by_decode_and_by_recovery() {
    let mut server = CpmServerBuilder::new(16).threads(2).build();
    server.populate((0..20u32).map(|i| {
        let t = f64::from(i) / 20.0;
        (ObjectId(i), Point::new(t, (t * 3.0) % 1.0))
    }));
    let _ = server
        .install_knn(QueryId(0), Point::new(0.5, 0.5), 3)
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
