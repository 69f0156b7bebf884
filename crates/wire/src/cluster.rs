//! The coordinator/worker message schema of the `cpm-cluster` subsystem.
//!
//! Every message crossing the cluster boundary is one
//! [`crate::FRAME_CLUSTER`] frame: a [`ClusterMsg`], or one of the two
//! per-cycle messages, which are written by [`BatchFrame`] /
//! [`deltas_frame_into`] and read in place by [`BatchRef`] /
//! [`DeltasHeader`]. So the transport layer
//! ships opaque length-prefixed byte strings and version skew, truncation
//! and bit rot all surface as typed [`WireError`]s before any cluster
//! logic runs.
//!
//! The schema layers the same way [`crate`] itself does: fields whose
//! types live *below* the engine (ids, events, cell rectangles, epochs)
//! are first-class and individually validated, while engine-owned values
//! (query-event batches, per-cycle delta batches, full snapshots — all of
//! which already have `Encode`/`Decode` impls in `cpm-core`) travel as
//! pre-encoded `payload` byte strings. That keeps `cpm-wire` free of a
//! dependency on the engine crate while every byte still rides one
//! checksummed frame format.
//!
//! Worker tiles are [`TileRect`]s: inclusive cell-coordinate rectangles
//! over the coordinator's grid geometry. The coordinator partitions the
//! workspace into disjoint tiles and hands each worker a *coverage*
//! rectangle — its tile expanded by the boundary-overlap margin — so the
//! messages carry both.

use std::ops::Range;

use crate::{
    decode_framed, encode_framed, encode_framed_into, put_frame_header, read_frame, seal_frame,
    Decode, Encode, Reader, WireError, Writer, FRAME_CLUSTER, FRAME_HEADER,
};
use cpm_geom::{ObjectId, QueryId};
use cpm_grid::{CellCoord, ObjectEvent};

/// An inclusive rectangle of grid cells: columns `c0..=c1`, rows
/// `r0..=r1`. The unit of workspace partitioning (worker tiles and
/// coverage regions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRect {
    /// First column (inclusive).
    pub c0: u32,
    /// First row (inclusive).
    pub r0: u32,
    /// Last column (inclusive).
    pub c1: u32,
    /// Last row (inclusive).
    pub r1: u32,
}

impl TileRect {
    /// Build a tile rectangle.
    ///
    /// # Panics
    /// Panics if the bounds are inverted.
    pub fn new(c0: u32, r0: u32, c1: u32, r1: u32) -> Self {
        assert!(c0 <= c1 && r0 <= r1, "inverted tile bounds");
        Self { c0, r0, c1, r1 }
    }

    /// `true` if cell `(col, row)` lies inside the rectangle.
    #[inline]
    pub fn contains(&self, col: u32, row: u32) -> bool {
        self.c0 <= col && col <= self.c1 && self.r0 <= row && row <= self.r1
    }

    /// `true` if `cell` lies inside the rectangle.
    #[inline]
    pub fn contains_cell(&self, cell: CellCoord) -> bool {
        self.contains(cell.col, cell.row)
    }

    /// `true` if `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_rect(&self, other: &TileRect) -> bool {
        self.c0 <= other.c0 && other.c1 <= self.c1 && self.r0 <= other.r0 && other.r1 <= self.r1
    }

    /// The rectangle grown by `margin` cells on every side, clamped to a
    /// `dim × dim` grid.
    pub fn expanded(&self, margin: u32, dim: u32) -> Self {
        Self {
            c0: self.c0.saturating_sub(margin),
            r0: self.r0.saturating_sub(margin),
            c1: self.c1.saturating_add(margin).min(dim - 1),
            r1: self.r1.saturating_add(margin).min(dim - 1),
        }
    }
}

impl Encode for TileRect {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.c0);
        w.put_u32(self.r0);
        w.put_u32(self.c1);
        w.put_u32(self.r1);
    }
}

impl Decode for TileRect {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        let (c0, r0, c1, r1) = (r.take_u32()?, r.take_u32()?, r.take_u32()?, r.take_u32()?);
        if c0 > c1 || r0 > r1 {
            return Err(WireError::Invalid {
                offset: at,
                what: "inverted tile rectangle bounds",
            });
        }
        Ok(Self { c0, r0, c1, r1 })
    }
}

/// Why a worker refused a message — the wire image of the cluster
/// layer's typed errors. Carried by [`ClusterMsg::Reject`]; never a
/// silent drop.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterReject {
    /// The peer speaks a different wire version.
    VersionSkew {
        /// The rejecting side's version.
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// A batch arrived out of sequence: the worker expected the next
    /// epoch and refuses to fabricate or skip history.
    EpochGap {
        /// The epoch the worker was ready to run.
        expected: u64,
        /// The epoch the message carried.
        got: u64,
    },
    /// An object event was routed to a worker whose coverage does not
    /// contain it — the whole batch is refused before any state changes.
    PartitionMismatch {
        /// The misrouted object.
        oid: ObjectId,
        /// The coverage tile the position falls outside of.
        tile: TileRect,
    },
    /// A query was routed to a worker whose tile does not own its anchor
    /// point.
    QueryOutOfTile {
        /// The misrouted query.
        qid: QueryId,
        /// The ownership tile the anchor falls outside of.
        tile: TileRect,
    },
    /// A query's influence region grew past the worker's coverage, so
    /// local results can no longer be certified globally correct.
    CoverageExceeded {
        /// The escaping query.
        qid: QueryId,
        /// The coverage tile the influence region escaped.
        tile: TileRect,
    },
    /// The worker's engine refused the batch (a `CpmError`, rendered).
    Engine {
        /// The engine error's display form.
        detail: String,
    },
}

impl Encode for ClusterReject {
    fn encode(&self, w: &mut Writer) {
        match self {
            ClusterReject::VersionSkew { ours, theirs } => {
                w.put_u8(0);
                w.put_u16(*ours);
                w.put_u16(*theirs);
            }
            ClusterReject::EpochGap { expected, got } => {
                w.put_u8(1);
                w.put_u64(*expected);
                w.put_u64(*got);
            }
            ClusterReject::PartitionMismatch { oid, tile } => {
                w.put_u8(2);
                oid.encode(w);
                tile.encode(w);
            }
            ClusterReject::QueryOutOfTile { qid, tile } => {
                w.put_u8(3);
                qid.encode(w);
                tile.encode(w);
            }
            ClusterReject::CoverageExceeded { qid, tile } => {
                w.put_u8(4);
                qid.encode(w);
                tile.encode(w);
            }
            ClusterReject::Engine { detail } => {
                w.put_u8(5);
                detail.encode(w);
            }
        }
    }
}

impl Decode for ClusterReject {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        Ok(match r.take_u8()? {
            0 => ClusterReject::VersionSkew {
                ours: r.take_u16()?,
                theirs: r.take_u16()?,
            },
            1 => ClusterReject::EpochGap {
                expected: r.take_u64()?,
                got: r.take_u64()?,
            },
            2 => ClusterReject::PartitionMismatch {
                oid: ObjectId::decode(r)?,
                tile: TileRect::decode(r)?,
            },
            3 => ClusterReject::QueryOutOfTile {
                qid: QueryId::decode(r)?,
                tile: TileRect::decode(r)?,
            },
            4 => ClusterReject::CoverageExceeded {
                qid: QueryId::decode(r)?,
                tile: TileRect::decode(r)?,
            },
            5 => ClusterReject::Engine {
                detail: String::decode(r)?,
            },
            _ => {
                return Err(WireError::Invalid {
                    offset: at,
                    what: "unknown cluster-reject tag",
                })
            }
        })
    }
}

/// One message of the coordinator ⇄ worker protocol, except the two a
/// cycle sends: its batch (tag 3) is built by [`BatchFrame`] and read by
/// [`BatchRef`], its reply (tag 4) is built by [`deltas_frame_into`] and
/// read by [`DeltasHeader`].
///
/// `payload` fields are pre-encoded engine values (the engine crate owns
/// their `Encode`/`Decode` impls): a query-event batch for `Install` and
/// a full snapshot frame for `SnapshotXfer`.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterMsg {
    /// Coordinator → worker: your assignment. The worker checks the
    /// version and builds a server for `dim`, owning `tile` and ingesting
    /// `coverage`. (Between `dim` and `tile` the encoding carries the
    /// index tag of [`crate::put_index_tag`].)
    Hello {
        /// The coordinator's wire version ([`crate::WIRE_VERSION`]).
        version: u16,
        /// The worker's index in the cluster.
        worker: u32,
        /// Grid resolution (cells per axis).
        dim: u32,
        /// The worker's ownership tile (disjoint across workers).
        tile: TileRect,
        /// The worker's ingest region: `tile` plus the overlap margin.
        coverage: TileRect,
    },
    /// Worker → coordinator: assignment accepted; echoes the version and
    /// reports the engine epoch (non-zero after a snapshot restore).
    HelloAck {
        /// The worker's index.
        worker: u32,
        /// The worker's wire version.
        version: u16,
        /// The worker engine's current epoch.
        epoch: u64,
    },
    /// Coordinator → worker: install queries *between* cycles (no epoch
    /// advance). Payload: an engine-encoded query-event batch.
    Install {
        /// Engine-encoded `Vec<SpecEvent<AnyQuerySpec>>`.
        payload: Vec<u8>,
    },
    /// Coordinator → worker: ship your full state (for a restart
    /// handoff).
    SnapshotReq,
    /// Worker ⇄ coordinator: a full engine snapshot. Sent by a worker
    /// answering [`ClusterMsg::SnapshotReq`]; sent by the coordinator to
    /// seed a replacement worker.
    SnapshotXfer {
        /// The worker's index.
        worker: u32,
        /// The epoch the snapshot captures.
        epoch: u64,
        /// A full snapshot frame (`Snapshot::to_frame` bytes).
        payload: Vec<u8>,
    },
    /// Worker → coordinator: message applied, no deltas to report.
    Ack {
        /// The worker's index.
        worker: u32,
        /// The worker engine's epoch after applying.
        epoch: u64,
    },
    /// Worker → coordinator: message refused, nothing changed.
    Reject {
        /// The worker's index.
        worker: u32,
        /// Why.
        reject: ClusterReject,
    },
    /// Coordinator → worker: exit the serve loop.
    Shutdown,
}

impl ClusterMsg {
    /// Encode into one [`FRAME_CLUSTER`] frame, ready for a transport.
    pub fn to_frame(&self) -> Vec<u8> {
        encode_framed(FRAME_CLUSTER, self)
    }

    /// Encode into one [`FRAME_CLUSTER`] frame in `out`, reusing its
    /// allocation. Byte-identical to [`ClusterMsg::to_frame`].
    pub fn to_frame_into(&self, out: &mut Vec<u8>) {
        encode_framed_into(FRAME_CLUSTER, self, out);
    }

    /// Decode from one [`FRAME_CLUSTER`] frame.
    pub fn from_frame(bytes: &[u8]) -> Result<Self, WireError> {
        decode_framed(FRAME_CLUSTER, bytes)
    }
}

/// Message tag of a cycle's batch (coordinator → worker).
const TAG_BATCH: u8 = 3;
/// Message tag of a cycle's deltas (worker → coordinator).
const TAG_DELTAS: u8 = 4;

/// Verify a standalone [`FRAME_CLUSTER`] frame and, if its message
/// carries `tag`, hand back a reader over the message just past the tag
/// (`None` for any other message).
fn open_message(bytes: &[u8], tag: u8) -> Result<Option<Reader<'_>>, WireError> {
    let mut frame = Reader::new(bytes);
    let body = read_frame(&mut frame, FRAME_CLUSTER)?;
    frame.expect_end()?;
    if body.first() != Some(&tag) {
        return Ok(None);
    }
    let mut r = Reader::new(body);
    r.take_u8()?;
    Ok(Some(r))
}

/// A cycle's batch as a worker reads it: the object events decoded into
/// the worker's recycled buffer, the query bytes read in place from the
/// received frame. The frame is `[tag 3][epoch u64][events]` then the
/// length-prefixed query bytes.
#[derive(Debug, Clone, Copy)]
pub struct BatchRef<'a> {
    /// The cycle this batch opens (must be the worker's epoch + 1).
    pub epoch: u64,
    /// In-coverage object events, already translated to this worker.
    pub objects: &'a [ObjectEvent],
    /// Engine-encoded `Vec<SpecEvent<AnyQuerySpec>>` routed to this worker.
    pub queries: &'a [u8],
}

impl<'a> BatchRef<'a> {
    /// Verify one [`FRAME_CLUSTER`] frame and, if it carries a `Batch`,
    /// decode it: the events replace `objects`' contents (reusing its
    /// allocation). `Ok(None)` is a well-formed frame of another message
    /// — decode that with [`ClusterMsg::from_frame`].
    ///
    /// # Errors
    /// A typed [`WireError`] for a damaged frame or message.
    pub fn from_frame(
        bytes: &'a [u8],
        objects: &'a mut Vec<ObjectEvent>,
    ) -> Result<Option<Self>, WireError> {
        let Some(mut r) = open_message(bytes, TAG_BATCH)? else {
            return Ok(None);
        };
        let epoch = r.take_u64()?;
        let n = r.take_len(1)?;
        objects.clear();
        objects.reserve(r.reservable::<ObjectEvent>(n));
        for _ in 0..n {
            objects.push(ObjectEvent::decode(&mut r)?);
        }
        let len = r.take_len(1)?;
        let queries = r.take_bytes(len)?;
        r.expect_end()?;
        Ok(Some(Self {
            epoch,
            objects,
            queries,
        }))
    }
}

/// Builds a cycle's batch frame while the coordinator routes: the events
/// are written as they are translated, with no staging vector, and the
/// event count, frame length and checksum are filled in at the end.
/// `tests/format_compat.rs` pins its bytes.
#[derive(Debug, Default)]
pub struct BatchFrame {
    w: Writer,
    events: u32,
}

/// Offset of a `Batch` frame's event count: header, tag, epoch.
const BATCH_COUNT_AT: usize = FRAME_HEADER + 1 + 8;

impl BatchFrame {
    /// Start the frame of `epoch` in `buf`, reusing its allocation.
    pub fn begin(&mut self, epoch: u64, buf: Vec<u8>) {
        self.w = Writer::reusing(buf);
        put_frame_header(&mut self.w.buf, FRAME_CLUSTER);
        self.w.put_u8(TAG_BATCH);
        self.w.put_u64(epoch);
        self.w.put_u32(0); // event count, backfilled by `finish`
        self.events = 0;
    }

    /// Append one routed object event.
    pub fn push(&mut self, ev: &ObjectEvent) {
        ev.encode(&mut self.w);
        self.events += 1;
    }

    /// Close the frame with the worker's encoded query events and hand it
    /// out; the builder is left empty until the next [`BatchFrame::begin`].
    ///
    /// # Panics
    /// Panics if no frame was begun.
    pub fn finish(&mut self, queries: &[u8]) -> Vec<u8> {
        let mut w = std::mem::take(&mut self.w);
        assert!(w.len() >= BATCH_COUNT_AT + 4, "finish without begin");
        w.buf[BATCH_COUNT_AT..BATCH_COUNT_AT + 4].copy_from_slice(&self.events.to_le_bytes());
        w.put_u32(u32::try_from(queries.len()).expect("collection fits a u32 length prefix"));
        w.put_bytes(queries);
        seal_frame(&mut w.buf, 0);
        w.into_bytes()
    }
}

/// Encode a cycle's deltas frame — `[tag 4][worker u32][epoch u64]` and
/// the length-prefixed `payload` — into `out` (reusing its allocation),
/// with `payload` encoded in place: the worker's per-cycle reply, built
/// without an intermediate payload vector. `tests/format_compat.rs` pins
/// its bytes.
pub fn deltas_frame_into<P: Encode>(worker: u32, epoch: u64, payload: &P, out: &mut Vec<u8>) {
    let mut w = Writer::reusing(std::mem::take(out));
    put_frame_header(&mut w.buf, FRAME_CLUSTER);
    w.put_u8(TAG_DELTAS);
    w.put_u32(worker);
    w.put_u64(epoch);
    w.put_u32(0); // payload length, backfilled below
    let at = w.len();
    payload.encode(&mut w);
    let len = u32::try_from(w.len() - at).expect("collection fits a u32 length prefix");
    w.buf[at - 4..at].copy_from_slice(&len.to_le_bytes());
    seal_frame(&mut w.buf, 0);
    *out = w.into_bytes();
}

/// The fields of a received deltas frame, the payload as its byte range
/// *within the frame* — so the frame's buffer can be moved into the merge
/// barrier and the payload read in place, never copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltasHeader {
    /// The replying worker's id.
    pub worker: u32,
    /// The cycle these deltas close.
    pub epoch: u64,
    /// Where the engine-encoded `CycleDeltas` sits in the frame.
    pub payload: Range<usize>,
}

impl DeltasHeader {
    /// Verify one [`FRAME_CLUSTER`] frame and, if it carries a `Deltas`,
    /// locate its fields. `Ok(None)` is a well-formed frame of another
    /// message — decode that with [`ClusterMsg::from_frame`].
    ///
    /// # Errors
    /// A typed [`WireError`] for a damaged frame or message.
    pub fn from_frame(bytes: &[u8]) -> Result<Option<Self>, WireError> {
        let Some(mut r) = open_message(bytes, TAG_DELTAS)? else {
            return Ok(None);
        };
        let worker = r.take_u32()?;
        let epoch = r.take_u64()?;
        let len = r.take_len(1)?;
        let start = FRAME_HEADER + r.offset();
        r.take_bytes(len)?;
        r.expect_end()?;
        Ok(Some(Self {
            worker,
            epoch,
            payload: start..start + len,
        }))
    }
}

impl Encode for ClusterMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            ClusterMsg::Hello {
                version,
                worker,
                dim,
                tile,
                coverage,
            } => {
                w.put_u8(0);
                w.put_u16(*version);
                w.put_u32(*worker);
                w.put_u32(*dim);
                crate::put_index_tag(w);
                tile.encode(w);
                coverage.encode(w);
            }
            ClusterMsg::HelloAck {
                worker,
                version,
                epoch,
            } => {
                w.put_u8(1);
                w.put_u32(*worker);
                w.put_u16(*version);
                w.put_u64(*epoch);
            }
            ClusterMsg::Install { payload } => {
                w.put_u8(2);
                payload.encode(w);
            }
            ClusterMsg::SnapshotReq => w.put_u8(5),
            ClusterMsg::SnapshotXfer {
                worker,
                epoch,
                payload,
            } => {
                w.put_u8(6);
                w.put_u32(*worker);
                w.put_u64(*epoch);
                payload.encode(w);
            }
            ClusterMsg::Ack { worker, epoch } => {
                w.put_u8(7);
                w.put_u32(*worker);
                w.put_u64(*epoch);
            }
            ClusterMsg::Reject { worker, reject } => {
                w.put_u8(8);
                w.put_u32(*worker);
                reject.encode(w);
            }
            ClusterMsg::Shutdown => w.put_u8(9),
        }
    }
}

impl Decode for ClusterMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        Ok(match r.take_u8()? {
            0 => {
                let version = r.take_u16()?;
                let worker = r.take_u32()?;
                let dim = r.take_u32()?;
                crate::take_index_tag(r)?;
                let tile = TileRect::decode(r)?;
                let coverage = TileRect::decode(r)?;
                if !coverage.contains_rect(&tile) {
                    return Err(WireError::Invalid {
                        offset: at,
                        what: "worker coverage does not contain its tile",
                    });
                }
                ClusterMsg::Hello {
                    version,
                    worker,
                    dim,
                    tile,
                    coverage,
                }
            }
            1 => ClusterMsg::HelloAck {
                worker: r.take_u32()?,
                version: r.take_u16()?,
                epoch: r.take_u64()?,
            },
            2 => ClusterMsg::Install {
                payload: Vec::<u8>::decode(r)?,
            },
            TAG_BATCH | TAG_DELTAS => {
                return Err(WireError::Invalid {
                    offset: at,
                    what: "a cycle's batch or deltas: read it with BatchRef or DeltasHeader",
                })
            }
            5 => ClusterMsg::SnapshotReq,
            6 => ClusterMsg::SnapshotXfer {
                worker: r.take_u32()?,
                epoch: r.take_u64()?,
                payload: Vec::<u8>::decode(r)?,
            },
            7 => ClusterMsg::Ack {
                worker: r.take_u32()?,
                epoch: r.take_u64()?,
            },
            8 => ClusterMsg::Reject {
                worker: r.take_u32()?,
                reject: ClusterReject::decode(r)?,
            },
            9 => ClusterMsg::Shutdown,
            _ => {
                return Err(WireError::Invalid {
                    offset: at,
                    what: "unknown cluster-message tag",
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<ClusterMsg> {
        vec![
            ClusterMsg::Hello {
                version: crate::WIRE_VERSION,
                worker: 2,
                dim: 16,
                tile: TileRect::new(8, 0, 11, 15),
                coverage: TileRect::new(5, 0, 14, 15),
            },
            ClusterMsg::HelloAck {
                worker: 2,
                version: crate::WIRE_VERSION,
                epoch: 7,
            },
            ClusterMsg::Install {
                payload: vec![1, 2, 3],
            },
            ClusterMsg::SnapshotReq,
            ClusterMsg::SnapshotXfer {
                worker: 1,
                epoch: 9,
                payload: vec![9, 9],
            },
            ClusterMsg::Ack {
                worker: 3,
                epoch: 0,
            },
            ClusterMsg::Reject {
                worker: 1,
                reject: ClusterReject::PartitionMismatch {
                    oid: ObjectId(77),
                    tile: TileRect::new(0, 0, 3, 15),
                },
            },
            ClusterMsg::Reject {
                worker: 0,
                reject: ClusterReject::Engine {
                    detail: "duplicate query id 5".to_owned(),
                },
            },
            ClusterMsg::Shutdown,
        ]
    }

    #[test]
    fn every_variant_roundtrips_through_a_frame() {
        for msg in sample_messages() {
            let frame = msg.to_frame();
            assert_eq!(ClusterMsg::from_frame(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn to_frame_into_is_byte_identical_and_reuses_the_buffer() {
        let mut buf = Vec::new();
        for msg in sample_messages() {
            msg.to_frame_into(&mut buf);
            assert_eq!(buf, msg.to_frame());
        }
        // Steady state: a large-enough buffer is reused, not regrown.
        buf.reserve(4096);
        let cap = buf.capacity();
        for msg in sample_messages() {
            msg.to_frame_into(&mut buf);
        }
        assert_eq!(buf.capacity(), cap);
    }

    /// A cycle's batch frame as its layout spells it: the tag, the epoch,
    /// the length-prefixed events and the length-prefixed query bytes.
    fn batch_layout(epoch: u64, objects: &[ObjectEvent], queries: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(TAG_BATCH);
        w.put_u64(epoch);
        objects.to_vec().encode(&mut w);
        queries.to_vec().encode(&mut w);
        let mut frame = Vec::new();
        crate::write_frame(&mut frame, FRAME_CLUSTER, w.as_slice());
        frame
    }

    /// The frames [`BatchFrame`] and [`deltas_frame_into`] build.
    fn cycle_frames() -> Vec<Vec<u8>> {
        let mut builder = BatchFrame::default();
        builder.begin(9, Vec::new());
        builder.push(&ObjectEvent::Disappear { id: ObjectId(4) });
        let mut deltas = Vec::new();
        deltas_frame_into(0, 9, &vec![0xFFu8; 9], &mut deltas);
        vec![builder.finish(&[]), deltas]
    }

    #[test]
    fn batch_and_deltas_frames_follow_their_layout_and_read_back_borrowed() {
        let objects = vec![
            ObjectEvent::Appear {
                id: ObjectId(3),
                pos: cpm_geom::Point::new(0.25, 0.75),
            },
            ObjectEvent::Disappear { id: ObjectId(4) },
        ];
        let queries = vec![7u8, 0, 0, 0, 1];
        let mut builder = BatchFrame::default();
        builder.begin(42, vec![0xEE; 3]); // stale contents must be cleared
        for ev in &objects {
            builder.push(ev);
        }
        let frame = builder.finish(&queries);
        assert_eq!(frame, batch_layout(42, &objects, &queries));
        // ... and reads back borrowed, into a recycled buffer.
        let mut buf = vec![ObjectEvent::Disappear { id: ObjectId(9) }; 5];
        let batch = BatchRef::from_frame(&frame, &mut buf).unwrap().unwrap();
        assert_eq!(
            (batch.epoch, batch.objects, batch.queries),
            (42, &objects[..], &queries[..])
        );
        assert_eq!(DeltasHeader::from_frame(&frame), Ok(None));

        // The payload is any `Encode` value, encoded in place behind the
        // tag, the worker, the epoch and the payload's length.
        let payload = vec![0xABCDu16; 17];
        let mut frame = vec![0xEE; 3];
        deltas_frame_into(3, 42, &payload, &mut frame);
        let mut w = Writer::new();
        w.put_u8(TAG_DELTAS);
        w.put_u32(3);
        w.put_u64(42);
        payload.encode_to_vec().encode(&mut w);
        let mut layout = Vec::new();
        crate::write_frame(&mut layout, FRAME_CLUSTER, w.as_slice());
        assert_eq!(frame, layout);
        let header = DeltasHeader::from_frame(&frame).unwrap().unwrap();
        assert_eq!((header.worker, header.epoch), (3, 42));
        assert_eq!(frame[header.payload], payload.encode_to_vec());
        assert!(BatchRef::from_frame(&frame, &mut buf).unwrap().is_none());

        // An empty batch is the empty vectors' encoding.
        builder.begin(1, frame);
        let frame = builder.finish(&[]);
        assert_eq!(frame, batch_layout(1, &[], &[]));
        let batch = BatchRef::from_frame(&frame, &mut buf).unwrap().unwrap();
        assert!(batch.objects.is_empty() && batch.queries.is_empty());

        // Neither is a `ClusterMsg`: the owned decoder refuses both, typed.
        for frame in cycle_frames() {
            assert!(matches!(
                ClusterMsg::from_frame(&frame),
                Err(WireError::Invalid { offset: 0, .. })
            ));
        }
    }

    #[test]
    fn tile_rect_validates_and_expands() {
        let t = TileRect::new(4, 0, 7, 15);
        assert!(t.contains(4, 0) && t.contains(7, 15));
        assert!(!t.contains(3, 0) && !t.contains(8, 15));
        let cov = t.expanded(2, 16);
        assert_eq!(cov, TileRect::new(2, 0, 9, 15));
        assert!(cov.contains_rect(&t));
        // Clamped at the workspace edge.
        assert_eq!(
            TileRect::new(0, 0, 3, 15).expanded(2, 16),
            TileRect::new(0, 0, 5, 15)
        );
        // Inverted bounds are refused by the decoder.
        let mut w = Writer::new();
        for v in [5u32, 0, 2, 15] {
            w.put_u32(v);
        }
        assert!(matches!(
            TileRect::decode_all(w.as_slice()),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn hello_with_coverage_smaller_than_tile_is_refused() {
        let mut w = Writer::new();
        ClusterMsg::Hello {
            version: 1,
            worker: 0,
            dim: 16,
            tile: TileRect::new(4, 0, 7, 15),
            coverage: TileRect::new(4, 0, 7, 15),
        }
        .encode(&mut w);
        let mut bytes = w.into_bytes();
        // Shrink the coverage rectangle's last column below the tile's.
        let n = bytes.len();
        bytes[n - 8] = 5;
        assert!(matches!(
            ClusterMsg::decode_all(&bytes),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn corrupted_frames_are_typed_errors() {
        let frame = sample_messages()[0].to_frame();
        // Truncation at every split point.
        for cut in 0..frame.len() {
            assert!(ClusterMsg::from_frame(&frame[..cut]).is_err(), "cut {cut}");
        }
        // A flipped bit anywhere fails the CRC (or an earlier check).
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(ClusterMsg::from_frame(&bad).is_err(), "flip {i}");
        }
        // The borrowed readers refuse a damaged frame exactly as the owned
        // decoder does, whatever message it carried.
        let mut objects = Vec::new();
        let frames = sample_messages()
            .iter()
            .map(ClusterMsg::to_frame)
            .collect::<Vec<_>>();
        for frame in frames.into_iter().chain(cycle_frames()) {
            for cut in 0..frame.len() {
                let want = ClusterMsg::from_frame(&frame[..cut]).unwrap_err();
                assert_eq!(
                    BatchRef::from_frame(&frame[..cut], &mut objects).unwrap_err(),
                    want
                );
                assert_eq!(DeltasHeader::from_frame(&frame[..cut]).unwrap_err(), want);
            }
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] ^= 0x10;
                let want = ClusterMsg::from_frame(&bad).unwrap_err();
                assert_eq!(BatchRef::from_frame(&bad, &mut objects).unwrap_err(), want);
                assert_eq!(DeltasHeader::from_frame(&bad).unwrap_err(), want);
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;

        fn arb_tile(dim: u32) -> impl Strategy<Value = TileRect> {
            (0..dim, 0..dim, 0..dim, 0..dim)
                .prop_map(|(a, b, c, d)| TileRect::new(a.min(c), b.min(d), a.max(c), b.max(d)))
        }

        fn arb_reject() -> impl Strategy<Value = ClusterReject> {
            prop_oneof![
                (any::<u16>(), any::<u16>())
                    .prop_map(|(ours, theirs)| ClusterReject::VersionSkew { ours, theirs }),
                (any::<u64>(), any::<u64>())
                    .prop_map(|(expected, got)| ClusterReject::EpochGap { expected, got }),
                (any::<u32>(), arb_tile(64)).prop_map(|(o, tile)| {
                    ClusterReject::PartitionMismatch {
                        oid: ObjectId(o),
                        tile,
                    }
                }),
                (any::<u32>(), arb_tile(64)).prop_map(|(q, tile)| {
                    ClusterReject::QueryOutOfTile {
                        qid: QueryId(q),
                        tile,
                    }
                }),
                (any::<u32>(), arb_tile(64)).prop_map(|(q, tile)| {
                    ClusterReject::CoverageExceeded {
                        qid: QueryId(q),
                        tile,
                    }
                }),
                pvec(0x20u8..0x7F, 0..24).prop_map(|bytes| ClusterReject::Engine {
                    detail: String::from_utf8(bytes).unwrap(),
                }),
            ]
        }

        fn arb_msg() -> impl Strategy<Value = ClusterMsg> {
            prop_oneof![
                (1u16..4, any::<u32>(), 1u32..64, arb_tile(64), 0u32..8).prop_map(
                    |(version, worker, dim, tile, margin)| {
                        let dim = dim.max(tile.c1 + 1).max(tile.r1 + 1);
                        ClusterMsg::Hello {
                            version,
                            worker,
                            dim,
                            tile,
                            coverage: tile.expanded(margin, dim),
                        }
                    }
                ),
                (any::<u32>(), any::<u16>(), any::<u64>()).prop_map(|(worker, version, epoch)| {
                    ClusterMsg::HelloAck {
                        worker,
                        version,
                        epoch,
                    }
                }),
                pvec(any::<u8>(), 0..64).prop_map(|payload| ClusterMsg::Install { payload }),
                Just(ClusterMsg::SnapshotReq),
                (any::<u32>(), any::<u64>(), pvec(any::<u8>(), 0..64)).prop_map(
                    |(worker, epoch, payload)| ClusterMsg::SnapshotXfer {
                        worker,
                        epoch,
                        payload,
                    }
                ),
                (any::<u32>(), any::<u64>())
                    .prop_map(|(worker, epoch)| ClusterMsg::Ack { worker, epoch }),
                (any::<u32>(), arb_reject())
                    .prop_map(|(worker, reject)| ClusterMsg::Reject { worker, reject }),
                Just(ClusterMsg::Shutdown),
            ]
        }

        proptest! {
            #[test]
            fn cluster_messages_roundtrip(msg in arb_msg()) {
                let frame = msg.to_frame();
                prop_assert_eq!(ClusterMsg::from_frame(&frame).unwrap(), msg);
            }

            #[test]
            fn mangled_frames_never_panic(msg in arb_msg(), at in 0usize..1024, bit in 0u8..8) {
                let mut frame = msg.to_frame();
                let at = at % frame.len();
                frame[at] ^= 1 << bit;
                // Either it fails typed, or (if the flip landed in a
                // payload byte *and* the CRC happens to collide — it
                // cannot) decodes to something; it must never panic.
                let _ = ClusterMsg::from_frame(&frame);
            }
        }
    }
}
