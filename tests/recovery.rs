//! Crash-recovery conformance: seeded chaos schedules through the
//! harness's durable lanes, fuzzed corruption of snapshot and journal
//! artifacts (typed errors with offset context, never a panic), and
//! continuity of the subscription layer across a recovery.

mod common;

use std::num::NonZeroUsize;

use common::{case_budget, lanes};
use cpm_suite::core::snapshot::{JournalRecord, Snapshot};
use cpm_suite::core::{
    AnyQuerySpec, CpmError, CpmServerBuilder, CycleDeltas, DurableCpmServer, Neighbor, PointQuery,
    RecoveryError, SpecEvent,
};
use cpm_suite::gen::FaultPlan;
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::sim::{verify, Anchors, Control, Deploy, OpStream, Regrid};
use cpm_suite::sub::{DeltaFanout, Replica};
use cpm_suite::wire::{encode_framed, write_frame, Decode, Encode, WireError, FRAME_SNAPSHOT};

use proptest::prelude::*;

thread_local! {
    /// Bytes the current thread holds / has held at most, per the
    /// allocator below.
    static LIVE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static PEAK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The system allocator plus per-thread live/peak counters (the tests of
/// this file run on parallel threads; a process-wide peak would count
/// their allocations too).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never influence a returned
// pointer or layout, and the `const`-initialized, destructor-free thread
// locals they live in never allocate themselves.
unsafe impl std::alloc::GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let live = LIVE.get() + layout.size();
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // Saturating: a block may be freed by another thread than the
        // one that allocated it.
        LIVE.set(LIVE.get().saturating_sub(layout.size()));
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`
        // (the only allocator behind `alloc` above).
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The headline chaos run: seeded crash schedules spanning every
/// corruption class (clean crash, torn tail, duplicated and reordered
/// frames, flipped bits in journal and snapshot), at one and four threads.
/// Every trial must recover to a server bit-identical to the reference
/// that never crashed, with the lost window redelivered.
#[test]
fn chaos_schedules_recover_bit_identically() {
    const CYCLES: usize = 12;
    let durable = lanes(&[1, 4], Regrid::Pinned, Deploy::Durable);
    let mut classes = std::collections::HashSet::new();
    for seed in 0..24 {
        // Crash after cycle `crash_cycle`, i.e. before the next one runs.
        let plan = FaultPlan::from_seed(seed, CYCLES as u32 - 1);
        classes.insert(plan.corruption);
        let stream = OpStream::mixed(seed, 80, CYCLES, Anchors::Free)
            .control(plan.crash_cycle as usize + 1, Control::Crash(plan));
        verify(&stream, &durable);
    }
    // Or the suite silently shrinks:
    assert_eq!(classes.len(), 6, "seed range misses classes: {classes:?}");
}

/// `checkpointed = true` folds the installs and cycles into the snapshot
/// (rich snapshot, empty journal); `false` leaves them as journal records
/// over the empty initial snapshot.
fn durable_fixture(checkpointed: bool) -> DurableCpmServer {
    let mut server = CpmServerBuilder::new(16)
        .threads(NonZeroUsize::new(2).unwrap())
        .build();
    server
        .populate((0..40u32).map(|i| {
            let t = f64::from(i) / 40.0;
            (ObjectId(i), Point::new(t, (t * 2.3) % 1.0))
        }))
        .unwrap();
    let mut durable = DurableCpmServer::new(server, 0);
    let _ = durable
        .install_spec(QueryId(0), PointQuery(Point::new(0.4, 0.4)), 4)
        .unwrap();
    let _ = durable
        .install_rnn(QueryId(1), Point::new(0.7, 0.2))
        .unwrap();
    for step in 0..5u32 {
        let ev = [ObjectEvent::Move {
            id: ObjectId(step * 3 % 40),
            to: Point::new(f64::from(step) * 0.19 % 1.0, 0.33),
        }];
        let _ = durable.process_cycle(&ev, &[]).unwrap();
    }
    if checkpointed {
        durable.checkpoint();
    }
    durable
}

/// Every `WireError` locates the corruption; the fuzzers below assert the
/// offset never points past the artifact.
fn error_offset(e: &WireError) -> usize {
    match *e {
        WireError::UnexpectedEof { offset, .. }
        | WireError::BadMagic { offset, .. }
        | WireError::UnsupportedVersion { offset, .. }
        | WireError::WrongKind { offset, .. }
        | WireError::Checksum { offset, .. }
        | WireError::Invalid { offset, .. }
        | WireError::TrailingBytes { offset, .. } => offset,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: case_budget(64), ..ProptestConfig::default() })]

    /// Any single flipped byte anywhere in a snapshot frame must produce
    /// a typed decode error whose offset lies inside the frame — and
    /// recovery from the damaged frame must fail typed, not panic.
    #[test]
    fn flipped_snapshot_bytes_fail_typed(at_frac in 0.0..1.0f64, mask in 1..256u32) {
        let durable = durable_fixture(true);
        let mut frame = durable.snapshot_bytes().to_vec();
        let at = ((frame.len() - 1) as f64 * at_frac) as usize;
        frame[at] ^= mask as u8;
        match Snapshot::from_frame(&frame) {
            Ok(_) => prop_assert!(false, "corrupted frame decoded"),
            Err(e) => prop_assert!(error_offset(&e) <= frame.len(), "offset out of range: {e}"),
        }
        match DurableCpmServer::recover(&frame, durable.journal_bytes(), 0) {
            Err(RecoveryError::Wire(_)) => {}
            other => prop_assert!(false, "expected a wire error, got {other:?}"),
        }
    }

    /// Truncating a snapshot frame at any point must fail typed.
    #[test]
    fn truncated_snapshot_frames_fail_typed(keep_frac in 0.0..1.0f64) {
        let durable = durable_fixture(true);
        let frame = durable.snapshot_bytes();
        let keep = ((frame.len() - 1) as f64 * keep_frac) as usize;
        match Snapshot::from_frame(&frame[..keep]) {
            Ok(_) => prop_assert!(false, "truncated frame decoded"),
            Err(e) => prop_assert!(error_offset(&e) <= keep, "offset out of range: {e}"),
        }
    }

    /// Arbitrary bytes thrown at the journal-record decoder must come
    /// back as typed errors (or a valid record), never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_record_decode(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        match JournalRecord::decode_all(&bytes) {
            Ok(_) | Err(_) => {}
        }
    }

    /// Arbitrary bytes as a journal stream: recovery from a valid
    /// snapshot plus garbage journal must never panic — garbage is
    /// either a clean empty tail (typed tail error) or a typed failure.
    #[test]
    fn garbage_journals_never_panic_recovery(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let durable = durable_fixture(true);
        match DurableCpmServer::recover(durable.snapshot_bytes(), &bytes, 0) {
            Ok((recovered, report)) => {
                // Garbage can only ever be a torn tail: no record decodes,
                // so nothing is replayed past the snapshot.
                prop_assert_eq!(report.replayed, 0);
                if !bytes.is_empty() {
                    prop_assert!(report.tail_error.is_some());
                }
                recovered.server().check_invariants();
            }
            Err(RecoveryError::Wire(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }
}

/// The recovered server resumes exactly where the journal ends even when
/// the tail is torn mid-frame: replayed records up to the tear, typed
/// tail error, and redelivery completes the lost cycle.
#[test]
fn torn_tail_loses_only_the_final_record() {
    let durable = durable_fixture(false);
    let reference = durable_fixture(false);
    let journal = durable.journal_bytes();
    let torn = &journal[..journal.len() - 3];
    let (mut recovered, report) =
        DurableCpmServer::recover(durable.snapshot_bytes(), torn, 0).unwrap();
    assert!(report.tail_error.is_some(), "tear must be reported");
    assert_eq!(recovered.server().epoch(), reference.server().epoch() - 1);
    // Redeliver the lost cycle (step 4 of the fixture's schedule).
    let ev = [ObjectEvent::Move {
        id: ObjectId(12),
        to: Point::new(4.0 * 0.19, 0.33),
    }];
    let _ = recovered.process_cycle(&ev, &[]).unwrap();
    assert_eq!(recovered.server().epoch(), reference.server().epoch());
    assert_eq!(
        recovered.server().result(QueryId(0)).unwrap(),
        reference.server().result(QueryId(0)).unwrap()
    );
    assert_eq!(
        recovered.server().rnn_result(QueryId(1)).unwrap(),
        reference.server().rnn_result(QueryId(1)).unwrap()
    );
}

/// A fan-out rebuilt beside a recovered server resumes epoch numbering
/// exactly one past the recovered epoch and streams deltas bit-identical
/// to an uninterrupted deployment's, and a subscriber whose backlog died
/// with the crash recovers via the ordinary resync path.
#[test]
fn restored_hub_resumes_epochs_and_replicas_resync() {
    let knn = |id, x, k| SpecEvent::Install {
        id: QueryId(id),
        spec: AnyQuerySpec::Knn(PointQuery(Point::new(x, 0.5))),
        k,
    };
    let build = || {
        let mut server = CpmServerBuilder::new(16)
            .threads(NonZeroUsize::new(2).unwrap())
            .deltas(true)
            .build();
        server
            .populate(
                (0..12u32).map(|i| (ObjectId(i), Point::new((f64::from(i) + 0.5) / 12.0, 0.5))),
            )
            .unwrap();
        let mut fanout = DeltaFanout::new();
        fanout.subscribe(QueryId(0));
        fanout.subscribe(QueryId(1));
        (DurableCpmServer::new(server, 4), fanout)
    };
    // One cycle moving object `id` to `x`, published into the fan-out.
    let cycle = |(lane, fanout): &mut (DurableCpmServer, DeltaFanout), id, x, queries: &[_]| {
        let events = [ObjectEvent::Move {
            id: ObjectId(id),
            to: Point::new(x, 0.5),
        }];
        let mut batch = CycleDeltas::default();
        lane.process_cycle_with_deltas_into(&events, queries, &mut batch)
            .unwrap();
        fanout.publish(&batch)
    };
    let (mut lane_a, mut lane_b) = (build(), build());
    let mut replica = Replica::new();
    for step in 0..7u32 {
        // Cycle 0 carries the two subscriptions' installs.
        let installs = [knn(0, 0.1, 3), knn(1, 0.9, 2)];
        let queries = if step == 0 { &installs[..] } else { &[] };
        for lane in [&mut lane_a, &mut lane_b] {
            cycle(lane, step % 12, 0.08 + f64::from(step) * 0.03, queries);
        }
        for d in lane_b.1.drain(QueryId(0)) {
            replica.apply(&d);
        }
        lane_a.1.drain(QueryId(0));
    }
    let epoch_before = lane_b.0.server().epoch();
    // Quiet cycles emit no delta, so the replica's epoch may trail the
    // server's; its *result* is nonetheless current.
    assert!(replica.epoch() <= epoch_before);

    // Crash lane B: server and fan-out (with query 1's never-drained
    // backlog) are gone; recover from the snapshot and journal bytes.
    let (durable, report) =
        DurableCpmServer::recover(lane_b.0.snapshot_bytes(), lane_b.0.journal_bytes(), 4).unwrap();
    drop(lane_b);
    assert_eq!(report.epoch, epoch_before);
    durable.server().check_invariants();
    // Rebuild the fan-out at the recovered epoch, every live query's
    // subscription seeded from its current result — an empty seed would
    // corrupt the authoritative replica on the next reorder delta.
    let mut fanout = DeltaFanout::from_epoch(report.epoch);
    for id in [QueryId(0), QueryId(1)] {
        assert!(fanout.subscribe_from(id, durable.server().result(id).unwrap()));
    }
    let mut restored = (durable, fanout);

    // Epoch numbering and the delta stream continue exactly where the
    // uninterrupted deployment's do.
    let receipt_a = cycle(&mut lane_a, 7, 0.12, &[]);
    let receipt_b = cycle(&mut restored, 7, 0.12, &[]);
    assert_eq!(receipt_b.epoch, epoch_before + 1);
    assert_eq!(receipt_a, receipt_b);
    let stream_b = restored.1.drain(QueryId(0));
    assert!(!stream_b.is_empty(), "the move must reach query 0");
    assert_eq!(
        lane_a.1.drain(QueryId(0)),
        stream_b,
        "delta streams diverged"
    );
    for d in &stream_b {
        replica.apply(d);
    }
    let server = restored.0.server();
    assert_eq!(replica.epoch(), server.epoch());
    assert_eq!(replica.result(), server.result(QueryId(0)).unwrap());

    // A subscriber whose undrained backlog died with the crash (query 1
    // was never drained into a replica) resyncs from the authoritative
    // result and folds losslessly from there on.
    let (epoch, result) = restored.1.resync(QueryId(1)).unwrap();
    let mut lagged = Replica::from_snapshot(epoch, result);
    cycle(&mut restored, 11, 0.88, &[]);
    for d in restored.1.drain(QueryId(1)) {
        lagged.apply(&d);
    }
    let authoritative = restored.0.server().result(QueryId(1)).unwrap();
    assert_eq!(lagged.result(), authoritative);
}

/// The snapshot's structural cross-validation rejects checksum-valid but
/// internally inconsistent artifacts with a typed error — decoded input
/// can never assemble a server that panics later.
#[test]
fn snapshot_decode_rejects_inconsistent_registries() {
    let durable = durable_fixture(true);
    let mut snap = Snapshot::from_frame(durable.snapshot_bytes()).unwrap();
    snap.rnn.clear(); // orphan the RNN registration
    let reframed = encode_framed(FRAME_SNAPSHOT, &snap);
    match Snapshot::from_frame(&reframed) {
        Err(WireError::Invalid { what, .. }) => {
            assert!(what.contains("RNN"), "unexpected reason: {what}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

/// A snapshot's captured results are a fault detector: a result is the
/// `k` smallest objects under `(dist, id)`, so restore recomputes exactly
/// the captured list, and a checksum-valid snapshot whose list was edited
/// contradicts itself. Recovery refuses it with a typed error.
#[test]
fn an_edited_captured_result_is_refused_on_recovery() {
    let durable = durable_fixture(true);
    let mut snap = Snapshot::from_frame(durable.snapshot_bytes()).unwrap();
    let (_, _, _, captured) = snap
        .engine
        .queries
        .iter_mut()
        .find(|(id, _, _, _)| *id == QueryId(0))
        .unwrap();
    captured.swap(0, 1);
    let reframed = encode_framed(FRAME_SNAPSHOT, &snap);
    let err = DurableCpmServer::recover(&reframed, durable.journal_bytes(), 0).unwrap_err();
    assert_eq!(
        err,
        RecoveryError::Apply {
            seq: snap.watermark,
            error: CpmError::CapturedResultMismatch(QueryId(0)),
        }
    );
    // The untouched frame recovers.
    assert!(
        DurableCpmServer::recover(durable.snapshot_bytes(), durable.journal_bytes(), 0).is_ok()
    );
}

/// A snapshot's watermark names the last journal record it covers; the
/// next record is `watermark + 1`. A checksum-valid snapshot at the last
/// sequence number leaves none, so recovery refuses it with a typed
/// error instead of numbering the next record 0 (which a later recovery
/// from the same snapshot would drop) or overflowing.
#[test]
fn a_snapshot_at_the_last_sequence_number_is_refused_on_recovery() {
    let durable = durable_fixture(true);
    let mut snap = Snapshot::from_frame(durable.snapshot_bytes()).unwrap();
    snap.watermark = u64::MAX;
    let reframed = encode_framed(FRAME_SNAPSHOT, &snap);
    match DurableCpmServer::recover(&reframed, &[], 0) {
        Err(RecoveryError::Wire(WireError::Invalid { what, .. })) => {
            assert!(what.contains("watermark"), "unexpected reason: {what}");
        }
        Err(other) => panic!("expected a typed wire error, got {other:?}"),
        Ok(_) => panic!("a snapshot at watermark u64::MAX recovered"),
    }
    snap.watermark = u64::MAX - 1;
    let reframed = encode_framed(FRAME_SNAPSHOT, &snap);
    let (recovered, _) = DurableCpmServer::recover(&reframed, &[], 0).unwrap();
    assert_eq!(recovered.watermark(), u64::MAX - 1);
}

/// A checksum-valid snapshot whose query count equals the bytes left / 8
/// passes the eight-bytes-per-record floor; the records are an order of
/// magnitude wider in memory, so the reservation must follow the bytes,
/// not the count. The first (garbage) record is then a typed error.
#[test]
fn snapshot_decode_does_not_amplify_a_hostile_query_count() {
    const RECORDS: usize = 1 << 17;
    let durable = durable_fixture(true);
    let mut snap = Snapshot::from_frame(durable.snapshot_bytes()).unwrap();
    snap.engine.queries.clear();
    // An engine snapshot ends with its query table: count, then records.
    let mut payload = snap.engine.encode_to_vec();
    let count_at = payload.len() - 4;
    assert_eq!(payload[count_at..], [0; 4], "empty query table");
    payload[count_at..].copy_from_slice(&(RECORDS as u32).to_le_bytes());
    payload.resize(count_at + 4 + 8 * RECORDS, 0xFF);
    let mut frame = Vec::new();
    write_frame(&mut frame, FRAME_SNAPSHOT, &payload);

    let before = LIVE.get();
    PEAK.set(before);
    let got = Snapshot::from_frame(&frame);
    let reserved = PEAK.get() - before;
    assert!(matches!(got, Err(WireError::Invalid { .. })), "{got:?}");
    assert!(
        reserved <= 4 * frame.len(),
        "decode reserved {reserved} bytes for {} input bytes",
        frame.len()
    );
}

/// End-to-end byte stability: capture → encode → decode → restore →
/// capture again must produce identical bytes (the snapshot format is
/// canonical, so backups are comparable).
#[test]
fn snapshot_bytes_are_canonical_across_restore() {
    let durable = durable_fixture(true);
    let frame = durable.snapshot_bytes();
    let snap = Snapshot::from_frame(frame).unwrap();
    let server = cpm_suite::core::CpmServer::restore(&snap).unwrap();
    let recaptured = Snapshot::capture(&server, snap.watermark).to_frame();
    assert_eq!(frame, &recaptured[..], "snapshot round-trip changed bytes");
    // And the captured result lists decode as real neighbor data.
    let knn: Vec<Neighbor> = snap
        .engine
        .queries
        .iter()
        .find(|(id, _, _, _)| *id == QueryId(0))
        .map(|(_, _, _, captured)| captured.clone())
        .unwrap();
    assert_eq!(knn.len(), 4);
}
