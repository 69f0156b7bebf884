//! Crash-recovery conformance: the seeded chaos schedules of
//! `cpm_sim::verify_recovery`, fuzzed corruption of snapshot and journal
//! artifacts (typed errors with offset context, never a panic), and
//! continuity of the subscription layer across a restore.

use cpm_suite::core::snapshot::{JournalRecord, Snapshot};
use cpm_suite::core::{
    CpmServerBuilder, DurableCpmServer, EngineSnapshot, Neighbor, PointQuery, RecoveryError,
};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::sim::verify_recovery;
use cpm_suite::sub::{KnnSubscriptionHub, Replica, SubscriptionHub};
use cpm_suite::wire::{
    decode_framed, encode_framed, write_frame, Decode, Encode, WireError, FRAME_SNAPSHOT,
};

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

/// Case budget capped by `PROPTEST_CASES` (the CI conformance job's
/// wall-time bound), mirroring the delta-replay suite.
fn case_budget(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(default_cases, |cap: u32| cap.min(default_cases))
}

/// The headline chaos run: seeded crash schedules spanning every
/// corruption class (clean crash, torn tail, duplicated and reordered
/// frames, flipped bits in journal and snapshot), sequential and at four
/// shards. Every trial must recover to a server bit-identical to one
/// that never crashed — results, changed lists, delta streams.
#[test]
fn chaos_schedules_recover_bit_identically() {
    let seeds: Vec<u64> = (0..24).collect();
    // Sanity: this seed range must actually exercise every corruption
    // class, or the suite silently shrinks.
    let classes: std::collections::HashSet<_> = seeds
        .iter()
        .map(|&s| cpm_suite::gen::FaultPlan::from_seed(s, 10).corruption)
        .collect();
    assert_eq!(classes.len(), 6, "seed range misses classes: {classes:?}");
    verify_recovery(80, 10, 16, &seeds, &[1, 4]);
}

/// `checkpointed = true` folds the installs and cycles into the snapshot
/// (rich snapshot, empty journal); `false` leaves them as journal records
/// over the empty initial snapshot.
fn durable_fixture(checkpointed: bool) -> DurableCpmServer {
    let mut server = CpmServerBuilder::new(16).shards(2).build();
    server.populate((0..40u32).map(|i| {
        let t = f64::from(i) / 40.0;
        (ObjectId(i), Point::new(t, (t * 2.3) % 1.0))
    }));
    let mut durable = DurableCpmServer::new(server, 0);
    let _ = durable
        .install_knn(QueryId(0), Point::new(0.4, 0.4), 4)
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

/// A restored subscription hub resumes epoch numbering exactly one past
/// the captured epoch, streams deltas bit-identical to an uninterrupted
/// hub, and a replica that lost its backlog in the crash recovers via the
/// ordinary resync path.
#[test]
fn restored_hub_resumes_epochs_and_replicas_resync() {
    let build = || {
        let mut hub = KnnSubscriptionHub::new(16, 2);
        hub.populate(
            (0..12u32).map(|i| (ObjectId(i), Point::new((f64::from(i) + 0.5) / 12.0, 0.5))),
        );
        hub.subscribe_knn(QueryId(0), Point::new(0.1, 0.5), 3);
        hub.subscribe_knn(QueryId(1), Point::new(0.9, 0.5), 2);
        hub
    };
    let mut lane_a = build();
    let mut lane_b = build();
    let mut replica = Replica::new();
    for step in 0..6u32 {
        let ev = ObjectEvent::Move {
            id: ObjectId(step % 12),
            to: Point::new(0.08 + f64::from(step) * 0.03, 0.5),
        };
        for hub in [&mut lane_a, &mut lane_b] {
            hub.push_update(ev);
            hub.commit();
        }
        let _ = lane_a.drain(QueryId(1));
        let _ = lane_b.drain(QueryId(1));
        for d in lane_b.drain(QueryId(0)) {
            replica.apply(&d);
        }
        lane_a.drain(QueryId(0));
    }
    let epoch_before = lane_b.epoch();
    // Quiet cycles emit no delta, so the replica's epoch may trail the
    // hub's; its *result* is nonetheless current.
    assert!(replica.epoch() <= epoch_before);

    // Crash lane B; restore its engine from a serialized snapshot.
    let frame = encode_framed(FRAME_SNAPSHOT, &EngineSnapshot::capture(lane_b.engine()));
    drop(lane_b);
    let snap: EngineSnapshot<PointQuery> = decode_framed(FRAME_SNAPSHOT, &frame).unwrap();
    let mut restored = SubscriptionHub::from_engine(snap.restore().unwrap());
    assert_eq!(restored.epoch(), epoch_before);
    assert_eq!(restored.subscription_count(), 2);
    restored.check_invariants();

    // Epoch numbering and the delta stream continue exactly where the
    // uninterrupted hub's do.
    let ev = ObjectEvent::Move {
        id: ObjectId(7),
        to: Point::new(0.12, 0.5),
    };
    // `restored` runs on the snapshot's recorded backend (`DynIndex`), so
    // the two hubs are distinct types; the streams must still match.
    lane_a.push_update(ev);
    restored.push_update(ev);
    let receipt_a = lane_a.commit();
    let receipt_b = restored.commit();
    assert_eq!(receipt_b.epoch, epoch_before + 1);
    assert_eq!(receipt_a, receipt_b);
    let stream_a = lane_a.drain(QueryId(0));
    let stream_b = restored.drain(QueryId(0));
    assert_eq!(stream_a, stream_b, "post-restore delta streams diverged");
    for d in &stream_b {
        replica.apply(d);
    }
    let (epoch, authoritative) = restored.snapshot(QueryId(0)).unwrap();
    assert_eq!(replica.epoch(), epoch);
    assert_eq!(replica.result(), authoritative);

    // A subscriber whose undrained backlog died with the crash (query 1
    // was never drained into a replica) resyncs from the authoritative
    // snapshot and folds losslessly from there on.
    let (epoch, result) = restored.resync(QueryId(1));
    let mut lagged: Replica = Replica::from_snapshot(epoch, result);
    restored.push_update(ObjectEvent::Move {
        id: ObjectId(11),
        to: Point::new(0.88, 0.5),
    });
    restored.commit();
    for d in restored.drain(QueryId(1)) {
        lagged.apply(&d);
    }
    assert_eq!(lagged.result(), restored.snapshot(QueryId(1)).unwrap().1);
    restored.check_invariants();
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
