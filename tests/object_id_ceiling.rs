//! An object id the dense per-object tables cannot hold — at or above
//! `ObjectId::LIMIT` — is a typed refusal on every front end: a
//! `CpmServer` cycle, a `DurableCpmServer` journal replay and a cluster
//! coordinator cycle, decided before anything is sized by the id. This
//! file holds exactly one test: the counting allocator below is
//! process-global, and a second test running beside it would pollute the
//! peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cpm_suite::cluster::{ClusterConfig, ClusterCoordinator, ClusterError};
use cpm_suite::core::{
    CpmError, CpmServerBuilder, CycleDeltas, DurableCpmServer, JournalRecord, PointQuery,
    RecoveryError,
};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::wire::{Encode, Journal};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus live/peak byte counters (statistics only,
/// hence `Relaxed`).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never influence a returned
// pointer or layout.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`
        // (the only allocator behind `alloc` above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `op` and return its output with the peak of bytes it had
/// allocated at once.
fn peak_during<T>(op: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let got = op();
    (got, PEAK.load(Ordering::Relaxed) - before)
}

/// A table slot per id up to the refused one would be gigabytes; the
/// refusals may allocate no more than this, whatever the id.
const SMALL: usize = 64 << 10;

fn appear(id: ObjectId) -> ObjectEvent {
    ObjectEvent::Appear {
        id,
        pos: Point::new(0.5, 0.5),
    }
}

#[test]
fn ids_past_the_ceiling_are_refused_before_anything_is_sized_by_them() {
    let past = [ObjectId(ObjectId::LIMIT), ObjectId(u32::MAX - 1)];
    let nudge = ObjectEvent::Move {
        id: ObjectId(1),
        to: Point::new(0.4, 0.6),
    };

    // The server: the whole batch is refused, the cycle does not run.
    let mut server = CpmServerBuilder::new(16).deltas(true).build();
    server
        .populate((0..20u32).map(|i| (ObjectId(i), Point::new(f64::from(i) / 20.0, 0.5))))
        .unwrap();
    let _ = server
        .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.5)), 3)
        .unwrap();
    let mut out = CycleDeltas::default();
    for id in past {
        let batch = [nudge, appear(id)];
        let (got, reserved) =
            peak_during(|| server.process_cycle_with_deltas_into(&batch, &[], &mut out));
        assert_eq!(got, Err(CpmError::ObjectIdOutOfRange(id)));
        assert!(reserved <= SMALL, "refusing {id} reserved {reserved} bytes");
        assert_eq!(server.epoch(), 0, "a refused batch ran");
    }
    // The first offending event decides the error.
    let bad_nudge = ObjectEvent::Move {
        id: ObjectId(1),
        to: Point::new(f64::NAN, 0.5),
    };
    let refused =
        server.process_cycle_with_deltas_into(&[bad_nudge, appear(past[1])], &[], &mut out);
    assert_eq!(refused, Err(CpmError::NonFiniteCoordinate(ObjectId(1))));
    let refused =
        server.process_cycle_with_deltas_into(&[appear(past[1]), bad_nudge], &[], &mut out);
    assert_eq!(refused, Err(CpmError::ObjectIdOutOfRange(past[1])));
    server.check_invariants();

    // Durable replay: a journal that carries such a batch (a corrupted or
    // hand-built artifact — the server never journals a refused cycle)
    // fails recovery with the same typed error.
    let durable = DurableCpmServer::new(server, 0);
    let mut journal = Journal::new(durable.watermark());
    let record = JournalRecord::Cycle {
        object_events: vec![nudge, appear(past[1])],
        query_events: Vec::new(),
    };
    journal.append(&record.encode_to_vec());
    let snapshot = durable.snapshot_bytes().to_vec();
    let (got, reserved) = peak_during(|| DurableCpmServer::recover(&snapshot, journal.bytes(), 0));
    let expected = RecoveryError::Apply {
        seq: 1,
        error: CpmError::ObjectIdOutOfRange(past[1]),
    };
    assert_eq!(got.map(|_| ()), Err(expected));
    // Rebuilding the snapshot's 20-object server is all it allocated.
    assert!(reserved <= 16 * SMALL, "replay reserved {reserved} bytes");

    // The cluster: the router refuses in phase 1, before its position
    // table grows or anything is sent.
    let config = ClusterConfig::new(16, 2);
    let (mut coordinator, workers) = ClusterCoordinator::spawn_in_process(config).unwrap();
    let fill = (0..20u32).map(|i| appear(ObjectId(i)));
    coordinator
        .process_cycle(&fill.collect::<Vec<_>>(), &[])
        .unwrap();
    for id in past {
        let batch = [nudge, appear(id)];
        let (got, reserved) = peak_during(|| coordinator.process_cycle(&batch, &[]));
        assert_eq!(
            got,
            Err(ClusterError::Refused(CpmError::ObjectIdOutOfRange(id)))
        );
        assert!(reserved <= SMALL, "routing {id} reserved {reserved} bytes");
    }
    coordinator.process_cycle(&[nudge], &[]).unwrap();
    coordinator.shutdown().unwrap();
    for worker in workers {
        worker.join().unwrap().unwrap();
    }
}
