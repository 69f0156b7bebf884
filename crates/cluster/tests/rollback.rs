//! A refused batch leaves the coordinator exactly as it was. Phase 1
//! checks a batch with the single node's rules and changes nothing;
//! these tests refuse a batch at its *last* event — after earlier, valid
//! events of every kind, one of them naming an id far beyond the table —
//! and then compare the coordinator, frame for frame, with a twin that
//! never saw the batch.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use cpm_cluster::{
    duplex, run_worker, ClusterConfig, ClusterCoordinator, ClusterError, TcpTransport, Transport,
    TransportError,
};
use cpm_core::{AnyQuerySpec, CycleDeltas, PointQuery, SpecEvent};
use cpm_geom::{ObjectId, Point, QueryId};
use cpm_grid::ObjectEvent;

type Log = Arc<Mutex<Vec<Vec<u8>>>>;

/// A link that keeps a copy of every frame sent through it.
struct Tap<T> {
    inner: T,
    log: Log,
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.log.lock().unwrap().push(frame.to_vec());
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.inner.recv()
    }

    fn send_owned(&mut self, frame: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        self.log.lock().unwrap().push(frame.clone());
        self.inner.send_owned(frame)
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        self.inner.recycle(frame);
    }
}

type Workers = Vec<JoinHandle<Result<(), ClusterError>>>;

fn channel_links(n: u32) -> (Vec<impl Transport>, Workers) {
    (0..n)
        .map(|_| {
            let (near, far) = duplex();
            (near, std::thread::spawn(move || run_worker(far)))
        })
        .unzip()
}

fn tcp_links(n: u32) -> (Vec<impl Transport>, Workers) {
    (0..n)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let worker =
                std::thread::spawn(move || run_worker(TcpTransport::accept_one(&listener)?));
            (TcpTransport::connect(addr).unwrap(), worker)
        })
        .unzip()
}

const WORKERS: u32 = 2;

/// The call the coordinators are cycled with.
#[derive(Clone, Copy)]
enum Call {
    /// `process_cycle`: nothing in flight between calls.
    Process,
    /// `submit_cycle`: one epoch in flight between calls, so a refusal
    /// must also leave it alone.
    Submit,
}

impl Call {
    /// Run one cycle; returns the merged batch it handed out, if any.
    fn cycle<T: Transport>(
        self,
        coord: &mut ClusterCoordinator<T>,
        (objects, queries): &(Vec<ObjectEvent>, Vec<SpecEvent<AnyQuerySpec>>),
    ) -> Result<Option<CycleDeltas>, ClusterError> {
        match self {
            Call::Process => coord.process_cycle(objects, queries).map(Some),
            Call::Submit => coord.submit_cycle(objects, queries),
        }
    }
}

fn tapped<T: Transport>(
    (links, workers): (Vec<T>, Workers),
) -> (ClusterCoordinator<Tap<T>>, Log, Workers) {
    let log = Log::default();
    let links = links
        .into_iter()
        .map(|inner| Tap {
            inner,
            log: Arc::clone(&log),
        })
        .collect();
    let config = ClusterConfig::new(16, WORKERS);
    (
        ClusterCoordinator::connect(config, links).unwrap(),
        log,
        workers,
    )
}

fn knn(id: u32, x: f64) -> SpecEvent<AnyQuerySpec> {
    SpecEvent::Install {
        id: QueryId(id),
        spec: AnyQuerySpec::Knn(PointQuery(Point::new(x, 0.5))),
        k: 2,
    }
}

fn at(i: u32) -> Point {
    Point::new(f64::from(i % 10).mul_add(0.09, 0.05), 0.5)
}

/// The batches every coordinator runs: 20 objects appear, two queries
/// install, then three cycles of moves, one with a query terminated.
fn good_cycles() -> Vec<(Vec<ObjectEvent>, Vec<SpecEvent<AnyQuerySpec>>)> {
    let appears = (0..20)
        .map(|i| ObjectEvent::Appear {
            id: ObjectId(i),
            pos: at(i),
        })
        .collect();
    let moves = |shift: u32| -> Vec<ObjectEvent> {
        (0..20)
            .step_by(3)
            .map(|i| ObjectEvent::Move {
                id: ObjectId(i),
                to: at(i + shift),
            })
            .collect()
    };
    vec![
        (appears, vec![]),
        (vec![], vec![knn(7, 0.3), knn(8, 0.7)]),
        (moves(4), vec![]),
        (moves(5), vec![SpecEvent::Terminate { id: QueryId(8) }]),
        (moves(9), vec![]),
    ]
}

/// Batches refused at their last event. Everything before it is valid:
/// a move, a disappear, and an appear of an id far beyond the table.
fn bad_cycles() -> Vec<(Vec<ObjectEvent>, Vec<SpecEvent<AnyQuerySpec>>)> {
    let valid_prefix = vec![
        ObjectEvent::Move {
            id: ObjectId(3),
            to: at(8),
        },
        ObjectEvent::Disappear { id: ObjectId(4) },
        ObjectEvent::Appear {
            id: ObjectId(5_000),
            pos: at(1),
        },
    ];
    // Valid query events ride along: a refused object event must leave
    // them unrouted too.
    let queries = vec![knn(9, 0.2), SpecEvent::Terminate { id: QueryId(7) }];
    let refused = [
        ObjectEvent::Move {
            id: ObjectId(77),
            to: at(0),
        },
        ObjectEvent::Move {
            id: ObjectId(3), // moved earlier in this batch
            to: at(0),
        },
        ObjectEvent::Move {
            id: ObjectId(4), // disappeared earlier in this batch
            to: at(0),
        },
        ObjectEvent::Disappear { id: ObjectId(78) },
        ObjectEvent::Appear {
            id: ObjectId(5), // live
            pos: at(0),
        },
        ObjectEvent::Appear {
            id: ObjectId(5_000), // appeared earlier in this batch
            pos: at(0),
        },
        ObjectEvent::Move {
            id: ObjectId(6),
            to: Point::new(f64::NAN, 0.5),
        },
        ObjectEvent::Appear {
            id: ObjectId(9_000),
            pos: Point::new(0.5, f64::INFINITY),
        },
        ObjectEvent::Move {
            id: ObjectId(6),
            to: Point::new(1.5, 0.5),
        },
    ];
    let mut bad: Vec<_> = refused
        .into_iter()
        .map(|last| {
            let mut objects = valid_prefix.clone();
            objects.push(last);
            (objects, queries.clone())
        })
        .collect();
    // ... and ones refused by their last *query* event: an unknown
    // query, and one installed earlier in this batch.
    for last in [SpecEvent::Terminate { id: QueryId(55) }, knn(9, 0.4)] {
        let mut queries = queries.clone();
        queries.push(last);
        bad.push((valid_prefix.clone(), queries));
    }
    bad
}

fn is_typed_refusal(e: &ClusterError) -> bool {
    matches!(e, ClusterError::Refused(_))
}

/// Run the good cycles on two coordinators, feeding one of them every
/// bad batch before every good one; returns nothing, asserts everything.
fn refused_batches_leave_no_trace<T: Transport>(call: Call, links: fn(u32) -> (Vec<T>, Workers)) {
    let (mut seen, seen_log, seen_workers) = tapped(links(WORKERS));
    let (mut twin, twin_log, twin_workers) = tapped(links(WORKERS));
    let (mut seen_out, mut twin_out): (Vec<CycleDeltas>, Vec<CycleDeltas>) = (vec![], vec![]);
    for good in good_cycles() {
        for bad in bad_cycles() {
            let refused = call.cycle(&mut seen, &bad);
            let e = refused.expect_err("the batch's last event is invalid");
            assert!(is_typed_refusal(&e), "{e}");
            assert_eq!(seen.objects(), twin.objects());
            assert_eq!(seen.in_flight(), twin.in_flight());
            for q in [7, 8, 9, 55] {
                assert_eq!(seen.owner(QueryId(q)), twin.owner(QueryId(q)), "query {q}");
            }
        }
        seen_out.extend(call.cycle(&mut seen, &good).unwrap());
        twin_out.extend(call.cycle(&mut twin, &good).unwrap());
    }
    seen_out.extend(seen.flush().unwrap());
    twin_out.extend(twin.flush().unwrap());
    assert_eq!(seen_out.len(), good_cycles().len());
    assert_eq!(seen_out, twin_out);
    assert!(seen_out.iter().any(|c| !c.deltas.is_empty()));
    // Frame for frame: the handshakes, then every cycle's batches.
    assert_eq!(*seen_log.lock().unwrap(), *twin_log.lock().unwrap());
    seen.shutdown().unwrap();
    twin.shutdown().unwrap();
    for w in seen_workers.into_iter().chain(twin_workers) {
        w.join().unwrap().unwrap();
    }
}

#[test]
fn process_cycle_in_process() {
    refused_batches_leave_no_trace(Call::Process, channel_links);
}

#[test]
fn submit_cycle_in_process() {
    refused_batches_leave_no_trace(Call::Submit, channel_links);
}

#[test]
fn process_cycle_tcp() {
    refused_batches_leave_no_trace(Call::Process, tcp_links);
}

#[test]
fn submit_cycle_tcp() {
    refused_batches_leave_no_trace(Call::Submit, tcp_links);
}
