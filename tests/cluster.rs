//! Distributed conformance: the single-node-equivalence guarantee over
//! worker counts, transports and the two cycle calls, plus the typed
//! failure surface (misrouted batches, a reply naming the wrong worker,
//! version skew, a `Hello` naming the removed quadtree index, escaped
//! influence regions, composite-query refusal).

mod common;

use std::num::NonZeroUsize;

use common::{lane, quadtree_era_frame};
use cpm_suite::cluster::{
    duplex, run_worker, ChannelTransport, ClusterConfig, ClusterCoordinator, ClusterError,
    ClusterWorker, Transport, TransportError, WorkerHandle,
};
use cpm_suite::core::{
    AnyQuerySpec, CpmError, CpmServerBuilder, CycleDeltas, PointQuery, SpecEvent,
};
use cpm_suite::geom::{ObjectId, Point, QueryId};
use cpm_suite::grid::ObjectEvent;
use cpm_suite::sim::{verify, Anchors, Control, Deploy, LaneConfig, OpStream, Regrid};
use cpm_suite::sub::DeltaFanout;
use cpm_suite::wire::cluster::{
    deltas_frame_into, BatchFrame, BatchRef, ClusterMsg, ClusterReject, DeltasHeader, TileRect,
};
use cpm_suite::wire::{Encode, FRAME_CLUSTER, WIRE_VERSION};

/// The two calls a caller cycles a cluster with.
#[derive(Clone, Copy)]
enum Call {
    /// `process_cycle`: each cycle's own merged batch, at once.
    Process,
    /// `submit_cycle` + `flush`: each batch one call late, the last from
    /// `flush` — what the harness's cluster lanes drive.
    Submit,
}

/// Replay seeded mixed-kind streams — anchors pinned to the ownership
/// strips, a worker hot-swapped by snapshot transfer before cycle 5, a
/// k-NN installed out of band before cycle 6 — into one cluster per
/// worker count over the given transport, through the given call.
fn run(tcp: bool, call: Call, seeds: &[u64], worker_counts: &[u32]) {
    let extra = Control::InstallOutOfBand {
        id: QueryId(5000),
        pos: Point::new(0.375, 0.5),
        k: 2,
    };
    let clusters: Vec<LaneConfig> = worker_counts
        .iter()
        .map(|&workers| lane(1, Regrid::Pinned, Deploy::Cluster { workers, tcp }))
        .collect();
    for &seed in seeds {
        let stream = OpStream::mixed(seed, 120, 12, Anchors::Strips)
            .control(5, Control::RestartWorker(seed as usize))
            .control(6, extra);
        match call {
            Call::Submit => {
                verify(&stream, &clusters);
            }
            Call::Process => {
                for &workers in worker_counts {
                    let config = ClusterConfig::new(stream.grid_dim, workers)
                        .overlap((stream.grid_dim / 3).max(1));
                    if tcp {
                        let spawned = ClusterCoordinator::spawn_tcp_loopback(config).unwrap();
                        let restart = ClusterCoordinator::restart_worker_tcp_loopback;
                        process_cycle_matches_single_node(&stream, spawned, restart);
                    } else {
                        let spawned = ClusterCoordinator::spawn_in_process(config).unwrap();
                        let restart = ClusterCoordinator::restart_worker_in_process;
                        process_cycle_matches_single_node(&stream, spawned, restart);
                    }
                }
            }
        }
    }
}

type Restart<T> = fn(&mut ClusterCoordinator<T>, usize) -> Result<WorkerHandle, ClusterError>;

/// Replay `stream` through `process_cycle` beside the harness's reference
/// server (one thread, deltas on) and compare every batch bit for bit.
fn process_cycle_matches_single_node<T: Transport>(
    stream: &OpStream,
    (mut coord, mut handles): (ClusterCoordinator<T>, Vec<WorkerHandle>),
    restart: Restart<T>,
) {
    let mut single = CpmServerBuilder::new(stream.grid_dim)
        .threads(NonZeroUsize::MIN)
        .deltas(true)
        .build();
    let mut want = CycleDeltas::default();
    for ops in &stream.cycles {
        match ops.control {
            Some(Control::RestartWorker(w)) => {
                let w = w % coord.config().workers as usize;
                handles.push(restart(&mut coord, w).unwrap());
            }
            Some(Control::InstallOutOfBand { id, pos, k }) => {
                let spec = AnyQuerySpec::Knn(PointQuery(pos));
                let _ = single.install_spec(id, spec.clone(), k).unwrap();
                coord
                    .install(&[SpecEvent::Install { id, spec, k }])
                    .unwrap();
            }
            _ => {}
        }
        let (objects, queries) = (&ops.object_events, &ops.spec_events);
        single
            .process_cycle_with_deltas_into(objects, queries, &mut want)
            .unwrap();
        let got = coord.process_cycle(objects, queries).unwrap();
        assert_eq!(got, want, "{}: epoch {} diverged", stream.label, want.epoch);
        assert_eq!(coord.in_flight(), 0);
    }
    coord.shutdown().unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// The headline conformance run: W ∈ {1, 2, 4} in-process workers
/// driven through `process_cycle`. Every merged delta batch and changed
/// list must be bit-identical to the single-node reference.
#[test]
fn cluster_is_bit_identical_to_single_node() {
    run(false, Call::Process, &[1, 5], &[1, 2, 4]);
}

/// The same protocol over real `std::net::TcpStream` loopback links.
#[test]
fn tcp_loopback_cluster_is_bit_identical_to_single_node() {
    run(true, Call::Process, &[9], &[2]);
}

/// The headline run through `submit_cycle`: routing for epoch *e+1*
/// overlaps the merge of epoch *e*, so batches surface one cycle late and
/// the tail through `flush` — bit-identical all the same (replicas and
/// brute force included), across a restart that must collect the epoch
/// in flight first.
#[test]
fn pipelined_cluster_is_bit_identical_to_single_node() {
    run(false, Call::Submit, &[1, 5], &[1, 2, 4]);
}

/// `submit_cycle` over TCP loopback, restart included.
#[test]
fn pipelined_tcp_loopback_cluster_is_bit_identical_to_single_node() {
    run(true, Call::Submit, &[9], &[2]);
}

/// The submission surface itself: the first `submit_cycle` returns
/// `None`, every later one returns the *previous* cycle, and `flush`
/// drains the tail — so a `submit_cycle` caller sees the exact batches a
/// `process_cycle` caller sees, one call later.
#[test]
fn pipelined_submit_lags_by_one_cycle_and_flush_drains() {
    let (mut direct, direct_handles) =
        ClusterCoordinator::spawn_in_process(ClusterConfig::new(16, 2)).unwrap();
    let (mut coord, handles) =
        ClusterCoordinator::spawn_in_process(ClusterConfig::new(16, 2)).unwrap();
    let appears: Vec<ObjectEvent> = (0..16)
        .map(|i| ObjectEvent::Appear {
            id: ObjectId(i),
            pos: Point::new(f64::from(i).mul_add(0.06, 0.02), 0.5),
        })
        .collect();
    let install = [SpecEvent::Install {
        id: QueryId(7),
        spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.5, 0.5))),
        k: 3,
    }];
    let moves = [ObjectEvent::Move {
        id: ObjectId(3),
        to: Point::new(0.52, 0.5),
    }];

    let a1 = direct.process_cycle(&appears, &[]).unwrap();
    let a2 = direct.process_cycle(&[], &install).unwrap();
    let a3 = direct.process_cycle(&moves, &[]).unwrap();

    // First call: epoch 1 is in flight, nothing merged yet.
    assert_eq!(coord.submit_cycle(&appears, &[]).unwrap(), None);
    assert_eq!(coord.in_flight(), 1);
    // Each later submit yields the previous cycle's merge.
    assert_eq!(coord.submit_cycle(&[], &install).unwrap(), Some(a1));
    assert_eq!(coord.submit_cycle(&moves, &[]).unwrap(), Some(a2));
    // The tail drains through flush.
    assert_eq!(coord.flush().unwrap(), vec![a3]);
    assert_eq!(coord.in_flight(), 0);
    assert_eq!(coord.epoch(), direct.epoch());

    direct.shutdown().unwrap();
    coord.shutdown().unwrap();
    for h in direct_handles.into_iter().chain(handles) {
        h.join().unwrap().unwrap();
    }
}

/// Satellite: a misrouted object event is a *batch-level* typed
/// rejection — the worker refuses before any state change, so a
/// corrected batch for the same epoch still applies cleanly.
#[test]
fn misrouted_update_is_rejected_without_state_change() {
    let (mut coord_side, worker_side) = duplex();
    let handle = std::thread::spawn(move || run_worker(worker_side));

    // Worker 0 of a 4-way 16×16 split, no overlap: coverage is columns
    // 0..=3, i.e. x < 0.25.
    let tile = TileRect::new(0, 0, 3, 15);
    let hello = ClusterMsg::Hello {
        version: WIRE_VERSION,
        worker: 0,
        dim: 16,
        tile,
        coverage: tile,
    };
    coord_side.send(&hello.to_frame()).unwrap();
    let ack = ClusterMsg::from_frame(&coord_side.recv().unwrap()).unwrap();
    assert!(matches!(ack, ClusterMsg::HelloAck { epoch: 0, .. }));

    let queries = Vec::<SpecEvent<AnyQuerySpec>>::new().encode_to_vec();
    let batch = |objects: &[ObjectEvent]| {
        let mut frame = BatchFrame::default();
        frame.begin(1, Vec::new());
        for ev in objects {
            frame.push(ev);
        }
        frame.finish(&queries)
    };
    let valid = ObjectEvent::Appear {
        id: ObjectId(1),
        pos: Point::new(0.1, 0.5),
    };
    // A batch mixing one in-coverage appear with one misrouted appear.
    let misrouted = ObjectEvent::Appear {
        id: ObjectId(2),
        pos: Point::new(0.9, 0.5),
    };
    coord_side.send(&batch(&[valid, misrouted])).unwrap();
    match ClusterMsg::from_frame(&coord_side.recv().unwrap()).unwrap() {
        ClusterMsg::Reject { worker, reject } => {
            assert_eq!(worker, 0);
            assert_eq!(
                ClusterError::from_reject(worker, reject),
                ClusterError::PartitionMismatch {
                    oid: ObjectId(2),
                    tile,
                }
            );
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }

    // The whole batch was refused: epoch 1 is still open, and the
    // corrected batch (including the event that *was* valid) applies.
    coord_side.send(&batch(&[valid])).unwrap();
    let reply = coord_side.recv().unwrap();
    let deltas = DeltasHeader::from_frame(&reply).unwrap();
    assert_eq!(deltas.map(|d| (d.worker, d.epoch)), Some((0, 1)));

    coord_side.send(&ClusterMsg::Shutdown.to_frame()).unwrap();
    handle.join().unwrap().unwrap();
}

/// A worker that handshakes under the index its `Hello` gives it, then
/// answers its first batch with a well-formed `Deltas` frame naming
/// worker `claim`, and waits for the coordinator to hang up.
fn misnamed_worker(mut link: ChannelTransport, claim: u32) {
    let ClusterMsg::Hello { worker, .. } = ClusterMsg::from_frame(&link.recv().unwrap()).unwrap()
    else {
        panic!("the handshake opens with a Hello");
    };
    let ack = ClusterMsg::HelloAck {
        worker,
        version: WIRE_VERSION,
        epoch: 0,
    };
    link.send(&ack.to_frame()).unwrap();
    let frame = link.recv().unwrap();
    let mut objects = Vec::new();
    let batch = BatchRef::from_frame(&frame, &mut objects).unwrap();
    let epoch = batch.expect("a cycle's batch").epoch;
    let deltas = CycleDeltas {
        epoch,
        ..CycleDeltas::default()
    };
    let mut reply = Vec::new();
    deltas_frame_into(claim, epoch, &deltas, &mut reply);
    link.send(&reply).unwrap();
    let _ = link.recv();
}

/// A `Deltas` reply whose worker index is not the link it arrived on —
/// one past the last worker, or the other worker's — is a typed protocol
/// refusal, not a panic in the merge barrier and not an error that
/// blames a conflict or an incomplete barrier.
#[test]
fn deltas_naming_another_worker_are_refused_typed() {
    for claim in [2, 0] {
        let (honest, honest_far) = duplex();
        let (liar, liar_far) = duplex();
        let worker = std::thread::spawn(move || run_worker(honest_far));
        let fake = std::thread::spawn(move || misnamed_worker(liar_far, claim));
        let mut coord =
            ClusterCoordinator::connect(ClusterConfig::new(16, 2), vec![honest, liar]).unwrap();
        match coord.process_cycle(&[], &[]) {
            Err(ClusterError::Protocol { what }) => {
                assert!(what.contains("another worker"), "{what}");
            }
            other => panic!("claim {claim}: expected a typed refusal, got {other:?}"),
        }
        coord.shutdown().unwrap();
        worker.join().unwrap().unwrap();
        fake.join().unwrap();
    }
}

/// A worker greeting a coordinator from a different wire version refuses
/// the handshake with a typed skew on both ends.
#[test]
fn version_skew_is_refused_on_both_ends() {
    let (mut coord_side, worker_side) = duplex();
    let handle = std::thread::spawn(move || run_worker(worker_side));
    let tile = TileRect::new(0, 0, 15, 15);
    let hello = ClusterMsg::Hello {
        version: WIRE_VERSION + 1,
        worker: 0,
        dim: 16,
        tile,
        coverage: tile,
    };
    coord_side.send(&hello.to_frame()).unwrap();
    match ClusterMsg::from_frame(&coord_side.recv().unwrap()).unwrap() {
        ClusterMsg::Reject { reject, .. } => assert_eq!(
            reject,
            ClusterReject::VersionSkew {
                ours: WIRE_VERSION,
                theirs: WIRE_VERSION + 1,
            }
        ),
        other => panic!("expected a version-skew rejection, got {other:?}"),
    }
    assert_eq!(
        handle.join().unwrap(),
        Err(ClusterError::VersionSkew {
            worker: 0,
            ours: WIRE_VERSION,
            theirs: WIRE_VERSION + 1,
        })
    );
}

/// A coordinator link that rewrites the `Hello` it sends into the one a
/// coordinator from before the quadtree was removed would send for a
/// quadtree cluster.
struct QuadtreeEraLink(ChannelTransport);

/// Payload offset of a `Hello`'s index tag: message tag, `u16` version,
/// `u32` worker, `u32` dim.
const HELLO_INDEX_TAG_AT: usize = 1 + 2 + 4 + 4;

impl Transport for QuadtreeEraLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        assert!(
            matches!(ClusterMsg::from_frame(frame), Ok(ClusterMsg::Hello { .. })),
            "the handshake sends a Hello and, refused, nothing else"
        );
        self.0.send(&quadtree_era_frame(
            FRAME_CLUSTER,
            frame,
            HELLO_INDEX_TAG_AT,
        ))
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.0.recv()
    }
}

/// A `Hello` naming the quadtree index is refused, not obeyed and not a
/// panic: the worker answers with a `Reject` that carries the typed wire
/// error and exits cleanly, and the coordinator's handshake surfaces it
/// as a `ClusterError` for the worker whose link it came back on.
#[test]
fn quadtree_hello_is_rejected_and_the_worker_exits_cleanly() {
    let (coord_side, worker_side) = duplex();
    let handle = std::thread::spawn(move || run_worker(worker_side));
    let refused =
        ClusterCoordinator::connect(ClusterConfig::new(16, 1), vec![QuadtreeEraLink(coord_side)]);
    match refused {
        Err(ClusterError::Engine { worker: 0, detail }) => {
            assert!(
                detail.contains("quadtree index backend is no longer supported"),
                "{detail}"
            );
            let at = format!("offset {HELLO_INDEX_TAG_AT}");
            assert!(detail.contains(&at), "{detail} should name the tag's {at}");
        }
        Err(other) => panic!("expected the worker's typed refusal, got {other}"),
        Ok(_) => panic!("a quadtree Hello was accepted"),
    }
    assert_eq!(handle.join().unwrap(), Ok(()));
}

/// A between-cycles `Install` the worker refuses changes nothing on it:
/// the whole sub-batch is checked before its first event applies.
#[test]
fn a_refused_install_leaves_the_worker_unchanged() {
    let tile = TileRect::new(0, 0, 15, 15);
    let mut worker = ClusterWorker::new(0, 16, tile, tile).unwrap();
    let spec = AnyQuerySpec::Knn(PointQuery(Point::new(0.5, 0.5)));
    let events = vec![
        SpecEvent::Install {
            id: QueryId(5),
            spec: spec.clone(),
            k: 1,
        },
        SpecEvent::Update {
            id: QueryId(6),
            spec,
        },
    ];
    let payload = events.encode_to_vec();
    match worker.handle(ClusterMsg::Install { payload }) {
        Some(ClusterMsg::Reject { worker: 0, reject }) => assert_eq!(
            ClusterError::from_reject(0, reject),
            ClusterError::engine(0, &CpmError::UnknownQuery(QueryId(6)))
        ),
        other => panic!("expected a Reject, got {other:?}"),
    }
    assert_eq!(worker.server().kind_of(QueryId(5)), None);
    assert_eq!(worker.server().query_count(), 0);
}

/// Sticky ownership: an update that moves a query's anchor off its
/// owner's tile is refused by the coordinator before anything is sent.
#[test]
fn query_anchor_leaving_its_tile_is_typed() {
    let (mut coord, handles) =
        ClusterCoordinator::spawn_in_process(ClusterConfig::new(16, 4)).unwrap();
    // Objects first (an unfilled k-NN would be unbounded), then the query.
    let appears: Vec<ObjectEvent> = (0..32)
        .map(|i| ObjectEvent::Appear {
            id: ObjectId(i),
            pos: Point::new(f64::from(i % 8).mul_add(0.124, 0.01), 0.5),
        })
        .collect();
    coord.process_cycle(&appears, &[]).unwrap();
    coord
        .process_cycle(
            &[],
            &[SpecEvent::Install {
                id: QueryId(0),
                spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.1, 0.5))),
                k: 2,
            }],
        )
        .unwrap();
    assert_eq!(coord.owner(QueryId(0)), Some(0));
    let err = coord
        .process_cycle(
            &[],
            &[SpecEvent::Update {
                id: QueryId(0),
                spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.9, 0.5))),
            }],
        )
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::QueryOutOfTile { qid, .. } if qid == QueryId(0)),
        "expected a typed out-of-tile refusal, got {err}"
    );
    // Nothing was sent: the cluster is still aligned and keeps running.
    coord.process_cycle(&[], &[]).unwrap();
    coord.shutdown().unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// A k-NN whose influence region no finite coverage can certify (the
/// result cannot fill) fails typed, never silently wrong.
#[test]
fn uncertifiable_influence_region_is_typed() {
    let (mut coord, handles) =
        ClusterCoordinator::spawn_in_process(ClusterConfig::new(16, 2).overlap(1)).unwrap();
    // One object in the whole workspace: a k = 2 query can never fill.
    let err = coord
        .process_cycle(
            &[ObjectEvent::Appear {
                id: ObjectId(0),
                pos: Point::new(0.1, 0.5),
            }],
            &[SpecEvent::Install {
                id: QueryId(0),
                spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.1, 0.5))),
                k: 2,
            }],
        )
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::CoverageExceeded { qid, .. } if qid == QueryId(0)),
        "expected a typed coverage refusal, got {err}"
    );
    drop(coord);
    for h in handles {
        let _ = h.join().unwrap();
    }
}

/// Composite (reverse-NN) queries have no single anchor and are refused
/// at the routing layer, as the single node refuses a bare sector spec.
#[test]
fn composite_queries_are_refused_by_the_router() {
    let (mut coord, handles) =
        ClusterCoordinator::spawn_in_process(ClusterConfig::new(16, 2)).unwrap();
    let err = coord
        .install(&[SpecEvent::Install {
            id: QueryId(0),
            spec: AnyQuerySpec::Rnn(cpm_suite::core::RnnQuery::new(Point::new(0.5, 0.5), 0)),
            k: 1,
        }])
        .unwrap_err();
    assert_eq!(
        err,
        ClusterError::Refused(CpmError::CompositeQuery(QueryId(0)))
    );
    assert_eq!(coord.owner(QueryId(0)), None);
    coord.shutdown().unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// The fan-out handoff: merged batches published straight into a
/// [`DeltaFanout`] reach subscribers with contiguous epochs.
#[test]
fn merged_deltas_feed_the_subscription_fanout() {
    let (mut coord, handles) =
        ClusterCoordinator::spawn_in_process(ClusterConfig::new(16, 2)).unwrap();
    let mut fanout = DeltaFanout::new();
    fanout.subscribe(QueryId(7));
    let appears: Vec<ObjectEvent> = (0..16)
        .map(|i| ObjectEvent::Appear {
            id: ObjectId(i),
            pos: Point::new(f64::from(i).mul_add(0.06, 0.02), 0.5),
        })
        .collect();
    let r1 = fanout.publish(&coord.process_cycle(&appears, &[]).unwrap());
    assert_eq!(r1.epoch, 1);
    let install = SpecEvent::Install {
        id: QueryId(7),
        spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.5, 0.5))),
        k: 3,
    };
    let r2 = fanout.publish(&coord.process_cycle(&[], &[install]).unwrap());
    assert_eq!((r2.epoch, r2.deltas), (2, 1));
    let drained = fanout.drain(QueryId(7));
    assert_eq!(drained.len(), 1);
    assert_eq!(drained[0].added.len(), 3);
    coord.shutdown().unwrap();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}
